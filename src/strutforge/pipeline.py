"""End-to-end dimension pipeline: the guards, then a cell's blocks,
ranks and witness functionals.

Every cell takes one path, whichever its space: a single-Y cell is the
slice of the forests of degree n + 2 with n + 1 components
(``bases.BasisSpec``), and its bases and rows come from the same
generators as a full cell's.  ``check_caps`` runs the domain checks and
the capacity guards on the cell's exact counts (``bases.check_cell``)
before anything is listed; ``dim``, ``witness`` and ``relations`` all
call it first.  A
dimension run then ranks the cell block by block (one prime when a
block's rank certifies itself, more otherwise), sums the weighted block
counts and emits an immutable ResultRecord.  The records, the run
defaults and the JSON-lines result cache live in ``records``, which
imports no engine module; this module re-exports their names, and
``ResultCache.get_or_compute`` imports it only on a cache miss.

No cell's relations are built whole.  Its diagrams split by leaf-colour
multiset M, and every relation row is homogeneous in M (see
``relations``): a link row's terms all have the leaves of its
configuration, and an IHX rewiring keeps a diagram's leaves.  So the
relation matrix is block diagonal and its rank is the sum of the block
ranks.  A colour permutation s maps block M onto block sM: a diagram
goes to the diagram with permuted colours, up to the signs its
components pick up on canonicalization, and a configuration of M goes to
the permuted configuration of sM, whose row is the image of the first
under that signed column bijection.  Rank ignores a signed permutation
of the columns, and distinct rows stay distinct, so every block of an
orbit has the same columns, distinct nonzero rows, IHX instances and
rank, and the cell ranks one representative block per orbit
(``bases.leaf_orbits``) weighted by the orbit's size.  A block-diagonal
rank is exact when every block's rank meets its own bound, so the cell
is certified when every block is.  ``witness`` reads the same blocks
(``sparse_witness``); only the ``relations`` dump builds a cell whole.
"""

from __future__ import annotations

import math
import time
from typing import Iterator, Optional, Sequence

from .bases import (
    Basis,
    BasisSpec,
    check_cell,
    enumerate_basis,
    enumerate_y_basis,
    leaf_orbits,
)
from .diagrams import recoloured_encoding
from .errors import DomainError
from .linalg import SparseMatrix, cokernel_functionals, rank_multiprime
# The records layer's names stay importable from here as well.
from .records import (
    CACHE_ENV_VAR,
    CACHE_FILENAME,
    CSV_HEADER,
    DEFAULT_MAX_ELEMENTS,
    DEFAULT_MAX_ROWS,
    DEFAULT_PRIMES,
    TOOL_VERSION,
    Mode,
    ResultCache,
    ResultRecord,
    is_prime,
    resolve_cache_dir,
)
# count_link_configs, y_link_config_count and y_link_relations are not
# called here: they are imported only to stay attributes of this module,
# where perfbench/traced_op.py wraps them and tests/test_y_graded.py
# patches y_link_relations.
from .relations import (
    RelationRow,
    coefficient_bound,
    count_ihx_instances,
    count_link_configs,
    ihx_relations,
    link_relations,
    y_link_config_count,
    y_link_relations,
)


def build_basis(mode: Mode, space: str, k: int, param: int,
                max_elements: int = DEFAULT_MAX_ELEMENTS,
                leaves: Optional[Sequence[int]] = None) -> Basis:
    """The cell's basis, or its block with leaf multiset ``leaves``."""
    BasisSpec(mode, k, space, param)  # refuses an unknown space
    return (enumerate_y_basis if space == "y" else enumerate_basis)(
        k, param, mode, max_elements, leaves)


def build_relations(mode: Mode, space: str, k: int, param: int, basis: Basis,
                    max_rows: int = DEFAULT_MAX_ROWS
                    ) -> tuple[list[RelationRow], int]:
    """(deduplicated nonzero rows, IHX instances) over a cell's or a
    block's basis.

    The link configurations are counted once per cell, by
    ``check_caps``; the IHX instances, one per internal edge of a
    column, here (a single-Y basis has none).
    """
    d = BasisSpec(mode, k, space, param).degree
    link = link_relations(k, d, mode, basis, max_rows, provenance=False)
    ihx = ihx_relations(k, d, mode, basis, provenance=False)
    seen = {row.entries: row for row in link}
    for row in ihx:
        seen.setdefault(row.entries, row)
    return [seen[key] for key in sorted(seen)], count_ihx_instances(basis)


def _check_prime_bound(space: str, param: int, primes: Sequence[int]) -> None:
    """Reject, before any work, a "prime" that is not prime or does not
    exceed the largest coefficient the cell's relation rows can have; the
    rank routines check again only the primes they use."""
    bound = coefficient_bound(space, param)
    for p in primes:
        if not is_prime(p):
            raise DomainError(f"{p} is not a prime")
        if p <= bound:
            raise DomainError(
                f"prime {p} does not exceed the coefficient bound {bound} of this space")


def check_caps(mode: Mode, space: str, k: int, param: int,
               max_elements: float = math.inf, max_rows: float = math.inf
               ) -> tuple[int, int]:
    """(basis size, raw link configurations) of a cell, after its domain
    checks and, in this order, the basis and configuration caps, all on
    exact counts.

    ``dim``, ``witness`` and ``relations`` run it before they list
    anything (``bases.check_cell``).
    """
    return check_cell(BasisSpec(mode, k, space, param), max_elements, max_rows)


def _blocks(mode: Mode, space: str, k: int, param: int) -> Iterator[
        tuple[tuple[int, ...], int, Basis, list[RelationRow], int]]:
    """(leaf multiset, weight, basis, distinct nonzero rows, IHX
    instances) of the blocks a cell is ranked by: one representative
    block with columns per orbit of the colour permutations, weighted by
    the orbit's size."""
    for leaves, orbit in leaf_orbits(k, space, param):
        block = build_basis(mode, space, k, param, leaves=leaves)
        if block.elements:
            yield (leaves, orbit, block, *build_relations(mode, space, k, param, block))


def compute_dimension(mode: Mode, space: str, k: int, param: int,
                      primes: Sequence[int] = DEFAULT_PRIMES,
                      max_elements: int = DEFAULT_MAX_ELEMENTS,
                      max_rows: int = DEFAULT_MAX_ROWS) -> ResultRecord:
    """Full pipeline for one cell: the guards, then each block's basis,
    relations and certified or multi-prime rank.

    Columns, distinct nonzero rows and rank are the block counts times
    their weights.  The raw relation count is the cell's link
    configurations plus the weighted IHX instances of its blocks.  The
    cell is certified when every block is, and ``primes`` is every prime
    a block's rank came from, in first-use order: ``primes[:1]`` when
    every block certified on the first prime.  The record's
    ``timestamp`` is the finishing time in UTC to the second, as
    ``2026-10-19T12:01:30+00:00``.
    """
    if len(set(primes)) < 2:
        raise DomainError("need at least two distinct primes")
    _check_prime_bound(space, param, primes)
    start = time.monotonic()
    _, raw = check_caps(mode, space, k, param, max_elements, max_rows)
    cols = num_rows = rank = 0
    used: list[int] = []
    certified = True
    for _, weight, basis, rows, ihx in _blocks(mode, space, k, param):
        result = rank_multiprime(SparseMatrix.from_rows(rows, len(basis)), primes)
        raw += weight * ihx
        cols += weight * len(basis)
        num_rows += weight * len(rows)
        rank += weight * result.rank
        certified = certified and result.certified
        used += [p for p in result.primes if p not in used]
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return ResultRecord(
        mode=mode.value, space=space, k=k, param=param,
        num_diagrams=cols, num_relations_raw=raw,
        num_relations_effective=num_rows, rank=rank,
        quotient_dim=cols - rank, primes=tuple(used) or tuple(primes[:1]),
        elapsed_ms=elapsed_ms, tool_version=TOOL_VERSION,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        certified=certified,
    )


def sparse_witness(mode: Mode, space: str, k: int, param: int,
                   prime: int = DEFAULT_PRIMES[0],
                   max_elements: int = DEFAULT_MAX_ELEMENTS,
                   max_rows: int = DEFAULT_MAX_ROWS) -> dict:
    """Witness document with sparse functionals: basis encodings plus
    the cokernel functionals, each a mod-p linear functional vanishing on
    every relation, one per non-pivot column of the reduced echelon form,
    in column order, given as its sorted (column, value) entries.

    Blocks and cell list their columns in encoding order, and the
    relation matrix is block diagonal, so the cell's reduced echelon form
    is its blocks' side by side, and each functional is a block's on that
    block's columns.  Each orbit's representative block is reduced.  When
    its rank meets the number of columns its rows touch, every touched
    column is a pivot, so its functionals are the unit vectors on the
    untouched columns (``_untouched_columns``), and a colour permutation
    carries those onto the untouched columns of each block in the orbit.
    Otherwise each block of the orbit is reduced.
    """
    _check_prime_bound(space, param, (prime,))
    check_caps(mode, space, k, param, max_elements, max_rows)
    basis = build_basis(mode, space, k, param, max_elements)
    found: dict[int, list[tuple[int, int]]] = {}  # free column -> entries, on the cell's columns
    for leaves, _, block, rows, _ in _blocks(mode, space, k, param):
        vecs = cokernel_functionals(SparseMatrix.from_rows(rows, len(block)), prime)
        untouched = _untouched_columns(block, rows, len(block) - len(vecs))
        if untouched == []:
            continue
        for image in _rearrangements(leaves):
            if untouched is not None:
                table = _colour_table(leaves, image)
                for enc in untouched:
                    col = basis.index[recoloured_encoding(enc, table, mode)]
                    found[col] = [(col, 1)]
                continue
            image_block, image_vecs = block, vecs
            if image != leaves:
                image_block = build_basis(mode, space, k, param, leaves=image)
                image_rows = build_relations(mode, space, k, param, image_block)[0]
                image_vecs = cokernel_functionals(
                    SparseMatrix.from_rows(image_rows, len(image_block)), prime)
            for vec in image_vecs:
                # a functional's free column is its last nonzero entry
                entries = sorted((basis.index[image_block.elements[c].encoding], v)
                                 for c, v in enumerate(vec) if v)
                found[entries[-1][0]] = entries
    return {
        "basis": [cd.encoding.hex() for cd in basis.elements],
        "prime": prime,
        "functionals": [found[free] for free in sorted(found)],
    }


def compute_witness(mode: Mode, space: str, k: int, param: int,
                    prime: int = DEFAULT_PRIMES[0],
                    max_elements: int = DEFAULT_MAX_ELEMENTS,
                    max_rows: int = DEFAULT_MAX_ROWS) -> dict:
    """``sparse_witness`` with each functional a dense list of one value
    per basis column."""
    doc = sparse_witness(mode, space, k, param, prime, max_elements, max_rows)
    functionals = []
    for entries in doc["functionals"]:
        vec = [0] * len(doc["basis"])
        for c, v in entries:
            vec[c] = v
        functionals.append(vec)
    return {**doc, "functionals": functionals}


def _untouched_columns(block: Basis, rows: Sequence[RelationRow],
                       rank: int) -> Optional[list[bytes]]:
    """Encodings of the block's columns that no row touches, when
    ``rank`` equals the number of touched columns, else None."""
    touched = bytearray(len(block))
    for row in rows:
        for c, _ in row.entries:
            touched[c] = 1
    if rank != touched.count(1):
        return None
    return [block.elements[c].encoding for c in range(len(block)) if not touched[c]]


def _rearrangements(leaves: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every distinct rearrangement of ``leaves``: the orbit of a leaf
    multiset under the colour permutations."""
    if not leaves:
        yield ()
        return
    for first in sorted(set(leaves)):
        rest = list(leaves)
        rest.remove(first)
        for tail in _rearrangements(tuple(rest)):
            yield (first,) + tail


def _colour_table(leaves: Sequence[int], image: Sequence[int]) -> bytes:
    """A byte translation table of a colour permutation s with
    image[s(i) - 1] == leaves[i - 1] for every colour i."""
    targets: dict[int, list[int]] = {}
    for c, m in reversed(list(enumerate(image, 1))):
        targets.setdefault(m, []).append(c)
    table = bytearray(range(256))
    for c, m in enumerate(leaves, 1):
        table[c] = targets[m].pop()
    return bytes(table)
