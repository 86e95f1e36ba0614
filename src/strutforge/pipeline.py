"""End-to-end dimension pipeline: the guards, then a cell's blocks,
ranks and witness functionals.

A single-Y cell is the slice of the forests of degree n + 2 with n + 1
components (``bases.BasisSpec``), so both spaces share one path.
``dim``, ``witness`` and ``relations`` first run ``bases.check_cell``:
the domain checks and the capacity guards, before anything is listed.
The records, the run defaults and the JSON-lines result cache live in
``records``, which imports no engine module; this module re-exports
their names, and ``ResultCache.get_or_compute`` imports it only on a
cache miss.

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
rank.  A dimension run folds the plain counts of one block per orbit
(``bases.leaf_orbits``, ``_block_counts``), times the orbit's size, into
an immutable ResultRecord, and a witness run gathers each orbit's
functionals (``_orbit_functionals``).  Each step takes its block's
``BasisSpec``, the cell's with the block's ``leaves``, and builds and
drops the block inside one call, so one is resident at a time.

A full cell's strut-only forests, its blocks on 2d leaves, lie in no
row, so they are not listed as blocks: ``dim`` counts them
(``strut_union_count``), and ``witness`` gives each its unit
functional.  A block whose columns all peel (``peel``) has full column
rank: a single-Y block peels without rows, and loads neither
``relations`` nor ``linalg``; any other peels its link rows, and for
``dim`` its IHX rows too.  Only a block whose peel falls short loads
``linalg`` and, in a witness, builds IHX rows.  Only the ``relations``
dump builds a cell whole.
"""

from __future__ import annotations

import importlib
import time
from typing import TYPE_CHECKING, Iterator, Sequence

from .bases import Basis, BasisSpec, check_cell, enumerate_basis, enumerate_y_basis, leaf_orbits
from .diagrams import encoding_trivalent_count
from .errors import DomainError
from .peel import coefficient_bound, peel_rows, peel_y_block
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

if TYPE_CHECKING:
    from .relations import RelationRow

# These names live here for perfbench/traced_op.py, which wraps each one
# in this module, and for the tests, which patch them here (ROADMAP item
# 2 C).  The row builder (``relations``) and the elimination kernel
# (``linalg``) load on first use (see above); count_link_configs and
# y_link_config_count are never called here.
from .bases import count_link_configs, strut_union_count, y_link_config_count


def _first_use(module: str, name: str):
    """``strutforge.<module>.<name>``, looked up on every call and so
    imported on the first."""
    def call(*args, **kwargs):
        target = getattr(importlib.import_module(f".{module}", __package__), name)
        return target(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"``{module}.{name}``, importing ``{module}`` on first use."
    return call


link_relations = _first_use("relations", "link_relations")
ihx_relations = _first_use("relations", "ihx_relations")
y_link_relations = _first_use("relations", "y_link_relations")
count_ihx_instances = _first_use("relations", "count_ihx_instances")
rank_multiprime = _first_use("linalg", "rank_multiprime")
cokernel_functionals = _first_use("linalg", "cokernel_functionals")


def build_basis(spec: BasisSpec, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Basis:
    """The basis of the cell or block ``spec``."""
    return (enumerate_y_basis if spec.space == "y" else enumerate_basis)(
        spec.k, spec.param, spec.mode, max_elements, spec.leaves)


def build_relations(basis: Basis) -> tuple[list[RelationRow], int]:
    """(deduplicated nonzero rows, IHX instances) over a cell's or a
    block's basis, in the mode, colours and degree of ``basis.spec``.

    The link configurations are counted once per cell, by
    ``bases.check_cell``; the IHX instances, one per internal edge of a
    column, here (a single-Y basis has none).
    """
    spec = basis.spec
    link = link_relations(spec.k, spec.degree, spec.mode, basis, provenance=False)
    return _with_ihx_rows(basis, link), count_ihx_instances(basis)


def _with_ihx_rows(basis: Basis, link: list[RelationRow]) -> list[RelationRow]:
    """The distinct rows among the link rows ``link`` of ``basis`` and
    its IHX rows, in entry order."""
    spec = basis.spec
    seen = {row.entries: row for row in link}
    for row in ihx_relations(spec.k, spec.degree, spec.mode, basis, provenance=False):
        seen.setdefault(row.entries, row)
    return [seen[key] for key in sorted(seen)]


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


def _orbits_with_rows(cell: BasisSpec) -> Iterator[tuple[BasisSpec, int]]:
    """(representative block, orbit size) per orbit (``leaf_orbits``)
    but the strut-only ones, on 2d leaves, which no row touches."""
    for leaves, weight in leaf_orbits(cell.k, cell.space, cell.param):
        if sum(leaves) < 2 * cell.degree:
            yield cell.replace(leaves=leaves), weight


def _block_counts(block: BasisSpec, primes: Sequence[int]
                  ) -> tuple[int, int, int, int, tuple[int, ...], bool]:
    """(columns, distinct nonzero rows, rank, IHX instances, primes,
    certified) of the block ``block``.  A block whose columns all peel
    (``peel_y_block`` or ``peel_rows``) counts as certified on the first
    prime; only one whose peel falls short is ranked."""
    basis = build_basis(block)
    if not basis.elements:
        return 0, 0, 0, 0, (), True
    peeled = peel_y_block(basis) if block.space == "y" else None
    if peeled is not None:
        return len(basis), peeled[1], peeled[0], 0, tuple(primes[:1]), True
    rows, ihx = build_relations(basis)
    if len(peel_rows(rows, len(basis))) == len(basis):
        return len(basis), len(rows), len(basis), ihx, tuple(primes[:1]), True
    from .linalg import SparseMatrix
    result = rank_multiprime(SparseMatrix.from_rows(rows, len(basis)), primes)
    return len(basis), len(rows), result.rank, ihx, result.primes, result.certified


def compute_dimension(mode: Mode, space: str, k: int, param: int,
                      primes: Sequence[int] = DEFAULT_PRIMES,
                      max_elements: int = DEFAULT_MAX_ELEMENTS,
                      max_rows: int = DEFAULT_MAX_ROWS) -> ResultRecord:
    """Full pipeline for one cell: the guards, then the ``_block_counts``
    of one block per orbit times the orbit's size, and a full cell's
    strut-only forests, certified on the first prime.

    The raw relation count is the cell's link configurations plus the
    blocks' IHX instances.  The cell is certified when every block is,
    and ``primes`` is every prime a block's rank came from, in first-use
    order (the strut-only blocks last, as in ``leaf_orbits``):
    ``primes[:1]`` when every block certified on the first prime.
    The record's ``timestamp`` is the finishing time in UTC to the
    second, as ``2026-10-19T12:01:30+00:00``.
    """
    if len(set(primes)) < 2:
        raise DomainError("need at least two distinct primes")
    _check_prime_bound(space, param, primes)
    start = time.monotonic()
    _, raw = check_cell(cell := BasisSpec(mode, k, space, param), max_elements, max_rows)
    struts = strut_union_count(k, param, mode) if space == "full" else 0
    totals = [struts, 0, 0, raw]  # columns, distinct nonzero rows, rank, raw relations
    used: list[int] = []
    certified = True
    for block, weight in _orbits_with_rows(cell):
        *counts, block_primes, block_certified = _block_counts(block, primes)
        totals = [total + weight * count for total, count in zip(totals, counts)]
        used += [p for p in block_primes if p not in used]
        certified = certified and block_certified
    used += [p for p in primes[:1] if struts and p not in used]
    cols, num_rows, rank, raw = totals
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
    block's columns: ``_orbit_functionals`` gives those of each orbit,
    and a strut-only column, with no trivalent vertex, is in no row and
    has its unit functional.
    """
    _check_prime_bound(space, param, (prime,))
    check_cell(cell := BasisSpec(mode, k, space, param), max_elements, max_rows)
    basis = build_basis(cell, max_elements)
    found = {col: [(col, 1)] for col, cd in enumerate(basis.elements)  # free column -> entries
             if not encoding_trivalent_count(cd.encoding)}
    for block, _ in _orbits_with_rows(cell):
        found.update(_orbit_functionals(block, prime, basis.index))
    return {
        "basis": [cd.encoding.hex() for cd in basis.elements],
        "prime": prime,
        "functionals": [found[free] for free in sorted(found)],
    }


def _block_functionals(block: BasisSpec, prime: int) -> tuple[Basis, list[list[int]]]:
    """The basis of the block ``block`` and its dense cokernel
    functionals mod ``prime``: none for a block without columns or whose
    columns all peel, a single-Y block without rows and any other on its
    link rows; only a block whose peel falls short builds IHX rows, and
    keeps its link rows beside them."""
    basis = build_basis(block)
    if not basis.elements or (block.space == "y" and peel_y_block(basis) is not None):
        return basis, []
    link = link_relations(block.k, block.degree, block.mode, basis, provenance=False)
    if len(peel_rows(link, len(basis))) == len(basis):
        return basis, []
    from .linalg import SparseMatrix
    rows = _with_ihx_rows(basis, link)
    return basis, cokernel_functionals(SparseMatrix.from_rows(rows, len(basis)), prime)


def _orbit_functionals(block: BasisSpec, prime: int, index: dict[bytes, int]
                       ) -> dict[int, list[tuple[int, int]]]:
    """{free column: sorted (column, value) entries} of the orbit of the
    block ``block`` on the cell's columns ``index``: none when the
    representative has full column rank, else every block's own."""
    basis, vecs = _block_functionals(block, prime)
    if not vecs:
        return {}
    found: dict[int, list[tuple[int, int]]] = {}
    for image in _rearrangements(block.leaves):
        image_basis, image_vecs = (basis, vecs) if image == block.leaves else \
            _block_functionals(block.replace(leaves=image), prime)
        for vec in image_vecs:
            # a functional's free column is its last nonzero entry
            entries = sorted((index[image_basis.elements[c].encoding], v)
                             for c, v in enumerate(vec) if v)
            found[entries[-1][0]] = entries
    return found


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
