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
functionals (``_orbit_functionals``).  Each block is built and dropped
inside one call, so one is resident at a time.  A single-Y block whose
columns all peel (``peel.peel_y_block``) builds no row and adds no
functional, and loads neither ``relations`` nor ``linalg``: a cell
reaches them only through a block that does not peel, every full block
and a single-Y block whose peel is refused.  Only the ``relations``
dump builds a cell whole.
"""

from __future__ import annotations

import importlib
import time
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .bases import Basis, BasisSpec, check_cell, enumerate_basis, enumerate_y_basis, leaf_orbits
from .diagrams import recoloured_encoding
from .errors import DomainError
from .peel import coefficient_bound, peel_y_block
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
# 1 C).  The row builder (``relations``) and the elimination kernel
# (``linalg``) load on first use, which only a block that does not peel
# makes; count_link_configs and y_link_config_count are never called here.
from .bases import count_link_configs, y_link_config_count


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
    ``bases.check_cell``; the IHX instances, one per internal edge of a
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


def _block_counts(mode: Mode, space: str, k: int, param: int,
                  leaves: tuple[int, ...], primes: Sequence[int]
                  ) -> tuple[int, int, int, int, tuple[int, ...], bool]:
    """(columns, distinct nonzero rows, rank, IHX instances, primes,
    certified) of the block with leaf multiset ``leaves``.  A single-Y
    block whose columns all peel builds no row: its rank is exact over Q
    and equals its rank mod ``primes[0]`` (``peel.peel_y_block``),
    so it counts as certified on the first prime."""
    block = build_basis(mode, space, k, param, leaves=leaves)
    if not block.elements:
        return 0, 0, 0, 0, (), True
    peeled = peel_y_block(block) if space == "y" else None
    if peeled is not None:
        return len(block), peeled[1], peeled[0], 0, tuple(primes[:1]), True
    from .linalg import SparseMatrix
    rows, ihx = build_relations(mode, space, k, param, block)
    result = rank_multiprime(SparseMatrix.from_rows(rows, len(block)), primes)
    return len(block), len(rows), result.rank, ihx, result.primes, result.certified


def compute_dimension(mode: Mode, space: str, k: int, param: int,
                      primes: Sequence[int] = DEFAULT_PRIMES,
                      max_elements: int = DEFAULT_MAX_ELEMENTS,
                      max_rows: int = DEFAULT_MAX_ROWS) -> ResultRecord:
    """Full pipeline for one cell: the guards, then the ``_block_counts``
    of one block per orbit times the orbit's size (``leaf_orbits``).

    The raw relation count is the cell's link configurations plus the
    blocks' IHX instances.  The cell is certified when every block is,
    and ``primes`` is every prime a block's rank came from, in first-use
    order: ``primes[:1]`` when every block certified on the first prime.
    The record's ``timestamp`` is the finishing time in UTC to the
    second, as ``2026-10-19T12:01:30+00:00``.
    """
    if len(set(primes)) < 2:
        raise DomainError("need at least two distinct primes")
    _check_prime_bound(space, param, primes)
    start = time.monotonic()
    _, raw = check_cell(BasisSpec(mode, k, space, param), max_elements, max_rows)
    totals = [0, 0, 0, raw]  # columns, distinct nonzero rows, rank, raw relations
    used: list[int] = []
    certified = True
    for leaves, weight in leaf_orbits(k, space, param):
        *counts, block_primes, block_certified = _block_counts(
            mode, space, k, param, leaves, primes)
        totals = [total + weight * count for total, count in zip(totals, counts)]
        used += [p for p in block_primes if p not in used]
        certified = certified and block_certified
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
    block's columns: ``_orbit_functionals`` gives those of each orbit.
    """
    _check_prime_bound(space, param, (prime,))
    check_cell(BasisSpec(mode, k, space, param), max_elements, max_rows)
    basis = build_basis(mode, space, k, param, max_elements)
    found: dict[int, list[tuple[int, int]]] = {}  # free column -> entries, on the cell's columns
    for leaves, _ in leaf_orbits(k, space, param):
        found.update(_orbit_functionals(mode, space, k, param, leaves, prime, basis.index))
    return {
        "basis": [cd.encoding.hex() for cd in basis.elements],
        "prime": prime,
        "functionals": [found[free] for free in sorted(found)],
    }


def _block_functionals(mode: Mode, space: str, k: int, param: int,
                       leaves: tuple[int, ...], prime: int
                       ) -> tuple[Basis, list[list[int]]]:
    """The block with leaf multiset ``leaves`` and its dense cokernel
    functionals mod ``prime``: none, and no row built, for a block
    without columns or a single-Y block that peels (full column rank)."""
    block = build_basis(mode, space, k, param, leaves=leaves)
    if not block.elements or (space == "y" and peel_y_block(block) is not None):
        return block, []
    from .linalg import SparseMatrix
    rows = build_relations(mode, space, k, param, block)[0]
    return block, cokernel_functionals(SparseMatrix.from_rows(rows, len(block)), prime)


def _orbit_functionals(mode: Mode, space: str, k: int, param: int,
                       leaves: tuple[int, ...], prime: int, index: dict[bytes, int]
                       ) -> dict[int, list[tuple[int, int]]]:
    """{free column: sorted (column, value) entries} of the orbit of
    ``leaves`` on the cell's columns ``index``: the representative's unit
    functionals (``_unit_columns``) carried across the orbit by the
    colour permutations, or else every block's own."""
    block, vecs = _block_functionals(mode, space, k, param, leaves, prime)
    if not vecs:
        return {}
    unit = _unit_columns(block, vecs)
    if unit is not None:
        tables = (_colour_table(leaves, image) for image in _rearrangements(leaves))
        cols = (index[recoloured_encoding(enc, table, mode)] for table in tables for enc in unit)
        return {col: [(col, 1)] for col in cols}
    found: dict[int, list[tuple[int, int]]] = {}
    for image in _rearrangements(leaves):
        image_block, image_vecs = (block, vecs) if image == leaves else \
            _block_functionals(mode, space, k, param, image, prime)
        for vec in image_vecs:
            # a functional's free column is its last nonzero entry
            entries = sorted((index[image_block.elements[c].encoding], v)
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


def _unit_columns(block: Basis, vecs: Sequence[list[int]]) -> Optional[list[bytes]]:
    """The free columns' encodings if all functionals are unit vectors, else None.

    Reduced over F_p, the functional of a free column f is 1 at f and
    -R[q][f] at each pivot q: it is e_f exactly when no reduced row, and
    so no row, touches f, as p exceeds every coefficient
    (``_check_prime_bound``).  Pivot columns are touched, so all are unit
    vectors exactly when the rank meets the touched columns
    (``linalg.rank_bound``); the free columns are then the untouched ones.
    """
    if any(vec.count(0) != len(vec) - 1 for vec in vecs):
        return None
    return [block.elements[vec.index(1)].encoding for vec in vecs]


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
