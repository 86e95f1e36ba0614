"""Certification of blocks by the singleton peel.

Peeling takes a row with one live column, marks that column and
deletes it from every row: the singleton phase of LaMacchia & Odlyzko's
structured Gaussian elimination (CRYPTO '90).  A peeled column has a row
whose other columns peeled before it, so those rows form a triangular
minor whose diagonal entries are nonzero and at most
``coefficient_bound`` in absolute value.  When every column of a block
peels, its rank is its column count, exact over Q and mod every prime
above that bound.  ``peel_rows`` peels built rows.  A single-Y column
Y{p, q, r} + S lies in exactly six link rows, one per ordered pair
(a, c) of its Y colours, each read off the column's encoding, so
``y_peel_passes`` peels a single-Y block, and counts its distinct rows,
without building them (``peel_y_block``).

The Y peel reads each Y{a, c, y} of a row as the row's own graft of the
marked strut ``bytes((c, a))`` on the strut {c, y}, from the graft memo
and column lookup of ``diagrams`` (``graft_terms`` and
``term_column``) that the link rows of ``relations`` read too.  This
module imports only ``diagrams`` and ``errors``, so a peeled block
loads no elimination kernel, and a single-Y ``dim`` whose blocks all
peel no row builder.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .diagrams import Mode, component_encodings, graft_terms, strut_encoding, term_column
from .errors import DomainError

if TYPE_CHECKING:
    from .bases import Basis
    from .relations import RelationRow


def coefficient_bound(space: str, param: int) -> int:
    """Largest absolute coefficient a relation row of the space can have.

    A single-Y row has one term per rest strut type {c, x}, weighted by
    its multiplicity among the n + 1 rest struts.  A full-space link
    coefficient counts signed grafts onto same-colored leaves of a rest
    forest of degree at most d - 1, which has at most 2(d - 1) leaves,
    and an IHX row has three unit terms.
    """
    if space == "y":
        return param + 1
    return max(3, 2 * (param - 1))


def y_peel_passes(basis: Basis) -> tuple[list[int], int]:
    """(peel pass of each column, 0 for one that never peels; distinct
    nonzero rows) of a single-Y block, read off its column encodings
    without building its rows.

    The column Y{p, q, r} + S lies in six link rows, one per ordered
    pair (a, c) of its Y colours with x the third: the configuration
    (a, c, R = S + {c, x}).  That row has one term Y{a, c, y} + (R - {c, y})
    per strut type {c, y} of R with y not in {a, c}, so its terms are y = x
    and y in O_c, the ends outside the Y of the struts of S at c.
    A column's pass in the peel is 1 + the least, over its rows, of the
    largest pass among the row's other columns.  It is 1 exactly when
    some O_c is empty.  Only the other columns look up their rows' other
    columns in ``basis.index``, one row at a time until one has only
    pass-1 columns (pass 2), or all six for the later passes, which are
    found in rounds.

    Two configurations never give the same column set, so the rows with
    two or more terms are distinct; each is counted at its term of least
    y, where x < min O_c.  A one-term row, sign-normalized, is its column
    with coefficient mult_R({c, x}), so those rows are the distinct
    (column, mult_S({c, x})) pairs with O_c empty.
    """
    if basis.spec.space != "y":
        raise DomainError("the row-free peel needs a single-Y basis")
    k, mode = basis.spec.k, basis.spec.mode
    passes = [0] * len(basis)
    num_rows = 0
    unpeeled = []
    for col, element in enumerate(basis.elements):
        parts = component_encodings(element.encoding)
        bands = _y_bands(max(parts, key=len), k)
        mults = set()
        for below, between, above, _, _, cx1, _, cx2 in bands:
            if not below.isdisjoint(parts):
                continue  # min O_c < x1 < x2
            if not between.isdisjoint(parts):
                num_rows += 1
            elif not above.isdisjoint(parts):
                num_rows += 2
            else:
                mults.add(parts.count(cx1))
                mults.add(parts.count(cx2))
        num_rows += len(mults)
        if mults:
            passes[col] = 1
        else:
            unpeeled.append(col)
    index = basis.index
    pending = {}  # column -> its rows' other columns
    for col in unpeeled:
        parts = component_encodings(basis.elements[col].encoding)
        rows = []
        for row in _y_rows(index, parts, _y_bands(max(parts, key=len), k), mode):
            if all(passes[other] == 1 for other in row):
                passes[col] = 2
                break
            rows.append(tuple(row))
        else:
            pending[col] = rows
    depth = 2
    while pending:
        depth += 1
        peeled = [col for col, rows in pending.items()
                  if any(all(passes[other] for other in row) for row in rows)]
        if not peeled:
            break
        for col in peeled:
            passes[col] = depth
            del pending[col]
    return passes, num_rows


@lru_cache(maxsize=1 << 12)
def _y_bands(y_part: bytes, k: int) -> tuple[tuple, ...]:
    """Per colour c of the Y component ``y_part``, with x1 < x2 its other
    two colours: the struts {c, y} with y outside the Y split into
    y < x1, x1 < y < x2 and x2 < y, as frozensets; then c, x1, the strut
    {c, x1}, x2 and the strut {c, x2}.  Every block and cell of a process
    with k colours shares them."""
    ys = (y_part[0], y_part[2], y_part[3])
    bands = []
    for c in ys:
        x1, x2 = (x for x in ys if x != c)
        bands.append(tuple(frozenset(strut_encoding(c, y) for y in range(lo + 1, hi)
                                     if y not in ys)
                           for lo, hi in ((0, x1), (x1, x2), (x2, k + 1)))
                     + (c, x1, strut_encoding(c, x1), x2, strut_encoding(c, x2)))
    return tuple(bands)


def _y_rows(index: dict[bytes, int], parts: list[bytes], bands: tuple,
            mode: Mode) -> Iterator[list[int]]:
    """The other columns of each row of the single-Y column with
    components ``parts``, whose Y has the ``_y_bands`` ``bands``: for the
    configuration (a, c, S + {c, x}), the columns
    Y{a, c, y} + S - {c, y} + {c, x} with y in O_c.  Each Y{a, c, y} is
    the row's own graft of the marked strut ``bytes((c, a))`` on the
    strut {c, y}, read from ``graft_terms``."""
    struts = [part for part in parts if len(part) == 2]
    for below, between, above, c, x1, cx1, x2, cx2 in bands:
        outside = below | between | above
        ends = dict.fromkeys(strut for strut in struts if strut in outside)
        for a, cx in ((x2, cx1), (x1, cx2)):
            marked = bytes((c, a))
            row = []
            for cy in ends:
                rest = list(struts)
                rest.remove(cy)
                rest += (cx, graft_terms(marked, cy, mode)[0][0])
                row.append(term_column(index, rest))
            yield row


def peel_y_block(basis: Basis) -> Optional[tuple[int, int]]:
    """(rank, distinct nonzero rows) of a single-Y block whose columns
    all peel (``y_peel_passes``), else None: the rank is the column
    count, each diagonal entry of the minor being mult_R({c, x}) *
    sign(a, c, x), at most n + 1 in absolute value."""
    passes, num_rows = y_peel_passes(basis)
    return None if 0 in passes else (len(passes), num_rows)


def peel_rows(rows: Sequence[RelationRow], num_cols: int) -> list[int]:
    """The columns the singleton peel of ``rows`` marks, each after the
    other columns of one of its rows.  A row is queued when one column
    is left live in it; the marked set is the least closed under the
    rule, in any order, and so that of a peel by passes."""
    live = [len(row.entries) for row in rows]
    col_rows: list[list[int]] = [[] for _ in range(num_cols)]
    for rid, row in enumerate(rows):
        for col, _ in row.entries:
            col_rows[col].append(rid)
    marked = bytearray(num_cols)
    order = []
    queue = [rid for rid, count in enumerate(live) if count == 1]
    while queue:
        rid = queue.pop()
        if live[rid] != 1:
            continue
        col = next(col for col, _ in rows[rid].entries if not marked[col])
        marked[col] = 1
        order.append(col)
        for other in col_rows[col]:
            live[other] -= 1
            if live[other] == 1:
                queue.append(other)
    return order
