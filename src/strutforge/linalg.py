"""Exact rank and cokernel of sparse integer relation matrices.

One echelon kernel serves both functionals of the quotient: the rows
are reduced mod p and brought to echelon form with a shortest-row pivot
policy, the pivots taken from one heap per matrix.  The rank is the
number of pivots; the cokernel functionals are read off the same pivots
after back-substitution to the reduced row echelon form.
Ranks are computed modulo ~2**31 primes, keeping elimination in machine
words.  A modular rank can only undershoot the rational one, and the
rational rank never exceeds min(#nonzero rows, #columns some row
touches); a first-prime rank that reaches this bound is therefore the
exact rank, and no second prime is needed.  Only a rank below the bound
is cross-checked across further primes, whose agreement settles the
value far beyond test noise.  A fraction-free integer elimination is
kept alongside as the small-matrix oracle.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .errors import DomainError, UnluckyPrimeError, Value, _set
from .records import DEFAULT_PRIMES, PRIME_POOL, is_prime
from .relations import RelationRow

# Rounds of fresh primes ``rank_multiprime`` tries after the given primes disagree.
MAX_RETRIES = 3


class SparseMatrix(Value):
    """Relation rows over a fixed column count."""

    __slots__ = ("rows", "num_cols")
    rows: tuple[RelationRow, ...]
    num_cols: int

    def __init__(self, rows: tuple[RelationRow, ...], num_cols: int) -> None:
        _set(self, "rows", rows)
        _set(self, "num_cols", num_cols)
        if self.num_cols < 0:
            raise DomainError("num_cols must be >= 0")
        for row in self.rows:
            if row.entries and row.entries[-1][0] >= self.num_cols:
                raise DomainError("row references a column beyond num_cols")

    @classmethod
    def from_rows(cls, rows: Sequence[RelationRow], num_cols: int) -> "SparseMatrix":
        return cls(tuple(rows), num_cols)

    def max_abs_coefficient(self) -> int:
        return max((abs(v) for row in self.rows for _, v in row.entries), default=0)


class RankResult(Value):
    __slots__ = ("rank", "primes", "agreement", "quotient_dim", "certified")
    rank: int
    primes: tuple[int, ...]
    agreement: bool
    quotient_dim: int
    # True when the rank meets rank_bound, which proves it exact over Q.
    certified: bool

    def __init__(self, rank: int, primes: tuple[int, ...], agreement: bool,
                 quotient_dim: int, certified: bool = False) -> None:
        _set(self, "rank", rank)
        _set(self, "primes", primes)
        _set(self, "agreement", agreement)
        _set(self, "quotient_dim", quotient_dim)
        _set(self, "certified", certified)
        if self.rank < 0 or self.quotient_dim < 0:
            raise DomainError("rank and quotient dimension must be >= 0")


def _echelon_block(rows: list[dict[int, int]], p: int) -> list[tuple[int, dict[int, int]]]:
    """Sparse Gaussian elimination over F_p: the (pivot column, monic
    pivot row) pairs in pivot order.

    Pivot policy: shortest remaining row, then lowest leading column,
    then insertion order (Markowitz-lite, fully deterministic).  A pivot
    row has no entry left of its pivot column and no earlier pivot
    column, and is never updated after it is chosen.

    Candidates come from a heap keyed on (length, leading column, row
    id); every updated row is pushed again under its new key, and a
    popped entry is skipped when its row is already a pivot or its key
    is stale, so the first live entry is the policy's minimum.  Rows
    whose columns never meet, directly or through other rows, never
    update each other, so each such group of rows gets the pivots it
    would get on its own, interleaved in one heap.
    """
    col_rows: dict[int, set[int]] = {}
    for rid, row in enumerate(rows):
        for col in row:
            col_rows.setdefault(col, set()).add(rid)
    heap = [(len(row), min(row), rid) for rid, row in enumerate(rows)]
    heapq.heapify(heap)
    done = [False] * len(rows)
    pivots = []
    while heap:
        length, pc, rid = heapq.heappop(heap)
        pivot_row = rows[rid]
        if done[rid] or length != len(pivot_row) or pc != min(pivot_row):
            continue
        done[rid] = True
        inv = pow(pivot_row[pc], -1, p)
        pivot_row = {c: (v * inv) % p for c, v in pivot_row.items()}
        pivots.append((pc, pivot_row))
        for sid in list(col_rows[pc]):
            if done[sid]:
                continue
            target = rows[sid]
            factor = target[pc]
            for c, v in pivot_row.items():
                new = (target.get(c, 0) - factor * v) % p
                if new:
                    if c not in target:
                        col_rows.setdefault(c, set()).add(sid)
                    target[c] = new
                elif c in target:
                    del target[c]
                    col_rows[c].discard(sid)
            if target:
                heapq.heappush(heap, (len(target), min(target), sid))
    return pivots


def _rows_mod_p(m: SparseMatrix, p: int) -> list[dict[int, int]]:
    out = []
    for row in m.rows:
        reduced = {c: v % p for c, v in row.entries if v % p}
        if reduced:
            out.append(reduced)
    return out


def _check_prime(m: SparseMatrix, p: int) -> None:
    if not is_prime(p):
        raise DomainError(f"{p} is not a prime")
    if p <= m.max_abs_coefficient():
        raise DomainError(f"prime {p} does not exceed the largest coefficient")


def _echelon(m: SparseMatrix, p: int) -> list[tuple[int, dict[int, int]]]:
    """Echelon pivots of the whole matrix over F_p."""
    _check_prime(m, p)
    return _echelon_block(_rows_mod_p(m, p), p)


def rank_mod_p(m: SparseMatrix, p: int) -> int:
    """Rank of the row space over F_p."""
    return len(_echelon(m, p))


def rank_bound(m: SparseMatrix) -> int:
    """min(#nonzero rows, #columns some row touches): the rank over Q,
    and so every modular rank, is at most this."""
    touched = bytearray(m.num_cols)
    nonzero = 0
    for row in m.rows:
        if row.entries:
            nonzero += 1
            for c, _ in row.entries:
                touched[c] = 1
    return min(nonzero, touched.count(1))


def rank_multiprime(m: SparseMatrix, primes: Sequence[int] = DEFAULT_PRIMES
                    ) -> RankResult:
    """Exact rank, certified by the first prime where possible.

    A rank mod p never exceeds the rank over Q, which never exceeds
    rank_bound; so a first-prime rank equal to the bound is exact and is
    returned with ``primes == primes[:1]`` and ``certified`` set.  Below
    the bound, the remaining primes are ranked too (the first prime's
    rank is reused) and must agree.  Disagreement (an unlucky prime
    undershooting) triggers up to ``MAX_RETRIES`` retries with fresh
    primes from the pool; persistent disagreement raises
    UnluckyPrimeError rather than guessing.
    """
    primes = tuple(primes)
    if len(set(primes)) < 2:
        raise DomainError("need at least two distinct primes")
    bound = rank_bound(m)
    ranks = [rank_mod_p(m, primes[0])]
    if ranks[0] == bound:
        return RankResult(rank=bound, primes=primes[:1], agreement=True,
                          quotient_dim=m.num_cols - bound, certified=True)
    ranks += [rank_mod_p(m, p) for p in primes[1:]]
    used = set(primes)
    observed_max = max(ranks)
    attempt_primes = primes
    for attempt in range(MAX_RETRIES + 1):
        if len(set(ranks)) == 1:
            return RankResult(rank=ranks[0], primes=attempt_primes,
                              agreement=True,
                              quotient_dim=m.num_cols - ranks[0],
                              certified=ranks[0] == bound)
        fresh = [p for p in PRIME_POOL if p not in used][:len(primes)]
        if attempt == MAX_RETRIES or len(fresh) < 2:
            break
        used.update(fresh)
        attempt_primes = tuple(fresh)
        ranks = [rank_mod_p(m, p) for p in attempt_primes]
        observed_max = max(observed_max, *ranks)
    raise UnluckyPrimeError(
        f"modular ranks kept disagreeing; max observed rank {observed_max}")


def cokernel_functionals(m: SparseMatrix, p: int) -> list[list[int]]:
    """Canonical basis of functionals over F_p vanishing on every row.

    One vector per non-pivot column of the reduced echelon form, so the
    list has exactly num_cols - rank entries and is deterministic.  The
    echelon pivots are back-substituted from the rightmost pivot column
    leftwards: each pivot row only holds columns right of its own pivot,
    so clearing the later pivot columns from it, using rows that are
    already reduced, leaves the unique reduced form.
    """
    # pivot column -> the other entries of its reduced row (pivot is 1)
    reduced: dict[int, dict[int, int]] = {}
    for pc, row in sorted(_echelon(m, p), reverse=True):
        del row[pc]
        for col in [c for c in row if c in reduced]:
            factor = row.pop(col)
            for c, v in reduced[col].items():
                new = (row.get(c, 0) - factor * v) % p
                if new:
                    row[c] = new
                else:
                    del row[c]
        reduced[pc] = row
    vecs = {free: [0] * m.num_cols for free in range(m.num_cols) if free not in reduced}
    for pc, row in reduced.items():
        for c, v in row.items():
            vecs[c][pc] = (-v) % p
    for free, vec in vecs.items():
        vec[free] = 1
    return list(vecs.values())


def apply_functional(row: RelationRow, vec: Sequence[int], p: int) -> int:
    """<row, vec> mod p; zero for every cokernel functional."""
    return sum(v * vec[c] for c, v in row.entries) % p


def fraction_free_rank(m: SparseMatrix) -> int:
    """Exact integer rank by fraction-free (Bareiss) elimination.

    Densifies the matrix; intended as the independent oracle on small
    instances (a few hundred columns), not the production path.
    """
    dense = [[0] * m.num_cols for _ in range(len(m.rows))]
    for i, row in enumerate(m.rows):
        for c, v in row.entries:
            dense[i][c] = v
    n_rows = len(dense)
    rank = 0
    prev = 1
    for col in range(m.num_cols):
        pivot = next((i for i in range(rank, n_rows) if dense[i][col]), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        piv_val = dense[rank][col]
        for i in range(rank + 1, n_rows):
            row_i = dense[i]
            factor = row_i[col]
            for j in range(col + 1, m.num_cols):
                row_i[j] = (row_i[j] * piv_val - factor * dense[rank][j]) // prev
            row_i[col] = 0
        prev = piv_val
        rank += 1
        if rank == n_rows:
            break
    return rank
