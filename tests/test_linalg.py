import pytest
from hypothesis import example, given, settings, strategies as st

import strutforge.linalg as linalg
from brute_force import echelon_block_min_scan, echelon_by_column_blocks, peel_passes
from strutforge.bases import enumerate_basis, enumerate_y_basis
from strutforge.diagrams import Mode, decode_diagram
from strutforge.errors import DomainError, UnluckyPrimeError
from strutforge.linalg import (
    DEFAULT_PRIMES,
    PRIME_POOL,
    SparseMatrix,
    apply_functional,
    cokernel_functionals,
    fraction_free_rank,
    is_prime,
    rank_mod_p,
    rank_multiprime,
)
from strutforge.relations import (
    RelationRow,
    link_relations,
    y_link_relations,
)

H = Mode.HOMOTOPY
P = DEFAULT_PRIMES[0]


def rref_oracle(m, p):
    """Reduced row echelon form over F_p, one incoming row at a time:
    sorted (pivot column, row) pairs."""
    pivots = []
    for source in m.rows:
        row_ = {c: v % p for c, v in source.entries if v % p}
        for pc, prow in pivots:
            if pc in row_:
                factor = row_[pc]
                for c, v in prow.items():
                    new = (row_.get(c, 0) - factor * v) % p
                    if new:
                        row_[c] = new
                    else:
                        row_.pop(c, None)
        if not row_:
            continue
        pc = min(row_)
        inv = pow(row_[pc], -1, p)
        row_ = {c: (v * inv) % p for c, v in row_.items()}
        for _, orow in pivots:
            if pc in orow:
                factor = orow[pc]
                for c, v in row_.items():
                    new = (orow.get(c, 0) - factor * v) % p
                    if new:
                        orow[c] = new
                    else:
                        orow.pop(c, None)
        pivots.append((pc, row_))
    pivots.sort()
    return pivots


def oracle_functionals(m, p):
    """One vector per non-pivot column of ``rref_oracle``."""
    pivots = rref_oracle(m, p)
    pivot_cols = {pc for pc, _ in pivots}
    out = []
    for free in range(m.num_cols):
        if free in pivot_cols:
            continue
        vec = [0] * m.num_cols
        vec[free] = 1
        for pc, row_ in pivots:
            coef = row_.get(free, 0)
            if coef:
                vec[pc] = (-coef) % p
        out.append(vec)
    return out


def row(*entries):
    return RelationRow(tuple(sorted(entries)))


def matrix(num_cols, *rows_):
    return SparseMatrix.from_rows([row(*r) for r in rows_], num_cols)


def test_a_matrix_refuses_a_negative_width_and_a_column_beyond_it():
    with pytest.raises(DomainError, match="num_cols must be >= 0"):
        SparseMatrix((), -1)
    with pytest.raises(DomainError, match="row references a column beyond num_cols"):
        SparseMatrix((RelationRow(((0, 1), (2, 1))),), 2)


class TestIsPrime:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        assert [n for n in range(3000) if is_prime(n)] == [
            n for n in range(3000) if trial(n)]

    def test_large_values(self):
        assert all(is_prime(p) for p in PRIME_POOL)
        assert is_prime(2**61 - 1) and is_prime(2**64 - 59)
        # Strong pseudoprimes to the first few bases, and a semiprime.
        for n in (3215031751, 3825123056546413051, (2**32 + 15) * (2**31 - 1)):
            assert not is_prime(n)

    def test_range_limit(self):
        with pytest.raises(DomainError):
            is_prime(2**64)

    def test_answers_are_cached(self):
        is_prime.cache_clear()
        assert is_prime(2**31 - 1) and is_prime(2**31 - 1)
        info = is_prime.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_range_error_is_raised_on_every_call(self):
        is_prime.cache_clear()
        for _ in range(2):
            with pytest.raises(DomainError):
                is_prime(2**64)
        info = is_prime.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


class TestRankModP:
    def test_single_unit_row(self):
        assert rank_mod_p(matrix(3, [(0, 1)]), P) == 1

    def test_no_rows(self):
        assert rank_mod_p(matrix(5), P) == 0

    def test_dependent_rows(self):
        m = matrix(3, [(0, 1), (1, 1)], [(1, 1), (2, 1)],
                   [(0, 1), (1, 2), (2, 1)], [(0, 2), (1, 2)])
        assert rank_mod_p(m, P) == 2

    def test_y_space_three_colors_one_strut(self):
        basis = enumerate_y_basis(3, 1, H)
        rows = y_link_relations(3, 1, H, basis)
        m = SparseMatrix.from_rows(rows, len(basis))
        assert rank_mod_p(m, P) == 3
        assert fraction_free_rank(m) == 3

    def test_non_prime_rejected(self):
        m = matrix(2, [(0, 1)])
        with pytest.raises(DomainError):
            rank_mod_p(m, 9)
        with pytest.raises(DomainError):
            cokernel_functionals(m, 2147483649)

    def test_small_prime_rejected(self):
        with pytest.raises(DomainError):
            rank_mod_p(matrix(2, [(0, 7)]), 5)

    def test_invariant_under_permutation_and_duplication(self):
        rows_ = [[(0, 1), (2, 3)], [(1, 2)], [(0, 1), (1, 1), (2, 1)]]
        base = matrix(4, *rows_)
        shuffled = matrix(4, *reversed(rows_))
        doubled = matrix(4, *(rows_ + rows_))
        assert rank_mod_p(base, P) == rank_mod_p(shuffled, P) == rank_mod_p(doubled, P)


class TestRankMultiprime:
    def test_agreement_on_honest_run(self):
        basis = enumerate_y_basis(4, 1, H)
        rows = y_link_relations(4, 1, H, basis)
        res = rank_multiprime(SparseMatrix.from_rows(rows, len(basis)))
        assert res.agreement
        assert res.rank == 24
        assert res.quotient_dim == 0
        assert res.primes == (DEFAULT_PRIMES[0],)
        assert res.certified

    def test_full_space_three_colors_degree_two(self):
        basis = enumerate_basis(3, 2, H)
        rows = link_relations(3, 2, H, basis)
        res = rank_multiprime(SparseMatrix.from_rows(rows, len(basis)))
        assert (len(basis), res.rank, res.quotient_dim) == (7, 1, 6)

    def test_needs_two_distinct_primes(self):
        with pytest.raises(DomainError):
            rank_multiprime(matrix(2, [(0, 1)]), primes=(P, P))

    def test_retry_then_unlucky_error(self, monkeypatch):
        calls = []

        def fake_rank(m, p):
            calls.append(p)
            return p  # distinct primes never agree

        monkeypatch.setattr(linalg, "rank_mod_p", fake_rank)
        with pytest.raises(UnluckyPrimeError):
            rank_multiprime(matrix(2, [(0, 1)]))
        assert len(calls) >= 8  # four attempts of two primes

    def test_retry_recovers(self, monkeypatch):
        unlucky = set(DEFAULT_PRIMES)

        def fake_rank(m, p):
            return 0 if p in unlucky and p == DEFAULT_PRIMES[1] else 1

        monkeypatch.setattr(linalg, "rank_mod_p", fake_rank)
        # Bound 2: the fake rank 1 does not certify, so the primes are compared.
        res = rank_multiprime(matrix(2, [(0, 1)], [(1, 1)]))
        assert res.agreement
        assert res.rank == 1
        assert not set(res.primes) & set(DEFAULT_PRIMES)

    def test_uncertified_uses_both_primes(self):
        res = rank_multiprime(matrix(2, [(0, 1), (1, 1)], [(0, 1), (1, 1)]))
        assert (res.rank, res.quotient_dim) == (1, 1)
        assert not res.certified
        assert res.primes == DEFAULT_PRIMES

    def test_rank_bound(self):
        assert linalg.rank_bound(matrix(5)) == 0
        assert linalg.rank_bound(matrix(5, [(0, 1), (3, 2)])) == 1
        assert linalg.rank_bound(matrix(5, [(1, 1)], [(1, 2)], [(1, 3)])) == 1
        assert linalg.rank_bound(SparseMatrix.from_rows([RelationRow(())], 2)) == 0


class TestCokernel:
    def test_no_rows_gives_unit_functionals(self):
        vecs = cokernel_functionals(matrix(3), P)
        assert vecs == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_annihilates_all_rows(self):
        basis = enumerate_basis(5, 2, H)
        rows = link_relations(5, 2, H, basis)
        m = SparseMatrix.from_rows(rows, len(basis))
        vecs = cokernel_functionals(m, P)
        assert len(vecs) == 55
        for vec in vecs:
            for r in rows:
                assert apply_functional(r, vec, P) == 0

    def test_functionals_vanish_on_y_columns(self):
        basis = enumerate_basis(5, 2, H)
        rows = link_relations(5, 2, H, basis)
        vecs = cokernel_functionals(SparseMatrix.from_rows(rows, len(basis)), P)
        y_cols = [i for i, cd in enumerate(basis.elements)
                  if len(decode_diagram(cd.encoding, H, 5).components[-1].adj) > 2
                  or any(c.degree == 2
                         for c in decode_diagram(cd.encoding, H, 5).components)]
        for vec in vecs:
            for col in y_cols:
                assert vec[col] == 0

    def test_empty_when_quotient_trivial(self):
        basis = enumerate_y_basis(5, 1, H)
        rows = y_link_relations(5, 1, H, basis)
        assert cokernel_functionals(SparseMatrix.from_rows(rows, len(basis)), P) == []

    def test_count_matches_quotient(self):
        basis = enumerate_basis(3, 3, H)
        rows = link_relations(3, 3, H, basis)
        m = SparseMatrix.from_rows(rows, len(basis))
        res = rank_multiprime(m)
        assert len(cokernel_functionals(m, P)) == res.quotient_dim

    def test_back_substitution(self):
        # Pivot order is column 1, then 0, then 2: the column-0 pivot row
        # still holds column 2 until back-substitution clears it.
        # Column 3 is in no row.
        m = matrix(5, [(0, 1), (1, 1), (2, 1), (4, 1)], [(1, 1)],
                   [(0, 1), (2, 2), (4, 3)])
        assert [pc for pc, _ in linalg._echelon(m, P)] == [1, 0, 2]
        vecs = cokernel_functionals(m, P)
        assert vecs == [[0, 0, 0, 1, 0], [1, 0, P - 2, 0, 1]]
        assert vecs == oracle_functionals(m, P)

    def test_deterministic(self):
        basis = enumerate_basis(3, 2, H)
        rows = link_relations(3, 2, H, basis)
        m = SparseMatrix.from_rows(rows, len(basis))
        assert cokernel_functionals(m, P) == cokernel_functionals(m, P)


@st.composite
def random_sparse_matrix(draw):
    num_cols = draw(st.integers(1, 8))
    n_rows = draw(st.integers(0, 10))
    rows_ = []
    for _ in range(n_rows):
        cols = draw(st.sets(st.integers(0, num_cols - 1), min_size=1, max_size=num_cols))
        entries = tuple(sorted(
            (c, draw(st.integers(-4, 4).filter(bool))) for c in cols))
        rows_.append(RelationRow(entries))
    return SparseMatrix.from_rows(rows_, num_cols)


@settings(max_examples=80, deadline=None)
@given(random_sparse_matrix())
def test_modular_rank_matches_fraction_free(m):
    assert rank_mod_p(m, P) == fraction_free_rank(m)


@settings(max_examples=50, deadline=None)
@given(random_sparse_matrix())
def test_cokernel_size_and_annihilation(m):
    vecs = cokernel_functionals(m, P)
    assert len(vecs) == m.num_cols - rank_mod_p(m, P)
    for vec in vecs:
        for r in m.rows:
            assert apply_functional(r, vec, P) == 0


@settings(max_examples=80, deadline=None)
@given(random_sparse_matrix())
def test_cokernel_matches_rref_oracle(m):
    for p in (P, 5):
        assert cokernel_functionals(m, p) == oracle_functionals(m, p)


@settings(max_examples=80, deadline=None)
@given(random_sparse_matrix())
def test_certified_rank_matches_fraction_free(m):
    res = rank_multiprime(m)
    assert res.rank == fraction_free_rank(m)
    assert res.certified == (res.rank == linalg.rank_bound(m))
    assert res.primes == (DEFAULT_PRIMES if not res.certified else (P,))


@settings(max_examples=80, deadline=None)
@given(random_sparse_matrix())
def test_heap_pivot_order_matches_min_scan(m):
    for p in (P, 5):
        rows = linalg._rows_mod_p(m, p)
        expected = echelon_block_min_scan([dict(r) for r in rows], p)
        assert linalg._echelon_block(rows, p) == expected


@settings(max_examples=80, deadline=None)
@given(random_sparse_matrix())
def test_one_heap_pivots_match_column_blocks(m):
    for p in (P, 5):
        assert sorted(linalg._echelon(m, p)) == sorted(echelon_by_column_blocks(m, p))


@st.composite
def peeling_matrix(draw):
    """A small integer matrix whose rows peel completely: the columns of
    ``order`` each get a row on that column and some earlier ones, and
    any further rows lie on those columns; rows come shuffled."""
    num_cols = draw(st.integers(1, 8))
    order = draw(st.permutations(range(num_cols)))[:draw(st.integers(0, num_cols))]
    col_sets = [{col} | (draw(st.sets(st.sampled_from(order[:i]))) if i else set())
                for i, col in enumerate(order)]
    if order:
        col_sets += draw(st.lists(st.sets(st.sampled_from(order), min_size=1), max_size=4))
    coefficient = st.integers(-4, 4).filter(bool)
    return SparseMatrix.from_rows(
        [RelationRow(tuple(sorted((col, draw(coefficient)) for col in cols)))
         for cols in draw(st.permutations(col_sets))], num_cols)


@settings(max_examples=80, deadline=None)
@given(peeling_matrix())
def test_a_matrix_that_peels_pivots_on_single_entry_rows(m):
    # The shortest-row heap takes a one-entry row whenever there is one,
    # and a one-entry pivot only deletes its column from other rows, so
    # on a matrix that peels it runs the singleton peel: every pivot row
    # has one entry, and the pivots are the touched columns.
    touched = {c for row in m.rows for c, _ in row.entries}
    assert set(peel_passes(m.rows)) == touched
    for p in (P, 5):
        pivots = linalg._echelon_block(linalg._rows_mod_p(m, p), p)
        assert all(len(pivot_row) == 1 for _, pivot_row in pivots)
        assert sorted(pc for pc, _ in pivots) == sorted(touched)


@settings(max_examples=80, deadline=None)
@given(random_sparse_matrix())
@example(matrix(3, [(0, 1), (1, 2)], [(0, 2), (1, 4)]))  # rank 1, below its bound 2
@example(matrix(3, [(0, 1), (1, 1)]))  # rank meets its bound 1, not its 2 touched columns
@example(matrix(3, [(0, 1)], [(1, -1)]))  # rank 2 meets its 2 touched columns
def test_unit_functionals_exactly_when_rank_meets_touched_columns(m):
    # The witness's carry test (``pipeline._unit_columns``): the functional
    # of a free column is its unit vector exactly when no row touches the
    # column, so all are exactly when the rank meets the touched columns,
    # and their free columns are then the untouched ones.
    touched = {c for row in m.rows for c, _ in row.entries}
    for p in (P, 5):
        vecs = cokernel_functionals(m, p)
        unit = all(vec.count(0) == m.num_cols - 1 for vec in vecs)
        assert unit == (rank_mod_p(m, p) == len(touched))
        if unit:
            assert [vec.index(1) for vec in vecs] == sorted(set(range(m.num_cols)) - touched)
