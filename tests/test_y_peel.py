"""The row-free peel of single-Y blocks against their real rows.

``peel.y_peel_passes`` reads each column's peel pass and the
block's distinct row count off the column encodings; the oracle peels
the rows ``pipeline.build_relations`` builds for the same block
(``brute_force.peel_passes``) and ranks them with ``rank_multiprime``.
A block whose peel is refused falls back to those rows and gives the
same record.
"""

import pytest
from hypothesis import given, settings, strategies as st

from brute_force import peel_passes
import strutforge.pipeline as pipeline
from strutforge.bases import enumerate_basis, enumerate_y_basis, leaf_orbits
from strutforge import peel
from strutforge.diagrams import Mode, diagram_encoding
from strutforge.errors import DomainError
from strutforge.linalg import SparseMatrix, rank_multiprime
from strutforge.pipeline import build_relations, compute_dimension
from strutforge.peel import peel_y_block, y_peel_passes

H = Mode.HOMOTOPY
C = Mode.CONCORDANCE

SMALL_CELLS = [(mode, k, n) for mode in (H, C)
               for k in range(3, 7) for n in range(4)]


def y_blocks(mode, k, n):
    for leaves, _ in leaf_orbits(k, "y", n):
        block = enumerate_y_basis(k, n, mode, leaves=leaves)
        if len(block):
            yield leaves, block


@pytest.mark.parametrize("mode,k,n", SMALL_CELLS)
def test_passes_and_counts_equal_the_rows(mode, k, n):
    for leaves, block in y_blocks(mode, k, n):
        rows = build_relations(block)[0]
        passes, num_rows = y_peel_passes(block)
        oracle = peel_passes(rows)
        assert passes == [oracle.get(col, 0) for col in range(len(block))], leaves
        assert num_rows == len(rows), leaves
        rank = rank_multiprime(SparseMatrix.from_rows(rows, len(block))).rank
        assert peel_y_block(block) == (rank, len(rows)), leaves


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([H, C]), st.integers(3, 8), st.integers(0, 3),
       st.data())
def test_a_random_block_peels_as_its_rows_do(mode, k, n, data):
    if k + n > 10:
        n = 10 - k
    orbits = list(leaf_orbits(k, "y", n))
    leaves, _ = data.draw(st.sampled_from(orbits))
    block = enumerate_y_basis(k, n, mode, leaves=leaves)
    rows = build_relations(block)[0]
    oracle = peel_passes(rows)
    passes, num_rows = y_peel_passes(block)
    assert passes == [oracle.get(col, 0) for col in range(len(block))]
    assert num_rows == len(rows)


@pytest.mark.parametrize("mode", [H, C])
def test_a_third_pass_equals_the_rows(mode):
    # some columns of this block peel in pass 3, so the rounds after the
    # pass-2 lookups run too
    block = enumerate_y_basis(5, 5, mode, leaves=(3, 3, 3, 2, 2))
    oracle = peel_passes(build_relations(block)[0])
    passes = y_peel_passes(block)[0]
    assert passes == [oracle.get(col, 0) for col in range(len(block))]
    assert max(passes) == 3


@pytest.mark.parametrize("mode,k,n", [(H, 5, 2), (H, 6, 3), (C, 4, 2), (C, 5, 3)])
def test_refused_peel_falls_back_to_the_same_record(monkeypatch, mode, k, n):
    peeled = compute_dimension(mode, "y", k, n)
    monkeypatch.setattr(pipeline, "peel_y_block", lambda basis: None)
    ranked = compute_dimension(mode, "y", k, n)
    assert peeled.replace(elapsed_ms=0, timestamp="") == \
        ranked.replace(elapsed_ms=0, timestamp="")


def test_a_round_that_peels_nothing_gives_up(monkeypatch):
    # each row of a column that fails pass 1 also holds that column, so
    # none of those columns ever peels and the first later round stops
    unpatched = compute_dimension(H, "y", 4, 3)
    real_rows = peel._y_rows

    def stuck_rows(index, parts, bands, mode):
        col = index[diagram_encoding(parts)]
        for row in real_rows(index, parts, bands, mode):
            yield row + [col]

    monkeypatch.setattr(peel, "_y_rows", stuck_rows)
    block = enumerate_y_basis(4, 3, H, leaves=(3, 2, 2, 2))
    assert y_peel_passes(block)[0] == [1, 0, 1, 1, 1, 1, 1, 1, 1, 1]
    assert peel_y_block(block) is None
    built = []
    real_build = pipeline.build_relations

    def counted_build(basis):
        built.append(basis)
        return real_build(basis)

    monkeypatch.setattr(pipeline, "build_relations", counted_build)
    record = compute_dimension(H, "y", 4, 3)
    assert built and record.certified  # the refused blocks took the row path
    assert record.replace(elapsed_ms=0, timestamp="") == \
        unpatched.replace(elapsed_ms=0, timestamp="")


def test_a_peeled_block_builds_no_rows(monkeypatch):
    def never(*_args, **_kwargs):
        raise AssertionError("a peeled block built its rows")

    for name in ("build_relations", "rank_multiprime", "link_relations"):
        monkeypatch.setattr(pipeline, name, never)
    record = compute_dimension(H, "y", 6, 3)
    assert (record.quotient_dim, record.certified) == (0, True)


def test_only_a_single_y_basis_is_peeled():
    with pytest.raises(DomainError, match="single-Y"):
        y_peel_passes(enumerate_basis(4, 3, H))
