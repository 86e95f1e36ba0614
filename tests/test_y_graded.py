"""The orbit-graded ``y`` dimension against the ungraded oracle, and the
block generators against the whole-cell basis and rows.

``compute_dimension`` ranks one leaf-multiset block per orbit of the
colour permutations; ``brute_force.dimension_ungraded`` ranks the
whole cell.  The block generators (``enumerate_y_basis`` and
``y_link_relations`` on a block) must list exactly the whole cell's
columns and rows with that leaf multiset.
"""

import itertools
import math
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from brute_force import dimension_ungraded
from cli_runner import invoke
import strutforge.linalg as linalg
import strutforge.pipeline as pipeline
from strutforge.bases import (
    _partitions,
    enumerate_y_basis,
    leaf_orbits,
    strut_union_count,
)
from strutforge.diagrams import Mode, encoding_leaf_colors
from strutforge.errors import CapacityError, DomainError
from strutforge.linalg import DEFAULT_PRIMES, PRIME_POOL
from strutforge.pipeline import compute_dimension
from strutforge.relations import y_link_relations

H = Mode.HOMOTOPY
C = Mode.CONCORDANCE

SMALL_CELLS = [(mode, k, n) for mode in (H, C)
               for k in range(1 if mode is C else 3, 7) for n in range(4)]


def leaf_multiset(encoding: bytes, k: int) -> tuple[int, ...]:
    counts = Counter(encoding_leaf_colors(encoding))
    return tuple(counts[c] for c in range(1, k + 1))


@lru_cache(maxsize=None)
def whole_cell(mode, k, n):
    """The whole cell's basis, and its columns and rows grouped by the
    leaf multiset of their diagrams."""
    basis = enumerate_y_basis(k, n, mode)
    cols, rows = {}, {}
    for cd in basis.elements:
        cols.setdefault(leaf_multiset(cd.encoding, k), set()).add(cd.encoding)
    for row in y_link_relations(k, n, mode, basis):
        first = basis.elements[row.entries[0][0]].encoding
        rows.setdefault(leaf_multiset(first, k), set()).add(row.entries)
    return basis, cols, rows


@pytest.mark.parametrize("mode,k,n", SMALL_CELLS)
def test_graded_record_equals_ungraded(mode, k, n):
    graded = compute_dimension(mode, "y", k, n)
    assert graded.replace(elapsed_ms=0, timestamp="") == \
        dimension_ungraded(mode, "y", k, n)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(SMALL_CELLS))
def test_blocks_partition_the_cell(cell):
    mode, k, n = cell
    basis, cols, rows = whole_cell(mode, k, n)
    for combo in itertools.combinations_with_replacement(range(1, k + 1), 2 * n + 3):
        counts = Counter(combo)
        leaves = tuple(counts[c] for c in range(1, k + 1))
        block = enumerate_y_basis(k, n, mode, leaves=leaves)
        assert [cd.encoding for cd in block.elements] == \
            sorted(cols.get(leaves, ())), leaves
        mapped = {tuple((basis.index[block.elements[c].encoding], v) for c, v in row.entries)
                  for row in y_link_relations(k, n, mode, block)}
        assert mapped == rows.get(leaves, set()), leaves
    weighted = sum(orbit * len(enumerate_y_basis(k, n, mode, leaves=leaves))
                   for leaves, orbit in leaf_orbits(k, "y", n))
    assert weighted == len(basis) == math.comb(k, 3) * strut_union_count(k, n, mode)


@pytest.mark.parametrize("k,n", [(1, 0), (3, 0), (4, 2), (9, 5), (12, 6)])
def test_orbits_cover_every_leaf_multiset(k, n):
    orbits = list(leaf_orbits(k, "y", n))
    assert sum(orbit for _, orbit in orbits) == math.comb(k + 2 * n + 2, 2 * n + 3)
    for leaves, _ in orbits:
        assert list(leaves) == sorted(leaves, reverse=True) and sum(leaves) == 2 * n + 3


@pytest.mark.parametrize("mode,k,n", [(C, 1, 60), (C, 2, 60), (H, 3, 60)])
def test_small_k_large_n_equals_ungraded(mode, k, n):
    graded = compute_dimension(mode, "y", k, n)
    assert graded.replace(elapsed_ms=0, timestamp="") == \
        dimension_ungraded(mode, "y", k, n)


def test_orbits_list_only_partitions_into_k_parts():
    # partitions of d into at most 3 parts: round((d + 3)^2 / 12); the
    # recursion stays k deep, far below the 1003 of the all-ones partition
    orbits = list(leaf_orbits(3, "y", 500))
    assert len(orbits) == round(1006 ** 2 / 12)
    assert sum(orbit for _, orbit in orbits) == math.comb(1005, 2)
    assert [leaves for leaves, _ in leaf_orbits(1, "y", 500)] == [(1003,)]


def test_partitions_into_at_most_m_parts():
    for d in range(12):
        for m in range(d + 2):
            assert list(_partitions(d, max_parts=m)) == \
                [p for p in _partitions(d) if len(p) <= m], (d, m)


def test_record_names_the_primes_a_block_rank_came_from(monkeypatch):
    real = linalg.rank_mod_p
    # the first prime undershoots, so each block retries on fresh primes
    # from the pool, which agree and certify it
    monkeypatch.setattr(linalg, "rank_mod_p",
                        lambda m, p: real(m, p) - (p == DEFAULT_PRIMES[0]))
    # with the peel refused, every block is ranked from its rows
    monkeypatch.setattr(pipeline, "peel_y_block", lambda basis: None)
    record = compute_dimension(H, "y", 4, 1)
    assert record.certified
    assert record.primes == PRIME_POOL[2:4]
    assert record.rank == dimension_ungraded(H, "y", 4, 1).rank


def _never(*_args, **_kwargs):
    raise AssertionError("a block was built before the guards")


GUARD_CASES = [
    # (k, n, max_basis, max_rows, error, message)
    (6, 2, 2399, 1, CapacityError, "2400 basis elements exceed the cap 2399"),
    (6, 2, 2400, 20399, CapacityError, "20400 configurations exceed the cap 20399"),
    (2, 2, 1, 1, DomainError, "the homotopy Y-subspace needs k >= 3"),
]


@pytest.mark.parametrize("k,n,max_basis,max_rows,error,message", GUARD_CASES)
def test_y_guards_come_before_any_block(monkeypatch, tmp_path, k, n, max_basis,
                                        max_rows, error, message):
    for name in ("enumerate_y_basis", "y_link_relations", "build_basis"):
        monkeypatch.setattr(f"strutforge.pipeline.{name}", _never)
    for name in ("bases._strut_multisets", "bases.forest_encodings",
                 "relations.forest_encodings"):
        monkeypatch.setattr(f"strutforge.{name}", _never)
    with pytest.raises(error, match=message):
        compute_dimension(H, "y", k, n, max_elements=max_basis, max_rows=max_rows)
    result = invoke([
        "dim", "--space", "y", "--k", str(k), "--n", str(n),
        "--max-basis", str(max_basis), "--max-rows", str(max_rows),
        "--cache-dir", str(tmp_path)])
    assert result.exit_code == 1 and message in result.output
    assert list(tmp_path.iterdir()) == []
