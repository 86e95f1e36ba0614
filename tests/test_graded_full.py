"""The orbit-graded ``full`` dimension against the ungraded oracle, and
the block generators against the whole cell.

``compute_dimension`` ranks one leaf-multiset block per orbit of the
colour permutations; ``brute_force.dimension_ungraded`` ranks the whole
cell.  The keyed forest generator (``forest_encodings`` with
``leaves``) and the block bases and rows must list exactly the whole
cell's forests, columns and rows with that leaf multiset, and ask for
no tree or marked tree too large for a block's leaves, in both spaces.
"""

import itertools
import math
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from brute_force import dimension_ungraded
import strutforge.bases as bases
import strutforge.pipeline as pipeline
import strutforge.relations as relations
from strutforge.bases import (
    BasisSpec,
    enumerate_basis,
    forest_count,
    forest_encodings,
    leaf_orbits,
    leaf_totals,
    leaf_vector,
    strut_union_count,
)
from strutforge.diagrams import Mode
from strutforge.pipeline import build_relations, compute_dimension
from strutforge.relations import count_ihx_instances, ihx_relations, link_relations

H = Mode.HOMOTOPY
C = Mode.CONCORDANCE

GRADED_CELLS = ([(H, k, d) for k in range(1, 6) for d in range(1, 5)]
                + [(C, k, d) for k in range(1, 4) for d in range(1, 5)])


@pytest.mark.parametrize("mode,k,d", GRADED_CELLS)
def test_graded_record_equals_ungraded(mode, k, d):
    graded = compute_dimension(mode, "full", k, d)
    assert graded.replace(elapsed_ms=0, timestamp="") == \
        dimension_ungraded(mode, "full", k, d)


@lru_cache(maxsize=None)
def whole_cell(mode, k, d):
    """The whole cell's basis, and its forests, columns and rows grouped
    by leaf multiset."""
    forests, cols, rows = {}, {}, {}
    for forest in forest_encodings(k, d, mode):
        forests.setdefault(leaf_vector(b"".join(forest), k), []).append(tuple(sorted(forest)))
    basis = enumerate_basis(k, d, mode)
    for cd in basis.elements:
        cols.setdefault(leaf_vector(cd.encoding, k), []).append(cd.encoding)
    for row in build_relations(basis)[0]:
        first = basis.elements[row.entries[0][0]].encoding
        rows.setdefault(leaf_vector(first, k), set()).add(row.entries)
    return basis, forests, cols, rows


def leaf_multisets(k, d):
    for total in leaf_totals("full", d):
        for combo in itertools.combinations_with_replacement(range(1, k + 1), total):
            counts = Counter(combo)
            yield tuple(counts[c] for c in range(1, k + 1))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(H, k, d) for k in range(1, 6) for d in range(1, 5)]
                       + [(C, k, d) for k in range(1, 4) for d in range(1, 4)]))
def test_blocks_partition_the_cell(cell):
    mode, k, d = cell
    basis, forests, cols, rows = whole_cell(mode, k, d)
    for leaves in leaf_multisets(k, d):
        keyed = [tuple(sorted(forest)) for forest in forest_encodings(k, d, mode, leaves)]
        assert sorted(keyed) == sorted(forests.get(leaves, ())), leaves
        block = enumerate_basis(k, d, mode, leaves=leaves)
        assert [cd.encoding for cd in block.elements] == cols.get(leaves, []), leaves
        mapped = {tuple((basis.index[block.elements[c].encoding], v) for c, v in row.entries)
                  for row in build_relations(block)[0]}
        assert mapped == rows.get(leaves, set()), leaves
    weighted = sum(orbit * len(enumerate_basis(k, d, mode, leaves=leaves))
                   for leaves, orbit in leaf_orbits(k, "full", d))
    assert weighted == len(basis) == forest_count(k, d, mode)


@pytest.mark.parametrize("mode,k,d", [(H, 5, 4), (C, 3, 4)])
def test_blocks_without_an_edge_skip_no_ihx_row(mode, k, d):
    # A block on L leaves has trees of degree at most 2d - L + 1; below 3
    # there is no internal edge and its columns are not scanned.  The
    # same columns under the whole cell's spec are scanned one by one.
    skipped = 0
    for leaves, _ in leaf_orbits(k, "full", d):
        block = enumerate_basis(k, d, mode, leaves=leaves)
        scanned = block.replace(spec=BasisSpec(mode, k, "full", d))
        ihx = ihx_relations(k, d, mode, scanned)
        assert ihx_relations(k, d, mode, block) == ihx, leaves
        rows = {row.entries for row in link_relations(k, d, mode, block) + ihx}
        built, instances = build_relations(block)
        assert ([row.entries for row in built], instances) == \
            (sorted(rows), count_ihx_instances(scanned)), leaves
        skipped += 2 * d - sum(leaves) + 1 < 3 and len(block) > 0
    assert skipped


def test_ihx_instances_are_counted_once_per_block(monkeypatch):
    ungraded = dimension_ungraded(H, "full", 5, 4)
    real = pipeline.count_ihx_instances
    counted = []

    def spy(basis):
        counted.append(basis.spec.leaves)
        return real(basis)

    monkeypatch.setattr(pipeline, "count_ihx_instances", spy)
    record = compute_dimension(H, "full", 5, 4)
    assert record.num_relations_raw == ungraded.num_relations_raw
    blocks = [leaves for leaves, _ in leaf_orbits(5, "full", 4)
              if len(enumerate_basis(5, 4, H, leaves=leaves)) and sum(leaves) < 8]
    # one call per block with rows, none on the whole basis or on the
    # strut-only blocks, whose 8 leaves make 4 struts and no row
    assert counted == blocks and None not in counted


def spy_on_degrees(monkeypatch):
    """The tree degrees asked of ``bases._tree_groups`` and the marked
    tree degrees asked of ``relations._marked_groups``, as they come."""
    requested = {"tree": set(), "marked": set()}
    for module, name, kind in ((bases, "_tree_groups", "tree"),
                               (relations, "_marked_groups", "marked")):
        def spy(k, deg, mode, real=getattr(module, name), kind=kind):
            requested[kind].add(deg)
            return real(k, deg, mode)

        monkeypatch.setattr(module, name, spy)
    return requested


@pytest.mark.parametrize("mode,k,d", [(H, 5, 4), (H, 6, 5), (C, 3, 4), (C, 4, 3)])
def test_a_block_requests_no_tree_beyond_its_leaves(monkeypatch, mode, k, d):
    # a forest of degree d on L leaves has L - d components, so none of
    # its trees has degree above 2d - L + 1; a marked tree of degree dm
    # leaves a rest forest of degree d - dm on L - dm <= 2(d - dm) leaves
    requested = spy_on_degrees(monkeypatch)
    for leaves, _ in leaf_orbits(k, "full", d):
        bound = 2 * d - sum(leaves)
        requested["tree"].clear()
        list(forest_encodings(k, d, mode, leaves))
        assert max(requested["tree"], default=0) <= bound + 1, leaves
        block = enumerate_basis(k, d, mode, leaves=leaves)
        requested["marked"].clear()
        link_relations(k, d, mode, block)
        assert max(requested["marked"], default=0) <= bound, leaves


def test_y_blocks_request_only_ys_and_marked_struts(monkeypatch):
    # a Y block of n struts is the degree-(n + 2) full block on its 2n + 3
    # leaves: its forests take trees of degree at most 2d - L + 1 = 2,
    # and its marked trees degree at most 2d - L = 1; with the peel
    # refused, every block builds its rows
    requested = spy_on_degrees(monkeypatch)
    monkeypatch.setattr(pipeline, "peel_y_block", lambda basis: None)
    record = compute_dimension(H, "y", 6, 4)
    assert record.num_diagrams == math.comb(6, 3) * strut_union_count(6, 4, H)
    assert requested == {"tree": {2}, "marked": {1}}
