import gc
import itertools
import math
from collections import Counter

import pytest

from strutforge import bases
from strutforge.bases import (
    Basis,
    BasisSpec,
    enumerate_basis,
    enumerate_trees,
    enumerate_y_basis,
    _partitions,
    forest_count,
    forest_encodings,
    strut_union_count,
    tree_components,
    tree_count,
)
from strutforge.counting import u
from strutforge.diagrams import (
    _SEP_BYTE,
    Mode,
    canonicalize,
    canonicalize_component,
    decode_component,
    decode_diagram,
    diagram_encoding,
    encoding_leaf_colors,
)
from strutforge.errors import CapacityError, DomainError
from strutforge.relations import count_link_configs, link_relations, marked_trees

import brute_force

H = Mode.HOMOTOPY
C = Mode.CONCORDANCE


def brute_force_y_encodings(k, n, mode):
    """Oracle: every brute-force Y tree next to every multiset of ``n``
    brute-force struts, canonicalized component by component."""
    def enc(comp):
        return canonicalize_component(comp, mode)[0]
    struts = [enc(s) for s in tree_components(k, 1, mode)]
    return sorted({
        _SEP_BYTE.join(sorted([enc(y), *rest]))
        for y in tree_components(k, 2, mode)
        for rest in itertools.combinations_with_replacement(struts, n)})


# (mode, largest k, largest degree) cells where the generator must equal
# the brute-force oracle.
ORACLE_GRID = ((H, 6, 4), (C, 6, 3), (C, 4, 4), (C, 2, 5))


class TestTreeGeneratorOracle:
    @pytest.mark.parametrize("mode,max_k,max_deg", ORACLE_GRID)
    def test_trees_and_marked_trees_match_brute_force(self, mode, max_k, max_deg):
        def marked_keys(configs):
            return {brute_force.marked_tree_key(comp, leg) for comp, leg in configs}

        for k in range(1, max_k + 1):
            for deg in range(1, max_deg + 1):
                assert tree_components(k, deg, mode) == \
                    brute_force.tree_components(k, deg, mode), (k, deg)
                generated = [(decode_component(enc), 0)
                             for enc in marked_trees(k, deg, mode)]
                assert len(marked_keys(generated)) == len(generated), (k, deg)
                assert marked_keys(generated) == \
                    marked_keys(brute_force.marked_trees(k, deg, mode)), (k, deg)


class TestTreeListing:
    """``tree_components`` keeps the marked encodings whose leg colour is
    their least colour, and canonicalizes only those whose least colour
    repeats in the expression, on the encoding (``canonical_encoding``)."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        real = bases.canonical_encoding

        def spy(enc, mode):
            calls.append(enc)
            return real(enc, mode)

        monkeypatch.setattr(bases, "canonical_encoding", spy)
        return calls

    def test_homotopy_trees_are_not_canonicalized(self, monkeypatch):
        calls = self.spy(monkeypatch)
        for k in range(1, 8):
            for deg in range(1, 6):
                tree_components(k, deg, H)
        assert calls == []

    @pytest.mark.parametrize("k,deg", [(1, 1), (2, 5), (3, 4), (4, 4), (5, 3)])
    def test_concordance_canonicalizes_a_repeated_least_colour_once(
            self, monkeypatch, k, deg):
        calls = self.spy(monkeypatch)
        tree_components(k, deg, C)
        repeated = [marked for marked in bases.marked_encodings(k, deg, C)
                    if min(marked) == marked[0] and marked[0] in marked[1:]]
        assert repeated and calls == repeated


class TestEnumerateTrees:
    def test_struts_for_three_colors(self):
        trees = enumerate_trees(3, 1, H)
        assert [cd.encoding for cd in trees] == [b"\x01\x02", b"\x01\x03", b"\x02\x03"]

    def test_y_components_one_per_color_triple(self):
        assert len(enumerate_trees(4, 2, H)) == 4

    def test_three_four_leaf_trees_per_color_quadruple(self):
        assert len(enumerate_trees(4, 3, H)) == 3
        assert len(enumerate_trees(5, 3, H)) == 15

    def test_concordance_small_colors(self):
        # Only the (12|12) leaf pairing survives antisymmetry with 2 colors.
        assert len(enumerate_trees(2, 3, C)) == 1
        assert len(enumerate_trees(2, 2, C)) == 0

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_trees(5, 3, H, max_elements=3)


class TestEnumerateYBasis:
    def test_single_y_no_struts(self):
        basis = enumerate_y_basis(3, 0, H)
        assert len(basis) == 1

    def test_ten_y_choices_on_five_colors(self):
        assert len(enumerate_y_basis(5, 0, H)) == 10

    def test_matches_closed_form(self):
        assert len(enumerate_y_basis(3, 1, H)) == u(1, 3) == 3
        for k in (3, 4, 5, 6):
            for n in (0, 1, 2):
                assert len(enumerate_y_basis(k, n, H)) == u(n, k)

    def test_leaf_count_is_2n_plus_3(self):
        basis = enumerate_y_basis(4, 2, H)
        for cd in basis.elements:
            assert len(encoding_leaf_colors(cd.encoding)) == 2 * 2 + 3

    def test_homotopy_needs_three_colors(self):
        with pytest.raises(DomainError):
            enumerate_y_basis(2, 1, H)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_y_basis(5, 2, H, max_elements=10)
        # The guard is the exact count, C(5, 3) Ys times C(10 + 1, 2)
        # strut pairs, checked before any work even far past the cap.
        assert len(enumerate_y_basis(5, 2, H, max_elements=550)) == 550
        with pytest.raises(CapacityError):
            enumerate_y_basis(5, 2, H, max_elements=549)
        with pytest.raises(CapacityError):
            enumerate_y_basis(60, 20, H)

    def test_matches_brute_force(self):
        for mode, k_min in ((H, 3), (C, 1)):
            for k in range(k_min, 7):
                for n in range(4):
                    basis = enumerate_y_basis(k, n, mode)
                    assert [cd.encoding for cd in basis.elements] == \
                        brute_force_y_encodings(k, n, mode), (mode, k, n)


class TestEnumerateBasis:
    def test_degree_two_three_colors(self):
        assert len(enumerate_basis(3, 2, H)) == 7

    def test_degree_two_five_colors(self):
        assert len(enumerate_basis(5, 2, H)) == 65

    def test_concordance_two_colors_degree_two(self):
        basis = enumerate_basis(2, 2, C)
        assert len(basis) == 6
        # multisets of two struts from {(1,1),(1,2),(2,2)}; no Y survives
        for cd in basis.elements:
            d = decode_diagram(cd.encoding, C, 2)
            assert all(comp.is_strut for comp in d.components)

    def test_degree_one_is_struts(self):
        basis = enumerate_basis(4, 1, H)
        for cd in basis.elements:
            d = decode_diagram(cd.encoding, H, 4)
            assert len(d.components) == 1 and d.components[0].is_strut

    def test_retains_large_components(self):
        # Degree-2 components on 3 colors stay in the basis; relations,
        # not enumeration, kill them in the quotient.
        basis = enumerate_basis(3, 2, H)
        shapes = {len(decode_diagram(cd.encoding, H, 3).components)
                  for cd in basis.elements}
        assert shapes == {1, 2}


class TestBasisStructure:
    def test_sorted_and_indexed(self):
        basis = enumerate_basis(4, 2, H)
        encs = [cd.encoding for cd in basis.elements]
        assert encs == sorted(encs)
        assert all(basis.index[e] == i for i, e in enumerate(encs))

    def test_all_sign_positive(self):
        basis = enumerate_basis(3, 3, C)
        for cd in basis.elements:
            assert cd.sign == 1
            d = decode_diagram(cd.encoding, C, 3)
            assert canonicalize(d).sign == 1

    def test_deterministic(self):
        a = enumerate_y_basis(5, 2, H)
        b = enumerate_y_basis(5, 2, H)
        assert a.elements == b.elements

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            BasisSpec(H, 3, "weird", 1)
        with pytest.raises(DomainError):
            BasisSpec(H, 3, "full", 0)
        with pytest.raises(DomainError):
            BasisSpec(H, 0, "y", 1)
        # a Y cell with one strut has 2n + 3 = 5 leaves, not 3
        with pytest.raises(DomainError,
                           match=r"leaves \(1, 1, 1\) is not a leaf multiset of this space"):
            BasisSpec(H, 3, "y", 1, (1, 1, 1))


def forests(k, d, mode):
    """``forest_encodings`` decoded into concrete components."""
    for forest in forest_encodings(k, d, mode):
        yield tuple(decode_component(enc) for enc in forest)


class TestForests:
    def test_empty_forest_for_degree_zero(self):
        assert list(forests(3, 0, H)) == [()]

    def test_forest_degrees_sum(self):
        for forest in forests(3, 3, H):
            assert sum(comp.degree for comp in forest) == 3

    def test_no_zero_components(self):
        for forest in forests(2, 3, C):
            for comp in forest:
                cols = [c for c in comp.colors if c > 0]
                assert comp.degree >= 1

    @pytest.mark.parametrize("mode,k,d", [(H, 4, 5), (H, 5, 4), (C, 3, 4), (C, 2, 5)])
    def test_component_slice_is_the_filtered_listing(self, mode, k, d):
        whole = list(forest_encodings(k, d, mode))
        for c in range(d + 2):
            assert list(forest_encodings(k, d, mode, components=c)) == \
                [forest for forest in whole if len(forest) == c], c

    @pytest.mark.parametrize("mode", [H, C])
    def test_a_block_listing_frees_its_memo_without_the_gc(self, mode):
        # The listing's recursive closures refer to themselves; if that
        # cycle outlived the listing, each block's strut memo would stay
        # until the next cyclic collection, raising the peak across blocks.
        gc.collect()
        gc.disable()
        try:
            forests = list(forest_encodings(4, 5, mode, (3, 2, 2, 2)))
            assert forests and gc.collect() == 0
        finally:
            gc.enable()

    def test_y_cell_is_the_slice_of_n_plus_one_components(self):
        for mode, k, n in ((H, 5, 2), (C, 3, 3)):
            spec = BasisSpec(mode, k, "y", n)
            assert (spec.degree, spec.components, spec.largest_tree) == (n + 2, n + 1, 2)
            sliced = {diagram_encoding(forest) for forest in forest_encodings(
                k, n + 2, mode) if len(forest) == n + 1}
            assert [cd.encoding for cd in enumerate_y_basis(k, n, mode).elements] == \
                sorted(sliced)


class TestForestCount:
    CELLS = ((H, 5, 4), (H, 6, 4), (H, 4, 5), (C, 3, 4), (C, 2, 5), (C, 1, 4))

    @pytest.mark.parametrize("mode,k,d", CELLS)
    def test_matches_enumeration(self, mode, k, d):
        count = forest_count(k, d, mode)
        assert count == len(enumerate_basis(k, d, mode))
        assert count == sum(1 for _ in brute_force.forests(k, d, mode))
        assert count_link_configs(k, d, mode) == sum(
            len(marked_trees(k, dm, mode))
            * sum(1 for _ in brute_force.forests(k, d - dm, mode))
            for dm in range(1, d + 1))

    def test_forests_decode_the_oracle_order(self):
        for mode, k, d in ((H, 4, 4), (C, 2, 4)):
            assert list(forests(k, d, mode)) == list(brute_force.forests(k, d, mode))

    def test_basis_cap_is_the_exact_count(self):
        count = forest_count(5, 4, H)
        assert len(enumerate_basis(5, 4, H, max_elements=count)) == count
        with pytest.raises(CapacityError):
            enumerate_basis(5, 4, H, max_elements=count - 1)

    def test_link_cap_is_the_exact_count(self):
        basis = enumerate_basis(4, 3, H)
        count = count_link_configs(4, 3, H)
        assert link_relations(4, 3, H, basis, max_configs=count)
        with pytest.raises(CapacityError):
            link_relations(4, 3, H, basis, max_configs=count - 1)

    def test_oversized_cell_raises_before_enumerating(self, monkeypatch):
        def never(*_):
            raise AssertionError("forests listed past the cap")

        # an element-free basis of the degree-20 cell: its spec is all
        # link_relations reads before the cap
        empty = Basis(BasisSpec(H, 4, "full", 20), (), {})
        monkeypatch.setattr("strutforge.bases.forest_encodings", never)
        monkeypatch.setattr("strutforge.relations.forest_encodings", never)
        # Four colors bound homotopy trees to degree 3, so the counts of
        # these cells take milliseconds: 7,528,128 forests of degree 22
        # and 57,740,100 link configurations at degree 20.
        with pytest.raises(CapacityError):
            enumerate_basis(4, 22, H)
        with pytest.raises(CapacityError):
            link_relations(4, 20, H, empty)

    def test_mismatched_basis_is_refused_before_the_cap(self):
        # the degree-1 basis is checked against degree 20 first, so the
        # degree-20 cell's 57,740,100 configurations are never capped
        with pytest.raises(DomainError, match="degree 20"):
            link_relations(4, 20, H, enumerate_basis(4, 1, H))


def generator_forest_count(k, d, mode):
    """forest_count by a partition walk over the generated trees."""
    return sum(math.prod(math.comb(len(tree_components(k, deg, mode)) + m - 1, m)
                         for deg, m in Counter(partition).items())
               for partition in _partitions(d))


class TestClosedFormCounts:
    def test_homotopy_counts_match_the_generator(self):
        for k in range(1, 8):
            for deg in range(1, 6):
                assert tree_count(k, deg, H) == len(tree_components(k, deg, H)), (k, deg)
                assert forest_count(k, deg, H) == generator_forest_count(k, deg, H), (k, deg)
                assert count_link_configs(k, deg, H) == sum(
                    len(marked_trees(k, dm, H)) * generator_forest_count(k, deg - dm, H)
                    for dm in range(1, deg + 1)), (k, deg)

    def test_concordance_counts_match_the_partition_walk(self):
        for k, d in ((1, 4), (2, 5), (3, 4)):
            assert forest_count(k, d, C) == generator_forest_count(k, d, C), (k, d)

    def test_homotopy_counts_build_no_tree(self, monkeypatch):
        def never(*_):
            raise AssertionError("trees generated for a count")

        for name in ("bases.tree_components", "bases.rooted_expressions",
                     "bases.marked_encodings", "relations.marked_trees"):
            monkeypatch.setattr(f"strutforge.{name}", never)
        # Trees on four colors stop at degree 3: 6 struts, 4 Ys, 3 H-trees.
        assert tree_count(4, 3, H) == 3 and tree_count(4, 4, H) == 0
        assert count_link_configs(4, 40, H) > forest_count(4, 39, H) > 0

    def test_homotopy_counts_bound_the_concordance_counts(self):
        # a homotopy tree has distinct colours, so it is a nonzero
        # concordance tree; its marked trees and forests are concordance ones
        for k in range(1, 6):
            for d in range(1, 7):
                assert forest_count(k, d, H) <= forest_count(k, d, C), (k, d)
                assert count_link_configs(k, d, H) <= count_link_configs(k, d, C), (k, d)

    def test_full_concordance_caps_refuse_on_the_bound_first(self, monkeypatch):
        def never(*_):
            raise AssertionError("trees listed before the closed-form bound")

        for name in ("tree_components", "rooted_expressions"):
            monkeypatch.setattr(bases, name, never)
        spec = BasisSpec(C, 4, "full", 8)
        with pytest.raises(CapacityError,
                           match="^at least 6608 basis elements exceed the cap 1$"):
            bases.check_cell(spec, max_elements=1)
        with pytest.raises(CapacityError,
                           match="^at least 62748 link configurations exceed the cap 1$"):
            bases.check_cell(spec, max_rows=1)

    def test_tree_count_rejects_bad_input(self):
        with pytest.raises(DomainError):
            tree_count(3, 0, H)
        with pytest.raises(DomainError):
            tree_count(0, 2, H)


class TestStrutUnionCount:
    def test_values(self):
        assert strut_union_count(3, 2, H) == 6
        assert strut_union_count(5, 3, H) == 220
        assert strut_union_count(2, 2, C) == 6
        assert strut_union_count(3, 0, H) == 1

    def test_matches_strut_only_basis_elements(self):
        basis = enumerate_basis(3, 2, H)
        strut_only = 0
        for cd in basis.elements:
            d = decode_diagram(cd.encoding, H, 3)
            if all(comp.is_strut for comp in d.components):
                strut_only += 1
        assert strut_only == strut_union_count(3, 2, H)
