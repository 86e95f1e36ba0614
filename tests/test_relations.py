import re

import pytest

from strutforge.bases import _build_basis, enumerate_basis, enumerate_y_basis, tree_components
from strutforge.diagrams import (
    Mode,
    canonicalize,
    canonicalize_component,
    decode_component,
    decode_diagram,
    diagram,
    encoding_leaf_colors,
    encoding_trivalent_count,
    strut,
    y_tree,
)
from strutforge.errors import CapacityError, DomainError
from strutforge.relations import (
    RelationRow,
    count_effective_relations,
    count_ihx_instances,
    expand_along,
    ihx_relations,
    iter_y_link_rows,
    link_relations,
    marked_trees,
    y_link_config_count,
    y_link_relations,
)

from brute_force import PreGraftConfig, ihx_instances, rewire

H = Mode.HOMOTOPY
C = Mode.CONCORDANCE


def signed_entries(basis, *weighted_diagrams):
    """Expected row entries from concrete (diagram, multiplicity) pairs."""
    coeffs = {}
    for d, w in weighted_diagrams:
        cd = canonicalize(d)
        assert cd.sign != 0
        col = basis.index[cd.encoding]
        coeffs[col] = coeffs.get(col, 0) + w * cd.sign
    return tuple(sorted((c, v) for c, v in coeffs.items() if v))


class TestYLinkRelations:
    def test_single_forced_y_at_no_struts(self):
        basis = enumerate_y_basis(3, 0, H)
        rows = y_link_relations(3, 0, H, basis)
        assert len(rows) == 1
        assert len(rows[0].entries) == 1
        assert abs(rows[0].entries[0][1]) == 1

    def test_raw_config_count_is_r(self):
        from strutforge.counting import r
        assert y_link_config_count(3, 1, H) == 36 == r(1, 3)
        for k in (3, 4, 5, 6):
            for n in (0, 1, 2, 3):
                assert y_link_config_count(k, n, H) == r(n, k)

    def test_multiplicity_two_from_repeated_strut(self):
        basis = enumerate_y_basis(3, 1, H)
        target = diagram([y_tree(3, 1, 2), strut(1, 2)], H, 3)
        expected = signed_entries(basis, (target, 2))
        found = [row for row, _ in iter_y_link_rows(3, 1, H, basis)
                 if "special=3-1*" in row.provenance
                 and "{1-2,1-2}" in row.provenance]
        assert len(found) == 1
        assert found[0].entries == expected

    def test_double_attachment_with_three_colors(self):
        # Config special (3,1*), rest {(1,2),(1,3)}: both struts carry a
        # 1-end, but the graft onto the (1,3) strut makes a Y with two
        # 3-legs, so only one entry survives canonicalization.
        basis = enumerate_y_basis(3, 1, H)
        found = [(row, targets) for row, targets in iter_y_link_rows(3, 1, H, basis)
                 if "special=3-1*" in row.provenance
                 and "{1-2,1-3}" in row.provenance]
        assert len(found) == 1
        row, targets = found[0]
        assert targets == 2
        assert len(row.entries) == 1

    def test_double_attachment_with_four_colors_keeps_both(self):
        basis = enumerate_y_basis(4, 1, H)
        found = [row for row, _ in iter_y_link_rows(4, 1, H, basis)
                 if "special=4-1*" in row.provenance
                 and "{1-2,1-3}" in row.provenance]
        assert len(found) == 1
        assert len(found[0].entries) == 2
        expected = signed_entries(
            basis,
            (diagram([y_tree(4, 1, 2), strut(1, 3)], H, 4), 1),
            (diagram([y_tree(4, 1, 3), strut(1, 2)], H, 4), 1),
        )
        assert found[0].entries == expected

    def test_rows_have_at_most_n_plus_2_nonzeros(self):
        for k, n in ((4, 2), (5, 1), (3, 3)):
            basis = enumerate_y_basis(k, n, H)
            for row in y_link_relations(k, n, H, basis):
                assert len(row.entries) <= n + 2

    def test_capacity_guard(self):
        basis = enumerate_y_basis(4, 2, H)
        with pytest.raises(CapacityError):
            y_link_relations(4, 2, H, basis, max_configs=10)

    def test_wrong_basis_rejected(self):
        basis = enumerate_y_basis(4, 1, H)
        with pytest.raises(DomainError):
            y_link_relations(4, 2, H, basis)
        with pytest.raises(DomainError,
                           match=r"basis does not match enumerate_y_basis\(k, n, mode\)"):
            list(iter_y_link_rows(4, 1, H, enumerate_y_basis(3, 1, H)))


class TestCountEffectiveRelations:
    def test_no_strut_case(self):
        assert count_effective_relations(3, 0) == (18, 12)

    def test_one_strut_raw(self):
        assert count_effective_relations(3, 1)[0] == 36

    def test_nine_colors(self):
        assert count_effective_relations(9, 0) == (2592, 576)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            count_effective_relations(9, 50)

    @pytest.mark.parametrize("k,n", [(3, -1), (3, -2), (0, 0), (100, 1)])
    def test_domain_is_checked_first(self, k, n):
        with pytest.raises(DomainError):
            count_effective_relations(k, n)


class TestLinkRelations:
    def test_contains_the_y_killing_row(self):
        basis = enumerate_basis(3, 2, H)
        rows = link_relations(3, 2, H, basis)
        y_col = basis.index[canonicalize(diagram([y_tree(1, 2, 3)], H, 3)).encoding]
        assert any(row.entries == ((y_col, 1),) for row in rows)

    def test_basis_must_match_the_degree(self):
        with pytest.raises(DomainError, match="basis does not match"):
            link_relations(4, 3, H, enumerate_basis(4, 2, H))

    @pytest.mark.parametrize("d,mode", [(4, H), (7, C)])
    def test_ihx_basis_must_match_the_mode_and_degree(self, d, mode):
        # The concordance degree-4 basis has IHX rows (3 of them) but is
        # neither a homotopy basis nor a degree-7 one.
        basis = enumerate_basis(3, 4, C)
        assert len(ihx_relations(3, 4, C, basis)) == 3
        with pytest.raises(DomainError, match="basis does not match"):
            ihx_relations(3, d, mode, basis)

    def test_a_block_basis_missing_a_column_is_refused(self):
        # Every column of this block is a term of one of its rows, so a
        # block basis rebuilt without any one of them meets a term it
        # cannot place (``_term_column``).
        block = enumerate_basis(4, 3, H, leaves=(2, 1, 1, 1))
        assert link_relations(4, 3, H, block)
        for drop in range(len(block)):
            short = _build_basis(block.spec, [element.encoding for col, element
                                              in enumerate(block.elements) if col != drop])
            with pytest.raises(DomainError, match="relation term falls outside the basis"):
                link_relations(4, 3, H, short)

    def test_unmatched_color_emits_nothing(self):
        # Degree 1: the only legs live on the marked strut itself.
        basis = enumerate_basis(4, 1, H)
        assert link_relations(4, 1, H, basis) == []

    def test_grafting_onto_y_makes_degree_three_component(self):
        basis = enumerate_basis(5, 4, H)
        rows = link_relations(5, 4, H, basis, max_configs=200_000)
        hits = 0
        for row in rows:
            if "marked=1-3@1*" not in row.provenance:
                continue
            if "Y(" not in row.provenance:
                continue
            for col, _ in row.entries:
                d = decode_diagram(basis.elements[col].encoding, H, 5)
                if any(comp.degree == 3 for comp in d.components):
                    hits += 1
        assert hits > 0

    def test_row_grading(self):
        for mode, k, d in ((H, 5, 3), (C, 3, 3)):
            basis = enumerate_basis(k, d, mode)
            rows = link_relations(k, d, mode, basis) + ihx_relations(k, d, mode, basis)
            for row in rows:
                encs = [basis.elements[c].encoding for c, _ in row.entries]
                assert len({encoding_trivalent_count(e) for e in encs}) == 1
                assert len({encoding_leaf_colors(e) for e in encs}) == 1

    def test_y_rows_equal_y_supported_full_rows(self):
        for k, n in ((3, 1), (4, 0)):
            y_basis = enumerate_y_basis(k, n, H)
            full = enumerate_basis(k, n + 2, H)
            y_rows = {row.entries for row in y_link_relations(k, n, H, y_basis)}
            projected = set()
            for row in link_relations(k, n + 2, H, full):
                encs = [full.elements[c].encoding for c, _ in row.entries]
                if all(e in y_basis.index for e in encs):
                    remapped = tuple(sorted(
                        (y_basis.index[e], v)
                        for e, (_, v) in zip(encs, row.entries)))
                    row2 = RelationRow(remapped).normalized()
                    projected.add(row2.entries)
            assert projected == y_rows


class TestPreGraftConfig:
    def test_worked_example(self):
        # Special strut (3,2*) over {(2,1),(2,4),(5,6)}: attaching the
        # distinguished end to each 2-end gives the two-term relation.
        basis = enumerate_basis(6, 4, H)
        config = PreGraftConfig((strut(2, 1), strut(2, 4), strut(5, 6)),
                                strut(3, 2), 1)
        assert config.color == 2
        assert config.total_degree == 4
        assert config.attachment_targets() == [(0, 0), (1, 0)]
        row = config.relation_row(basis, H, 6)
        expected = signed_entries(
            basis,
            (diagram([y_tree(3, 2, 1), strut(2, 4), strut(5, 6)], H, 6), 1),
            (diagram([y_tree(3, 2, 4), strut(2, 1), strut(5, 6)], H, 6), 1),
        )
        assert row.entries == expected

    def test_marked_leg_must_be_leaf(self):
        with pytest.raises(DomainError):
            PreGraftConfig((strut(1, 2),), y_tree(1, 2, 3), 3)


class TestMarkedTrees:
    @staticmethod
    def decoded(k, deg, mode):
        # each marked encoding decodes with the leg at vertex 0
        return [(decode_component(enc), 0) for enc in marked_trees(k, deg, mode)]

    def test_concordance_includes_marked_color_collision(self):
        # A Y with legs {1, 1, 2} marked at a 1-leg survives the marking
        # test even though the unmarked diagram is zero.
        configs = self.decoded(2, 2, C)
        collision = [
            (comp, leg) for comp, leg in configs
            if sorted(c for c in comp.colors if c) == [1, 1, 2]
            and comp.colors[leg] == 1]
        assert collision

    def test_symmetric_marked_tree_dropped(self):
        # A Y with legs {1, 1, 2} marked at the 2-leg equals its own
        # negative under the leg swap and generates nothing.
        configs = self.decoded(2, 2, C)
        assert not [
            (comp, leg) for comp, leg in configs
            if sorted(c for c in comp.colors if c) == [1, 1, 2]
            and comp.colors[leg] == 2]

    def test_homotopy_marked_trees_have_distinct_colors(self):
        for comp, leg in self.decoded(4, 2, H):
            cols = [c for c in comp.colors if c]
            assert len(set(cols)) == len(cols)


class TestIhxRelations:
    def test_none_below_internal_edges(self):
        basis = enumerate_basis(4, 2, H)
        assert ihx_relations(4, 2, H, basis) == []

    def test_golden_row_four_colors(self):
        basis = enumerate_basis(4, 3, H)
        rows = ihx_relations(4, 3, H, basis)
        assert len(rows) == 1
        by_enc = {basis.elements[c].encoding.hex(): v for c, v in rows[0].entries}
        # +T(12|34) - T(13|24) + T(14|23): the Jacobi identity on the
        # canonical representatives.
        assert by_enc == {
            "017e027e0304": 1,
            "017e037e0204": -1,
            "017e047e0203": 1,
        }

    def test_i_term_is_the_component(self):
        # Rewiring an internal edge with its own four subtrees, the I
        # term, rebuilds the tree, so ``ihx_instances`` yields ``comp``.
        for mode in (H, C):
            for k in range(3, 6):
                for deg in range(3, 6):
                    for comp in tree_components(k, deg, mode):
                        own = canonicalize_component(comp, mode)
                        assert own[1] == 1
                        for u, v in comp.internal_edges():
                            iu, jv = comp.adj[u].index(v), comp.adj[v].index(u)
                            at_u = (comp.adj[u][(iu + 1) % 3], comp.adj[u][(iu + 2) % 3])
                            at_v = (comp.adj[v][(jv + 1) % 3], comp.adj[v][(jv + 2) % 3])
                            rewired = rewire(comp, u, v, at_u, at_v)
                            assert canonicalize_component(rewired, mode) == own, \
                                (mode, k, deg, comp, u, v)
                        assert all(term_i is comp for term_i, _, _ in ihx_instances(comp))

    def test_one_relation_per_color_quadruple(self):
        basis = enumerate_basis(5, 3, H)
        rows = ihx_relations(5, 3, H, basis)
        assert len(rows) == 5
        assert count_ihx_instances(basis) == 15
        for row in rows:
            assert sorted(abs(v) for _, v in row.entries) == [1, 1, 1]


class TestExpandAlong:
    def test_three_strut_identity(self):
        basis = enumerate_y_basis(5, 3, H)
        d = decode_diagram(canonicalize(diagram(
            [y_tree(1, 2, 3), strut(1, 2), strut(1, 4), strut(1, 5)], H, 5)
        ).encoding, H, 5)
        row = expand_along(d, 1, 3, basis)
        expected = signed_entries(
            basis,
            (diagram([y_tree(3, 1, 2), strut(1, 2), strut(1, 4), strut(1, 5)], H, 5), 2),
            (diagram([y_tree(3, 1, 4), strut(1, 2), strut(1, 2), strut(1, 5)], H, 5), 1),
            (diagram([y_tree(3, 1, 5), strut(1, 2), strut(1, 2), strut(1, 4)], H, 5), 1),
        )
        assert row.entries == expected

    def test_swap_identity(self):
        basis = enumerate_y_basis(5, 3, H)
        d4 = decode_diagram(canonicalize(diagram(
            [y_tree(1, 3, 4), strut(3, 4), strut(2, 3), strut(3, 5)], H, 5)
        ).encoding, H, 5)
        row = expand_along(d4, 3, 1, basis)
        expected = signed_entries(
            basis,
            (diagram([y_tree(1, 3, 4), strut(3, 4), strut(2, 3), strut(3, 5)], H, 5), 2),
            (diagram([y_tree(1, 3, 2), strut(3, 4), strut(3, 4), strut(3, 5)], H, 5), 1),
            (diagram([y_tree(1, 3, 5), strut(3, 4), strut(2, 3), strut(3, 4)], H, 5), 1),
        )
        assert row.entries == expected

    def test_refuses_one_color_for_both_legs(self):
        basis = enumerate_y_basis(3, 0, H)
        d = decode_diagram(basis.elements[0].encoding, H, 3)
        with pytest.raises(DomainError, match="expansion needs two distinct leg colors"):
            expand_along(d, 1, 1, basis)

    def test_bare_y_gives_single_term(self):
        basis = enumerate_y_basis(3, 0, H)
        d = decode_diagram(basis.elements[0].encoding, H, 3)
        row = expand_along(d, 1, 3, basis)
        assert row.entries == ((0, 1),)

    def test_always_a_generated_row(self):
        basis = enumerate_y_basis(4, 2, H)
        generated = {row.entries for row in y_link_relations(4, 2, H, basis)}
        for col in (0, len(basis) // 2, len(basis) - 1):
            d = decode_diagram(basis.elements[col].encoding, H, 4)
            y_comp = next(c for c in d.components if c.degree == 2)
            legs = list(y_comp.leaf_colors())
            row = expand_along(d, legs[0], legs[1], basis)
            assert row.normalized().entries in generated

    def test_missing_y_rejected(self):
        basis = enumerate_y_basis(4, 0, H)
        enc = canonicalize(diagram([y_tree(1, 2, 3)], H, 4)).encoding
        d = decode_diagram(enc, H, 4)
        with pytest.raises(DomainError):
            expand_along(d, 1, 4, basis)  # no Y-leg colored 4
        with pytest.raises(DomainError):
            expand_along(diagram([strut(1, 2)], H, 4), 1, 2, basis)


class TestRowText:
    def test_dump_roundtrip(self):
        basis = enumerate_y_basis(3, 1, H)
        for row, _ in iter_y_link_rows(3, 1, H, basis):
            text = row.to_dump_text(basis)
            back = RelationRow.from_dump_text(text, basis, row.provenance)
            assert back.entries == row.entries

    def test_bad_dump_token_is_a_domain_error(self):
        # No such column, no "*", a bad coefficient, bad hex.
        basis = enumerate_y_basis(3, 1, H)
        column = basis.elements[0].encoding.hex()
        for token in ("+1*0102", "garbage", f"+x*{column}", "+1*zz"):
            with pytest.raises(DomainError, match=re.escape(repr(token))):
                RelationRow.from_dump_text(token, basis)

    def test_row_validation(self):
        with pytest.raises(DomainError):
            RelationRow(((1, 0),))
        with pytest.raises(DomainError):
            RelationRow(((2, 1), (1, 1)))
