"""The full-space link and IHX rows on encodings against the graft oracle.

The oracle in ``brute_force`` builds every row the long way: one
``PreGraftConfig`` per (marked tree, rest forest) grafted term by term on
concrete components, and every IHX row rewired on the decoded basis
diagrams, each term canonicalized as a whole diagram.  The functions in
``strutforge.relations`` must return the same rows, with the same
entries and provenance, in the same order, and the graft and IHX terms
they take from ``strutforge.diagrams`` (``graft_terms`` and
``ihx_terms``) must equal those joined and rewired on decoded
components.  ``expand_along`` must give
the row ``PreGraftConfig`` grafts for the same concrete diagram, whatever
its vertex orientations and component order.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cli_runner import invoke
from strutforge.bases import enumerate_basis, enumerate_y_basis, tree_components, tree_encodings
from strutforge.diagrams import (
    Diagram,
    Mode,
    canonicalize_component,
    decode_component,
    graft_terms,
    ihx_terms,
    strut,
    strut_encoding,
)
from strutforge.relations import (
    count_ihx_instances,
    count_link_configs,
    expand_along,
    ihx_relations,
    link_relations,
    marked_trees,
    y_link_relations,
)

import brute_force

H = Mode.HOMOTOPY
C = Mode.CONCORDANCE


@functools.lru_cache(maxsize=None)
def oracle_cell(k, d, mode):
    basis = enumerate_basis(k, d, mode)
    return (basis, brute_force.link_rows(k, d, mode, basis),
            brute_force.ihx_rows(k, d, mode, basis))


def rows_with_provenance(rows):
    return [(row.entries, row.provenance) for row in rows]


def assert_matches_oracle(k, d, mode):
    basis, link, ihx = oracle_cell(k, d, mode)
    assert rows_with_provenance(link_relations(k, d, mode, basis)) == \
        rows_with_provenance(link)
    assert rows_with_provenance(ihx_relations(k, d, mode, basis)) == \
        rows_with_provenance(ihx)
    assert count_ihx_instances(basis) == brute_force.ihx_instance_count(basis)


# every cell up to five colours and degree four; concordance (5, 4), the
# slowest, takes most of their few seconds
SMALL_FULL_CELLS = [(mode, k, d) for mode in (H, C) for k in range(1, 6) for d in range(1, 5)]


class TestRowsOnEncodings:
    @pytest.mark.parametrize("mode,k,d", SMALL_FULL_CELLS)
    def test_rows_match_graft_oracle(self, mode, k, d):
        assert_matches_oracle(k, d, mode)

    def test_relations_dump_matches_oracle(self):
        basis, link, ihx = oracle_cell(4, 3, H)
        expected = [f"{row.to_dump_text(basis)}  # {row.provenance}"
                    for row in link + ihx]
        forests = sum(len(marked_trees(4, dm, H))
                      * sum(1 for _ in brute_force.forests(4, 3 - dm, H))
                      for dm in range(1, 4))
        assert forests == count_link_configs(4, 3, H)
        raw = forests + brute_force.ihx_instance_count(basis)
        expected.append(f"raw {raw} effective {len(expected)}")
        result = invoke(["relations", "--space", "full", "--k", "4", "--degree", "3"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == expected


@functools.lru_cache(maxsize=None)
def oracle_y_cell(k, n, mode):
    """The Y basis and its deduped link rows, one ``PreGraftConfig`` per
    special strut (a, c*) and multiset of n+1 rest struts."""
    basis = enumerate_y_basis(k, n, mode)
    struts = tree_components(k, 1, mode)
    rows = [brute_force.PreGraftConfig(rest, strut(a, c), 1).relation_row(basis, mode, k)
            for a in range(1, k + 1) for c in range(1, k + 1) if a != c or mode is C
            for rest in itertools.combinations_with_replacement(struts, n + 1)]
    return basis, [row.entries for row in brute_force.dedup_rows(rows)]


def assert_y_matches_oracle(k, n, mode):
    basis, rows = oracle_y_cell(k, n, mode)
    assert [row.entries for row in y_link_relations(k, n, mode, basis)] == rows


def joined_graft_terms(marked, host, mode):
    """``graft_terms`` the generic way: decode both components, join the
    leg above each same-colored host leaf, canonicalize, sum the signs."""
    m_comp, comp = decode_component(marked), decode_component(host)
    terms = {}
    for v, color in comp.leaves():
        if color == marked[0]:
            enc, sign = canonicalize_component(
                brute_force.join_components(m_comp, 0, comp, v), mode)
            terms[enc] = terms.get(enc, 0) + sign
    return tuple((enc, sign) for enc, sign in terms.items() if sign)


def test_strut_on_strut_graft_is_the_joined_graft():
    for mode in (H, C):
        for c, a, x in itertools.product(range(1, 6), repeat=3):
            marked, host = bytes((c, a)), strut_encoding(c, x)
            assert graft_terms(marked, host, mode) == \
                joined_graft_terms(marked, host, mode), (mode, c, a, x)


def graft_pairs(k):
    """Every (marked tree, host tree, mode) on k colours with marked
    degree 1 to 3 and host degree 1 to 4 whose host has a leaf of the
    leg's colour."""
    for mode in (H, C):
        hosts = [host for dh in range(1, 5) for host in tree_encodings(k, dh, mode)]
        for dm in range(1, 4):
            for marked in marked_trees(k, dm, mode):
                for host in hosts:
                    if marked[0] in host:
                        yield marked, host, mode


# every pair up to four colours, and every ninth of the 72,320 at five,
# to stay within a couple of seconds
@pytest.mark.parametrize("k,stride", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 9)])
def test_graft_splice_is_the_joined_graft(k, stride):
    for marked, host, mode in itertools.islice(graft_pairs(k), 0, None, stride):
        assert graft_terms.__wrapped__(marked, host, mode) == \
            joined_graft_terms(marked, host, mode), (marked, host, mode)


def rewired_ihx_terms(enc, mode):
    """``ihx_terms`` the generic way: decode the component, rewire each
    internal edge's adjacency into H and X, and canonicalize them."""
    return tuple(((enc, 1), canonicalize_component(h, mode), canonicalize_component(x, mode))
                 for _, h, x in brute_force.ihx_instances(decode_component(enc)))


# every tree of degree 3 to 6 up to four colours, and every fifth of the
# 10,080 at five and every 23rd of the 39,020 at six
@pytest.mark.parametrize("k,stride", [(2, 1), (3, 1), (4, 1), (5, 5), (6, 23)])
def test_ihx_splice_is_the_rewired_triple(k, stride):
    trees = [(enc, mode) for mode in (H, C) for deg in range(3, 7)
             for enc in tree_encodings(k, deg, mode)]
    for enc, mode in trees[::stride]:
        assert ihx_terms.__wrapped__(enc, mode) == rewired_ihx_terms(enc, mode), (enc, mode)


MEMOS = (canonicalize_component, graft_terms, ihx_terms)


class TestSharedMemos:
    """The graft, IHX and canonical-form caches outlive a block, a cell
    and a space, so one process meets the same marked tree, host
    component or component in both modes, and the single-Y rows meet the
    full rows' strut-on-strut grafts."""

    @pytest.mark.parametrize("k,d", [(3, 4), (4, 3)])
    @pytest.mark.parametrize("modes", [(C, H), (H, C)])
    def test_both_modes_in_one_process(self, k, d, modes):
        for mode in modes:
            oracle_cell(k, d, mode)
        for memo in MEMOS:
            memo.cache_clear()
        for mode in modes:
            assert_matches_oracle(k, d, mode)

    @pytest.mark.parametrize("mode,k,n,d", [(H, 4, 1, 3), (C, 3, 1, 3)])
    @pytest.mark.parametrize("y_first", [True, False])
    def test_both_spaces_in_one_process(self, mode, k, n, d, y_first):
        oracle_y_cell(k, n, mode)
        oracle_cell(k, d, mode)
        for memo in MEMOS:
            memo.cache_clear()
        checks = [lambda: assert_y_matches_oracle(k, n, mode),
                  lambda: assert_matches_oracle(k, d, mode)]
        for check in checks if y_first else checks[::-1]:
            check()

    def test_memos_are_bounded(self):
        for memo in MEMOS:
            assert memo.cache_info().maxsize is not None


def expand_along_by_graft(d, c, fixed, basis):
    """``expand_along`` on concrete components: the first Y with legs c
    and fixed is cut off, the strut (c, x) joins the other components, and
    ``PreGraftConfig`` grafts the special strut (fixed, c*) onto them."""
    idx = next(i for i, comp in enumerate(d.components)
               if comp.degree == 2 and {c, fixed} <= set(comp.colors))
    legs = list(d.components[idx].leaf_colors())
    legs.remove(c)
    legs.remove(fixed)
    rest = d.components[:idx] + d.components[idx + 1:] + (strut(c, legs[0]),)
    return brute_force.PreGraftConfig(rest, strut(fixed, c), 1).relation_row(
        basis, d.mode, d.k, f"expand along {c} fixing {fixed}")


@functools.lru_cache(maxsize=None)
def expansion_cell(space, k, param, mode):
    """The basis, its columns whose diagram has a Y-component, and those
    of them with a second component that has a trivalent vertex, whose
    orientation signs scale the expansion row."""
    build = enumerate_y_basis if space == "y" else enumerate_basis
    basis = build(k, param, mode)
    cols, scaled = [], []
    for col in range(len(basis)):
        comps = basis.diagram(col).components
        if any(comp.degree == 2 for comp in comps):
            cols.append(col)
            if sum(comp.degree >= 2 for comp in comps) > 1:
                scaled.append(col)
    return basis, cols, scaled


def assert_expansion_matches_oracle(data, basis, cols):
    """Draw a column, a Y of it and two of its legs, flip random
    trivalent vertices, shuffle the components, and compare the
    expansion row with the graft oracle's."""
    mode, k = basis.spec.mode, basis.spec.k
    d = basis.diagram(data.draw(st.sampled_from(cols)))
    y_comp = data.draw(st.sampled_from(
        [comp for comp in d.components if comp.degree == 2]))
    c, fixed = data.draw(st.permutations(y_comp.leaf_colors()))[:2]
    comps = []
    for comp in d.components:
        for v, nbrs in enumerate(comp.adj):
            if len(nbrs) == 3 and data.draw(st.booleans()):
                comp = comp.with_flip(v)
        comps.append(comp)
    shuffled = Diagram(tuple(data.draw(st.permutations(comps))), mode, k)
    row = expand_along(shuffled, c, fixed, basis)
    expected = expand_along_by_graft(shuffled, c, fixed, basis)
    assert (row.entries, row.provenance) == (expected.entries, expected.provenance)


class TestExpandAlongOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_graft_oracle(self, data):
        mode = data.draw(st.sampled_from([H, C]))
        space = data.draw(st.sampled_from(["y", "full"]))
        k = data.draw(st.integers(3, 5))
        param = data.draw(st.integers(0, 2) if space == "y" else st.integers(2, 4))
        basis, cols, _ = expansion_cell(space, k, param, mode)
        assert_expansion_matches_oracle(data, basis, cols)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_other_components_signs_scale_the_row(self, data):
        # Degree 4 is the least full degree with a second trivalent
        # component next to the Y.
        mode = data.draw(st.sampled_from([H, C]))
        k = data.draw(st.integers(3, 5))
        basis, _, scaled = expansion_cell("full", k, 4, mode)
        assert_expansion_matches_oracle(data, basis, scaled)
