"""The whole-cell single-Y link rows against the graft oracle.

The oracle builds every row the long way: it grafts the distinguished
end of the special strut above each same-colored rest-strut end with
``PreGraftConfig``, canonicalizes each term, and looks it up in the basis.
``strutforge.relations`` builds each row with the link-row builder the
full space uses (``_link_row``), the special strut (a, c*) as the marked
strut ``bytes((c, a))``; ``iter_y_link_rows`` must give the oracle's rows,
provenance and attachment targets, configuration by configuration and in
its order, and the ``relations`` dump its lines.  The single-Y blocks
take the full space's rows, checked against the whole cell in
``test_y_graded.py``.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from strutforge.bases import enumerate_y_basis, tree_components
from strutforge.diagrams import (
    Mode,
    canonicalize_component,
    render_component,
    strut,
    strut_encoding,
)
from strutforge.errors import DomainError
from strutforge.relations import (
    count_effective_relations,
    iter_y_link_rows,
    y_link_config_count,
    y_link_relations,
)

from brute_force import PreGraftConfig
from cli_runner import invoke

H = Mode.HOMOTOPY
C = Mode.CONCORDANCE


def graft_y_link_rows(k, n, mode, basis):
    """Oracle: ((a, c, rest pairs), row, attachment targets) per
    configuration, in generation order, with the dump provenance."""
    struts = tree_components(k, 1, mode)
    for a in range(1, k + 1):
        for c in range(1, k + 1):
            if a == c and mode is H:
                continue
            for rest in itertools.combinations_with_replacement(struts, n + 1):
                config = PreGraftConfig(rest, strut(a, c), 1)
                desc = ",".join(render_component(s) for s in rest)
                row = config.relation_row(
                    basis, mode, k, f"y-link special={a}-{c}* rest={{{desc}}}")
                pairs = tuple(s.strut_ends() for s in rest)
                yield (a, c, pairs), row, len(config.attachment_targets())


@functools.lru_cache(maxsize=None)
def oracle_cell(k, n, mode):
    basis = enumerate_y_basis(k, n, mode)
    return basis, list(graft_y_link_rows(k, n, mode, basis))


def assert_matches_oracle(k, n, mode):
    basis, oracle = oracle_cell(k, n, mode)
    dumped = list(iter_y_link_rows(k, n, mode, basis))
    assert len(dumped) == len(oracle) == y_link_config_count(k, n, mode)
    for (row, targets), (config, oracle_row, oracle_targets) in zip(dumped, oracle):
        assert (row.entries, row.provenance, targets) == \
            (oracle_row.entries, oracle_row.provenance, oracle_targets), config
    deduped = sorted({row.normalized().entries for _, row, _ in oracle if row.entries})
    assert [row.entries for row in y_link_relations(k, n, mode, basis)] == deduped


class TestEncodings:
    def test_strut_encoding_matches_canonical_form(self):
        for mode in (H, C):
            for i, j in itertools.product(range(1, 7), repeat=2):
                expected = canonicalize_component(strut(i, j), mode)
                if mode is H and i == j:
                    assert expected == (b"", 0)
                else:
                    assert expected == (strut_encoding(i, j), 1), (mode, i, j)


@st.composite
def small_y_cells(draw):
    mode = draw(st.sampled_from([H, C]))
    k = draw(st.integers(3 if mode is H else 1, 5))
    n = draw(st.integers(0, 2))
    return k, n, mode


class TestClosedFormRows:
    @settings(max_examples=10, deadline=None)
    @given(small_y_cells())
    def test_rows_match_graft_oracle(self, cell):
        assert_matches_oracle(*cell)

    def test_homotopy_five_colors_three_struts(self):
        assert_matches_oracle(5, 3, H)

    def test_concordance_three_colors_one_strut(self):
        assert_matches_oracle(3, 1, C)

    def test_relations_dump_matches_oracle(self):
        basis, oracle = oracle_cell(4, 1, H)
        expected = [f"{row.to_dump_text(basis)}  # {row.provenance}"
                    for _, row, targets in oracle if targets]
        expected.append(f"raw {len(oracle)} effective {len(expected)}")
        result = invoke(["relations", "--space", "y", "--k", "4", "--n", "1"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == expected


def test_effective_count_matches_enumeration():
    for k, n in itertools.product((1, 2), range(3)):
        with pytest.raises(DomainError, match="needs k >= 3"):
            count_effective_relations(k, n)
    for k in range(3, 7):
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        for n in range(3):
            configs = [(c, rest) for a in range(1, k + 1) for c in range(1, k + 1)
                       if a != c
                       for rest in itertools.combinations_with_replacement(pairs, n + 1)]
            nonempty = sum(1 for c, rest in configs if any(c in s for s in rest))
            assert count_effective_relations(k, n) == (len(configs), nonempty), (k, n)
