"""The full-space link and IHX rows on encodings against the graft oracle.

The oracle in ``brute_force`` builds every row the long way: one
``PreGraftConfig`` per (marked tree, rest forest) grafted term by term on
concrete components, and every IHX row rewired on the decoded basis
diagrams, each term canonicalized as a whole diagram.  The functions in
``strutforge.relations`` must return the same rows, with the same
entries and provenance, in the same order.
"""

import functools

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from strutforge.bases import enumerate_basis
from strutforge.cli import cli
from strutforge.diagrams import Mode
from strutforge.relations import (
    count_ihx_instances,
    count_link_configs,
    ihx_relations,
    link_relations,
    marked_trees,
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


@st.composite
def small_full_cells(draw):
    mode = draw(st.sampled_from([H, C]))
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, 4))
    return k, d, mode


class TestRowsOnEncodings:
    @settings(max_examples=12, deadline=None)
    @given(small_full_cells())
    def test_rows_match_graft_oracle(self, cell):
        assert_matches_oracle(*cell)

    def test_homotopy_five_colors_degree_four(self):
        assert_matches_oracle(5, 4, H)

    def test_concordance_three_colors_degree_four(self):
        assert_matches_oracle(3, 4, C)

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
        result = CliRunner().invoke(
            cli, ["relations", "--space", "full", "--k", "4", "--degree", "3"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == expected
