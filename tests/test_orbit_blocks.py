"""The orbit claim behind the graded pipeline, checked directly.

``compute_dimension`` ranks one leaf-multiset block per orbit of the
colour permutations, weighted by the orbit's size, and ``sparse_witness``
adds no functional for an orbit whose representative block has full
column rank.  Both rest on this: a colour permutation s maps block M onto
block sM by a signed column bijection (each diagram goes to its
recoloured canonical diagram, times that diagram's canonical sign), and
the image of M's distinct rows under it is sM's distinct rows, up to
row sign.  Here the bijection is built from concrete diagrams, each
recoloured component canonicalized again, and every block of every
orbit is compared with its representative.  The recoloured encodings
(``brute_force.recoloured_encoding``) are checked against the same
concrete diagrams.
"""

from __future__ import annotations

import pytest

from brute_force import colour_table, recoloured_encoding
from strutforge.bases import BasisSpec, leaf_orbits
from strutforge.diagrams import Diagram, Mode, TreeComponent, canonicalize
from strutforge.pipeline import _rearrangements, build_basis, build_relations
from strutforge.relations import _normalized

H = Mode.HOMOTOPY
C = Mode.CONCORDANCE

CELLS = [
    (H, "y", 4, 1), (H, "y", 5, 1), (H, "y", 4, 2),
    (C, "y", 3, 1), (C, "y", 4, 1),
    (H, "full", 4, 3), (H, "full", 5, 3), (H, "full", 4, 4),
    (C, "full", 2, 4), (C, "full", 3, 3), (C, "full", 2, 5),
]


def recoloured(d: Diagram, table: bytes) -> Diagram:
    """``d`` with every leaf colour c replaced by ``table[c]``."""
    return Diagram(tuple(TreeComponent(comp.adj, tuple(table[c] if c else 0
                                                        for c in comp.colors))
                         for comp in d.components), d.mode, d.k)


def block(mode, space, k, param, leaves):
    """(basis, set of distinct rows' entries) of one block."""
    basis = build_basis(BasisSpec(mode, k, space, param, leaves))
    rows = build_relations(basis)[0]
    return basis, {row.entries for row in rows}


@pytest.mark.parametrize("mode,space,k,param", CELLS)
def test_a_colour_permutation_carries_each_block_onto_its_image(mode, space, k, param):
    compared = 0
    for leaves, orbit in leaf_orbits(k, space, param):
        basis, rows = block(mode, space, k, param, leaves)
        images = list(_rearrangements(leaves))
        assert len(images) == len(set(images)) == orbit
        for image in images:
            table = colour_table(leaves, image)
            assert sorted(table[1:k + 1]) == list(range(1, k + 1))
            other, other_rows = block(mode, space, k, param, image)
            assert len(other) == len(basis)
            column = []  # the representative's column -> (image column, sign)
            for col in range(len(basis)):
                canon = canonicalize(recoloured(basis.diagram(col), table))
                assert canon.sign in (1, -1)
                assert canon.encoding == recoloured_encoding(
                    basis.elements[col].encoding, table, mode)
                column.append((other.index[canon.encoding], canon.sign))
            assert len({c for c, _ in column}) == len(other)
            mapped = {_normalized(tuple(sorted((column[c][0], v * column[c][1])
                                               for c, v in entries)))
                      for entries in rows}
            assert mapped == other_rows
            assert len(mapped) == len(rows)
            compared += 1
    assert compared
