"""The orbit-graded ``witness`` against the ungraded oracle, byte for byte.

``sparse_witness`` reduces one representative block per orbit and
carries its unit functionals across the orbit; when a representative's
rank falls short of the columns its rows touch, it reduces every block
of the orbit.  No cell reaches that branch, so one test forces it.  The
functionals stay sparse until the CLI writes them, and the dense JSON it
writes from their entries must give ``json.dumps``'s bytes of the dense
document; ``compute_witness`` is that dense document.
"""

import json

import pytest
from hypothesis import given, strategies as st

from brute_force import witness_ungraded
from cli_runner import invoke
import strutforge.pipeline as pipeline
from strutforge.bases import enumerate_basis
from strutforge.cli import _witness_parts
from strutforge.diagrams import Mode
from strutforge.pipeline import compute_witness, sparse_witness

H = Mode.HOMOTOPY
C = Mode.CONCORDANCE

WITNESS_CELLS = [(H, "y", 6, 2), (C, "y", 4, 2), (H, "full", 5, 4),
                 (H, "full", 4, 3), (C, "full", 3, 4), (C, "full", 2, 5)]


def _witness_json(doc):
    """``json.dumps`` of the dense witness document: the CLI's streamed
    pieces joined."""
    return "".join(_witness_parts(doc))


def _check_written_bytes(mode, space, k, param):
    text = _witness_json(sparse_witness(mode, space, k, param))
    assert text == json.dumps(witness_ungraded(mode, space, k, param))
    assert compute_witness(mode, space, k, param)["functionals"] == \
        json.loads(text)["functionals"]


@pytest.mark.parametrize("mode,space,k,param", WITNESS_CELLS)
def test_witness_bytes_equal_the_ungraded_oracle(mode, space, k, param):
    _check_written_bytes(mode, space, k, param)


@pytest.mark.parametrize("mode,space,k,param", WITNESS_CELLS)
def test_per_block_reduction_gives_the_same_bytes(monkeypatch, mode, space, k, param):
    monkeypatch.setattr(pipeline, "_unit_columns", lambda *_: None)
    _check_written_bytes(mode, space, k, param)


def test_carry_needs_every_functional_to_be_a_unit_vector():
    # ``_unit_columns`` gives the free columns only when no functional
    # has two nonzero entries; otherwise the orbit is reduced block by block.
    block = enumerate_basis(3, 2, H)
    unit = [[int(col == free) for col in range(len(block))] for free in (1, 4)]
    assert pipeline._unit_columns(block, unit) == \
        [block.elements[1].encoding, block.elements[4].encoding]
    two = [1 if col in (0, 4) else 0 for col in range(len(block))]
    assert pipeline._unit_columns(block, [unit[0], two]) is None


def test_cli_writes_the_oracle_bytes(tmp_path):
    out = tmp_path / "w.json"
    result = invoke(["witness", "--space", "full", "--mode", "concordance",
                     "--k", "3", "--degree", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_text(encoding="utf-8") == json.dumps(witness_ungraded(C, "full", 3, 3)) + "\n"


def test_cli_never_builds_dense_functionals(monkeypatch, tmp_path):
    def dense(*_args, **_kwargs):
        raise AssertionError("the CLI built dense functionals")

    monkeypatch.setattr(pipeline, "compute_witness", dense)
    out = tmp_path / "w.json"
    result = invoke(["witness", "--space", "full", "--k", "4",
                     "--degree", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_text(encoding="utf-8") == json.dumps(witness_ungraded(H, "full", 4, 3)) + "\n"


PRIME = 2147483647


@st.composite
def sparse_document(draw):
    n = draw(st.integers(0, 40))
    functionals = []
    if n:
        for _ in range(draw(st.integers(0, 4))):
            cols = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
            functionals.append([(c, draw(st.integers(1, PRIME - 1))) for c in cols])
    return n, functionals


@given(sparse_document())
def test_written_functionals_are_json_of_the_dense_vectors(document):
    n, functionals = document
    basis = ["0102"] * n
    dense = []
    for entries in functionals:
        vec = [0] * n
        for c, v in entries:
            vec[c] = v
        dense.append(vec)
    assert _witness_json({"basis": basis, "prime": PRIME, "functionals": functionals}) == \
        json.dumps({"basis": basis, "prime": PRIME, "functionals": dense})
