"""The orbit-graded ``witness`` against the ungraded oracle, byte for byte.

``compute_witness`` reduces one representative block per orbit and
carries its unit functionals across the orbit; when a representative's
rank falls short of the columns its rows touch, it reduces every block
of the orbit.  No cell reaches that branch, so one test forces it.  The
CLI writes the dense functionals from their zero runs, which must give
``json.dumps``'s bytes.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from brute_force import witness_ungraded
import strutforge.pipeline as pipeline
from strutforge.cli import _dense_json, _witness_json, cli
from strutforge.diagrams import Mode
from strutforge.pipeline import compute_witness

H = Mode.HOMOTOPY
C = Mode.CONCORDANCE

WITNESS_CELLS = [(H, "y", 6, 2), (C, "y", 4, 2), (H, "full", 5, 4),
                 (H, "full", 4, 3), (C, "full", 3, 4), (C, "full", 2, 5)]


@pytest.mark.parametrize("mode,space,k,param", WITNESS_CELLS)
def test_witness_bytes_equal_the_ungraded_oracle(mode, space, k, param):
    assert _witness_json(compute_witness(mode, space, k, param)) == \
        json.dumps(witness_ungraded(mode, space, k, param))


@pytest.mark.parametrize("mode,space,k,param", WITNESS_CELLS)
def test_per_block_reduction_gives_the_same_bytes(monkeypatch, mode, space, k, param):
    monkeypatch.setattr(pipeline, "_untouched_columns", lambda *_: None)
    assert _witness_json(compute_witness(mode, space, k, param)) == \
        json.dumps(witness_ungraded(mode, space, k, param))


def test_cli_writes_the_oracle_bytes(tmp_path):
    out = tmp_path / "w.json"
    result = CliRunner().invoke(cli, ["witness", "--space", "full", "--mode", "concordance",
                                      "--k", "3", "--degree", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_text(encoding="utf-8") == json.dumps(witness_ungraded(C, "full", 3, 3)) + "\n"


@given(st.lists(st.sampled_from([0, 0, 0, 1, 7, 2147483646])))
def test_dense_functional_text_is_json(vec):
    assert _dense_json(vec) == json.dumps(vec)
