"""The CLI as a separate process: ``python -m strutforge.cli`` in a fresh
directory, as a user runs it.

The ``relations`` dumps end with their (raw, effective) configuration
counts, and y k=8 n=3, larger than any cell the other tests rank, is
certified by peeling its blocks' columns with no row built.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(tmp_path, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "strutforge.cli", *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("args,closing", [
    (("--space", "full", "--k", "3", "--degree", "2"), "raw 21 effective 1"),
    (("--space", "y", "--k", "3", "--n", "1"), "raw 36 effective 30"),
    (("--space", "y", "--mode", "concordance", "--k", "3", "--n", "1"),
     "raw 189 effective 135"),
])
def test_relations_dump_closes_with_its_counts(tmp_path, args, closing):
    assert run_cli(tmp_path, "relations", *args).splitlines()[-1] == closing


def test_y_dim_k8_n3_is_certified(tmp_path):
    out = run_cli(tmp_path, "dim", "--space", "y", "--k", "8", "--n", "3",
                  "--cache-dir", str(tmp_path / "cache"))
    record = json.loads(out)
    assert (record["num_diagrams"], record["quotient_dim"],
            record["num_relations_effective"], record["certified"]) == \
        (227360, 0, 560840, True)
