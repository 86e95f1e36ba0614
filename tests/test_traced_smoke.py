"""The traced benchmark command still reaches the functions it patches.

``perfbench/traced_op.py`` replaces module attributes by name; if one of
them is renamed the traced run breaks or records nothing for that span.
These tests run it on tiny cells and check that the tree-generation,
basis and linalg spans fill.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_traced(tmp_path, *command):
    out = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_op.py"), str(out), *command],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def test_dim_fills_rank_span(tmp_path):
    # a full cell's blocks are ranked from their rows; a Y cell's blocks
    # peel and rank nothing
    trace = run_traced(tmp_path, "dim", "--space", "full", "--k", "3", "--degree", "2",
                       "--cache-dir", str(tmp_path / "cache"))
    assert trace["self_s"].get("linalg.rank", 0) > 0


def test_y_dim_fills_basis_span(tmp_path):
    trace = run_traced(tmp_path, "dim", "--space", "y", "--k", "3", "--n", "0",
                       "--cache-dir", str(tmp_path / "cache"))
    assert trace["self_s"].get("bases.basis", 0) > 0


def test_full_dim_fills_tree_spans(tmp_path):
    trace = run_traced(tmp_path, "dim", "--space", "full", "--k", "3", "--degree", "2",
                       "--cache-dir", str(tmp_path / "cache"))
    assert trace["self_s"].get("bases.tree_components", 0) > 0
    assert trace["self_s"].get("relations.marked_trees", 0) > 0


def test_witness_fills_cokernel_span(tmp_path):
    trace = run_traced(tmp_path, "witness", "--space", "full", "--k", "3",
                       "--degree", "2")
    assert trace["self_s"].get("linalg.cokernel", 0) > 0
