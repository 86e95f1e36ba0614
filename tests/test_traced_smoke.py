"""The traced benchmark command still reaches the functions it patches.

``perfbench/traced_op.py`` replaces module attributes by name; if one of
them is renamed the traced run breaks or records nothing for that span.
These tests run it on small cells and check that the tree-generation,
basis, row and linalg spans fill, the linalg ones on full concordance
(3, 7), whose (4, 4, 4) block is the one that does not peel.
``pipeline`` reaches the row builder and the elimination kernel through
functions that import them on first use; the spans fill only if the
pipeline calls those functions by the names the tracer patches.
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
    # a full cell's blocks build link and IHX rows, and a block whose rows
    # leave a column unpeeled, as the (4, 4, 4) block of concordance
    # (3, 7) does, is ranked; a Y cell's blocks peel and rank nothing
    trace = run_traced(tmp_path, "dim", "--space", "full", "--mode", "concordance",
                       "--k", "3", "--degree", "7", "--cache-dir", str(tmp_path / "cache"))
    for span in ("relations.link", "relations.ihx", "linalg.rank"):
        assert trace["self_s"].get(span, 0) > 0, span


def test_a_peeled_full_dim_fills_no_rank_span(tmp_path):
    trace = run_traced(tmp_path, "dim", "--space", "full", "--k", "4", "--degree", "3",
                       "--cache-dir", str(tmp_path / "cache"))
    assert trace["self_s"].get("relations.link", 0) > 0
    assert "linalg.rank" not in trace["self_s"]


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
    # only a block whose link rows leave a column unpeeled builds IHX
    # rows and is reduced
    trace = run_traced(tmp_path, "witness", "--space", "full", "--mode", "concordance",
                       "--k", "3", "--degree", "7", "--out", str(tmp_path / "w.json"))
    for span in ("relations.ihx", "linalg.cokernel"):
        assert trace["self_s"].get(span, 0) > 0, span
