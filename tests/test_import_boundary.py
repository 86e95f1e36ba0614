"""A command loads only the layers it runs.

``--version``, a cache-hit ``dim`` and a fully cached ``sweep`` import
``strutforge.records`` and no engine module; a cache miss imports the
pipeline.  A single-Y ``dim`` or ``witness`` whose blocks all peel loads
neither the row builder nor the elimination kernel.  A full ``dim`` or
``witness`` builds its blocks' rows, but loads the elimination kernel
only for a block whose rows leave a column unpeeled, which full
concordance (3, 7) has.  No command loads click, and no module
imports it.  No command loads ``dataclasses``, ``inspect`` or
``datetime`` beyond what a bare interpreter loads, and no module
imports the first or the last.  Relation terms are spliced and
canonicalized on encodings in ``diagrams``: neither the peel nor the row
builder decodes an encoding into a tree, the row builder imports nothing
of the peel, and no module but ``diagrams`` and ``bases`` names the node
byte.  The
package exports its names lazily, every name moved into ``records`` is
the same object under its old module, and every module attribute that
``perfbench/traced_op.py`` patches still resolves.  The cache's line
pattern is compiled by the first cache load, so start-up and a command
that loads no cache file do not pay for it.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strutforge
from strutforge.diagrams import Mode
from strutforge.pipeline import ResultCache

ROOT = Path(__file__).resolve().parents[1]
ENGINE = {f"strutforge.{name}" for name in
          ("bases", "diagrams", "peel", "relations", "linalg", "pipeline", "counting")}

# Runs the CLI as ``python -m strutforge.cli`` would, then writes the
# strutforge modules it loaded, how many times it built the cache's line
# pattern, whether click was loaded and every module loaded, to the file
# named by the first argument.
RUN_CLI = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["strutforge", *sys.argv[2:]]
try:
    runpy.run_module("strutforge.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
else:
    code = 0
records = sys.modules.get("strutforge.records")
with open(out, "w") as fh:
    json.dump({"modules": sorted(m for m in sys.modules if m.startswith("strutforge")),
               "pattern_builds": records and records._line_pattern.cache_info().misses,
               "click": "click" in sys.modules, "all": sorted(sys.modules)}, fh)
sys.exit(code)
"""


def run_cli(tmp_path, *args):
    out = tmp_path / "modules.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", RUN_CLI, str(out), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), proc


def loaded_modules(tmp_path, *args):
    run, proc = run_cli(tmp_path, *args)
    return set(run["modules"]), proc


def test_version_loads_no_engine(tmp_path):
    modules, proc = loaded_modules(tmp_path, "--version")
    assert strutforge.__version__ in proc.stdout
    assert modules == {"strutforge", "strutforge.errors", "strutforge.records"}


def test_cache_hit_dim_loads_no_engine(tmp_path):
    cache = tmp_path / "cache"
    args = ["dim", "--space", "y", "--k", "4", "--n", "1", "--cache-dir", str(cache)]
    modules, proc = loaded_modules(tmp_path, *args)
    assert "(cache hit)" not in proc.stderr
    assert "strutforge.pipeline" in modules
    modules, proc = loaded_modules(tmp_path, *args)
    assert "(cache hit)" in proc.stderr
    assert json.loads(proc.stdout)["num_diagrams"] == 24
    assert not modules & ENGINE


# What a cache-miss single-Y dim or witness loads: the blocks peel
# (``peel``), so no row is built and no matrix ranked.
Y_PEEL = {"strutforge", *(f"strutforge.{name}" for name in
                          ("errors", "records", "pipeline", "bases", "diagrams", "peel"))}


def test_peeled_y_commands_load_no_rows_or_linalg(tmp_path):
    y = ["--space", "y", "--k", "4", "--n", "1"]
    runs = [["dim", *y, "--mode", mode, "--cache-dir", str(tmp_path / mode)]
            for mode in ("homotopy", "concordance")]
    runs.append(["witness", *y, "--out", str(tmp_path / "w.json")])
    for args in runs:
        modules, proc = loaded_modules(tmp_path, *args)
        assert "(cache hit)" not in proc.stderr
        assert modules == Y_PEEL, args


@pytest.mark.parametrize("command,mode,k,degree,linalg", [
    ("dim", "homotopy", "3", "2", False), ("witness", "homotopy", "4", "3", False),
    ("dim", "concordance", "3", "7", True)])
def test_full_commands_load_linalg_only_for_a_block_that_does_not_peel(
        tmp_path, command, mode, k, degree, linalg):
    out = ["--cache-dir", str(tmp_path / "cache")] if command == "dim" else \
        ["--out", str(tmp_path / "w.json")]
    modules, proc = loaded_modules(tmp_path, command, "--space", "full", "--mode", mode,
                                   "--k", k, "--degree", degree, *out)
    assert "(cache hit)" not in proc.stderr
    assert "strutforge.relations" in modules
    assert ("strutforge.linalg" in modules) is linalg


@pytest.mark.parametrize("module,loads", [
    # the peel needs canonical forms only, and the elimination kernel
    # reads rows only through their entries
    ("peel", {"errors", "records", "diagrams", "peel"}),
    ("linalg", {"errors", "records", "linalg"}),
])
def test_peel_and_linalg_load_no_row_builder(module, loads):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, strutforge.{module}; "
         "print(*(m for m in sys.modules if m.startswith('strutforge')))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == {"strutforge", *(f"strutforge.{m}" for m in loads)}


def test_rows_and_peel_share_one_graft_memo():
    from strutforge import diagrams, peel, relations
    assert peel.graft_terms is relations.graft_terms is diagrams.graft_terms
    assert peel.term_column is relations.term_column is diagrams.term_column


def referenced_names(path):
    """Every name a source file imports, reads or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module,unused", [
    # the peel takes its grafts from diagrams and canonicalizes nothing;
    # the rows keep canonicalize_component for expand_along's Diagram
    ("peel", {"canonical_encoding", "decode_component", "canonicalize_component"}),
    ("relations", {"decode_component"}),
])
def test_row_builders_build_no_tree(module, unused):
    names = referenced_names(ROOT / "src" / "strutforge" / f"{module}.py")
    assert not names & unused


def test_relation_terms_are_canonicalized_on_encodings():
    tree = ast.parse((ROOT / "src" / "strutforge" / "diagrams.py").read_text(encoding="utf-8"))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("graft_terms", "ihx_terms"):
        called = {node.func.id for node in ast.walk(bodies[name])
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "canonical_encoding" in called, name
        assert not called & {"decode_component", "canonicalize_component"}, name


def test_relation_terms_live_in_diagrams():
    # relation terms are made in diagrams, so the row builder reads
    # nothing of the peel, and only diagrams and the rooted-expression
    # generator of bases read or write the encoding's node byte
    relations = ast.parse((ROOT / "src" / "strutforge" / "relations.py").read_text(
        encoding="utf-8"))
    imported = {part for node in ast.walk(relations)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in (getattr(node, "module", None) or "",
                             *(alias.name for alias in node.names))
                for part in name.split(".")}
    assert "peel" not in imported and "diagrams" in imported
    for path in (ROOT / "src" / "strutforge").glob("*.py"):
        if path.stem not in ("diagrams", "bases"):
            assert not referenced_names(path) & {"_NODE", "_NODE_BYTE"}, path


def test_no_command_loads_click(tmp_path):
    dim = ["dim", "--space", "y", "--k", "4", "--n", "1",
           "--cache-dir", str(tmp_path / "cache")]
    for args in (["--version"], dim, dim):
        run, proc = run_cli(tmp_path, *args)
        assert run["click"] is False, args
    assert "(cache hit)" in proc.stderr


def imported_modules(path):
    """The top-level names of the modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_click():
    for path in (ROOT / "src" / "strutforge").glob("*.py"):
        assert "click" not in imported_modules(path), path


# Modules a command pays for at start-up without needing them: the value
# classes are slotted classes, not dataclasses, and the record timestamp
# comes from ``time``.
HEAVY = {"dataclasses", "inspect", "datetime"}


def test_no_module_imports_dataclasses_or_datetime():
    for path in (ROOT / "src" / "strutforge").glob("*.py"):
        assert not imported_modules(path) & {"dataclasses", "datetime"}, path


def test_commands_load_no_dataclasses_inspect_or_datetime(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert bare.returncode == 0, bare.stderr
    preloaded = HEAVY & set(bare.stdout.split())
    dim = ["dim", "--space", "y", "--k", "4", "--n", "1",
           "--cache-dir", str(tmp_path / "cache")]
    witness = ["witness", "--space", "y", "--k", "4", "--n", "1",
               "--out", str(tmp_path / "w.json")]
    for args, hit in ((["--version"], False), (dim, False), (dim, True), (witness, False)):
        run, proc = run_cli(tmp_path, *args)
        assert ("(cache hit)" in proc.stderr) == hit, args
        assert HEAVY & set(run["all"]) <= preloaded, args
    assert "strutforge.pipeline" in run["modules"]


def test_only_a_cache_load_builds_the_line_pattern(tmp_path):
    assert run_cli(tmp_path, "--version")[0]["pattern_builds"] == 0
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    imported = subprocess.run(
        [sys.executable, "-c", "import strutforge.records as r; "
         "print(r._line_pattern.cache_info().misses)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert imported.stdout.strip() == "0", imported.stderr
    args = ["dim", "--space", "y", "--k", "3", "--n", "1",
            "--cache-dir", str(tmp_path / "cache")]
    run, proc = run_cli(tmp_path, *args)
    assert "(cache hit)" not in proc.stderr and run["pattern_builds"] == 0
    run, proc = run_cli(tmp_path, *args)
    assert "(cache hit)" in proc.stderr and run["pattern_builds"] == 1


def test_cached_sweep_loads_no_engine(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    for k in (3, 4):
        for n in (0, 1):
            cache.get_or_compute(Mode.HOMOTOPY, "y", k, n)
    out = tmp_path / "sweep.csv"
    modules, _ = loaded_modules(tmp_path, "sweep", "--space", "y", "--k-range", "3:4",
                                "--n-range", "0:1", "--out", str(out),
                                "--cache-dir", str(tmp_path / "cache"))
    assert len(out.read_text().splitlines()) == 1 + 4
    assert not modules & ENGINE


def test_star_import_binds_every_name():
    namespace = {}
    exec("from strutforge import *", namespace)
    assert set(strutforge.__all__) <= set(namespace)
    assert set(strutforge.__all__) <= set(dir(strutforge))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        strutforge.no_such_name


@pytest.mark.parametrize("module,names", [
    ("diagrams", ("Mode",)),
    ("bases", ("DEFAULT_MAX_ELEMENTS",)),
    ("relations", ("DEFAULT_MAX_ROWS",)),
    ("linalg", ("DEFAULT_PRIMES", "PRIME_POOL", "is_prime")),
    ("pipeline", ("Mode", "DEFAULT_MAX_ELEMENTS", "DEFAULT_MAX_ROWS", "DEFAULT_PRIMES",
                  "is_prime", "CSV_HEADER", "CACHE_ENV_VAR", "CACHE_FILENAME",
                  "ResultRecord", "resolve_cache_dir", "ResultCache")),
])
def test_moved_names_are_the_same_objects(module, names):
    from strutforge import records
    old = importlib.import_module(f"strutforge.{module}")
    for name in names:
        assert getattr(old, name) is getattr(records, name), (module, name)


def test_package_names_are_their_modules_objects():
    for module, names in strutforge._EXPORTS.items():
        source = importlib.import_module(f"strutforge.{module}")
        for name in names:
            assert getattr(strutforge, name) is getattr(source, name), name


def test_traced_cache_miss_and_hit_reach_the_patched_names(tmp_path):
    # traced_op.install() looks up every attribute it patches, so a name
    # that moved away fails the run; the spans show that a miss reaches
    # the patched pipeline.compute_dimension and a hit does not.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = ["dim", "--space", "y", "--k", "3", "--n", "1",
            "--cache-dir", str(tmp_path / "cache")]
    spans = []
    for _ in range(2):
        out = tmp_path / "trace.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced_op.py"), str(out), *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(out.read_text(encoding="utf-8"))
        spans.append((set(trace["self_s"]), trace["counts"].get("pipeline.lookup_hits", 0)))
    (miss, miss_hits), (hit, hit_hits) = spans
    assert {"pipeline.compute_dimension", "pipeline.cache_lookup",
            "pipeline.cache_append"} <= miss and miss_hits == 0
    assert "pipeline.compute_dimension" not in hit and hit_hits == 1
