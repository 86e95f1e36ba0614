#!/usr/bin/env python3
"""strutforge benchmark: CLI workloads timed end to end, plus a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload y-dim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

The load is a closed loop with one client.  Every operation is one fresh
``python -m strutforge.cli`` process (``src`` on ``PYTHONPATH``), and the
next starts only after the previous one has exited; nothing runs in
parallel.  A pass runs every operation of a workload once.  Passes repeat
while another is expected to end within ``--seconds``; at least one runs.

``--trace 0`` reports the end-to-end metrics: the median pass time
``pass_s``, the median over passes of the largest ``ru_maxrss`` of any
process in the pass, and ``setup_s``, the median time of a no-work
``--version`` call (interpreter start plus imports).

Times are host-calibrated.  The speed of a shared host drifts by tens of
percent within seconds to minutes, so a fixed pure-Python calibration
process runs before the first timed process and after each one, and a
process's wall time is scaled by ``CALIBRATION_REF_S`` over the mean
wall time of the calibrations on either side of it.  The result is the
time the process would take on a host where the calibration takes
``CALIBRATION_REF_S``.  The raw wall times stay in the run record as
``pass_wall_s`` and ``setup_wall_s``.

``--trace 1`` alternates an untraced pass with a traced pass, in which
every operation runs under ``perfbench/traced_op.py`` in its own process,
so the ``lru_cache``s start cold as they do for CLI users; it reports the
per-layer metrics.

Answers are checked after each operation, outside the timed span.  A
nonzero exit, a timeout, a wrong answer or an unexpected cache hit counts
the operation as failed.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a run record with the
environment and every sample goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

RUN_DEADLINE_S = 170  # processes still running this long into a run are killed
RUN_BUDGET_S = 150  # no pass starts that is expected to end later than this
SETUP_CALLS = 9
HISTORY_RECORDS = 5000
SWEEP_KS = range(3, 7)
SWEEP_NS = range(0, 3)
SWEEP_ARGS = ["sweep", "--mode", "homotopy", "--space", "y",
              "--k-range", "3:6", "--n-range", "0:2"]
CSV_HEADER = ("mode,space,k,param,num_diagrams,num_relations_raw,"
              "num_relations_effective,rank,quotient_dim,primes,elapsed_ms,"
              "tool_version,timestamp")

# Fixed work, unrelated to strutforge, whose wall time measures host speed.
CALIBRATION = """
counts = {}
for i in range(150000):
    key = (i % 97, i % 13, bytes((i % 7, i % 5)))
    counts[key] = counts.get(key, 0) + 1
order = sorted(counts.items())
"""
CALIBRATION_REF_S = 0.25

END_TO_END = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
RAW = {"pass_wall_s": "s", "setup_wall_s": "s", "calibration_s": "s"}
PER_LAYER = {
    "bases.tree_components_s": "s", "bases.basis_s": "s", "bases.cols": "count",
    "relations.marked_trees_s": "s", "relations.y_link_s": "s",
    "relations.link_s": "s", "relations.ihx_s": "s", "relations.count_s": "s",
    "relations.configs": "count", "relations.rows": "count",
    "relations.nnz": "count", "relations.row_yield": "ratio",
    "diagrams.canon_calls": "count", "diagrams.canon_hit_ratio": "ratio",
    "diagrams.canon_cache_size": "count",
    "linalg.assemble_s": "s", "linalg.rank_s": "s", "linalg.cokernel_s": "s",
    "linalg.rank": "count", "linalg.quotient_dim": "count",
    "linalg.functionals": "count", "linalg.primes_used": "count",
    "pipeline.cache_lookup_s": "s", "pipeline.cache_append_s": "s",
    "pipeline.cache_lines": "count", "pipeline.lookup_hits": "count",
    "cli.witness_write_s": "s", "cli.witness_bytes": "bytes",
    "mem.rss_after_basis_mb": "MB", "mem.rss_after_relations_mb": "MB",
    "mem.rss_after_linalg_mb": "MB",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}
# Per-layer time metric -> span names in traced_op.py whose self time it sums.
LAYER_SPANS = {
    "bases.tree_components_s": ("bases.tree_components",),
    "bases.basis_s": ("bases.basis",),
    "relations.marked_trees_s": ("relations.marked_trees",),
    "relations.y_link_s": ("relations.y_link",),
    "relations.link_s": ("relations.link",),
    "relations.ihx_s": ("relations.ihx",),
    "relations.count_s": ("relations.count",),
    "linalg.assemble_s": ("linalg.assemble",),
    "linalg.rank_s": ("linalg.rank",),
    "linalg.cokernel_s": ("linalg.cokernel",),
    "pipeline.cache_lookup_s": ("pipeline.cache_lookup",),
    "pipeline.cache_append_s": ("pipeline.cache_append",),
}
LAYER_COUNTS = ("bases.cols", "relations.configs", "relations.rows",
                "relations.nnz", "linalg.rank", "linalg.quotient_dim",
                "linalg.functionals", "linalg.primes_used",
                "pipeline.lookup_hits")


@dataclass(frozen=True)
class Cell:
    command: str  # "dim" or "witness"
    mode: str
    space: str
    k: int
    param: int
    quotient_dim: int  # expected answer

    def args(self) -> list[str]:
        flag = "--n" if self.space == "y" else "--degree"
        return [self.command, "--mode", self.mode, "--space", self.space,
                "--k", str(self.k), flag, str(self.param)]


# Full-space quotients equal the strut-union counts C(s + d - 1, d), with
# s = C(k, 2), plus k in concordance mode.  Every Y quotient is 0.
CELLS = {
    "y-dim": (Cell("dim", "homotopy", "y", 6, 2, 0),
              Cell("dim", "homotopy", "y", 5, 3, 0)),
    "full-dim": (Cell("dim", "concordance", "full", 3, 4, 126),
                 Cell("dim", "homotopy", "full", 5, 4, 715)),
    "witness": (Cell("witness", "homotopy", "y", 6, 2, 0),
                Cell("witness", "homotopy", "full", 5, 4, 715)),
}
WORKLOADS = ("y-dim", "full-dim", "witness", "sweep", "sweep-resume")


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    calibration_s: float = 0.0

    @property
    def ref_s(self) -> float:
        """Wall time scaled to the reference host speed."""
        return self.wall_s * CALIBRATION_REF_S / self.calibration_s


@dataclass
class Op:
    """One CLI invocation and the check of its answer, which returns a
    list of problems (empty when the answer is right)."""

    args: list[str]
    check: Callable[[Proc], list[str]]
    witness_out: Optional[Path] = None
    cache_file: Optional[Path] = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("STRUTFORGE_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv: list[str], cwd: Path, deadline: float) -> Proc:
    """Run one process to completion, killing it at the deadline; wall
    time from spawn to reap, and that process's own peak RSS from wait4."""
    cwd.mkdir(parents=True, exist_ok=True)
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss / 1024, proc.returncode,
                out_path.read_text(errors="replace"),
                err_path.read_text(errors="replace"))


class Runner:
    """Runs the processes of one benchmark run, one at a time.

    It counts attempted and failed operations and kills any process still
    running at the deadline.  The calibration process runs before the
    first timed process and after each one; a process's time is scaled by
    the mean of the calibrations just before and just after it.
    """

    def __init__(self, work: Path):
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self._calibration_dir = work / "calibration"
        self._last_calibration_s = self._calibrate()

    def _calibrate(self) -> float:
        return run_process([sys.executable, "-I", "-c", CALIBRATION],
                           self._calibration_dir, self.deadline).wall_s

    def run(self, argv: list[str], cwd: Path) -> Proc:
        proc = run_process(argv, cwd, self.deadline)
        after = self._calibrate()
        proc.calibration_s = (self._last_calibration_s + after) / 2
        self._last_calibration_s = after
        self.attempted += 1
        return proc

    def fail(self, what: str, problems: list[str]) -> None:
        self.failures.append(f"{what}: {'; '.join(problems)}")


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "strutforge.cli", *args]


def traced_argv(args: list[str], trace_out: Path) -> list[str]:
    return [sys.executable, str(BENCH / "traced_op.py"), str(trace_out), *args]


def exit_problems(proc: Proc) -> list[str]:
    if proc.returncode == 0:
        return []
    reason = "timeout" if proc.returncode == -9 else f"exit {proc.returncode}"
    return [f"{reason}: {proc.stderr.strip()[-300:]}"]


def expected_y_diagrams(k: int, n: int) -> int:
    from strutforge.counting import u
    return u(n, k)


def cache_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip())


# ---------------------------------------------------------------- workloads

def cell_op(cell: Cell, op_dir: Path) -> Op:
    op_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = op_dir / "cache"
    args = cell.args() + ["--cache-dir", str(cache_dir)]
    cache_file = cache_dir / "results.jsonl"
    if cell.command == "witness":
        out = op_dir / "witness.json"
        return Op(args + ["--out", str(out)],
                  lambda proc: check_witness(cell, proc, out), witness_out=out)
    return Op(args, lambda proc: check_dim(cell, proc, cache_file),
              cache_file=cache_file)


def check_dim(cell: Cell, proc: Proc, cache_file: Path) -> list[str]:
    problems = exit_problems(proc)
    if problems:
        return problems
    if "(cache hit)" in proc.stderr:
        problems.append("served from the cache")
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        cached = [json.loads(line) for line in
                  cache_file.read_text(encoding="utf-8").splitlines() if line]
    except (IndexError, ValueError, OSError) as exc:
        return problems + [f"unreadable output: {exc}"]
    key = (record.get("mode"), record.get("space"), record.get("k"),
           record.get("param"))
    if key != (cell.mode, cell.space, cell.k, cell.param):
        problems.append(f"record is for {key}")
    if record.get("quotient_dim") != cell.quotient_dim:
        problems.append(f"quotient_dim {record.get('quotient_dim')} "
                        f"!= {cell.quotient_dim}")
    if record.get("rank", 0) + record.get("quotient_dim", 0) != record.get("num_diagrams"):
        problems.append("rank + quotient_dim != num_diagrams")
    if cell.space == "y" and record.get("num_diagrams") != expected_y_diagrams(cell.k, cell.param):
        problems.append(f"num_diagrams {record.get('num_diagrams')} != u(n, k)")
    fields = ("mode", "space", "k", "param", "quotient_dim")
    if [[c.get(f) for f in fields] for c in cached] != [[record.get(f) for f in fields]]:
        problems.append("cache does not hold exactly the printed record")
    return problems


def check_witness(cell: Cell, proc: Proc, out: Path) -> list[str]:
    problems = exit_problems(proc)
    if problems:
        return problems
    try:
        with out.open(encoding="utf-8") as fh:
            doc = json.load(fh)
        basis, functionals = doc["basis"], doc["functionals"]
    except (ValueError, OSError, KeyError, TypeError) as exc:
        return [f"unreadable witness: {exc}"]
    if len(functionals) != cell.quotient_dim:
        problems.append(f"{len(functionals)} functionals != {cell.quotient_dim}")
    if any(len(vec) != len(basis) for vec in functionals):
        problems.append("a functional is not as long as the basis")
    if cell.space == "y" and len(basis) != expected_y_diagrams(cell.k, cell.param):
        problems.append(f"basis size {len(basis)} != u(n, k)")
    return problems


def write_history(path: Path, rng: random.Random) -> None:
    """Records of earlier tool versions in the program's JSONL format, as
    an accumulated cache holds them; some share a (mode, space, k, param)
    with the sweep cells but never the current tool_version."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for _ in range(HISTORY_RECORDS):
        space = rng.choice(("y", "full"))
        k = rng.randint(3, 9)
        param = rng.randint(0, 6) if space == "y" else rng.randint(1, 6)
        diagrams = rng.randint(1, 60000)
        rank = rng.randint(0, diagrams)
        lines.append(json.dumps({
            "mode": rng.choice(("homotopy", "concordance")), "space": space,
            "k": k, "param": param, "num_diagrams": diagrams,
            "num_relations_raw": rng.randint(diagrams, 10 * diagrams),
            "num_relations_effective": rng.randint(rank, 3 * diagrams),
            "rank": rank, "quotient_dim": diagrams - rank,
            "primes": [2147483647, 2147483629],
            "elapsed_ms": rng.randint(1, 200000),
            "tool_version": f"0.0.{rng.randint(1, 9)}",
            "timestamp": f"2026-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}"
                         f"T12:{rng.randint(10, 59)}:00+00:00",
        }))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sweep_op(out: Path, cache_dir: Path, cold_csv: Optional[str]) -> Op:
    """The cold sweep (cold_csv None) must compute and append every cell;
    the resume sweep must serve every cell from the cache and reproduce
    the cold CSV row for row."""
    cache_file = cache_dir / "results.jsonl"
    expected_lines = HISTORY_RECORDS + len(SWEEP_KS) * len(SWEEP_NS)

    def check(proc: Proc) -> list[str]:
        problems = exit_problems(proc)
        if problems:
            return problems
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        if cold_csv is None:
            problems += check_sweep_csv(text)
        elif text != cold_csv:
            problems.append("resume CSV differs from the cold CSV")
        lines = cache_lines(cache_file)
        if lines != expected_lines:
            problems.append(f"cache holds {lines} records, expected {expected_lines}")
        return problems

    args = SWEEP_ARGS + ["--out", str(out), "--cache-dir", str(cache_dir)]
    return Op(args, check, cache_file=cache_file)


def check_sweep_csv(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["sweep CSV header differs"]
    cells = [(k, n) for k in SWEEP_KS for n in SWEEP_NS]
    rows = [line.split(",") for line in lines[1:]]
    if [(int(r[2]), int(r[3])) for r in rows] != cells:
        return ["sweep CSV does not list the grid in order"]
    problems = []
    for row in rows:
        k, n, diagrams, rank, quotient = (int(row[2]), int(row[3]), int(row[4]),
                                          int(row[7]), int(row[8]))
        if quotient != 0 or rank != diagrams or diagrams != expected_y_diagrams(k, n):
            problems.append(f"sweep cell k={k} n={n} is wrong")
    return problems


class Workload:
    """Makes the operations of each pass from the seed.  The seed
    permutes the cell order within a pass and generates the sweep history;
    the program sees only the generated inputs."""

    def __init__(self, name: str, seed: int, work: Path, runner: Runner):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        if name in ("sweep", "sweep-resume"):
            self.history = work / "history.jsonl"
            write_history(self.history, self.rng)
        if name == "sweep-resume":
            # The cold sweep fills the cache that every timed pass resumes.
            self.resume_cache = self.history_cache(work / "resume-cache")
            cold_out = work / "cold" / "sweep.csv"
            cold = sweep_op(cold_out, self.resume_cache, None)
            problems = cold.check(runner.run(cli_argv(cold.args), work / "cold"))
            if problems:
                runner.fail("set-up cold sweep", problems)
            self.cold_csv = cold_out.read_text(encoding="utf-8") if cold_out.exists() else ""

    def history_cache(self, cache_dir: Path) -> Path:
        cache_dir.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(self.history, cache_dir / "results.jsonl")
        return cache_dir

    def ops(self, pass_dir: Path) -> list[Op]:
        out = pass_dir / "sweep.csv"
        if self.name == "sweep":
            return [sweep_op(out, self.history_cache(pass_dir / "cache"), None)]
        if self.name == "sweep-resume":
            return [sweep_op(out, self.resume_cache, self.cold_csv)]
        cells = list(CELLS[self.name])
        self.rng.shuffle(cells)
        return [cell_op(cell, pass_dir / f"op{i}") for i, cell in enumerate(cells)]


# ------------------------------------------------------------------- passes

def run_pass(workload: Workload, pass_dir: Path, runner: Runner,
             traced: bool) -> dict:
    """One pass: every operation once, in order.  Returns the pass time
    (the sum of the operations' times), its peak RSS and, when traced, the
    per-layer sums."""
    ops = workload.ops(pass_dir)
    ref = wall = peak = 0.0
    calibration = []
    layer = {name: 0.0 for name in PER_LAYER}
    canon_hits = canon_calls = root_s = 0
    for i, op in enumerate(ops):
        op_dir = pass_dir / f"op{i}"
        trace_out = op_dir / "trace.json"
        argv = traced_argv(op.args, trace_out) if traced else cli_argv(op.args)
        proc = runner.run(argv, op_dir)
        ref += proc.ref_s
        wall += proc.wall_s
        calibration.append(proc.calibration_s)
        peak = max(peak, proc.rss_mb)
        problems = op.check(proc)
        if traced and not problems:
            try:
                trace = json.loads(trace_out.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems = [f"unreadable trace: {exc}"]
            else:
                root_s += trace["root_s"]
                canon_hits += trace["canon"]["hits"]
                canon_calls += trace["canon"]["hits"] + trace["canon"]["misses"]
                add_trace(layer, trace, op)
        if problems:
            runner.fail(" ".join(op.args[:8]), problems)
    result = {"pass_s": ref, "pass_wall_s": wall, "peak_rss_mb": peak,
              "calibration_s": statistics.median(calibration)}
    if traced:
        layer["relations.row_yield"] = (layer["relations.rows"] / layer["relations.configs"]
                                        if layer["relations.configs"] else 0.0)
        layer["diagrams.canon_calls"] = canon_calls
        layer["diagrams.canon_hit_ratio"] = canon_hits / canon_calls if canon_calls else 0.0
        layer["trace.coverage"] = root_s / wall
        result["layer"] = layer
    shutil.rmtree(pass_dir, ignore_errors=True)
    return result


def add_trace(layer: dict, trace: dict, op: Op) -> None:
    self_s, counts, rss = trace["self_s"], trace["counts"], trace["rss_mb"]
    for metric, spans in LAYER_SPANS.items():
        layer[metric] += sum(self_s.get(span, 0.0) for span in spans)
    for metric in LAYER_COUNTS:
        layer[metric] += counts.get(metric, 0)
    for stage in ("basis", "relations", "linalg"):
        key = f"mem.rss_after_{stage}_mb"
        layer[key] = max(layer[key], rss.get(stage, 0.0))
    layer["diagrams.canon_cache_size"] = max(layer["diagrams.canon_cache_size"],
                                             trace["canon"]["currsize"])
    if op.cache_file is not None:
        layer["pipeline.cache_lines"] = max(layer["pipeline.cache_lines"],
                                            cache_lines(op.cache_file))
    if op.witness_out is not None:
        # The CLI's own time outside compute_witness: serialising and
        # writing the witness document.
        layer["cli.witness_write_s"] += self_s.get("cli", 0.0)
        layer["cli.witness_bytes"] += op.witness_out.stat().st_size


def measure_setup(work: Path, runner: Runner) -> list[Proc]:
    from strutforge import __version__
    procs = []
    for _ in range(SETUP_CALLS):
        proc = runner.run(cli_argv(["--version"]), work / "version")
        problems = exit_problems(proc)
        if not problems and __version__ not in proc.stdout:
            problems = [f"--version printed {proc.stdout.strip()!r}"]
        if problems:
            runner.fail("--version", problems)
        procs.append(proc)
    return procs


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{seed}-{trace:d}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    samples: dict[str, list[float]] = {}
    try:
        runner = Runner(work)
        if not trace:
            setup = measure_setup(work, runner)
            samples["setup_s"] = [proc.ref_s for proc in setup]
            samples["setup_wall_s"] = [proc.wall_s for proc in setup]
        workload = Workload(name, seed, work, runner)
        start = time.perf_counter()
        durations: list[float] = []
        while True:
            t0 = time.perf_counter()
            untraced = run_pass(workload, work / f"pass{len(durations)}", runner, False)
            for metric in ("pass_s", "pass_wall_s", "peak_rss_mb", "calibration_s"):
                samples.setdefault(metric, []).append(untraced[metric])
            if trace:
                traced = run_pass(workload, work / f"tpass{len(durations)}", runner, True)
                layer = traced["layer"]
                layer["trace.overhead"] = traced["pass_s"] / untraced["pass_s"]
                for metric in PER_LAYER:
                    samples.setdefault(metric, []).append(layer[metric])
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            expected_end = elapsed + statistics.median(durations)
            if expected_end > seconds or expected_end > RUN_BUDGET_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = PER_LAYER if trace else END_TO_END
    summary = {metric: stats(samples[metric]) for metric in samples}
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {metric: {"value": summary[metric]["median"], "unit": unit}
                    for metric, unit in names.items()},
        "stats": summary,
        "samples": samples,
        "failures": runner.failures,
    }


# -------------------------------------------------------------- run record

def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform()}


def print_report(name: str, result: dict) -> None:
    for metric, stat in result["stats"].items():
        unit = {**END_TO_END, **RAW, **PER_LAYER}[metric]
        print(f"{name:13s} {metric:28s} {stat['median']:14.6g} {unit:6s} "
              f"q1 {stat['q1']:.6g} q3 {stat['q3']:.6g} "
              f"spread {stat['spread']:.4f} n {stat['n']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"{name:13s} fail_frac {frac:.4f} ({result['failed']}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"{name:13s} FAILED {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "strutforge" / "cli.py").is_file():
        print(f"strutforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = {"args": vars(args), "environment": environment(),
              "loadavg_start": os.getloadavg(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    if args.workload == "all":
        runs = {f"{name}/trace{trace}": (name, trace)
                for name in WORKLOADS for trace in (0, 1)}
    else:
        runs = {args.workload: (args.workload, args.trace)}
    results = {}
    for label, (name, trace) in runs.items():
        results[label] = run_workload(name, args.seed, args.seconds, bool(trace))
        print_report(label, results[label])
    record["loadavg_end"] = os.getloadavg()
    record["results"] = results

    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"run record: {out.relative_to(ROOT)}")

    if len(results) == 1:
        final = next(iter(results.values()))
        metrics = final["metrics"]
    else:
        metrics = {f"{label}/{metric}": value for label, result in results.items()
                   for metric, value in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
