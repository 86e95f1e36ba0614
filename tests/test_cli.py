import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from cli_runner import invoke
from strutforge.cli import cli
from strutforge.bases import enumerate_y_basis, enumerate_basis
from strutforge.diagrams import Mode
from strutforge.pipeline import CSV_HEADER, compute_dimension
from strutforge.relations import RelationRow

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _never(*_args, **_kwargs):
    raise AssertionError("a basis was listed")


def run_ok(*args):
    result = invoke(args)
    assert result.exit_code == 0, result.output
    return result.output


class TestCount:
    def test_unit_ratio_cell(self):
        out = run_ok("count", "--k", "9", "--n", "209", "--format", "json")
        data = json.loads(out)
        assert data["ratio"] == "1/1"
        assert data["existence_bound"] == 0

    def test_headline_cell(self):
        out = run_ok("count", "--k", "9", "--n", "210", "--format", "json")
        data = json.loads(out)
        assert data["existence_bound"] > 0
        assert data["invariant_type"] == 212

    def test_headline_table_certifies_the_invariant(self):
        assert run_ok("count", "--k", "9", "--n", "210").splitlines()[-1] == \
            "nontrivial invariant of type 212 certified"
        # existence bound 0: nothing is certified
        assert "certified" not in run_ok("count", "--k", "9", "--n", "209")

    def test_small_values_table(self):
        out = run_ok("count", "--k", "3", "--n", "1")
        assert "u (diagrams)       = 3" in out
        assert "r (relations)      = 36" in out

    def test_domain_error_exit(self):
        result = invoke(["count", "--k", "2", "--n", "0"])
        assert result.exit_code != 0


def test_crossing():
    assert json.loads(run_ok("crossing", "--k", "9")) == \
        {"k": 9, "root": "209/1", "ceiling": 209}


class TestDim:
    def test_y_space(self, tmp_path):
        out = run_ok("dim", "--mode", "homotopy", "--space", "y",
                     "--k", "5", "--n", "2", "--cache-dir", str(tmp_path))
        data = json.loads(out)
        assert data["quotient_dim"] == 0

    def test_full_space(self, tmp_path):
        out = run_ok("dim", "--mode", "homotopy", "--space", "full",
                     "--k", "3", "--degree", "2", "--cache-dir", str(tmp_path))
        assert json.loads(out)["quotient_dim"] == 6

    def test_concordance(self, tmp_path):
        out = run_ok("dim", "--mode", "concordance", "--space", "full",
                     "--k", "2", "--degree", "2", "--cache-dir", str(tmp_path))
        assert json.loads(out)["quotient_dim"] == 6

    def test_cache_hit_reproduces_record(self, tmp_path):
        args = ["dim", "--space", "y", "--k", "3", "--n", "1",
                "--cache-dir", str(tmp_path)]
        first = invoke(args).output.splitlines()[0]
        second = invoke(args).output.splitlines()[0]
        assert first == second

    def test_env_var_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRUTFORGE_CACHE_DIR", str(tmp_path))
        run_ok("dim", "--space", "y", "--k", "3", "--n", "0")
        assert (tmp_path / "results.jsonl").exists()

    def test_non_prime_primes_rejected_before_work(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        for args in (["dim", "--space", "y", "--k", "3", "--n", "0",
                      "--primes", "4,6"],
                     ["witness", "--space", "y", "--k", "3", "--n", "0",
                      "--primes", "4,9"],
                     ["sweep", "--space", "y", "--k-range", "3:3",
                      "--n-range", "0:0", "--out", str(out_file),
                      "--primes", "7,9"]):
            result = invoke(args + ["--cache-dir", str(tmp_path)])
            assert result.exit_code != 0, args
            assert "not a prime" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_repeated_prime_rejected_before_work(self, tmp_path, monkeypatch):
        def never(*_):
            raise AssertionError("basis built for a repeated prime")

        monkeypatch.setattr("strutforge.pipeline.build_basis", never)
        out_file = tmp_path / "sweep.csv"
        primes = ["--primes", "2147483647,2147483647"]
        for args in (["dim", "--space", "full", "--k", "6", "--degree", "5"],
                     ["witness", "--space", "y", "--k", "3", "--n", "0"],
                     ["sweep", "--space", "y", "--k-range", "3:3",
                      "--n-range", "0:0", "--out", str(out_file)]):
            result = invoke(args + primes + ["--cache-dir", str(tmp_path)])
            assert result.exit_code == 2, args
            assert "primes must be distinct" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_small_primes_rejected_before_basis(self, tmp_path, monkeypatch):
        def never(*_):
            raise AssertionError("basis built for a prime below the bound")

        monkeypatch.setattr("strutforge.pipeline.build_basis", never)
        cell = ["--space", "y", "--k", "6", "--n", "2", "--primes", "2,3",
                "--cache-dir", str(tmp_path)]
        for command in ("dim", "witness"):
            result = invoke([command, *cell])
            assert result.exit_code == 1, command
            assert "prime 2 does not exceed the coefficient bound 3" in result.output
        out_file = tmp_path / "sweep.csv"
        run_ok("sweep", "--space", "y", "--k-range", "6", "--n-range", "2",
               "--primes", "2,3", "--out", str(out_file), "--cache-dir", str(tmp_path))
        assert "error:DomainError" in out_file.read_text().splitlines()[1]
        assert list(tmp_path.iterdir()) == [out_file]

    def test_capacity_error_exit(self, tmp_path):
        result = invoke([
            "dim", "--space", "y", "--k", "5", "--n", "2",
            "--cache-dir", str(tmp_path), "--max-basis", "10"])
        assert result.exit_code != 0


class TestSweep:
    def test_csv_schema_and_values(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        run_ok("sweep", "--space", "y", "--k-range", "3:5",
               "--n-range", "0:1", "--out", str(out_file),
               "--cache-dir", str(tmp_path))
        lines = out_file.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 2
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == "homotopy"
            assert int(cells[8]) == 0  # quotient_dim
        ks = [line.split(",")[2] for line in lines[1:]]
        assert ks == ["3", "3", "4", "4", "5", "5"]

    def test_resumes_from_cache(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        args = ["sweep", "--space", "y", "--k-range", "3,4", "--n-range", "0:1",
                "--out", str(out_file), "--cache-dir", str(tmp_path)]
        run_ok(*args)
        cache_size = (tmp_path / "results.jsonl").read_text()
        run_ok(*args)
        assert (tmp_path / "results.jsonl").read_text() == cache_size

    def test_resumed_sweep_reads_cache_once(self, tmp_path, monkeypatch):
        out_file = tmp_path / "sweep.csv"
        args = ["sweep", "--space", "y", "--k-range", "3:6", "--n-range", "0:2",
                "--out", str(out_file), "--cache-dir", str(tmp_path)]
        run_ok(*args)
        cold = out_file.read_text()
        reads = []
        real_open = pathlib.Path.open

        def counting_open(self, mode="r", *a, **kw):
            if self.name == "results.jsonl" and "r" in mode:
                reads.append(mode)
            return real_open(self, mode, *a, **kw)

        monkeypatch.setattr(pathlib.Path, "open", counting_open)
        run_ok(*args)
        assert len(cold.splitlines()) == 1 + 12
        assert out_file.read_text() == cold
        assert reads == ["r"]

    def test_full_space_sweep_matches_the_records_and_resumes(self, tmp_path, monkeypatch):
        out_file = tmp_path / "sweep.csv"
        args = ["sweep", "--space", "full", "--mode", "concordance", "--k-range", "1:3",
                "--degree-range", "1:3", "--out", str(out_file), "--cache-dir", str(tmp_path)]
        run_ok(*args)
        lines = out_file.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        unstamped = [line.split(",") for line in lines[1:]]
        for cells in unstamped:
            cells[10] = cells[12] = ""  # elapsed_ms, timestamp
        assert unstamped == [
            compute_dimension(Mode.CONCORDANCE, "full", k, d)
            .replace(elapsed_ms="", timestamp="").csv_row().split(",")
            for k in (1, 2, 3) for d in (1, 2, 3)]
        assert unstamped[-1][4:9] == ["68", "285", "15", "12", "56"]  # (3, 3)
        cache = (tmp_path / "results.jsonl").read_text()
        monkeypatch.setattr("strutforge.pipeline.compute_dimension", _never)
        run_ok(*args)
        assert out_file.read_text().splitlines() == lines
        assert (tmp_path / "results.jsonl").read_text() == cache

    def test_error_marker_continues(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        run_ok("sweep", "--space", "y", "--k-range", "3:5",
               "--n-range", "2:2", "--out", str(out_file),
               "--cache-dir", str(tmp_path), "--max-basis", "100")
        lines = out_file.read_text().splitlines()
        assert len(lines) == 4
        assert "error:CapacityError" in lines[3]  # k=5 n=2 has 550 columns
        assert len(lines[3].split(",")) == len(CSV_HEADER.split(","))
        assert int(lines[1].split(",")[8]) == 0  # k=3 cell still computed


class TestWitnessCommand:
    def test_schema(self, tmp_path):
        out_file = tmp_path / "w.json"
        run_ok("witness", "--space", "full", "--k", "3",
               "--degree", "1", "--cache-dir", str(tmp_path),
               "--out", str(out_file))
        doc = json.loads(out_file.read_text())
        assert set(doc) == {"basis", "prime", "functionals"}
        assert len(doc["basis"]) == 3
        assert doc["functionals"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_trivial_quotient_empty_functionals(self, tmp_path):
        out = run_ok("witness", "--space", "y", "--k", "4", "--n", "1",
                     "--cache-dir", str(tmp_path))
        assert json.loads(out)["functionals"] == []


class TestRelationsCommand:
    def test_counts_reported(self):
        out = run_ok("relations", "--space", "y", "--k", "3", "--n", "0")
        assert out.strip().endswith("raw 18 effective 12")
        dumped = [l for l in out.splitlines() if "#" in l]
        assert len(dumped) == 12

    def test_rows_reparse(self):
        out = run_ok("relations", "--space", "y", "--k", "3", "--n", "1")
        basis = enumerate_y_basis(3, 1, Mode.HOMOTOPY)
        for line in out.splitlines():
            if "#" not in line:
                continue
            text = line.split("#")[0].strip()
            row = RelationRow.from_dump_text(text, basis)
            assert row.to_dump_text(basis) == text

    def test_double_attachment_config_dumped(self):
        # Both rest struts carry a 1-end; with only 3 colors the second
        # graft lands on a repeated-color diagram and vanishes, leaving a
        # single surviving entry.
        out = run_ok("relations", "--space", "y", "--k", "3", "--n", "1")
        target = [l for l in out.splitlines()
                  if "special=3-1*" in l and "{1-2,1-3}" in l]
        assert len(target) == 1
        assert len(target[0].split("#")[0].split()) == 1

    def test_two_entry_row_with_four_colors(self):
        out = run_ok("relations", "--space", "y", "--k", "4", "--n", "1")
        target = [l for l in out.splitlines()
                  if "special=4-1*" in l and "{1-2,1-3}" in l]
        assert len(target) == 1
        assert len(target[0].split("#")[0].split()) == 2

    def test_full_space_dump(self):
        out = run_ok("relations", "--space", "full", "--k", "4",
                     "--degree", "3")
        basis = enumerate_basis(4, 3, Mode.HOMOTOPY)
        assert any("ihx" in line for line in out.splitlines())
        for line in out.splitlines():
            if "#" not in line:
                continue
            text = line.split("#")[0].strip()
            RelationRow.from_dump_text(text, basis)

    @pytest.mark.parametrize("args", [
        ["--space", "y", "--mode", "concordance", "--k", "4", "--n", "1"],
        ["--space", "full", "--k", "4", "--degree", "3"],
    ])
    def test_no_dump_prints_only_the_closing_counts(self, args):
        dumped = run_ok("relations", *args)
        assert len(dumped.splitlines()) > 1
        closing = dumped.splitlines()[-1]
        assert closing.startswith("raw ")
        assert run_ok("relations", "--no-dump", *args) == closing + "\n"

    def test_guard(self):
        result = invoke(["relations", "--space", "y", "--k", "9",
                         "--n", "4"])
        assert result.exit_code != 0


def run_split(capsys, args):
    """Exit code, stdout and stderr of one ``cli.main`` run."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(args=args)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


CELL = ["--space", "y", "--k", "4", "--n", "1"]

USAGE_ERRORS = [
    (["dim", *CELL, "--bogus"], "unrecognized arguments: --bogus"),
    (["dim", "--space", "full", "--k", "3", "--deg", "2"], "unrecognized arguments: --deg 2"),
    (["dim", *CELL, "--max-b", "10"], "unrecognized arguments: --max-b 10"),
    (["dim", *CELL, "stray"], "unrecognized arguments: stray"),
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["bogus"], "invalid choice: 'bogus'"),
    (["dim", *CELL, "--mode", "knot"], "invalid choice: 'knot'"),
    (["count", "--k", "4", "--n", "1", "--format", "xml"], "invalid choice: 'xml'"),
    (["dim", "--k", "four", "--n", "1"], "invalid int value: 'four'"),
    (["dim", "--n", "1"], "the following arguments are required: --k"),
    (["dim", "--space", "y", "--k", "4"], "--space y needs --n"),
    (["witness", "--space", "full", "--k", "4"], "--space full needs --degree"),
    (["relations", "--space", "full", "--k", "4"], "--space full needs --degree"),
    (["sweep", "--k-range", "3:4", "--out", "s.csv"], "--space y needs --n-range"),
    (["sweep", "--space", "full", "--k-range", "3:4", "--out", "s.csv"],
     "--space full needs --degree-range"),
    (["sweep", "--k-range", "4:3", "--n-range", "0", "--out", "s.csv"],
     "argument --k-range: must be 'lo:hi' or a comma list, got '4:3'"),
    (["dim", *CELL, "--primes", "7"], "need at least two primes"),
    (["dim", *CELL, "--primes", "7,x"], "primes must be integers: '7,x'"),
    (["dim", *CELL, "--primes", "7,9"], "9 is not a prime"),
    (["dim", *CELL, "--primes", f"7,{2**64}"], "primality is only checked below 2**64"),
    (["dim", *CELL, "--max-basis", "-5"], "argument --max-basis: a cap must be >= 0, got -5"),
    (["dim", *CELL, "--max-rows", "-1"], "argument --max-rows: a cap must be >= 0, got -1"),
    (["dim", *CELL, "--max-rows", "x"], "argument --max-rows: invalid int value: 'x'"),
    (["witness", *CELL, "--max-basis", "-1"], "argument --max-basis: a cap must be >= 0"),
    (["witness", *CELL, "--max-rows", "-1"], "argument --max-rows: a cap must be >= 0"),
    (["sweep", "--k-range", "3:4", "--n-range", "0:1", "--out", "s.csv", "--max-basis", "-1"],
     "argument --max-basis: a cap must be >= 0, got -1"),
    (["sweep", "--k-range", "3:4", "--n-range", "0:1", "--out", "s.csv", "--max-rows", "-1"],
     "argument --max-rows: a cap must be >= 0, got -1"),
    (["sweep", "--space", "y", "--k-range", "", "--n-range", "0", "--out", "s.csv"],
     "argument --k-range: must be 'lo:hi' or a comma list, got ''"),
    (["sweep", "--k-range", ",", "--n-range", "0", "--out", "s.csv"],
     "argument --k-range: must be 'lo:hi' or a comma list, got ','"),
    (["sweep", "--k-range", "3", "--n-range", ",", "--out", "s.csv"],
     "argument --n-range: must be 'lo:hi' or a comma list, got ','"),
    (["sweep", "--space", "full", "--k-range", "3", "--degree-range", ",", "--out", "s.csv"],
     "argument --degree-range: must be 'lo:hi' or a comma list, got ','"),
    (["dim", *CELL, "--primes", ""], "need at least two primes"),
]


class TestExitCodes:
    @pytest.mark.parametrize("args,message", USAGE_ERRORS)
    def test_usage_error_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                 args, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("STRUTFORGE_CACHE_DIR", raising=False)
        monkeypatch.setattr("strutforge.pipeline.build_basis", _never)
        code, out, err = run_split(capsys, args)
        assert (code, out) == (2, "")
        assert err.startswith("usage: strutforge")
        last = err.splitlines()[-1]
        assert last.startswith("Error: ") and message in last
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["witness", *CELL], ["sweep", "--k-range", "4",
                                                              "--n-range", "1"]])
    def test_out_naming_a_directory_exits_2_before_any_work(self, capsys, monkeypatch,
                                                             tmp_path, command):
        monkeypatch.setattr("strutforge.pipeline.build_basis", _never)
        code, out, err = run_split(capsys, command + [
            "--out", str(tmp_path), "--cache-dir", str(tmp_path / "cache")])
        assert (code, out) == (2, "")
        assert f"Error: argument --out: File '{tmp_path}' is a directory." in err
        assert list(tmp_path.iterdir()) == []

    def test_no_command_prints_the_help_and_exits_2(self, capsys):
        code, out, err = run_split(capsys, [])
        assert (code, out) == (2, "")
        assert err.startswith("usage: strutforge [OPTIONS] COMMAND")

    @pytest.mark.parametrize("args,message", [
        (["count", "--k", "2", "--n", "0"], "u(n, k) needs k >= 3, got k=2"),
        (["dim", *CELL, "--max-basis", "10"], "24 basis elements exceed the cap 10"),
        (["dim", *CELL, "--max-basis", "0"], "24 basis elements exceed the cap 0"),
        (["crossing", "--k", "8"], "ratio(n, 8) stays >= 1 for all n (limit 1)"),
    ])
    def test_failed_run_exits_1(self, capsys, tmp_path, args, message):
        code, out, err = run_split(capsys, args + (
            ["--cache-dir", str(tmp_path)] if args[0] == "dim" else []))
        assert (code, out, err) == (1, "", f"Error: {message}\n")

    def test_unwritable_output_exits_1(self, capsys, tmp_path):
        out_file = tmp_path / "no" / "s.csv"
        code, out, err = run_split(capsys, ["sweep", "--k-range", "3", "--n-range", "0",
                                            "--out", str(out_file),
                                            "--cache-dir", str(tmp_path)])
        assert (code, out) == (1, "")
        assert err == f"Error: Could not open file '{out_file}': No such file or directory\n"

    def test_success_exits_0_or_returns(self, capsys, tmp_path):
        args = ["dim", *CELL, "--cache-dir", str(tmp_path)]
        assert run_split(capsys, args)[0] == 0
        assert cli.main(args=args, prog_name="strutforge", standalone_mode=False) is None
        out, err = capsys.readouterr()
        assert json.loads(out)["num_diagrams"] == 24 and err == "(cache hit)\n"

    def test_version_line(self, capsys):
        assert run_split(capsys, ["--version"]) == (0, "strutforge, version 0.1.0\n", "")

    def test_interrupt_exits_1(self, capsys, monkeypatch):
        def interrupted(*_args):
            raise KeyboardInterrupt

        monkeypatch.setattr("strutforge.cli.compute_witness", interrupted)
        assert run_split(capsys, ["witness", *CELL]) == (1, "", "Aborted!\n")

    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "strutforge.cli", "relations", "--space", "y",
             "--k", "6", "--n", "2"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()


SPACE_OPTIONS = {"--mode": "homotopy", "--space": "y"}
CELL_OPTIONS = {"--k": None, "--n": None, "--degree": None}
RUN_OPTIONS = {"--primes": "2147483647,2147483629", "--cache-dir": None,
               "--max-basis": "5000000", "--max-rows": "20000000"}
HELP_OPTIONS = {
    None: {"--version": None},
    "count": {"--k": None, "--n": None, "--format": "table"},
    "crossing": {"--k": None},
    "dim": {**SPACE_OPTIONS, **CELL_OPTIONS, **RUN_OPTIONS},
    "relations": {**SPACE_OPTIONS, **CELL_OPTIONS, "--dump": "dump", "--no-dump": None},
    "sweep": {**SPACE_OPTIONS, "--k-range": None, "--n-range": None,
              "--degree-range": None, "--out": None, **RUN_OPTIONS},
    "witness": {**SPACE_OPTIONS, **CELL_OPTIONS, **RUN_OPTIONS, "--out": None},
}


def help_entries(text):
    """Option -> its help text, joined across wrapped lines."""
    entries = {}
    option = None
    for line in text.splitlines():
        if line.startswith("  --"):
            option, _, rest = line.strip().partition(" ")
            entries[option] = rest
        elif option and line.startswith("    "):
            entries[option] += " " + line
        else:
            option = None
    return {option: " ".join(rest.split()) for option, rest in entries.items()}


class TestHelp:
    @pytest.mark.parametrize("command", list(HELP_OPTIONS))
    def test_help_names_every_option_with_its_default(self, capsys, command):
        code, out, err = run_split(capsys, [command, "--help"] if command else ["--help"])
        assert (code, err) == (0, "")
        entries = help_entries(out)
        assert set(entries) == {"--help", *HELP_OPTIONS[command]}
        for option, default in HELP_OPTIONS[command].items():
            has_default = "[default: " in entries[option]
            assert has_default == (default is not None), (option, entries[option])
            if default is not None:
                assert f"[default: {default}]" in entries[option]

    def test_group_help_lists_the_commands(self, capsys):
        out = run_split(capsys, ["--help"])[1]
        for command in HELP_OPTIONS:
            if command:
                assert re.search(rf"^    {command} +\S", out, re.M), command
