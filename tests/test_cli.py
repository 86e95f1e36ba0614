import json
import pathlib

import pytest
from click.testing import CliRunner

from strutforge.cli import cli
from strutforge.bases import enumerate_y_basis, enumerate_basis
from strutforge.diagrams import Mode
from strutforge.pipeline import CSV_HEADER
from strutforge.relations import RelationRow


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, *args):
    result = runner.invoke(cli, list(args))
    assert result.exit_code == 0, result.output
    return result.output


class TestCount:
    def test_unit_ratio_cell(self, runner):
        out = run_ok(runner, "count", "--k", "9", "--n", "209", "--format", "json")
        data = json.loads(out)
        assert data["ratio"] == "1/1"
        assert data["existence_bound"] == 0

    def test_headline_cell(self, runner):
        out = run_ok(runner, "count", "--k", "9", "--n", "210", "--format", "json")
        data = json.loads(out)
        assert data["existence_bound"] > 0
        assert data["invariant_type"] == 212

    def test_small_values_table(self, runner):
        out = run_ok(runner, "count", "--k", "3", "--n", "1")
        assert "u (diagrams)       = 3" in out
        assert "r (relations)      = 36" in out

    def test_domain_error_exit(self, runner):
        result = runner.invoke(cli, ["count", "--k", "2", "--n", "0"])
        assert result.exit_code != 0


class TestDim:
    def test_y_space(self, runner, tmp_path):
        out = run_ok(runner, "dim", "--mode", "homotopy", "--space", "y",
                     "--k", "5", "--n", "2", "--cache-dir", str(tmp_path))
        data = json.loads(out)
        assert data["quotient_dim"] == 0

    def test_full_space(self, runner, tmp_path):
        out = run_ok(runner, "dim", "--mode", "homotopy", "--space", "full",
                     "--k", "3", "--degree", "2", "--cache-dir", str(tmp_path))
        assert json.loads(out)["quotient_dim"] == 6

    def test_concordance(self, runner, tmp_path):
        out = run_ok(runner, "dim", "--mode", "concordance", "--space", "full",
                     "--k", "2", "--degree", "2", "--cache-dir", str(tmp_path))
        assert json.loads(out)["quotient_dim"] == 6

    def test_cache_hit_reproduces_record(self, runner, tmp_path):
        args = ["dim", "--space", "y", "--k", "3", "--n", "1",
                "--cache-dir", str(tmp_path)]
        first = runner.invoke(cli, args).output.splitlines()[0]
        second = runner.invoke(cli, args).output.splitlines()[0]
        assert first == second

    def test_env_var_cache(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("STRUTFORGE_CACHE_DIR", str(tmp_path))
        run_ok(runner, "dim", "--space", "y", "--k", "3", "--n", "0")
        assert (tmp_path / "results.jsonl").exists()

    def test_non_prime_primes_rejected_before_work(self, runner, tmp_path):
        out_file = tmp_path / "sweep.csv"
        for args in (["dim", "--space", "y", "--k", "3", "--n", "0",
                      "--primes", "4,6"],
                     ["witness", "--space", "y", "--k", "3", "--n", "0",
                      "--primes", "4,9"],
                     ["sweep", "--space", "y", "--k-range", "3:3",
                      "--n-range", "0:0", "--out", str(out_file),
                      "--primes", "7,9"]):
            result = runner.invoke(cli, args + ["--cache-dir", str(tmp_path)])
            assert result.exit_code != 0, args
            assert "not a prime" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_repeated_prime_rejected_before_work(self, runner, tmp_path, monkeypatch):
        def never(*_):
            raise AssertionError("basis built for a repeated prime")

        monkeypatch.setattr("strutforge.pipeline.build_basis", never)
        out_file = tmp_path / "sweep.csv"
        primes = ["--primes", "2147483647,2147483647"]
        for args in (["dim", "--space", "full", "--k", "6", "--degree", "5"],
                     ["witness", "--space", "y", "--k", "3", "--n", "0"],
                     ["sweep", "--space", "y", "--k-range", "3:3",
                      "--n-range", "0:0", "--out", str(out_file)]):
            result = runner.invoke(cli, args + primes + ["--cache-dir", str(tmp_path)])
            assert result.exit_code == 2, args
            assert "primes must be distinct" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_small_primes_rejected_before_basis(self, runner, tmp_path, monkeypatch):
        def never(*_):
            raise AssertionError("basis built for a prime below the bound")

        monkeypatch.setattr("strutforge.pipeline.build_basis", never)
        cell = ["--space", "y", "--k", "6", "--n", "2", "--primes", "2,3",
                "--cache-dir", str(tmp_path)]
        for command in ("dim", "witness"):
            result = runner.invoke(cli, [command, *cell])
            assert result.exit_code == 1, command
            assert "prime 2 does not exceed the coefficient bound 3" in result.output
        out_file = tmp_path / "sweep.csv"
        run_ok(runner, "sweep", "--space", "y", "--k-range", "6", "--n-range", "2",
               "--primes", "2,3", "--out", str(out_file), "--cache-dir", str(tmp_path))
        assert "error:DomainError" in out_file.read_text().splitlines()[1]
        assert list(tmp_path.iterdir()) == [out_file]

    def test_capacity_error_exit(self, runner, tmp_path):
        result = runner.invoke(cli, [
            "dim", "--space", "y", "--k", "5", "--n", "2",
            "--cache-dir", str(tmp_path), "--max-basis", "10"])
        assert result.exit_code != 0


class TestSweep:
    def test_csv_schema_and_values(self, runner, tmp_path):
        out_file = tmp_path / "sweep.csv"
        run_ok(runner, "sweep", "--space", "y", "--k-range", "3:5",
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

    def test_resumes_from_cache(self, runner, tmp_path):
        out_file = tmp_path / "sweep.csv"
        args = ["sweep", "--space", "y", "--k-range", "3,4", "--n-range", "0:1",
                "--out", str(out_file), "--cache-dir", str(tmp_path)]
        run_ok(runner, *args)
        cache_size = (tmp_path / "results.jsonl").read_text()
        run_ok(runner, *args)
        assert (tmp_path / "results.jsonl").read_text() == cache_size

    def test_resumed_sweep_reads_cache_once(self, runner, tmp_path, monkeypatch):
        out_file = tmp_path / "sweep.csv"
        args = ["sweep", "--space", "y", "--k-range", "3:6", "--n-range", "0:2",
                "--out", str(out_file), "--cache-dir", str(tmp_path)]
        run_ok(runner, *args)
        cold = out_file.read_text()
        reads = []
        real_open = pathlib.Path.open

        def counting_open(self, mode="r", *a, **kw):
            if self.name == "results.jsonl" and "r" in mode:
                reads.append(mode)
            return real_open(self, mode, *a, **kw)

        monkeypatch.setattr(pathlib.Path, "open", counting_open)
        run_ok(runner, *args)
        assert len(cold.splitlines()) == 1 + 12
        assert out_file.read_text() == cold
        assert reads == ["r"]

    def test_error_marker_continues(self, runner, tmp_path):
        out_file = tmp_path / "sweep.csv"
        run_ok(runner, "sweep", "--space", "y", "--k-range", "3:5",
               "--n-range", "2:2", "--out", str(out_file),
               "--cache-dir", str(tmp_path), "--max-basis", "100")
        lines = out_file.read_text().splitlines()
        assert len(lines) == 4
        assert "error:CapacityError" in lines[3]  # k=5 n=2 has 550 columns
        assert len(lines[3].split(",")) == len(CSV_HEADER.split(","))
        assert int(lines[1].split(",")[8]) == 0  # k=3 cell still computed


class TestWitnessCommand:
    def test_schema(self, runner, tmp_path):
        out_file = tmp_path / "w.json"
        run_ok(runner, "witness", "--space", "full", "--k", "3",
               "--degree", "1", "--cache-dir", str(tmp_path),
               "--out", str(out_file))
        doc = json.loads(out_file.read_text())
        assert set(doc) == {"basis", "prime", "functionals"}
        assert len(doc["basis"]) == 3
        assert doc["functionals"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_trivial_quotient_empty_functionals(self, runner, tmp_path):
        out = run_ok(runner, "witness", "--space", "y", "--k", "4", "--n", "1",
                     "--cache-dir", str(tmp_path))
        assert json.loads(out)["functionals"] == []


class TestRelationsCommand:
    def test_counts_reported(self, runner):
        out = run_ok(runner, "relations", "--space", "y", "--k", "3", "--n", "0")
        assert out.strip().endswith("raw 18 effective 12")
        dumped = [l for l in out.splitlines() if "#" in l]
        assert len(dumped) == 12

    def test_rows_reparse(self, runner):
        out = run_ok(runner, "relations", "--space", "y", "--k", "3", "--n", "1")
        basis = enumerate_y_basis(3, 1, Mode.HOMOTOPY)
        for line in out.splitlines():
            if "#" not in line:
                continue
            text = line.split("#")[0].strip()
            row = RelationRow.from_dump_text(text, basis)
            assert row.to_dump_text(basis) == text

    def test_double_attachment_config_dumped(self, runner):
        # Both rest struts carry a 1-end; with only 3 colors the second
        # graft lands on a repeated-color diagram and vanishes, leaving a
        # single surviving entry.
        out = run_ok(runner, "relations", "--space", "y", "--k", "3", "--n", "1")
        target = [l for l in out.splitlines()
                  if "special=3-1*" in l and "{1-2,1-3}" in l]
        assert len(target) == 1
        assert len(target[0].split("#")[0].split()) == 1

    def test_two_entry_row_with_four_colors(self, runner):
        out = run_ok(runner, "relations", "--space", "y", "--k", "4", "--n", "1")
        target = [l for l in out.splitlines()
                  if "special=4-1*" in l and "{1-2,1-3}" in l]
        assert len(target) == 1
        assert len(target[0].split("#")[0].split()) == 2

    def test_full_space_dump(self, runner):
        out = run_ok(runner, "relations", "--space", "full", "--k", "4",
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
    def test_no_dump_prints_only_the_closing_counts(self, runner, args):
        dumped = run_ok(runner, "relations", *args)
        assert len(dumped.splitlines()) > 1
        closing = dumped.splitlines()[-1]
        assert closing.startswith("raw ")
        assert run_ok(runner, "relations", "--no-dump", *args) == closing + "\n"

    def test_guard(self, runner):
        result = runner.invoke(cli, ["relations", "--space", "y", "--k", "9",
                                     "--n", "4"])
        assert result.exit_code != 0
