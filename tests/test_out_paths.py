"""``--out`` in a missing directory is refused before any listing, with
a one-line error and no traceback, and ``witness --out`` never leaves a
partial witness: it writes beside the target and renames at the end."""

import errno
import json

import pytest

import strutforge.cli as cli_module
from brute_force import witness_ungraded
from cli_runner import invoke
from strutforge.diagrams import Mode


def _never(*_args, **_kwargs):
    raise AssertionError("a basis was listed")


@pytest.fixture
def no_listing(monkeypatch):
    monkeypatch.setattr("strutforge.pipeline.build_basis", _never)


@pytest.mark.parametrize("command", [
    ["witness", "--space", "full", "--k", "3", "--degree", "2"],
    ["sweep", "--space", "y", "--k-range", "3:4", "--n-range", "0:1"],
])
def test_missing_directory_is_refused_before_any_listing(no_listing, tmp_path, command):
    out = tmp_path / "no" / "such" / "out.txt"
    result = invoke([*command, "--out", str(out),
                     "--cache-dir", str(tmp_path / "cache")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip().splitlines() == [
        f"Error: Could not open file '{out}': No such file or directory"]
    assert list(tmp_path.iterdir()) == []


def test_failed_witness_leaves_the_directory_empty(no_listing, tmp_path):
    result = invoke(["witness", "--space", "full", "--k", "3",
                     "--degree", "2", "--out", str(tmp_path / "w.json")])
    assert isinstance(result.exception, AssertionError)
    assert list(tmp_path.iterdir()) == []


def test_witness_failing_mid_write_leaves_no_partial_file(monkeypatch, tmp_path):
    def torn(doc):
        yield "{"
        raise RuntimeError("killed mid-write")

    monkeypatch.setattr(cli_module, "_witness_parts", torn)
    out = tmp_path / "w.json"
    out.write_text("earlier witness\n")
    result = invoke(["witness", "--space", "full", "--k", "3",
                     "--degree", "1", "--out", str(out)])
    assert isinstance(result.exception, RuntimeError)
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == "earlier witness\n"


def test_witness_write_that_fails_exits_1_and_leaves_no_file(monkeypatch, tmp_path):
    def full_disk(doc):
        yield "{"
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli_module, "_witness_parts", full_disk)
    out = tmp_path / "w.json"
    result = invoke(["witness", "--space", "full", "--k", "3",
                     "--degree", "1", "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == f"Error: Could not open file '{out}': No space left on device\n"
    assert list(tmp_path.iterdir()) == []


def test_witness_replaces_an_earlier_file(tmp_path):
    out = tmp_path / "w.json"
    out.write_text("earlier witness\n")
    result = invoke(["witness", "--space", "full", "--mode", "concordance",
                     "--k", "2", "--degree", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == json.dumps(witness_ungraded(Mode.CONCORDANCE, "full", 2, 3)) + "\n"


def test_witness_to_stdout_is_the_oracle_bytes():
    result = invoke(["witness", "--space", "full", "--k", "3", "--degree", "2"])
    assert result.exit_code == 0, result.output
    assert result.output == json.dumps(witness_ungraded(Mode.HOMOTOPY, "full", 3, 2)) + "\n"
