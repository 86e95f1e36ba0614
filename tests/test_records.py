"""The cache file is checked line by line when it loads, although a
line's ResultRecord is built only when a lookup serves it: a line that
is not a record raises CacheError at load, whichever key is looked up,
and the first line with a key is the one served.  The error names the
bad line, and a file that failed is not parsed again until it changes."""

import json

import pytest
from click.testing import CliRunner

from strutforge import __version__
from strutforge.cli import cli
from strutforge.diagrams import Mode
from strutforge.errors import CacheError
from strutforge.pipeline import ResultCache, ResultRecord

H = Mode.HOMOTOPY

FIELDS = {
    "mode": "homotopy", "space": "y", "k": 3, "param": 0, "num_diagrams": 1,
    "num_relations_raw": 18, "num_relations_effective": 1, "rank": 1,
    "quotient_dim": 0, "primes": [2147483647, 2147483629], "elapsed_ms": 0,
    "tool_version": __version__, "timestamp": "2026-10-18T07:43:12+00:00",
    "certified": True,
}


def line(drop=(), **changes):
    data = {**FIELDS, **changes}
    return json.dumps({key: value for key, value in data.items() if key not in drop})


def cache_with(tmp_path, *lines):
    (tmp_path / "results.jsonl").write_text("".join(f"{text}\n" for text in lines))
    return ResultCache(tmp_path)


BAD_LINES = (
    [("unknown field", line(extra=1))]
    + [(f"missing {name}", line(drop=(name,))) for name in FIELDS if name != "certified"]
    + [(f"non-object {text}", text) for text in ("[1]", "5", "null")]
    + [(f"primes {value}", line(primes=value)) for value in (5, None)]
)


@pytest.mark.parametrize("what,bad", BAD_LINES, ids=[what for what, _ in BAD_LINES])
def test_a_line_that_is_not_a_record_raises_at_load(tmp_path, what, bad):
    # The bad line follows a valid one; a lookup of that record's key or
    # of another key raises.
    cache = cache_with(tmp_path, line(), bad)
    with pytest.raises(CacheError, match="unreadable cache"):
        cache.lookup(H, "y", 4, 1)
    cache = cache_with(tmp_path, line(), bad)
    with pytest.raises(CacheError, match="unreadable cache"):
        cache.lookup(H, "y", 3, 0)


def test_certified_may_be_missing(tmp_path):
    record = cache_with(tmp_path, line(drop=("certified",))).lookup(H, "y", 3, 0)
    assert record is not None and not record.certified


def test_a_repeated_key_serves_the_first_record(tmp_path):
    cache = cache_with(tmp_path, line(rank=1, elapsed_ms=5), line(rank=0, elapsed_ms=7))
    record = cache.lookup(H, "y", 3, 0)
    assert (record.rank, record.elapsed_ms) == (1, 5)
    assert record == ResultRecord.from_json(line(rank=1, elapsed_ms=5))
    assert cache.lookup(H, "y", 3, 0) is record


def test_a_line_that_is_not_utf8_raises_at_load(tmp_path):
    (tmp_path / "results.jsonl").write_bytes(line().encode() + b"\n\xff\xfe\n")
    with pytest.raises(CacheError, match="unreadable cache"):
        ResultCache(tmp_path).lookup(H, "y", 3, 0)


def history_with_a_bad_middle_line(directory):
    lines = [line(k=10 + i) for i in range(5000)]
    lines[2499] = "{not json"
    return cache_with(directory, *lines)


def test_an_unparseable_line_is_named_by_its_line_number(tmp_path):
    cache = history_with_a_bad_middle_line(tmp_path)
    with pytest.raises(CacheError, match="unreadable cache") as info:
        cache.lookup(H, "y", 3, 0)
    assert ": line 2500: " in str(info.value)
    assert "column" not in str(info.value)
    cache_with(tmp_path, line())
    assert cache.lookup(H, "y", 3, 0) == ResultRecord.from_json(line())


def test_a_bad_cache_loads_once_over_a_sweep(monkeypatch, tmp_path):
    (tmp_path / "cache").mkdir()
    history_with_a_bad_middle_line(tmp_path / "cache")
    loads = []
    load = ResultCache._load

    def counted(self):
        loads.append(self.path)
        load(self)

    monkeypatch.setattr(ResultCache, "_load", counted)
    out = tmp_path / "s.csv"
    result = CliRunner().invoke(cli, ["sweep", "--space", "y", "--k-range", "3:6",
                                      "--n-range", "0:2", "--out", str(out),
                                      "--cache-dir", str(tmp_path / "cache")])
    assert result.exit_code == 0, result.output
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 12
    assert all(row.split(",")[8] == "error:CacheError" for row in rows)
    assert len(loads) == 1
