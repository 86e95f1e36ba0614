"""The cache file is checked line by line when it loads, although a
line's ResultRecord is built only when a lookup serves it: a line that
is not a record raises CacheError at load, whichever key is looked up,
and the first line with a key is the one served.  The error names the
bad line, and a file that failed is not parsed again until it changes.
A line spelled as the writer spells it is recognised by a pattern
instead of parsed; whatever the spelling, the cache serves and fails as
it does with ``json.loads`` on every line."""

import functools
import json
import pickle
import re
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cli_runner import invoke
from strutforge import __version__, records
from strutforge.diagrams import Mode
from strutforge.errors import CacheError
from strutforge.pipeline import ResultCache, ResultRecord
from strutforge.records import RECORD_FIELDS, _check_fields, _line_pattern

H = Mode.HOMOTOPY
KEY = ("mode", "space", "k", "param", "tool_version")

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
    + [(f"{name} {json.dumps(value)}", line(**{name: value}))
       for name, value in (("k", 1.0), ("rank", None), ("k", True), ("certified", 1),
                           ("primes", ["2"]), ("mode", 5), ("k", "3"))]
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


def test_a_torn_line_closed_off_by_an_append_loads_quietly(tmp_path, capsys):
    # A writer killed mid-record leaves a torn line; the next append
    # closes it off with a newline and a blank line before its record.
    # A fresh cache skips that line and the blank lines silently.
    torn = line(k=4)[:-9]
    (tmp_path / "results.jsonl").write_text(
        f"{line(k=3)}\n{torn}\n\n{line(k=5)}\n\n{line(k=6)}\n")
    cache = ResultCache(tmp_path)
    for k in (3, 5, 6):
        assert cache.lookup(H, "y", k, 0) == ResultRecord.from_json(line(k=k))
    assert cache.lookup(H, "y", 4, 0) is None
    assert capsys.readouterr().err == ""


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
    result = invoke(["sweep", "--space", "y", "--k-range", "3:6",
                     "--n-range", "0:2", "--out", str(out),
                     "--cache-dir", str(tmp_path / "cache")])
    assert result.exit_code == 0, result.output
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 12
    assert all(row.split(",")[8] == "error:CacheError" for row in rows)
    assert len(loads) == 1


# The recogniser: ``_load`` keeps a line that ``_line_pattern`` matches
# without parsing it, so every line it matches must be one that
# ``json.loads`` and ``_check_fields`` accept with the same key, and the
# record served from it must be ``ResultRecord.from_json`` of the line.
# Any other spelling takes the full check and fails or loads as before.

def served(directory, key):
    """repr of the record a fresh cache serves for ``key``, or the text
    of the CacheError it raises."""
    mode, *rest = key
    try:
        return repr(ResultCache(directory).lookup(SimpleNamespace(value=mode), *rest))
    except CacheError as exc:
        return f"CacheError: {exc}"


def json_only(directory, text, key):
    """What a one-line cache holding ``text`` serves under ``json.loads``
    and ``_check_fields`` alone, as ``served`` reports it."""
    prefix = f"CacheError: unreadable cache {directory / 'results.jsonl'}: line 1: "
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return prefix + exc.msg
    try:
        _check_fields(data)
        line_key = tuple(data[name] for name in KEY)
        hash(line_key)
    except (ValueError, TypeError) as exc:
        return prefix + str(exc)
    return repr(ResultRecord.from_json(text) if line_key == key else None)


# Strings the writer carries unescaped, such strings with one character
# that JSON escapes or that is not ASCII, and full Unicode with quotes,
# backslashes and control characters; integers that fit the pattern and
# integers up to 10**30.
PLAIN_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                   blacklist_characters='"\\'), max_size=8)
SPECIAL = '"\\\x00\x1f\x7f\x85\xe9\u2028\U0001f600'
TEXTS = (PLAIN_TEXT,
         PLAIN_TEXT | st.builds(lambda a, c, b: a + c + b, PLAIN_TEXT, st.sampled_from(SPECIAL),
                                PLAIN_TEXT),
         st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(SPECIAL),
                 max_size=12))
INTS = (st.integers(min_value=1 - 10**18, max_value=10**18 - 1),
        st.integers(min_value=-10**30, max_value=10**30)
        | st.sampled_from([10**18 - 1, 10**18, 1 - 10**18, -10**18]))
NOT_A_FIELD_VALUE = (st.none() | st.booleans() | INTS[1]
                     | st.floats(allow_nan=False, allow_infinity=False)
                     | st.text(max_size=3) | st.lists(INTS[1], max_size=2)
                     | st.dictionaries(st.text(max_size=2), INTS[1], max_size=1))


@st.composite
def record_fields(draw):
    """The fields of a ResultRecord, ``certified`` true, false or absent;
    each record draws its strings from one of TEXTS and its integers from
    one of INTS."""
    ints = draw(st.sampled_from(INTS))
    values = {str: draw(st.sampled_from(TEXTS)), int: ints, list: st.lists(ints, max_size=4)}
    data = {name: draw(values[kind]) for name, kind, _ in RECORD_FIELDS
            if name != "certified"}
    certified = draw(st.sampled_from([True, False, None]))
    if certified is not None:
        data["certified"] = certified
    return data


@st.composite
def spelled_lines(draw):
    """(line, fields): a record, sometimes broken by one change, in the
    writer's spelling or in another: compact or padded separators,
    reordered keys, non-ASCII raw or every character ``\\u``-escaped, or
    strings written raw without escapes, which ``json.loads`` may refuse."""
    data = draw(record_fields())
    change = draw(st.sampled_from(["none"] * 4 + ["drop", "extra", "retype"]))
    if change == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    elif change == "extra":
        data[draw(st.text(max_size=4).filter(lambda name: name not in data))] = 1
    elif change == "retype":
        data[draw(st.sampled_from(sorted(data)))] = draw(NOT_A_FIELD_VALUE)
    order, item_sep, key_sep, pad = list(data), ", ", ": ", ""
    if draw(st.booleans()):
        order = draw(st.permutations(sorted(data))) if draw(st.booleans()) else order
        item_sep = draw(st.sampled_from([", ", ",", " ,\t", ",  "]))
        key_sep = draw(st.sampled_from([": ", ":", " : "]))
        pad = draw(st.sampled_from(["", " "]))
    strings = draw(st.sampled_from(["ascii", "unicode", "escaped", "raw"]))

    def value(v):
        if strings == "escaped" and isinstance(v, str):
            units = v.encode("utf-16-be")
            return '"' + "".join(f"\\u{units[i] << 8 | units[i + 1]:04x}"
                                 for i in range(0, len(units), 2)) + '"'
        if strings == "raw" and isinstance(v, str) and not {"\n", "\r"} & set(v):
            return f'"{v}"'
        return json.dumps(v, separators=(item_sep, key_sep), ensure_ascii=strings == "ascii")

    body = item_sep.join(f"{json.dumps(key)}{key_sep}{value(data[key])}" for key in order)
    return f"{pad}{{{pad}{body}{pad}}}{pad}", data


@settings(max_examples=500, deadline=None)
@given(spelled=spelled_lines())
def test_a_one_line_cache_serves_what_json_loads_reads(tmp_path_factory, spelled):
    text, data = spelled
    directory = tmp_path_factory.mktemp("line")
    (directory / "results.jsonl").write_text(text + "\n", encoding="utf-8")
    key = tuple(data.get(name) for name in KEY)
    expected = json_only(directory, text, key)
    assert served(directory, key) == expected
    if _line_pattern().fullmatch(text.strip()):
        assert not expected.startswith("CacheError")


def fits(value):
    """Whether the pattern takes ``value`` as ``json.dumps`` writes it."""
    if isinstance(value, int):
        return -10**18 < value < 10**18
    return json.dumps(value) == f'"{value}"'


@settings(max_examples=200, deadline=None)
@given(data=record_fields())
def test_the_pattern_matches_every_written_line_that_needs_no_escape(data):
    record = ResultRecord(**{**data, "primes": tuple(data["primes"])})
    match = _line_pattern().fullmatch(record.to_json())
    values = [getattr(record, name) for name, kind, _ in RECORD_FIELDS
              if kind in (str, int)]
    assert (match is not None) == all(map(fits, values + list(record.primes)))
    if match:
        mode, space, k, param, version = match.groups()
        assert (mode, space, int(k), int(param), version) == record.key()


@pytest.mark.parametrize("name", ["mode", "space", "tool_version", "timestamp"])
def test_a_raw_special_character_loads_as_json_loads_reads_it(tmp_path, name):
    # The writer's spelling but for one string written without escapes.
    for char in SPECIAL:
        value = f"a{char}b"
        text = line().replace(json.dumps(FIELDS[name]), f'"{value}"', 1)
        (tmp_path / "results.jsonl").write_text(text + "\n", encoding="utf-8")
        key = tuple({**FIELDS, name: value}[field] for field in KEY)
        assert served(tmp_path, key) == json_only(tmp_path, text, key), repr(char)


def test_an_over_long_integer_is_named_by_its_line_number(tmp_path):
    # json.loads refuses it with a plain ValueError, not a JSONDecodeError.
    long_line = line().replace('"elapsed_ms": 0', '"elapsed_ms": ' + "9" * 4400)
    cache = cache_with(tmp_path, line(k=4), line(k=5), line(k=6), long_line)
    with pytest.raises(CacheError, match="unreadable cache") as info:
        cache.lookup(H, "y", 4, 0)
    assert ": line 4: " in str(info.value)


def test_an_over_long_integer_loads_as_json_loads_reads_it(monkeypatch, tmp_path):
    # No integer the pattern accepts is near Python's int-string limit,
    # so an over-long one fails (or loads) exactly as json.loads has it.
    cache_with(tmp_path, line().replace('"elapsed_ms": 0', '"elapsed_ms": ' + "9" * 4400))
    key = ("homotopy", "y", 3, 0, __version__)
    recognised = served(tmp_path, key)
    monkeypatch.setattr(records, "_line_pattern", lambda: re.compile("(?!)"))
    assert recognised == served(tmp_path, key)


def test_other_spellings_load_as_json_loads_reads_them(monkeypatch, tmp_path):
    # Writer lines, other spellings of records, a repeated key and a torn
    # last line: the cache serves every key as the same
    # load does with a recogniser that matches nothing, i.e. with
    # json.loads on every line.
    served_by = {(k, n): line(k=k, param=n) for k in range(3, 6) for n in range(3)}
    served_by[6, 0] = json.dumps(FIELDS | {"k": 6}, separators=(",", ":"))
    served_by[7, 0] = json.dumps(dict(reversed((FIELDS | {"k": 7}).items())))
    served_by[8, 0] = line(k=8).replace('"space": "y"', '"space": "\\u0079"')
    served_by[9, 0] = json.dumps(FIELDS | {"k": 9, "timestamp": "heute é"}, ensure_ascii=False)
    lines = [*served_by.values(), line(k=4, param=1, rank=0), line(k=10)[:-5]]
    (tmp_path / "results.jsonl").write_text("\n".join(lines), encoding="utf-8")
    keys = [(H, "y", k, n, __version__) for k, n in [*served_by, (10, 0)]]

    def serve_all():
        cache = ResultCache(tmp_path)
        return [repr(cache.lookup(*key)) for key in keys]

    matched = []
    pattern = _line_pattern()

    def fullmatch(text):
        matched.append(pattern.fullmatch(text) is not None)
        return pattern.fullmatch(text)

    monkeypatch.setattr(records, "_line_pattern", lambda: SimpleNamespace(fullmatch=fullmatch))
    recognised = serve_all()
    # the writer's lines, the raw non-ASCII one and the repeat are recognised
    assert matched == [True] * 9 + [False, False, False, True, True, False]
    monkeypatch.setattr(records, "_line_pattern", lambda: re.compile("(?!)"))
    assert recognised == serve_all()
    assert recognised == [repr(ResultRecord.from_json(text)) for text in served_by.values()] \
        + ["None"]


def test_a_cache_directory_that_is_a_file_fails_to_write_and_to_read(tmp_path):
    not_a_directory = tmp_path / "cache"
    not_a_directory.write_text("")
    with pytest.raises(CacheError, match=re.escape(f"cannot write cache {not_a_directory}")):
        ResultCache(not_a_directory).append(ResultRecord.from_json(line()))
    result = invoke(["dim", "--space", "y", "--k", "3", "--n", "0",
                     "--cache-dir", str(not_a_directory)])
    assert result.exit_code == 2
    assert result.output.endswith(
        f"Error: argument --cache-dir: '{not_a_directory}' is not a directory.\n")
    assert not_a_directory.read_text() == ""


def test_a_cache_error_names_its_path_once(tmp_path):
    (tmp_path / "file").write_text("")
    below_a_file = tmp_path / "file" / "cache"
    with pytest.raises(CacheError) as failed:
        ResultCache(below_a_file).lookup(Mode.HOMOTOPY, "y", 3, 0)
    assert str(failed.value) == f"unreadable cache {below_a_file}/results.jsonl: Not a directory"
    with pytest.raises(CacheError) as failed:
        ResultCache(below_a_file).append(ResultRecord.from_json(line()))
    assert str(failed.value) == f"cannot write cache {below_a_file}/results.jsonl: Not a directory"


def test_appending_into_a_file_says_it_is_not_a_directory(tmp_path):
    not_a_directory = tmp_path / "cache"
    not_a_directory.write_text("")
    with pytest.raises(CacheError) as failed:
        ResultCache(not_a_directory).append(ResultRecord.from_json(line()))
    assert str(failed.value) == \
        f"cannot write cache {not_a_directory}/results.jsonl: Not a directory"
    assert not_a_directory.read_text() == ""


def test_a_short_write_is_a_cache_error(tmp_path, monkeypatch):
    class ShortWrites:
        """A file whose writes all stop one byte short."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, data):
            return self.fh.write(data[:-1])

        def __getattr__(self, name):
            return getattr(self.fh, name)

    real_open = Path.open
    monkeypatch.setattr(Path, "open", lambda path, *args, **kwargs:
                        ShortWrites(real_open(path, *args, **kwargs)))
    cache = ResultCache(tmp_path)
    with pytest.raises(CacheError) as failed:
        cache.append(ResultRecord.from_json(line()))
    assert str(failed.value) == f"short write to cache {tmp_path}/results.jsonl"


def test_a_mode_made_from_its_value_hits_a_cache_entry_of_its_member():
    # ``Mode`` hashes by identity, which holds because a member is
    # looked up, never built, from its value or from a pickle
    calls = []

    @functools.lru_cache(maxsize=None)
    def keyed(marked, host, mode):
        calls.append(mode)
        return mode.value

    assert keyed(b"\x01\x02", b"\x01\x03", Mode.HOMOTOPY) == "homotopy"
    for again in (Mode("homotopy"), pickle.loads(pickle.dumps(Mode.HOMOTOPY))):
        assert keyed(b"\x01\x02", b"\x01\x03", again) == "homotopy"
    assert calls == [Mode.HOMOTOPY]
    assert keyed.cache_info().hits == 2
