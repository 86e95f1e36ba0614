"""Result records, the run defaults and the result cache: everything a
cache hit needs, and nothing of the engine.

A cell's dimension is an immutable ResultRecord, stamped with the UTC
time it finished to the second (``2026-10-19T12:01:30+00:00``).  One
table, ``RECORD_FIELDS``, gives each of its fields with its JSON type
and default, and drives the record's constructor, its JSON line, the
field check and the line pattern.  Records are cached append-only in a
JSON-lines file keyed by (mode, space, k, param, tool_version), so
sweeps resume for free.  Loading the file recognises the lines
``ResultRecord.to_json`` writes with one regular expression, built from
that table, and parses only other lines as JSON; a record is decoded
when a lookup serves it.  This module imports only ``errors`` and the
standard library, and neither ``dataclasses`` (with ``inspect``) nor
``datetime``, which would add to every process.  A ``dim`` or
``sweep`` whose every cell is a cache hit, and ``--version``, load no
engine module.  Only a cache miss imports ``pipeline`` to compute the
cell.
"""

from __future__ import annotations

import enum
import functools
import json
import os
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__ as TOOL_VERSION
from .errors import CacheError, DomainError, Value, _set


class Mode(enum.Enum):
    """Which diagram space a computation lives in.

    In homotopy mode a component with two leaves of the same color is
    zero; concordance mode keeps such components.
    """

    HOMOTOPY = "homotopy"
    CONCORDANCE = "concordance"

    # Members are singletons compared by identity: the identity hash runs
    # in C, where ``Enum.__hash__`` hashes the name in Python per lookup.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


# Run defaults: the basis and relation-configuration guards, and the primes.
DEFAULT_MAX_ELEMENTS = 5_000_000
DEFAULT_MAX_ROWS = 20_000_000

# Verified primes just below 2**31, largest first.
PRIME_POOL = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
    2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
)
DEFAULT_PRIMES = PRIME_POOL[:2]

# Miller-Rabin with these bases is exact for every n below 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 1 << 64


@functools.cache
def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64.

    Miller-Rabin over a fixed set of bases, exact on that whole range;
    larger n raise DomainError rather than get a probable answer.
    Answers are cached: a run checks its few primes once per block.
    """
    if n >= _MR_LIMIT:
        raise DomainError(f"primality is only checked below 2**64, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


CSV_HEADER = ("mode,space,k,param,num_diagrams,num_relations_raw,"
              "num_relations_effective,rank,quotient_dim,primes,elapsed_ms,"
              "tool_version,timestamp")

CACHE_ENV_VAR = "STRUTFORGE_CACHE_DIR"
CACHE_FILENAME = "results.jsonl"


_REQUIRED = object()
# Each ResultRecord field in field order: its name, the type of its value
# in parsed JSON, and its default, ``_REQUIRED`` for none.  Records
# written before ``certified`` existed load with its default.
RECORD_FIELDS = (
    ("mode", str, _REQUIRED), ("space", str, _REQUIRED), ("k", int, _REQUIRED),
    ("param", int, _REQUIRED), ("num_diagrams", int, _REQUIRED),
    ("num_relations_raw", int, _REQUIRED), ("num_relations_effective", int, _REQUIRED),
    ("rank", int, _REQUIRED), ("quotient_dim", int, _REQUIRED),
    ("primes", list, _REQUIRED), ("elapsed_ms", int, _REQUIRED),
    ("tool_version", str, _REQUIRED), ("timestamp", str, _REQUIRED),
    # The rank met linalg.rank_bound, which proves it exact over Q.
    ("certified", bool, False),
)


class ResultRecord(Value):
    """One cached dimension computation; immutable once written.  Its
    fields are ``RECORD_FIELDS``, given in that order or by keyword;
    ``primes`` is a tuple."""

    __slots__ = tuple(name for name, _, _ in RECORD_FIELDS)

    def __init__(self, *args: object, **values: object) -> None:
        if len(args) > len(RECORD_FIELDS):
            raise TypeError(f"ResultRecord takes {len(RECORD_FIELDS)} fields, got {len(args)}")
        for name, value in zip(self.__slots__, args):
            if name in values:
                raise TypeError(f"ResultRecord got field {name!r} twice")
            values[name] = value
        for name, _, default in RECORD_FIELDS:
            value = values.pop(name, default)
            if value is _REQUIRED:
                raise TypeError(f"ResultRecord missing field {name!r}")
            _set(self, name, value)
        if values:
            raise TypeError(f"ResultRecord has no field {sorted(values)}")

    def key(self) -> tuple:
        return (self.mode, self.space, self.k, self.param, self.tool_version)

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in self.__slots__})

    @classmethod
    def from_json(cls, line: str) -> "ResultRecord":
        data = json.loads(line)
        data["primes"] = tuple(data["primes"])
        return cls(**data)

    def csv_row(self) -> str:
        return ",".join([
            self.mode, self.space, str(self.k), str(self.param),
            str(self.num_diagrams), str(self.num_relations_raw),
            str(self.num_relations_effective), str(self.rank),
            str(self.quotient_dim), ";".join(str(p) for p in self.primes),
            str(self.elapsed_ms), self.tool_version, self.timestamp,
        ])


_KIND = {name: kind for name, kind, _ in RECORD_FIELDS}
_FIELDS = frozenset(_KIND)
_REQUIRED_FIELDS = frozenset(name for name, _, default in RECORD_FIELDS
                             if default is _REQUIRED)
# Each JSON value type's name in an error.
_KIND_NAMES = {str: "a string", int: "an integer", bool: "a boolean",
               list: "a list of integers"}


def _check_fields(data: object) -> None:
    """Raise ValueError unless ``data``, one parsed cache line, holds a
    ResultRecord: an object with every field but ``certified``, no
    other field, and each value of its field's type: a string, an
    integer that is not a boolean, a boolean, or a list of such
    integers for ``primes``."""
    if not isinstance(data, dict):
        raise ValueError(f"a JSON {type(data).__name__}, not an object")
    names = data.keys()
    if not (_REQUIRED_FIELDS <= names and names <= _FIELDS):
        raise ValueError(f"unknown fields {sorted(names - _FIELDS)} "
                         f"and missing fields {sorted(_REQUIRED_FIELDS - names)}")
    for name, value in data.items():
        kind = _KIND[name]
        if type(value) is not kind or (kind is list and any(type(p) is not int for p in value)):
            raise ValueError(f"{name} not {_KIND_NAMES[kind]}")


# The JSON of each field type as ``json.dumps`` writes it, restricted to
# text that ``json.loads`` reads back as the same value: strings without
# escapes or control characters, and integers of at most 18 digits, far
# below Python's int-string limit.  ``%s`` opens the value's group.
_INT = r"-?(?:0|[1-9][0-9]{0,17})"
_VALUE = {str: r'"(%s[^"\\\x00-\x1f]*)"', int: rf"(%s{_INT})",
          bool: "(%strue|false)", list: rf"(%s\[(?:{_INT}(?:, {_INT})*)?\])"}
# The fields of ResultRecord.key(), which keeps them in field order.
_KEY_FIELDS = ("mode", "space", "k", "param", "tool_version")


@functools.cache
def _line_pattern() -> re.Pattern:
    """The lines ``ResultRecord.to_json`` writes: every field in field
    order with ``json.dumps``'s separators, a defaulted field optional.
    A line it matches is a record that ``json.loads`` and
    ``_check_fields`` accept, and its groups are the key's values as
    text; any other line takes the full check.  Built on the first cache
    load, not at import."""
    parts = []
    for i, (name, kind, default) in enumerate(RECORD_FIELDS):
        value = _VALUE[kind] % ("" if name in _KEY_FIELDS else "?:")
        part = f'{", " if i else ""}"{name}": {value}'
        if default is not _REQUIRED:
            part = f"(?:{part})?"
        parts.append(part)
    return re.compile(r"\{%s\}" % "".join(parts))


def resolve_cache_dir(flag_value: Optional[str] = None) -> Path:
    """Cache directory precedence: flag, then the environment variable,
    then ./cache."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / "cache"


class ResultCache:
    """Append-only JSON-lines store of ResultRecords.

    The first record matching (mode, space, k, param, tool_version) wins,
    so re-computations never shadow history.  The file is parsed into a
    key -> record dict once per process and parsed again only when its
    (size, mtime) differs from what this process last read or wrote; an
    append adds its own record to the dict when the file had not changed
    before the write.  Loading keeps a line that ``_line_pattern``
    matches, the writer's own spelling of a record, as text under its
    key; any other line is parsed and its fields and their types checked.  A line's
    ResultRecord is decoded only when ``lookup`` serves it.

    Each record is written with one write call.  A writer killed mid-write
    leaves a torn record: an unparseable last line without its newline.
    Loading skips it with a warning.  The next append closes it off with a
    newline and a blank line before its own record, and loading skips an
    unparseable line followed by a blank line silently.  Any other
    unparseable line, and any line that is not a record, raises
    CacheError.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.path = self.directory / CACHE_FILENAME
        # key -> the served ResultRecord, or its line not yet served
        self._records: dict[tuple, ResultRecord | str] = {}
        self._stamp: Optional[tuple[int, int]] = None
        # the CacheError message when the file at ``_stamp`` failed to load
        self._error: Optional[str] = None

    def _load(self) -> None:
        records: dict[tuple, str] = {}
        record_line = _line_pattern().fullmatch
        st = None
        try:
            with self.path.open("r", encoding="utf-8") as fh:
                st = os.fstat(fh.fileno())
                lineno = 0
                for raw in fh:
                    lineno += 1
                    line = raw.strip()
                    if not line:
                        continue
                    match = record_line(line)
                    if match is not None:
                        mode, space, k, param, version = match.groups()
                        records.setdefault((mode, space, int(k), int(param), version), line)
                        continue
                    try:
                        data = json.loads(line)
                    except json.JSONDecodeError as exc:
                        if not raw.endswith("\n"):
                            print(f"warning: skipping the torn last line of {self.path}",
                                  file=sys.stderr)
                            break
                        if next(fh, "") != "\n":
                            raise ValueError(f"line {lineno}: {exc.msg}") from exc
                        lineno += 1
                        continue
                    except ValueError as exc:
                        # parsed, but an integer too long to convert
                        raise ValueError(f"line {lineno}: {exc}") from exc
                    try:
                        _check_fields(data)
                    except ValueError as exc:
                        raise ValueError(f"line {lineno}: {exc}") from exc
                    records.setdefault((data["mode"], data["space"], data["k"],
                                        data["param"], data["tool_version"]), line)
        except (OSError, ValueError) as exc:
            message = f"unreadable cache {self.path}: {exc}"
            if st is not None:
                # the same file fails the same way: keep the error, not the parse
                self._records, self._stamp = {}, (st.st_size, st.st_mtime_ns)
                self._error = message
            raise CacheError(message) from exc
        self._records, self._stamp = records, (st.st_size, st.st_mtime_ns)
        self._error = None

    def lookup(self, mode: Mode, space: str, k: int, param: int,
               tool_version: str = TOOL_VERSION) -> Optional[ResultRecord]:
        try:
            st = self.path.stat()
        except FileNotFoundError:
            self._records, self._stamp, self._error = {}, (0, 0), None
        except OSError as exc:
            raise CacheError(f"unreadable cache {self.path}: {exc}") from exc
        else:
            if (st.st_size, st.st_mtime_ns) != self._stamp:
                self._load()
            elif self._error is not None:
                raise CacheError(self._error)
        key = (mode.value, space, k, param, tool_version)
        record = self._records.get(key)
        if isinstance(record, str):
            record = self._records[key] = ResultRecord.from_json(record)
        return record

    def append(self, record: ResultRecord) -> None:
        data = (record.to_json() + "\n").encode("utf-8")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with self.path.open("a+b", buffering=0) as fh:
                end = fh.seek(0, os.SEEK_END)
                if end:
                    fh.seek(end - 1)
                    if fh.read(1) != b"\n":
                        data = b"\n\n" + data
                written = fh.write(data)
                st = os.fstat(fh.fileno())
        except OSError as exc:
            raise CacheError(f"cannot write cache {self.path}: {exc}") from exc
        if written != len(data):
            raise CacheError(f"short write to cache {self.path}")
        if self._error is None and self._stamp is not None and end == self._stamp[0]:
            self._records.setdefault(record.key(), record)
            self._stamp = (st.st_size, st.st_mtime_ns)

    def get_or_compute(self, mode: Mode, space: str, k: int, param: int,
                       primes: Sequence[int] = DEFAULT_PRIMES,
                       max_elements: int = DEFAULT_MAX_ELEMENTS,
                       max_rows: int = DEFAULT_MAX_ROWS) -> tuple[ResultRecord, bool]:
        """(record, was_cached).  A miss imports the engine and computes
        the cell with ``pipeline.compute_dimension``."""
        hit = self.lookup(mode, space, k, param)
        if hit is not None:
            return hit, True
        from . import pipeline
        record = pipeline.compute_dimension(mode, space, k, param, primes,
                                            max_elements, max_rows)
        self.append(record)
        return record, False
