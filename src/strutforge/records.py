"""Result records, the run defaults and the result cache: everything a
cache hit needs, and nothing of the engine.

A cell's dimension is an immutable ResultRecord.  Records are cached
append-only in a JSON-lines file keyed by (mode, space, k, param,
tool_version), so sweeps resume for free.  This module imports only
``errors`` and the standard library; a ``dim`` or ``sweep`` whose every
cell is a cache hit, and ``--version``, load no engine module.  Only a
cache miss imports ``pipeline`` to compute the cell.
"""

from __future__ import annotations

import enum
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

from . import __version__ as TOOL_VERSION
from .errors import CacheError, DomainError


class Mode(enum.Enum):
    """Which diagram space a computation lives in.

    In homotopy mode a component with two leaves of the same color is
    zero; concordance mode keeps such components.
    """

    HOMOTOPY = "homotopy"
    CONCORDANCE = "concordance"

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


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64.

    Miller-Rabin over a fixed set of bases, exact on that whole range;
    larger n raise DomainError rather than get a probable answer.
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


@dataclass(frozen=True)
class ResultRecord:
    """One cached dimension computation; immutable once written."""

    mode: str
    space: str
    k: int
    param: int
    num_diagrams: int
    num_relations_raw: int
    num_relations_effective: int
    rank: int
    quotient_dim: int
    primes: tuple[int, ...]
    elapsed_ms: int
    tool_version: str
    timestamp: str
    # The rank met linalg.rank_bound, which proves it exact over Q;
    # records written before this field existed load as False.
    certified: bool = False

    def key(self) -> tuple:
        return (self.mode, self.space, self.k, self.param, self.tool_version)

    def to_json(self) -> str:
        data = asdict(self)
        data["primes"] = list(self.primes)
        return json.dumps(data)

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


_FIELDS = frozenset(f.name for f in fields(ResultRecord))
_REQUIRED = _FIELDS - {"certified"}


def _check_fields(data: object) -> None:
    """Raise ValueError unless ``data``, one parsed cache line, holds a
    ResultRecord: an object with every field but ``certified``, no
    other field, and a list of primes."""
    if not isinstance(data, dict):
        raise ValueError(f"a line is a JSON {type(data).__name__}, not an object")
    names = data.keys()
    if not (_REQUIRED <= names and names <= _FIELDS):
        raise ValueError(f"a line has unknown fields {sorted(names - _FIELDS)} "
                         f"and lacks fields {sorted(_REQUIRED - names)}")
    if not isinstance(data["primes"], list):
        raise ValueError("a line's primes are not a list")


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
    before the write.  Loading checks every line's JSON and field names;
    a line's ResultRecord is built only when ``lookup`` serves it.

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
        # key -> the served ResultRecord, or the parsed line not yet served
        self._records: dict[tuple, ResultRecord | dict] = {}
        self._stamp: Optional[tuple[int, int]] = None

    def _load(self) -> None:
        records: dict[tuple, dict] = {}
        try:
            with self.path.open("r", encoding="utf-8") as fh:
                st = os.fstat(fh.fileno())
                for raw in fh:
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line)
                    except json.JSONDecodeError:
                        if not raw.endswith("\n"):
                            print(f"warning: skipping the torn last line of {self.path}",
                                  file=sys.stderr)
                            break
                        if next(fh, "") != "\n":
                            raise
                        continue
                    _check_fields(data)
                    records.setdefault((data["mode"], data["space"], data["k"],
                                        data["param"], data["tool_version"]), data)
        except (OSError, ValueError, TypeError) as exc:
            raise CacheError(f"unreadable cache {self.path}: {exc}") from exc
        self._records, self._stamp = records, (st.st_size, st.st_mtime_ns)

    def lookup(self, mode: Mode, space: str, k: int, param: int,
               tool_version: str = TOOL_VERSION) -> Optional[ResultRecord]:
        try:
            st = self.path.stat()
        except FileNotFoundError:
            self._records, self._stamp = {}, (0, 0)
        except OSError as exc:
            raise CacheError(f"unreadable cache {self.path}: {exc}") from exc
        else:
            if (st.st_size, st.st_mtime_ns) != self._stamp:
                self._load()
        key = (mode.value, space, k, param, tool_version)
        record = self._records.get(key)
        if isinstance(record, dict):
            record = self._records[key] = ResultRecord(
                **{**record, "primes": tuple(record["primes"])})
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
        if self._stamp is not None and end == self._stamp[0]:
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
