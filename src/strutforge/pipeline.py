"""End-to-end dimension pipeline, result records, and the result cache.

A dimension run builds the basis, generates relations, ranks the matrix
(one prime when that rank certifies itself, more otherwise), and emits
an immutable ResultRecord.  Records are cached append-only in a
JSON-lines file keyed by (mode, space, k, param, tool_version) so sweeps
resume for free.

A ``y`` cell is ranked by blocks and never built whole.  Its diagrams
split by leaf-colour multiset M, and every relation row is homogeneous
in M (see ``relations``), so the relation matrix is block diagonal and
its rank is the sum of the block ranks.  A colour permutation s maps
block M onto block sM: a diagram goes to the diagram with permuted
colours, up to the sign of its Y, which flips when s takes the Y's
colours out of cyclic order; and the configuration (a, c*, R) of M goes
to (sa, sc*, sR) of sM, whose row is the image of the first under that
signed column bijection.  Rank ignores a signed permutation of the
columns, and distinct rows stay distinct, so every block of an orbit has
the same columns, distinct nonzero rows and rank, and
quotient = sum over orbits of |orbit| * (columns - rank) of one
representative block (``bases.y_leaf_orbits``).  A block-diagonal rank
is exact when every block's rank meets its own bound, so the cell is
certified when every block is.  ``witness`` and the ``relations`` dump
still build the whole cell.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from . import __version__ as TOOL_VERSION
from .bases import (
    Basis,
    DEFAULT_MAX_ELEMENTS,
    enumerate_basis,
    check_y_caps,
    enumerate_y_basis,
    y_leaf_orbits,
)
from .diagrams import Mode
from .errors import CacheError, DomainError
from .linalg import (
    DEFAULT_PRIMES,
    RankResult,
    SparseMatrix,
    cokernel_functionals,
    rank_multiprime,
)
from .relations import (
    DEFAULT_MAX_ROWS,
    RelationRow,
    coefficient_bound,
    count_ihx_instances,
    count_link_configs,
    ihx_relations,
    link_relations,
    y_link_config_count,
    y_link_relations,
)

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


def build_basis(mode: Mode, space: str, k: int, param: int,
                max_elements: int = DEFAULT_MAX_ELEMENTS) -> Basis:
    if space == "y":
        return enumerate_y_basis(k, param, mode, max_elements)
    if space == "full":
        return enumerate_basis(k, param, mode, max_elements)
    raise DomainError(f"space must be 'y' or 'full', got {space!r}")


def build_relations(mode: Mode, space: str, k: int, param: int, basis: Basis,
                    max_rows: int = DEFAULT_MAX_ROWS
                    ) -> tuple[list[RelationRow], int]:
    """(deduplicated nonzero rows, raw configuration count)."""
    if space == "y":
        raw = y_link_config_count(k, param, mode)
        rows = y_link_relations(k, param, mode, basis, max_rows)
        return rows, raw
    raw = count_link_configs(k, param, mode) + count_ihx_instances(basis)
    link = link_relations(k, param, mode, basis, max_rows, provenance=False)
    ihx = ihx_relations(k, param, mode, basis, provenance=False)
    seen = {row.entries: row for row in link}
    for row in ihx:
        seen.setdefault(row.entries, row)
    return [seen[key] for key in sorted(seen)], raw


def _check_prime_bound(space: str, param: int, primes: Sequence[int]) -> None:
    """Reject, before any work, a prime that does not exceed the largest
    coefficient the cell's relation rows can have; the rank routines
    check the actual rows again."""
    bound = coefficient_bound(space, param)
    for p in primes:
        if p <= bound:
            raise DomainError(
                f"prime {p} does not exceed the coefficient bound {bound} of this space")


def _graded_y(mode: Mode, k: int, n: int, primes: Sequence[int],
              max_elements: int, max_rows: int) -> tuple[int, int, int, RankResult]:
    """(columns, raw configurations, distinct nonzero rows, rank) of a y
    cell, each block count weighted by its orbit size.

    The domain checks and both capacity guards, on the whole cell's exact
    counts, come before the first block.  Each representative block is
    ranked on its own; ``primes`` is every prime a block's rank came
    from, in first-use order, so ``primes[:1]`` when every block
    certified on the first prime.
    """
    size, raw = check_y_caps(k, n, mode, max_elements, max_rows)
    cols = num_rows = rank = 0
    used: list[int] = []
    certified = True
    # with fewer than three colours no block holds a Y
    for leaves, orbit in y_leaf_orbits(k, n) if size else ():
        block = enumerate_y_basis(k, n, mode, leaves=leaves)
        if not block.elements:
            continue
        rows = y_link_relations(k, n, mode, block)
        result = rank_multiprime(SparseMatrix.from_rows(rows, len(block)), primes)
        cols += orbit * len(block)
        num_rows += orbit * len(rows)
        rank += orbit * result.rank
        certified = certified and result.certified
        used += [p for p in result.primes if p not in used]
    return cols, raw, num_rows, RankResult(
        rank=rank, primes=tuple(used) or tuple(primes[:1]),
        agreement=True, quotient_dim=cols - rank, certified=certified)


def compute_dimension(mode: Mode, space: str, k: int, param: int,
                      primes: Sequence[int] = DEFAULT_PRIMES,
                      max_elements: int = DEFAULT_MAX_ELEMENTS,
                      max_rows: int = DEFAULT_MAX_ROWS) -> ResultRecord:
    """Full pipeline for one cell: basis, relations, certified or
    multi-prime rank; a ``y`` cell one representative block per orbit
    of the colour permutations."""
    if len(set(primes)) < 2:
        raise DomainError("need at least two distinct primes")
    _check_prime_bound(space, param, primes)
    start = time.monotonic()
    if space == "y":
        num_cols, raw, num_rows, result = _graded_y(
            mode, k, param, primes, max_elements, max_rows)
    else:
        basis = build_basis(mode, space, k, param, max_elements)
        rows, raw = build_relations(mode, space, k, param, basis, max_rows)
        num_cols, num_rows = len(basis), len(rows)
        result = rank_multiprime(SparseMatrix.from_rows(rows, num_cols), primes)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return ResultRecord(
        mode=mode.value, space=space, k=k, param=param,
        num_diagrams=num_cols, num_relations_raw=raw,
        num_relations_effective=num_rows, rank=result.rank,
        quotient_dim=result.quotient_dim, primes=result.primes,
        elapsed_ms=elapsed_ms, tool_version=TOOL_VERSION,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        certified=result.certified,
    )


def compute_witness(mode: Mode, space: str, k: int, param: int,
                    prime: int = DEFAULT_PRIMES[0],
                    max_elements: int = DEFAULT_MAX_ELEMENTS,
                    max_rows: int = DEFAULT_MAX_ROWS) -> dict:
    """Witness document: basis encodings plus the cokernel functionals,
    each a mod-p linear functional vanishing on every relation."""
    _check_prime_bound(space, param, (prime,))
    basis = build_basis(mode, space, k, param, max_elements)
    rows, _ = build_relations(mode, space, k, param, basis, max_rows)
    functionals = cokernel_functionals(
        SparseMatrix.from_rows(rows, len(basis)), prime)
    return {
        "basis": [cd.encoding.hex() for cd in basis.elements],
        "prime": prime,
        "functionals": functionals,
    }


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
    before the write.

    Each record is written with one write call.  A writer killed mid-write
    leaves a torn record: an unparseable last line without its newline.
    Loading skips it with a warning.  The next append closes it off with a
    newline and a blank line before its own record, and loading skips an
    unparseable line followed by a blank line silently.  Any other
    unparseable line raises CacheError.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.path = self.directory / CACHE_FILENAME
        self._records: dict[tuple, ResultRecord] = {}
        self._stamp: Optional[tuple[int, int]] = None

    def _load(self) -> None:
        records: dict[tuple, ResultRecord] = {}
        try:
            with self.path.open("r", encoding="utf-8") as fh:
                st = os.fstat(fh.fileno())
                for raw in fh:
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        record = ResultRecord.from_json(line)
                    except json.JSONDecodeError:
                        if not raw.endswith("\n"):
                            print(f"warning: skipping the torn last line of {self.path}",
                                  file=sys.stderr)
                            break
                        if next(fh, "") != "\n":
                            raise
                        continue
                    records.setdefault(record.key(), record)
        except (OSError, json.JSONDecodeError, TypeError, KeyError) as exc:
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
        return self._records.get((mode.value, space, k, param, tool_version))

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
        """(record, was_cached)."""
        hit = self.lookup(mode, space, k, param)
        if hit is not None:
            return hit, True
        record = compute_dimension(mode, space, k, param, primes,
                                   max_elements, max_rows)
        self.append(record)
        return record, False
