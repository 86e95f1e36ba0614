"""Command-line surface: counting reports, dimension runs, sweeps,
witness extraction, and relation dumps."""

from __future__ import annotations

import errno
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Iterator, Optional

import click

from . import __version__
from .errors import (
    CacheError,
    CapacityError,
    DomainError,
    UnluckyPrimeError,
)
from .records import (
    CSV_HEADER,
    DEFAULT_MAX_ELEMENTS,
    DEFAULT_MAX_ROWS,
    DEFAULT_PRIMES,
    Mode,
    ResultCache,
    is_prime,
    resolve_cache_dir,
)

_ERRORS = (DomainError, CapacityError, UnluckyPrimeError, CacheError)

_PRIMES_HELP = ("Comma-separated primes (at least two). The first certifies a "
                "rank that meets its row/column bound; the second is the "
                "fallback for an uncertified cell. witness uses the first.")

# Configuration cap of the relations dump, which is a debugging surface.
_DUMP_MAX_CONFIGS = 100_000


def _fail(exc: Exception) -> "click.ClickException":
    return click.ClickException(str(exc))


def _parse_mode(value: str) -> Mode:
    return Mode(value)


def _parse_primes(value: Optional[str]) -> tuple[int, ...]:
    if not value:
        return DEFAULT_PRIMES
    try:
        primes = tuple(int(tok) for tok in value.replace(";", ",").split(",") if tok)
    except ValueError as exc:
        raise click.BadParameter(f"primes must be integers: {value!r}") from exc
    if len(primes) < 2:
        raise click.BadParameter("need at least two primes")
    if len(set(primes)) != len(primes):
        raise click.BadParameter(f"primes must be distinct, got {value!r}")
    for p in primes:
        try:
            prime = is_prime(p)
        except DomainError as exc:
            raise click.BadParameter(str(exc)) from exc
        if not prime:
            raise click.BadParameter(f"{p} is not a prime")
    return primes


def _parse_range(value: str, name: str) -> list[int]:
    """Accepts 'lo:hi' (inclusive) or a comma list '3,5,9'."""
    try:
        if ":" in value:
            lo, hi = value.split(":", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            return list(range(lo_i, hi_i + 1))
        return [int(tok) for tok in value.split(",") if tok]
    except ValueError as exc:
        raise click.BadParameter(
            f"{name} must be 'lo:hi' or a comma list, got {value!r}") from exc


def _resolve_space_param(space: str, n: Optional[int], deg: Optional[int]) -> int:
    if space == "y":
        if n is None:
            raise click.UsageError("--space y needs --n")
        return n
    if deg is None:
        raise click.UsageError("--space full needs --degree")
    return deg


@click.group()
@click.version_option(version=__version__, prog_name="strutforge")
def cli() -> None:
    """Exact dimensions and counts for colored unitrivalent diagram spaces."""


@cli.command("count")
@click.option("--k", type=int, required=True, help="Number of colors.")
@click.option("--n", type=int, required=True, help="Strut count.")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="table", show_default=True)
def cmd_count(k: int, n: int, fmt: str) -> None:
    """Exact diagram/relation counts u, r, their ratio, and u - r."""
    from .counting import count_report, ratio_limit
    try:
        report = count_report(n, k)
        limit = ratio_limit(k)
    except _ERRORS as exc:
        raise _fail(exc)
    ratio_str = f"{report.ratio.numerator}/{report.ratio.denominator}"
    limit_str = f"{limit.numerator}/{limit.denominator}"
    if fmt == "json":
        payload = {
            "k": k, "n": n, "u": report.u, "r": report.r,
            "ratio": ratio_str, "ratio_limit": limit_str,
            "existence_bound": report.existence_bound,
            "invariant_type": report.invariant_type,
        }
        click.echo(json.dumps(payload))
        return
    click.echo(f"k={k} n={n} (invariant type {report.invariant_type})")
    click.echo(f"u (diagrams)       = {report.u}")
    click.echo(f"r (relations)      = {report.r}")
    click.echo(f"ratio r/u          = {ratio_str}")
    click.echo(f"ratio limit        = {limit_str}")
    click.echo(f"existence bound u-r = {report.existence_bound}")
    if report.existence_bound > 0:
        click.echo(f"nontrivial invariant of type {report.invariant_type} certified")


@cli.command("crossing")
@click.option("--k", type=int, required=True, help="Number of colors.")
def cmd_crossing(k: int) -> None:
    """Strut count where relations stop outnumbering diagrams."""
    from .counting import crossing_n
    try:
        root, ceiling = crossing_n(k)
    except _ERRORS as exc:
        raise _fail(exc)
    click.echo(json.dumps({
        "k": k, "root": f"{root.numerator}/{root.denominator}",
        "ceiling": ceiling,
    }))


def _options(*decorators):
    """One decorator applying ``decorators`` so that the options list in
    the order given."""
    def apply(fn):
        for decorator in reversed(decorators):
            fn = decorator(fn)
        return fn
    return apply


_space_options = _options(
    click.option("--mode", type=click.Choice(["homotopy", "concordance"]),
                 default="homotopy", show_default=True),
    click.option("--space", type=click.Choice(["y", "full"]),
                 default="y", show_default=True))

_cell_options = _options(
    click.option("--k", type=int, required=True),
    click.option("--n", type=int, default=None, help="Strut count (space y)."),
    click.option("--degree", type=int, default=None,
                 help="Total degree (space full)."))

_run_options = _options(
    click.option("--primes", type=str, default=None, help=_PRIMES_HELP),
    click.option("--cache-dir", type=str, default=None,
                 help="Cache directory (else $STRUTFORGE_CACHE_DIR, else ./cache)."),
    click.option("--max-basis", type=int, default=DEFAULT_MAX_ELEMENTS,
                 show_default=True, help="Basis size guard."),
    click.option("--max-rows", type=int, default=DEFAULT_MAX_ROWS,
                 show_default=True, help="Relation configuration guard."))

_common_dim_options = _options(_space_options, _cell_options, _run_options)


@cli.command("dim")
@_common_dim_options
def cmd_dim(mode: str, space: str, k: int, n: Optional[int],
            degree: Optional[int], primes: Optional[str],
            cache_dir: Optional[str], max_basis: int, max_rows: int) -> None:
    """Quotient dimension of one diagram space."""
    param = _resolve_space_param(space, n, degree)
    prime_list = _parse_primes(primes)
    cache = ResultCache(resolve_cache_dir(cache_dir))
    try:
        record, cached = cache.get_or_compute(
            _parse_mode(mode), space, k, param, prime_list, max_basis, max_rows)
    except _ERRORS as exc:
        raise _fail(exc)
    click.echo(record.to_json())
    if cached:
        click.echo("(cache hit)", err=True)


@cli.command("sweep")
@_space_options
@click.option("--k-range", type=str, required=True,
              help="Colors, as 'lo:hi' or a comma list.")
@click.option("--n-range", type=str, default=None,
              help="Strut counts (space y).")
@click.option("--degree-range", type=str, default=None,
              help="Degrees (space full).")
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="CSV output path.")
@_run_options
def cmd_sweep(mode: str, space: str, k_range: str, n_range: Optional[str],
              degree_range: Optional[str], out: str, primes: Optional[str],
              cache_dir: Optional[str], max_basis: int, max_rows: int) -> None:
    """Dimension table over a (k, parameter) grid, flushed row by row.

    Failing cells leave an error marker in the quotient_dim column and the
    sweep continues; re-runs resume from the cache.
    """
    if space == "y":
        if n_range is None:
            raise click.UsageError("--space y needs --n-range")
        params = _parse_range(n_range, "--n-range")
    else:
        if degree_range is None:
            raise click.UsageError("--space full needs --degree-range")
        params = _parse_range(degree_range, "--degree-range")
    ks = _parse_range(k_range, "--k-range")
    prime_list = _parse_primes(primes)
    cache = ResultCache(resolve_cache_dir(cache_dir))
    mode_v = _parse_mode(mode)
    try:
        fh = open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise click.FileError(out, exc.strerror) from exc
    with fh:
        fh.write(CSV_HEADER + "\n")
        fh.flush()
        for k in ks:
            for param in params:
                try:
                    record, _ = cache.get_or_compute(
                        mode_v, space, k, param, prime_list, max_basis, max_rows)
                    fh.write(record.csv_row() + "\n")
                except _ERRORS as exc:
                    marker = f"error:{type(exc).__name__}"
                    fh.write(f"{mode},{space},{k},{param},,,,,{marker},,,"
                             f"{__version__},\n")
                    click.echo(f"k={k} param={param}: {exc}", err=True)
                fh.flush()
    click.echo(f"wrote {out}")


def compute_witness(*args):
    """``pipeline.sparse_witness``, importing the engine on first use."""
    from . import pipeline
    return pipeline.sparse_witness(*args)


@cli.command("witness")
@_common_dim_options
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="JSON output path (default stdout).")
def cmd_witness(mode: str, space: str, k: int, n: Optional[int],
                degree: Optional[int], primes: Optional[str],
                cache_dir: Optional[str], max_basis: int, max_rows: int,
                out: Optional[str]) -> None:
    """Basis encodings plus the functionals vanishing on all relations."""
    param = _resolve_space_param(space, n, degree)
    prime_list = _parse_primes(primes)
    if out:
        _check_out_dir(out)
    try:
        doc = compute_witness(_parse_mode(mode), space, k, param,
                              prime_list[0], max_basis, max_rows)
    except _ERRORS as exc:
        raise _fail(exc)
    parts = itertools.chain(_witness_parts(doc), ["\n"])
    if out:
        _write_replacing(out, parts)
        click.echo(f"wrote {out}")
    else:
        sys.stdout.writelines(parts)


def _check_out_dir(out: str) -> None:
    """Refuse, before any work, an output path whose directory is missing
    or not writable."""
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):
        raise click.FileError(out, os.strerror(errno.ENOENT))
    if not os.access(directory, os.W_OK):
        raise click.FileError(out, os.strerror(errno.EACCES))


def _write_replacing(out: str, parts: Iterator[str]) -> None:
    """Write ``parts`` to a new file beside ``out``, then rename it to
    ``out``, so that a failed or killed write leaves no partial file."""
    path = Path(out)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.writelines(parts)
            os.replace(tmp, out)
        except BaseException:
            tmp.unlink()
            raise
    except OSError as exc:
        raise click.FileError(out, exc.strerror) from exc


def _witness_parts(doc: dict) -> Iterator[str]:
    """``json.dumps`` of a witness document with dense functionals, in
    pieces, from the document with sparse ones: the head, then each
    functional (``functionals`` is the document's last key), then the
    close.  A functional's zero runs are slices of one string, so the
    cost is the bytes written."""
    head = json.dumps({key: value for key, value in doc.items() if key != "functionals"})
    yield f'{head[:-1]}, "functionals": ['
    n = len(doc["basis"])
    zeros = "0, " * n
    for i, entries in enumerate(doc["functionals"]):
        parts = []
        start = 0
        for col, value in entries:
            parts += (zeros[:3 * (col - start)], f"{value}, ")
            start = col + 1
        parts.append(zeros[:3 * (n - start)])
        yield (", [" if i else "[") + "".join(parts)[:-2] + "]"
    yield "]}"


@cli.command("relations")
@_space_options
@_cell_options
@click.option("--dump/--no-dump", default=True, show_default=True,
              help="Print each relation row.")
def cmd_relations(mode: str, space: str, k: int, n: Optional[int],
                  degree: Optional[int], dump: bool) -> None:
    """Relation rows with provenance (small parameters only).

    Each dumped line is '<coeff>*<column encoding hex> ...  # <provenance>';
    the row part re-parses via RelationRow.from_dump_text.
    """
    from . import pipeline, relations
    param = _resolve_space_param(space, n, degree)
    mode_v = _parse_mode(mode)
    try:
        _, raw = pipeline.check_caps(mode_v, space, k, param,
                                     max_rows=_DUMP_MAX_CONFIGS)
        basis = pipeline.build_basis(mode_v, space, k, param)
        if space == "y":
            rows = [row for row, targets
                    in relations.iter_y_link_rows(k, param, mode_v, basis) if targets]
        else:
            rows = (relations.link_relations(k, param, mode_v, basis)
                    + relations.ihx_relations(k, param, mode_v, basis))
            raw += relations.count_ihx_instances(basis)
    except _ERRORS as exc:
        raise _fail(exc)
    if dump:
        for row in rows:
            click.echo(f"{row.to_dump_text(basis)}  # {row.provenance}")
    click.echo(f"raw {raw} effective {len(rows)}")


def main() -> None:
    cli(prog_name="strutforge")


if __name__ == "__main__":
    main()
