"""Command-line surface: counting reports, dimension runs, sweeps,
witness extraction, and relation dumps.

The commands run on the standard library's ``argparse``.  ``cli.main``
parses the arguments, runs one command and exits with

- 0 on success;
- 1 for a failed run, after ``Error: <message>`` on stderr: the engine's
  typed errors, an output file that cannot be written, an interrupt or
  a closed stdout;
- 2 for a usage error, after the usage line and ``Error: <message>`` on
  stderr: an unknown option (abbreviations are refused too), a bad
  choice, integer, prime list or range, a negative ``--max-basis`` or
  ``--max-rows``, a missing ``--n``/``--degree``, or an ``--out`` that
  names a directory.  Each is refused before any
  work.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, NoReturn, Optional

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
    csv_line,
    is_prime,
    resolve_cache_dir,
)

_ERRORS = (DomainError, CapacityError, UnluckyPrimeError, CacheError)

_PRIMES_HELP = ("Comma-separated primes (at least two). The first certifies a "
                "rank that meets its row/column bound; the second is the "
                "fallback for an uncertified cell. witness uses the first.")

# Configuration cap of the relations dump, which is a debugging surface.
_DUMP_MAX_CONFIGS = 100_000


class _UsageError(Exception):
    """A bad combination of options, found after parsing: exit 2."""


class _CommandError(Exception):
    """A failed run outside the engine's typed errors: exit 1."""


def _file_error(path: str, reason: str) -> _CommandError:
    return _CommandError(f"Could not open file '{path}': {reason}")


def _parse_mode(value: str) -> Mode:
    return Mode(value)


def _parse_primes(value: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(tok) for tok in value.replace(";", ",").split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"primes must be integers: {value!r}") from None
    if len(primes) < 2:
        raise argparse.ArgumentTypeError("need at least two primes")
    if len(set(primes)) != len(primes):
        raise argparse.ArgumentTypeError(f"primes must be distinct, got {value!r}")
    for p in primes:
        try:
            prime = is_prime(p)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not prime:
            raise argparse.ArgumentTypeError(f"{p} is not a prime")
    return primes


def _parse_range(value: str) -> list[int]:
    """Accepts 'lo:hi' (inclusive) or a comma list '3,5,9' naming at
    least one value."""
    try:
        if ":" in value:
            lo, hi = value.split(":", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(tok) for tok in value.split(",") if tok]
        if not values:
            raise ValueError
        return values
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'lo:hi' or a comma list, got {value!r}") from None


def _cap(value: str) -> int:
    try:
        cap = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"a cap must be >= 0, got {cap}")
    return cap


def _out_file(value: str) -> str:
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"File '{value}' is a directory.")
    return value


def _resolve_space_param(space: str, n: Optional[int], deg: Optional[int]) -> int:
    if space == "y":
        if n is None:
            raise _UsageError("--space y needs --n")
        return n
    if deg is None:
        raise _UsageError("--space full needs --degree")
    return deg


def cmd_count(k: int, n: int, fmt: str) -> None:
    """Exact diagram/relation counts u, r, their ratio, and u - r."""
    from .counting import count_report, ratio_limit
    report = count_report(n, k)
    limit = ratio_limit(k)
    ratio_str = f"{report.ratio.numerator}/{report.ratio.denominator}"
    limit_str = f"{limit.numerator}/{limit.denominator}"
    if fmt == "json":
        payload = {
            "k": k, "n": n, "u": report.u, "r": report.r,
            "ratio": ratio_str, "ratio_limit": limit_str,
            "existence_bound": report.existence_bound,
            "invariant_type": report.invariant_type,
        }
        print(json.dumps(payload))
        return
    print(f"k={k} n={n} (invariant type {report.invariant_type})")
    print(f"u (diagrams)       = {report.u}")
    print(f"r (relations)      = {report.r}")
    print(f"ratio r/u          = {ratio_str}")
    print(f"ratio limit        = {limit_str}")
    print(f"existence bound u-r = {report.existence_bound}")
    if report.existence_bound > 0:
        print(f"nontrivial invariant of type {report.invariant_type} certified")


def cmd_crossing(k: int) -> None:
    """Strut count where relations stop outnumbering diagrams."""
    from .counting import crossing_n
    root, ceiling = crossing_n(k)
    print(json.dumps({
        "k": k, "root": f"{root.numerator}/{root.denominator}",
        "ceiling": ceiling,
    }))


def cmd_dim(mode: str, space: str, k: int, n: Optional[int],
            degree: Optional[int], primes: tuple[int, ...],
            cache_dir: Optional[str], max_basis: int, max_rows: int) -> None:
    """Quotient dimension of one diagram space."""
    param = _resolve_space_param(space, n, degree)
    cache = ResultCache(resolve_cache_dir(cache_dir))
    record, cached = cache.get_or_compute(
        _parse_mode(mode), space, k, param, primes, max_basis, max_rows)
    print(record.to_json())
    if cached:
        print("(cache hit)", file=sys.stderr)


def cmd_sweep(mode: str, space: str, k_range: list[int], n_range: Optional[list[int]],
              degree_range: Optional[list[int]], out: str, primes: tuple[int, ...],
              cache_dir: Optional[str], max_basis: int, max_rows: int) -> None:
    """Dimension table over a (k, parameter) grid, flushed row by row.

    Failing cells leave an error marker in the quotient_dim column and the
    sweep continues; re-runs resume from the cache.
    """
    if space == "y":
        if n_range is None:
            raise _UsageError("--space y needs --n-range")
        params = n_range
    else:
        if degree_range is None:
            raise _UsageError("--space full needs --degree-range")
        params = degree_range
    cache = ResultCache(resolve_cache_dir(cache_dir))
    mode_v = _parse_mode(mode)
    try:
        fh = open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise _file_error(out, exc.strerror) from exc
    with fh:
        fh.write(CSV_HEADER + "\n")
        fh.flush()
        for k in k_range:
            for param in params:
                try:
                    record, _ = cache.get_or_compute(
                        mode_v, space, k, param, primes, max_basis, max_rows)
                    fh.write(record.csv_row() + "\n")
                except _ERRORS as exc:
                    marker = f"error:{type(exc).__name__}"
                    fh.write(csv_line(mode=mode, space=space, k=k, param=param,
                                      quotient_dim=marker, tool_version=__version__) + "\n")
                    print(f"k={k} param={param}: {exc}", file=sys.stderr)
                fh.flush()
    print(f"wrote {out}")


def compute_witness(*args):
    """``pipeline.sparse_witness``, importing the engine on first use."""
    from . import pipeline
    return pipeline.sparse_witness(*args)


def cmd_witness(mode: str, space: str, k: int, n: Optional[int],
                degree: Optional[int], primes: tuple[int, ...],
                cache_dir: Optional[str], max_basis: int, max_rows: int,
                out: Optional[str]) -> None:
    """Basis encodings plus the functionals vanishing on all relations."""
    param = _resolve_space_param(space, n, degree)
    if out:
        _check_out_dir(out)
    doc = compute_witness(_parse_mode(mode), space, k, param,
                          primes[0], max_basis, max_rows)
    parts = itertools.chain(_witness_parts(doc), ["\n"])
    if out:
        _write_replacing(out, parts)
        print(f"wrote {out}")
    else:
        sys.stdout.writelines(parts)


def _check_out_dir(out: str) -> None:
    """Refuse, before any work, an output path whose directory is missing
    or not writable."""
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):
        raise _file_error(out, os.strerror(errno.ENOENT))
    if not os.access(directory, os.W_OK):
        raise _file_error(out, os.strerror(errno.EACCES))


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
        raise _file_error(out, exc.strerror) from exc


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


def cmd_relations(mode: str, space: str, k: int, n: Optional[int],
                  degree: Optional[int], dump: bool) -> None:
    """Relation rows with provenance (small parameters only).

    Each dumped line is '<coeff>*<column encoding hex> ...  # <provenance>';
    the row part re-parses via RelationRow.from_dump_text.
    """
    from . import bases, pipeline, relations
    param = _resolve_space_param(space, n, degree)
    mode_v = _parse_mode(mode)
    _, raw = bases.check_cell(bases.BasisSpec(mode_v, k, space, param),
                              max_rows=_DUMP_MAX_CONFIGS)
    basis = pipeline.build_basis(mode_v, space, k, param)
    if space == "y":
        rows = [row for row, targets
                in relations.iter_y_link_rows(k, param, mode_v, basis) if targets]
    else:
        rows = (relations.link_relations(k, param, mode_v, basis)
                + relations.ihx_relations(k, param, mode_v, basis))
        raw += relations.count_ihx_instances(basis)
    if dump:
        for row in rows:
            print(f"{row.to_dump_text(basis)}  # {row.provenance}")
    print(f"raw {raw} effective {len(rows)}")


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated options, and reports a usage error as the
    usage line, a pointer to ``--help`` and ``Error: <message>``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False,
                         formatter_class=_Formatter, **kwargs)
        self.add_argument("--help", action="help",
                          help="Show this message and exit.")

    def error(self, message: str):
        self.exit(2, f"{self.format_usage()}Try '{self.prog} --help' for help.\n\n"
                     f"Error: {message}\n")


class _Formatter(argparse.RawDescriptionHelpFormatter):
    """Marks each option that takes a value with its default or as
    required."""

    def __init__(self, prog: str):
        super().__init__(prog, max_help_position=32)

    def _get_help_string(self, action: argparse.Action) -> str:
        text = action.help or ""
        if action.required:
            text += "  [required]"
        elif action.nargs != 0 and action.default is not None:
            text += "  [default: %(default)s]"
        return text


_INT = {"type": int, "metavar": "INTEGER"}


def _skip_option(*_args, **_kwargs) -> None:
    pass


def _parser(prog: str, command_name: Optional[str]) -> _Parser:
    """The command group and its six commands, each command's options in
    the order its help lists them.  Only ``command_name`` gets its
    options: a run parses one command, the group's help lists only the
    names, and adding the other commands' options would cost about 2 ms
    on every run."""
    parser = _Parser(prog=prog, usage="%(prog)s [OPTIONS] COMMAND [ARGS]...",
                     description="Exact dimensions and counts for colored "
                                 "unitrivalent diagram spaces.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}",
                        help="Show the version and exit.")
    commands = parser.add_subparsers(title="commands", dest="command")

    def command(run: Callable[..., None]) -> Callable[..., argparse.Action]:
        doc = [line.strip() for line in run.__doc__.splitlines()]
        name = run.__name__[4:]
        sub = commands.add_parser(name, prog=f"{prog} {name}", usage="%(prog)s [OPTIONS]",
                                  help=doc[0], description="\n".join(doc).strip())
        sub.set_defaults(run=run, parser=sub)
        return sub.add_argument if name == command_name else _skip_option

    def space_options(arg):
        arg("--mode", choices=("homotopy", "concordance"), default="homotopy",
            help="homotopy: a component with a repeated leaf color is zero; "
                 "concordance: it is kept.")
        arg("--space", choices=("y", "full"), default="y",
            help="The single-Y space at strut count n, or the full forest "
                 "space at a degree.")

    def cell_options(arg):
        arg("--k", required=True, help="Number of colors.", **_INT)
        arg("--n", help="Strut count (space y).", **_INT)
        arg("--degree", help="Total degree (space full).", **_INT)

    def run_options(arg):
        arg("--primes", type=_parse_primes, metavar="TEXT", help=_PRIMES_HELP,
            default=",".join(map(str, DEFAULT_PRIMES)))
        arg("--cache-dir", metavar="TEXT",
            help="Cache directory (else $STRUTFORGE_CACHE_DIR, else ./cache).")
        arg("--max-basis", type=_cap, metavar="INTEGER", default=DEFAULT_MAX_ELEMENTS,
            help="Basis size guard (>= 0).")
        arg("--max-rows", type=_cap, metavar="INTEGER", default=DEFAULT_MAX_ROWS,
            help="Relation configuration guard (>= 0).")

    arg = command(cmd_count)
    arg("--k", required=True, help="Number of colors.", **_INT)
    arg("--n", required=True, help="Strut count.", **_INT)
    arg("--format", dest="fmt", choices=("table", "json"), default="table",
        help="Output format.")

    arg = command(cmd_crossing)
    arg("--k", required=True, help="Number of colors.", **_INT)

    arg = command(cmd_dim)
    space_options(arg)
    cell_options(arg)
    run_options(arg)

    arg = command(cmd_relations)
    space_options(arg)
    cell_options(arg)
    arg("--dump", action="store_true", default=True,
        help="Print each relation row.  [default: dump]")
    arg("--no-dump", dest="dump", action="store_false",
        help="Print only the closing counts.")

    arg = command(cmd_sweep)
    space_options(arg)
    arg("--k-range", type=_parse_range, required=True, metavar="TEXT",
        help="Colors, as 'lo:hi' or a comma list.")
    arg("--n-range", type=_parse_range, metavar="TEXT", help="Strut counts (space y).")
    arg("--degree-range", type=_parse_range, metavar="TEXT",
        help="Degrees (space full).")
    arg("--out", type=_out_file, required=True, metavar="FILE", help="CSV output path.")
    run_options(arg)

    arg = command(cmd_witness)
    space_options(arg)
    cell_options(arg)
    run_options(arg)
    arg("--out", type=_out_file, metavar="FILE", help="JSON output path (default stdout).")
    return parser


class Cli:
    """The ``strutforge`` command group."""

    def main(self, args: Optional[list[str]] = None, prog_name: str = "strutforge",
             standalone_mode: bool = True) -> None:
        """Parse ``args`` (default ``sys.argv[1:]``) and run the command.

        Exits with the status in the module docstring; after a successful
        command it returns instead when ``standalone_mode`` is false.
        """
        if args is None:
            args = sys.argv[1:]
        # The group takes no option with a value, so the first word that
        # is not an option names the command.
        parser = _parser(prog_name, next((a for a in args if not a.startswith("-")), None))
        namespace, extra = parser.parse_known_args(args)
        options = vars(namespace)
        if options.pop("command") is None:
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            parser.print_help(sys.stderr)
            sys.exit(2)
        run, sub = options.pop("run"), options.pop("parser")
        if extra:
            sub.error(f"unrecognized arguments: {' '.join(extra)}")
        try:
            run(**options)
            sys.stdout.flush()  # a closed stdout fails here, not at exit
        except _UsageError as exc:
            sub.error(str(exc))
        except (_CommandError, *_ERRORS) as exc:
            _exit_failed(f"Error: {exc}")
        except KeyboardInterrupt:
            _exit_failed("Aborted!")
        except BrokenPipeError:
            # Point stdout at /dev/null, so that the flush at exit does
            # not fail again on the closed pipe.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        if standalone_mode:
            sys.exit(0)


def _exit_failed(message: str) -> NoReturn:
    print(message, file=sys.stderr)
    sys.exit(1)


cli = Cli()


def main() -> None:
    cli.main()


if __name__ == "__main__":
    main()
