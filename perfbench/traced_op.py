"""Run one strutforge CLI command in this process with timing spans
around the calls into each module, then write the spans as JSON.

    python3 perfbench/traced_op.py TRACE_OUT dim --space y --k 5 --n 2

The command is the one ``python -m strutforge.cli`` would run; only the
module attributes the CLI reaches are replaced by timing wrappers, so
the code path is the real one.  TRACE_OUT receives ``self_s`` (self time
per span name, nested spans subtracted), ``counts``, the peak RSS seen
after each stage (``rss_mb``), the ``canonicalize_component`` cache
statistics and ``root_s``, the wall time of the whole command.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict
from functools import wraps


class Tracer:
    """Accumulates self time per span name.  A span's self time is its
    duration minus the time of the spans it encloses, so the self times
    of all spans add up to the outermost span."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.rss_mb: dict[str, float] = {}
        self._children: list[float] = []

    def wrap(self, name, fn, after=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
            if after is not None:
                after(result, *args)
            return result
        return traced

    def mark_rss(self, stage: str) -> None:
        self.rss_mb[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def install(tracer: Tracer) -> None:
    """Replace the module attributes the CLI commands call with traced
    wrappers.  Names are patched where they are looked up: a function
    imported by name into another module is patched in that module."""
    from strutforge import bases, cli, linalg, pipeline, relations

    counts = tracer.counts

    def after_basis(basis, *_):
        counts["bases.cols"] += len(basis)
        tracer.mark_rss("basis")

    def after_relations(result, *_):
        rows, raw = result
        counts["relations.configs"] += raw
        counts["relations.rows"] += len(rows)
        counts["relations.nnz"] += sum(len(row.entries) for row in rows)
        tracer.mark_rss("relations")

    def after_rank(result, *_):
        counts["linalg.rank"] += result.rank
        counts["linalg.quotient_dim"] += result.quotient_dim
        tracer.mark_rss("linalg")

    def after_rank_mod_p(*_):
        counts["linalg.primes_used"] += 1

    def after_cokernel(functionals, matrix, *_):
        counts["linalg.primes_used"] += 1
        counts["linalg.functionals"] += len(functionals)
        counts["linalg.rank"] += matrix.num_cols - len(functionals)
        counts["linalg.quotient_dim"] += len(functionals)
        tracer.mark_rss("linalg")

    def after_lookup(record, *_):
        if record is not None:
            counts["pipeline.lookup_hits"] += 1

    patches = [
        (bases, "tree_components", "bases.tree_components", None),
        (pipeline, "build_basis", "pipeline.build_basis", after_basis),
        (pipeline, "enumerate_basis", "bases.basis", None),
        (pipeline, "enumerate_y_basis", "bases.basis", None),
        (relations, "marked_trees", "relations.marked_trees", None),
        (pipeline, "build_relations", "pipeline.build_relations", after_relations),
        (pipeline, "y_link_relations", "relations.y_link", None),
        (pipeline, "link_relations", "relations.link", None),
        (pipeline, "ihx_relations", "relations.ihx", None),
        (pipeline, "y_link_config_count", "relations.count", None),
        (pipeline, "count_link_configs", "relations.count", None),
        (pipeline, "count_ihx_instances", "relations.count", None),
        (pipeline, "rank_multiprime", "linalg.rank", after_rank),
        # Same span name as its caller, so the rank self time stays whole.
        (linalg, "rank_mod_p", "linalg.rank", after_rank_mod_p),
        (pipeline, "cokernel_functionals", "linalg.cokernel", after_cokernel),
        (pipeline, "compute_dimension", "pipeline.compute_dimension", None),
        (cli, "compute_witness", "pipeline.compute_witness", None),
    ]
    for module, attr, name, after in patches:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), after))

    matrix_cls = linalg.SparseMatrix
    from_rows = matrix_cls.__dict__["from_rows"].__func__
    matrix_cls.from_rows = classmethod(tracer.wrap("linalg.assemble", from_rows))
    cache_cls = pipeline.ResultCache
    for attr, name, after in (("lookup", "pipeline.cache_lookup", after_lookup),
                              ("append", "pipeline.cache_append", None),
                              ("get_or_compute", "pipeline.get_or_compute", None)):
        setattr(cache_cls, attr, tracer.wrap(name, getattr(cache_cls, attr), after))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_op.py TRACE_OUT <strutforge command> [options]",
              file=sys.stderr)
        return 2
    trace_out, command = argv[0], argv[1:]

    import click
    from strutforge import cli, diagrams

    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli", cli.cli.main)
    start = time.perf_counter()
    try:
        run(args=command, prog_name="strutforge", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    root_s = time.perf_counter() - start
    info = diagrams.canonicalize_component.cache_info()
    doc = {
        "command": command,
        "root_s": root_s,
        "self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
        "rss_mb": tracer.rss_mb,
        "canon": {"hits": info.hits, "misses": info.misses,
                  "currsize": info.currsize},
    }
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
