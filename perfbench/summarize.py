#!/usr/bin/env python3
"""Summarise run records written by perfbench/run.py across runs.

    python3 perfbench/summarize.py perfbench/results/*.json
    python3 perfbench/summarize.py NEW/*.json --baseline OLD/*.json

For every workload and metric it prints the median of the per-run
values, their quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the quartile distance as a share of the median.  An end-to-end
metric is flagged when its spread exceeds its bound in BENCHMARK.json
(``over``) or a third of it (``wide``); ``setup_s`` is exempt from the
spread check.  With ``--baseline`` it also flags a median that is worse
than the baseline median by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """(workload label, metric) -> per-run values."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        for label, result in record["results"].items():
            for metric, entry in result["metrics"].items():
                values.setdefault((label, metric), []).append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+")
    parser.add_argument("--baseline", nargs="+", default=[])
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    current, baseline = load(args.records), load(args.baseline)
    flagged = 0
    for (label, metric), values in sorted(current.items()):
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        line = (f"{label:14s} {metric:28s} n {len(values):2d} median {med:12.6g} "
                f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:.4f}")
        notes = []
        if metric in e2e:
            bound = e2e[metric]["bound"]
            if metric != "setup_s" and spread > bound:
                notes.append(f"over bound {bound}")
            elif metric != "setup_s" and spread > bound / 3:
                notes.append(f"wide (> {bound}/3)")
            base = baseline.get((label, metric))
            if base:
                base_med = statistics.median(base)
                change = (med - base_med) / base_med
                if e2e[metric]["better"] == "higher":
                    change = -change
                line += f" vs baseline {change:+.4f}"
                if change > bound:
                    notes.append(f"worse than baseline by more than {bound}")
        flagged += bool(notes)
        print(line + ("  <- " + "; ".join(notes) if notes else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
