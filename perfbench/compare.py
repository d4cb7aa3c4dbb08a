#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and layer by layer.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--benchmark FILE]

Each file holds records appended by ``perfbench/run.py --out``.  Runs are
grouped by (workload, metric): end-to-end metrics from timed runs, per-layer
metrics from traced runs, and the other figures of both kinds of record
(check figures, operation counts).  For each group the table gives each
side's median and the spread of the base runs, the distance between their
first and third quartiles as a share of their median.

Verdicts:

* ``same``: the medians differ by no more than the wider of the two spreads;
* ``better`` / ``worse`` / ``moved``: they differ by more than that
  (``moved`` where the metric has no direction);
* ``REGRESSION``: an end-to-end metric worse by more than its bound in
  ``BENCHMARK.json``;
* ``unresolved``: an end-to-end metric whose base spread exceeds its bound,
  unless every new run is better than every base run.

The exit code is 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "blas_vendor", "blas_version", "blas_threads",
             "numpy", "python")


def _load(path):
    runs = collections.defaultdict(list)
    hosts = collections.defaultdict(set)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            hosts[record["workload"]].add(
                tuple(record["host"].get(key) for key in HOST_KEYS))
            kind = "layer" if record["trace"] else "e2e"
            for name, metric in record["metrics"].items():
                runs[(record["workload"], kind, name)].append(metric["value"])
            for name, value in record["details"].items():
                if isinstance(value, (int, float)):
                    runs[(record["workload"], "info", name)].append(value)
    return runs, hosts


def _summary(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) < 2:
        return median, values[0], values[0]
    first, __, third = statistics.quantiles(values, n=4)
    return median, first, third


def _spread(values):
    median, first, third = _summary(values)
    return (third - first) / abs(median) if median else 0.0


def _verdict(base, new, better, bound):
    base_median, new_median = _summary(base)[0], _summary(new)[0]
    if base_median == new_median:
        return 0.0, "same"
    if base_median == 0:
        return float("inf"), "moved"
    change = (new_median - base_median) / abs(base_median)
    sign = {"higher": 1.0, "lower": -1.0}.get(better)
    improved = sign is not None and change * sign > 0
    spread = max(_spread(base), _spread(new))
    if bound is not None and _spread(base) > bound:
        if sign is not None and all(
                (n - b) * sign > 0 for n in new for b in base):
            return change, "better"
        return change, "unresolved"
    if abs(change) <= spread:
        return change, "same"
    if sign is None:
        return change, "moved"
    if improved:
        return change, "better"
    if bound is not None and abs(change) > bound:
        return change, "REGRESSION"
    return change, "worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)

    with open(args.benchmark, encoding="utf-8") as handle:
        spec = json.load(handle)
    directions = {entry["name"]: (entry["better"], entry.get("bound"))
                  for entry in spec["end_to_end"] + spec["per_layer"]}
    base, base_hosts = _load(args.base)
    new, new_hosts = _load(args.new)
    for workload in sorted(set(base_hosts) & set(new_hosts)):
        if base_hosts[workload] != new_hosts[workload]:
            print(f"warning: {workload} ran on different hosts: "
                  f"{sorted(base_hosts[workload])} vs "
                  f"{sorted(new_hosts[workload])}")

    regressions = 0
    print(f"{'workload':14s} {'kind':5s} {'metric':34s} {'base':>12s} "
          f"{'new':>12s} {'change':>8s} {'spread':>7s}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, kind, name = key
        better, bound = directions.get(name, (None, None))
        if kind != "e2e":
            bound = None
        change, verdict = _verdict(base[key], new[key], better, bound)
        regressions += verdict == "REGRESSION"
        print(f"{workload:14s} {kind:5s} {name:34s} "
              f"{_summary(base[key])[0]:12.5g} {_summary(new[key])[0]:12.5g} "
              f"{change:+8.1%} {_spread(base[key]):7.1%}  {verdict}")
    for key in sorted(set(base) ^ set(new)):
        side = "base" if key in base else "new"
        print(f"{key[0]:14s} {key[1]:5s} {key[2]:34s} only in {side}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
