#!/usr/bin/env python3
"""Merge benchmark results files into one committed benchmark record.

Reads the files ``perfbench/run.py`` writes to ``perfbench/results/`` (or
the files given) and writes one JSON record holding, per workload:

- for each end-to-end metric of the ``--trace 0`` runs: n, the median and
  the quartiles (linear interpolation, numpy's default), and every value;
- each ``--trace 0`` run's seed, item count, failures and round-0 digest;
- the layer metrics of its one ``--trace 1`` run.

It also records the machine, which every file must share, and the
checkout's commit, with a SHA-256 of its ``src/ruwitness`` sources, so run
it in the checkout that was measured.  The ``--trace 0`` runs of a
workload must share one ``--seconds``.

Usage: python scripts/bench_record.py --out BENCH.json [RESULTS.json ...]
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]


def quantile(values: list, fraction: float) -> float:
    """The ``fraction`` quantile of ``values`` by linear interpolation between order statistics."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values: list) -> dict:
    return {"n": len(values), "median": statistics.median(values), "q1": quantile(values, 0.25),
            "q3": quantile(values, 0.75), "values": values}


def commit() -> dict:
    """HEAD of the checkout, whether its sources differ from HEAD, and a SHA-256 of the sources."""
    sources = hashlib.sha256()
    for path in sorted((CHECKOUT / "src" / "ruwitness").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")

    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=CHECKOUT, capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        return done.stdout.strip()

    status = git("status", "--porcelain", "--", "src")
    return {"head": git("rev-parse", "HEAD"), "src_modified": None if status is None else bool(status),
            "src_sha256": sources.hexdigest()}


def record(runs: list) -> dict:
    """The benchmark record of the parsed results files ``runs``; ValueError if they do not fit together."""
    if not runs:
        raise ValueError("no results files")
    machines = {json.dumps(run["machine"], sort_keys=True) for run in runs}
    if len(machines) > 1:
        raise ValueError("the results files come from different machines")
    workloads = {}
    for name in sorted({run["workload"] for run in runs}):
        timed = sorted((run for run in runs if run["workload"] == name and run["trace"] == 0),
                       key=lambda run: run["seed"])
        traced = [run for run in runs if run["workload"] == name and run["trace"] == 1]
        if len(traced) > 1:
            raise ValueError(f"{name}: {len(traced)} --trace 1 runs, expected at most one")
        if len({run["seconds"] for run in timed}) > 1:
            raise ValueError(f"{name}: the --trace 0 runs differ in --seconds")
        entry = workloads[name] = {}
        if timed:
            metrics = timed[0]["result"]["metrics"]
            entry["seconds"] = timed[0]["seconds"]
            entry["end_to_end"] = {
                metric: {"unit": spec["unit"], **summary([run["result"]["metrics"][metric]["value"] for run in timed])}
                for metric, spec in sorted(metrics.items())}
            entry["runs"] = [{"seed": run["seed"], "correct": run["result"]["correct"],
                              "attempted": run["result"]["attempted"], "failed": run["result"]["failed"],
                              "digest": run["digest"]} for run in timed]
        if traced:
            (run,) = traced
            entry["traced"] = {"seed": run["seed"], "seconds": run["seconds"], "correct": run["result"]["correct"],
                               "metrics": run["result"]["metrics"]}
    return {"commit": commit(), "machine": runs[0]["machine"], "workloads": workloads}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="the record to write")
    parser.add_argument("results", nargs="*", type=Path,
                        help="results files (default: perfbench/results/*.json)")
    args = parser.parse_args()
    paths = args.results or sorted((CHECKOUT / "perfbench" / "results").glob("*.json"))
    try:
        bench = record([json.loads(path.read_text()) for path in paths])
        args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    except KeyError as exc:
        print(f"{parser.prog}: error: a results file lacks the field {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    for name, entry in bench["workloads"].items():
        print(name, ", ".join(f"{metric} {stats['median']:.4g} {stats['unit']}"
                              for metric, stats in entry.get("end_to_end", {}).items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
