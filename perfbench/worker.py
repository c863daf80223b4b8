"""One workload in a fresh interpreter: set-up, timed phase, checks, digests.

Started by run.py.  It prints ``ready`` once ruwitness is imported and the
first round of inputs exists, so run.py can time set-up from process
launch.  Its last stdout line is a JSON report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

_start = perf_counter()
import ruwitness  # noqa: E402  (timed: the import is what set-up pays for)

IMPORT_S = perf_counter() - _start

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from calibration import EFFORT, NOMINAL_S, reference_seconds  # noqa: E402
from tracing import ITEM, Tracer  # noqa: E402
from workloads import WORKLOADS, OverBudget, sha256  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
CALIBRATE_EVERY_S = 0.1  # item time between two runs of the reference task


def run_phase(wl, first_round: int, tracer=None, seconds=None, rounds=None, digests=None) -> dict:
    """Whole rounds of items, timed one by one, each checked untimed after.

    With ``seconds``, rounds run until the items' summed wall time reaches
    it (at least one round); with ``rounds``, exactly that many run.  The
    reference task runs between blocks of items, and each item's time is
    also kept scaled by the references on both sides of its block.
    """
    durations: list[float] = []
    scaled: list[float] = []
    failures: list[dict] = []
    busy = 0.0
    done = 0
    before = reference_seconds()
    block_start, block_busy = 0, 0.0

    def close_block():
        nonlocal before, block_start, block_busy
        after = reference_seconds(EFFORT * block_busy)
        factor = NOMINAL_S / (0.5 * (before + after))
        scaled.extend(d * factor for d in durations[block_start:])
        before, block_start, block_busy = after, len(durations), 0.0

    while (done < rounds) if rounds is not None else (done == 0 or busy < seconds):
        round_ = first_round + done
        for index, item in enumerate(wl.items(round_)):
            token = tracer.begin_item(f"{round_}.{index}") if tracer else None
            start = perf_counter()
            try:
                out, error = wl.run(item), None
            except OverBudget as exc:
                out, error = None, f"over budget in {exc.args[0]}"
            except Exception:  # an item that raises counts as failed; the run goes on
                out, error = None, traceback.format_exc(limit=3)
            elapsed = perf_counter() - start
            if tracer:
                tracer.end_item(token)
            durations.append(elapsed)
            busy += elapsed
            block_busy += elapsed
            if error is None:
                error = wl.check(item, out)
            if error is None and tracer:
                wl.observe(item, out, tracer)
            if error is None and digests is not None and round_ == 0:
                digests[f"{index:03d} {wl.label(item)}"] = sha256(wl.digest(item, out))
            if error is not None:
                failures.append({"item": f"{round_}.{index}", "label": wl.label(item), "error": error})
            if block_busy >= CALIBRATE_EVERY_S:
                close_block()
        done += 1
    if block_start < len(durations):
        close_block()
    return {"rounds": done, "durations": durations, "scaled": scaled, "busy_s": busy,
            "scaled_busy_s": sum(scaled), "failures": failures}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 100 gives the maximum."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, phase: dict, untraced: dict, extra: list[dict]) -> dict:
    busy = tracer.busy()
    counts = tracer.counts
    samples = tracer.samples

    def calls(name):
        return busy.get(name, (0, 0.0))[0]

    def busy_ms(name):
        return busy.get(name, (0, 0.0))[1] * 1e3

    def mean(name):
        return statistics.fmean(samples[name]) if samples[name] else 0.0

    timeouts = sum(1 for f in phase["failures"] if f["error"] == "over budget in minimal_settings")
    timeouts += sum(1 for e in extra if e["stage"] == "minimal_settings")
    decompositions = counts["witness.decompositions"]
    return {
        "import.ruwitness_s": IMPORT_S,
        "robustness.noisy_gate.calls": calls("robustness.noisy_gate"),
        "robustness.noisy_gate.busy_ms": busy_ms("robustness.noisy_gate"),
        "channels.kraus_ops_mean": mean("channels.kraus_ops"),
        "channels.kraus_ops_max": max(samples["channels.kraus_ops"], default=0),
        "channels.rank_over_kraus": mean("channels.rank_over_kraus"),
        "witness.expectation.busy_ms": busy_ms("witness.expectation"),
        "robustness.closed_form.busy_ms": busy_ms("robustness.closed_form"),
        "robustness.threshold.calls": calls("robustness.threshold"),
        "robustness.threshold.busy_ms": busy_ms("robustness.threshold"),
        "robustness.roots_total": counts["robustness.roots_total"],
        "robustness.sweep.busy_ms": busy_ms("robustness.sweep"),
        "robustness.sweep.rows": counts["robustness.sweep.rows"],
        "robustness.write_sweep_csv.busy_ms": busy_ms("robustness.write_sweep_csv"),
        "robustness.sweep_json_obj.busy_ms": busy_ms("robustness.sweep_json_obj"),
        "serialize.dumps.busy_ms": busy_ms("serialize.dumps"),
        "serialize.bytes_out": counts["serialize.bytes_out"],
        "protocol.estimate_expectation.calls": calls("protocol.estimate_expectation"),
        "protocol.estimate_expectation.busy_ms": busy_ms("protocol.estimate_expectation"),
        "protocol.shots_total": counts["protocol.shots_total"],
        "witness.pauli_decompose.busy_ms": busy_ms("witness.pauli_decompose"),
        "witness.minimal_settings.busy_ms": busy_ms("witness.minimal_settings"),
        "witness.terms_mean": mean("witness.terms"),
        "witness.settings_mean": mean("witness.settings"),
        "witness.repeat_share": counts["witness.repeats"] / decompositions if decompositions else 0.0,
        "witness.beta_sru.calls": calls("witness.beta_sru"),
        "witness.beta_sru.busy_ms": busy_ms("witness.beta_sru"),
        "witness.build_witness.busy_ms": busy_ms("witness.build_witness"),
        "witness.cover_exists.busy_ms": busy_ms("witness.cover_exists"),
        "witness.minimal_settings.timeouts": timeouts,
        "items.self_ms": tracer.item_self_seconds() * 1e3,
        "items.calls": calls(ITEM),
        # same rounds, same inputs: the traced phase's extra time is tracing cost
        "trace.overhead_frac": phase["scaled_busy_s"] / untraced["scaled_busy_s"] - 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    source = Path(ruwitness.__file__).resolve()
    if CHECKOUT / "src" not in source.parents:
        print(f"worker: imported ruwitness from {source}, not from this checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    digests: dict[str, str] = {}
    warmup = run_phase(wl, 0, rounds=wl.warmup_rounds, digests=digests)
    first = wl.warmup_rounds
    untraced = run_phase(wl, first, seconds=args.seconds, digests=digests)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cli = wl.cli()
    extra = wl.extra() if args.trace else []

    report = {
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
        "rounds": untraced["rounds"],
        "attempted": len(untraced["durations"]),
        "failures": warmup["failures"] + untraced["failures"],
        "timed_failures": len(untraced["failures"]),
        "busy_s": untraced["busy_s"],
        "scaled_busy_s": untraced["scaled_busy_s"],
        "passed": len(untraced["durations"]) - len(untraced["failures"]),
        "p50_ms": statistics.median(untraced["scaled"]) * 1e3,
        "raw_p50_ms": statistics.median(untraced["durations"]) * 1e3,
        "tail_pct": wl.tail,
        "tail_ms": percentile(untraced["scaled"], wl.tail) * 1e3,
        "raw_tail_ms": percentile(untraced["durations"], wl.tail) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "digest": sha256(json.dumps(digests, sort_keys=True).encode()),
        "cli": cli,
        "extra": extra,
    }
    if args.trace:
        tracer = Tracer()
        wl.bind(tracer)
        traced = run_phase(wl, first, tracer=tracer, rounds=untraced["rounds"])
        wl.bind(None)
        report["failures"] += traced["failures"]
        report["layers"] = layer_metrics(tracer, traced, untraced, extra)
        # next to run.py's results file; the work directory is removed at exit
        spans = args.workdir.parent / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(spans)
        report["spans"] = str(spans.relative_to(CHECKOUT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
