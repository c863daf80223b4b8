"""ruwitness benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/ruwitness; nothing is
installed.  Each run starts fresh interpreters one at a time (a closed loop
with one caller, BLAS pinned to one thread):

1. set-up probes, each timed from launch until ruwitness is imported and
   the workload's first inputs exist (``setup_s``, median);
2. the workload itself (worker.py): an untimed warm-up round, then whole
   rounds of items for at least S seconds of item time, every item checked
   after it ran; with ``--trace 1`` the same rounds again with spans on;
3. the workload's CLI subcommands as fresh ``python -m ruwitness``
   processes, whose stdout or files must equal the in-process results
   byte for byte (``cli_cold_s``, median).

The last stdout line is the JSON result; a results file with the machine,
sample counts, digests and failures goes to perfbench/results/.
Metric names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads, here and in every child

from calibration import bracket  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("oracle_grid", "detection_map", "shot_experiment", "certify")

SETUP_PROBES = 5
CLI_REPEATS = 7
CHILD_TIMEOUT_S = 150
COLD_START_S = 1.0  # rough length of one probe; sizes the reference runs around it


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(CHECKOUT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "blas_threads": BLAS_ENV,
    }


def launch(argv: list[str], workdir: Path) -> tuple[float, str]:
    """Start a worker; return seconds until it printed ``ready``, and the rest of its stdout."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv, "--workdir", str(workdir)],
                            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=CHECKOUT)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} failed with exit status {proc.returncode}")
    return ready, rest


def cli_probe(probe: dict) -> tuple[float, list[str]]:
    """Run one CLI subcommand cold; return its wall time and any output mismatches."""
    start = perf_counter()
    done = subprocess.run([sys.executable, "-m", "ruwitness", *probe["argv"]], capture_output=True,
                          env=child_env(), cwd=CHECKOUT, timeout=CHILD_TIMEOUT_S)
    elapsed = perf_counter() - start
    problems = [] if done.returncode == 0 else [f"exit status {done.returncode}"]
    for target, want in probe["expect"].items():
        data = done.stdout if target == "stdout" else Path(target).read_bytes()
        if hashlib.sha256(data).hexdigest() != want:
            problems.append(f"{probe['sub']}: {target} differs from the in-process output")
    return elapsed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (CHECKOUT / "src" / "ruwitness" / "__init__.py").is_file():
        print(f"run.py: no src/ruwitness under {CHECKOUT}; run from a ruwitness checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec: dict, workdir: Path) -> int:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # (raw seconds, seconds scaled to the nominal speed) per sample
    setup: list[tuple[float, float]] = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        (ready, _), factor = bracket(lambda: launch([*common, "--seconds", "0", "--setup-only"], workdir),
                                     COLD_START_S)
        setup.append((ready, ready * factor))
    _, out = launch([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], workdir)
    report = json.loads(out.strip().splitlines()[-1])

    problems = [f"{f['item']} {f['label']}: {f['error']}" for f in report["failures"]]
    cli_times: dict[str, list[tuple[float, float]]] = {p["sub"]: [] for p in report["cli"]}
    totals = []
    for _ in range(CLI_REPEATS):
        total = 0.0
        for probe in report["cli"]:
            (elapsed, mismatches), factor = bracket(lambda: cli_probe(probe), COLD_START_S)
            cli_times[probe["sub"]].append((elapsed, elapsed * factor))
            total += elapsed * factor
            problems += mismatches
        totals.append(total)

    if args.trace:
        values = dict(report["layers"])
        for sub in ("expect", "sweep", "threshold", "simulate", "witness", "beta"):
            values[f"cli.{sub}.cold_s"] = statistics.median([t for _, t in cli_times.get(sub, [(0.0, 0.0)])])
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median([t for _, t in setup]),
            "items_per_s": report["passed"] / report["scaled_busy_s"],
            "item_ms_p50": report["p50_ms"],
            "item_ms_tail": report["tail_ms"],
            "peak_rss_mb": report["peak_rss_mb"],
            "cli_cold_s": statistics.median(totals),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    n = report["attempted"]
    tail = "max" if report["tail_pct"] >= 100 else f"p{report['tail_pct']:g}"
    beyond = n - -(-n * report["tail_pct"] // 100)
    summary = [
        f"workload {args.workload} seed {args.seed}: {n} items in {report['rounds']} rounds, "
        f"{report['busy_s']:.3f} s of item time",
        f"item_ms_p50 over {n} items; item_ms_tail is {tail} ({int(beyond)} items beyond it)",
        f"failed_frac {report['timed_failures'] / n:.6g} ({report['timed_failures']} of {n})",
        f"setup_s samples (scaled) {[round(t, 4) for _, t in setup]}",
        f"cli probes (scaled): {', '.join(f'{k} {[round(t, 4) for _, t in v]}' for k, v in cli_times.items())}",
        f"output digest {report['digest']} over {len(report['digests'])} round-0 outputs",
    ]
    summary += [f"generic witness {e['gate']}: {e['outcome']}"
                + (f" in {e['stage']}" if e["stage"] else "") + f" after {e['seconds']:.3f} s"
                for e in report["extra"]]
    summary += [f"FAILED {p}" for p in problems]
    print("\n".join(summary))

    result = {"correct": not problems, "attempted": n, "failed": report["timed_failures"], "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {**machine(), **report["versions"]},
        "result": result, "summary": summary, "problems": problems,
        "setup_samples_s": setup, "cli_samples_s": cli_times,  # [raw, scaled] pairs
        "item_time_s": {"raw": report["busy_s"], "scaled": report["scaled_busy_s"]},
        "item_ms_p50": {"raw": report["raw_p50_ms"], "scaled": report["p50_ms"]},
        "item_ms_tail": {"raw": report["raw_tail_ms"], "scaled": report["tail_ms"]},
        "tail": tail, "rounds": report["rounds"],
        "digest": report["digest"], "digests": report["digests"],
        "generic_witnesses": report["extra"], "spans": report.get("spans"),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
