#!/usr/bin/env python3
"""Shot-noise convergence of the nine-setting witness estimator.

For a fixed noisy CNOT, runs the Monte-Carlo estimator at increasing shot
budgets and reports the estimate, its standard error, and the deviation
from the exact expectation in units of sigma.

Usage: python scripts/shot_convergence.py --q1 0.1 --q2 0.05 --seed 7
"""

import argparse
import os
import sys

from ruwitness.protocol import ShotPlan, estimate_expectation
from ruwitness.robustness import NOISE_KINDS, NoiseSpec, noisy_gate
from ruwitness.cover import minimal_settings
from ruwitness.witness import expectation, gate_witness, pauli_decompose


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--noise", default="depolarising", choices=NOISE_KINDS)
    parser.add_argument("--q1", type=float, default=0.1)
    parser.add_argument("--q2", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    for name in ("q1", "q2"):
        if not 0.0 <= getattr(args, name) <= 1.0:
            parser.error(f"--{name} must lie in [0, 1], got {getattr(args, name)!r}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")

    w = gate_witness("CNOT")
    ch = noisy_gate("CNOT", NoiseSpec(args.noise, args.q1, args.q2))
    settings = minimal_settings(pauli_decompose(w))
    exact = expectation(w, ch)
    print(f"exact expectation: {exact:+.9f}")
    print(f"{'shots/setting':>14} {'estimate':>12} {'std_error':>11} {'pull':>7}")
    for shots in (100, 1000, 10_000, 100_000):
        plan = ShotPlan(shots_per_setting=shots, seed=args.seed)
        r = estimate_expectation(w, ch, plan, settings=settings)
        pull = (r.estimate - exact) / r.std_error if r.std_error else 0.0
        print(f"{shots:>14d} {r.estimate:+12.6f} {r.std_error:11.6f} {pull:+7.2f}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (`| head`): print nothing more, as in the
        # Python docs' note on SIGPIPE, and let the exit flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
