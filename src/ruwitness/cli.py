"""Command-line interface.

Subcommands: witness, beta, expect, threshold, sweep, simulate, selftest.
All state comes from flags (no config files), numeric output is fixed at
12 significant digits, and identical argv plus seed produce byte-identical
output files.  Exit status: 0 success, 1 invalid input (an unwritable output
path or a grid too large to hold included), 2 internal invariant failure.
A reader that closes stdout early (``| head``) ends the run quietly with 1.

Each handler imports the modules it runs, so a process pays only for its own
subcommand: ``threshold``, ``witness`` and ``beta`` load no numpy, since they
read exact integer tables and the gate witnesses' exact Pauli terms.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .thresholds import GATE_NAMES, NOISE_KINDS, _check_gate

_MODE_MAP = {"before": "before_only", "after": "after_only", "equal": "equal"}

# The agreement bound for the two expectation routes in `expect`; a larger
# discrepancy means an internal inconsistency, not bad user input.
_ROUTE_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ruwitness", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gate(p):
        p.add_argument("--gate", required=True, choices=[g.lower() for g in GATE_NAMES])

    def add_noise(p):
        p.add_argument("--noise", required=True, choices=NOISE_KINDS)

    p = sub.add_parser("witness", help="print beta, Pauli decomposition, minimal settings")
    add_gate(p)
    p.add_argument("--decomposition-out", type=Path, help="write decomposition JSON")
    p.add_argument("--settings-out", type=Path, help="write settings JSON")

    p = sub.add_parser("beta", help="print the exact witness offset beta")
    add_gate(p)
    p.add_argument("--restarts", type=int, default=200, help="accepted; does not change beta")
    p.add_argument("--seed", type=int, default=0, help="accepted; does not change beta")

    p = sub.add_parser("expect", help="closed-form vs numeric witness expectation")
    add_gate(p)
    add_noise(p)
    p.add_argument("--q1", type=float, required=True, help="pre-gate strength (q1 or gamma1)")
    p.add_argument("--q2", type=float, required=True, help="post-gate strength (q2 or gamma2)")

    p = sub.add_parser("threshold", help="detection thresholds along a noise slice")
    add_gate(p)
    add_noise(p)
    p.add_argument("--mode", required=True, choices=sorted(_MODE_MAP))
    p.add_argument("--out", type=Path, help="write threshold JSON")

    p = sub.add_parser("sweep", help="witness expectation over a (q1, q2) grid")
    add_gate(p)
    add_noise(p)
    p.add_argument("--grid", type=int, required=True, help="points per axis (>= 2)")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("simulate", help="shot-based Monte-Carlo witness estimate")
    add_gate(p)
    add_noise(p)
    p.add_argument("--q1", type=float, required=True)
    p.add_argument("--q2", type=float, required=True)
    p.add_argument("--shots", type=int, required=True, help="shots per setting")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, help="write estimate JSON")

    sub.add_parser("selftest", help="run the invariant suite")
    return parser


def _cmd_witness(args) -> int:
    from .cover import GATE_BETA, GATE_DECOMPOSITIONS, minimal_settings
    from .serialize import dumps, fmt12

    gate = _check_gate(args.gate)
    decomp = GATE_DECOMPOSITIONS[gate]
    settings = minimal_settings(decomp)
    print(f"gate: {gate}")
    print(f"beta = {fmt12(GATE_BETA)}")
    print(f"decomposition ({len(decomp.terms)} terms):")
    for entry in decomp.to_json_obj():
        print(f"  {entry['coeff']:>7s}  {entry['string']}")
    print(f"settings ({len(settings)}): {' '.join(settings)}")
    if args.decomposition_out:
        args.decomposition_out.write_text(dumps(decomp.to_json_obj()))
    if args.settings_out:
        args.settings_out.write_text(dumps(list(settings)))
    return 0


def _cmd_beta(args) -> int:
    from .cover import GATE_BETA
    from .serialize import fmt12

    if args.restarts < 1:
        raise ValueError(f"--restarts must be a positive integer, got {args.restarts!r}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    print(f"beta = {fmt12(GATE_BETA)}")
    return 0


def _cmd_expect(args) -> int:
    from .channels import _check_unit_interval
    from .robustness import NoiseSpec, closed_form, numeric_expectation
    from .serialize import fmt12

    _check_unit_interval("--q1", args.q1)
    _check_unit_interval("--q2", args.q2)
    analytic = closed_form(args.gate, args.noise, args.q1, args.q2)
    numeric = numeric_expectation(args.gate, NoiseSpec(args.noise, args.q1, args.q2))
    diff = analytic - numeric
    print(f"closed_form = {fmt12(analytic)}")
    print(f"numeric     = {fmt12(numeric)}")
    print(f"difference  = {fmt12(diff)}")
    print(f"detected    = {'true' if numeric < 0 else 'false'}")
    if abs(diff) > _ROUTE_TOL:
        print(
            f"ruwitness: internal error: expectation routes disagree by {diff!r}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_threshold(args) -> int:
    from .serialize import dumps, fmt12
    from .thresholds import threshold, threshold_json_obj

    mode = _MODE_MAP[args.mode]
    roots = threshold(args.gate, args.noise, mode)
    for r in roots:
        print(fmt12(r))
    if args.out:
        args.out.write_text(dumps(threshold_json_obj(args.gate, args.noise, mode, roots)))
    return 0


def _cmd_sweep(args) -> int:
    from .robustness import sweep, sweep_json_obj, write_sweep_csv
    from .serialize import dumps

    if args.grid < 2:
        raise ValueError(f"--grid must be >= 2, got {args.grid}")
    rows = sweep(args.gate, args.noise, args.grid)
    if args.format == "csv":
        with open(args.out, "w", newline="") as fh:
            write_sweep_csv(rows, fh)
    else:
        args.out.write_text(dumps(sweep_json_obj(args.gate, args.noise, rows)))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    from .channels import _check_unit_interval
    from .protocol import _MAX_SHOTS, ShotPlan, estimate_expectation, result_json_obj
    from .robustness import NoiseSpec, noisy_gate
    from .serialize import dumps, fmt12
    from .witness import gate_witness, minimal_settings, pauli_decompose

    _check_unit_interval("--q1", args.q1)
    _check_unit_interval("--q2", args.q2)
    if not 1 <= args.shots <= _MAX_SHOTS:
        raise ValueError(f"--shots must be in [1, {_MAX_SHOTS}], got {args.shots}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    w = gate_witness(args.gate)
    ch = noisy_gate(args.gate, NoiseSpec(args.noise, args.q1, args.q2))
    settings = minimal_settings(pauli_decompose(w))
    plan = ShotPlan(shots_per_setting=args.shots, seed=args.seed)
    result = estimate_expectation(w, ch, plan, settings=settings)
    print(f"estimate  = {fmt12(result.estimate)}")
    print(f"std_error = {fmt12(result.std_error)}")
    print(f"detected  = {'true' if result.detected else 'false'}")
    if args.out:
        args.out.write_text(dumps(result_json_obj(result, plan, settings)))
    return 0


def _cmd_selftest(_args) -> int:
    from .selftest import run_all

    failures = run_all()
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 2
    print("all checks passed")
    return 0


_COMMANDS = {
    "witness": _cmd_witness,
    "beta": _cmd_beta,
    "expect": _cmd_expect,
    "threshold": _cmd_threshold,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed early (`| head`): print nothing more, as in the
        # Python docs' note on SIGPIPE, and let the exit flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, MemoryError) as exc:  # an unwritable --out, a --grid too large
        print(f"ruwitness: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
