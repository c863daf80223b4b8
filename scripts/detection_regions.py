#!/usr/bin/env python3
"""Map the (q1, q2) detection regions for every gate and noise kind.

Writes one sweep CSV per combination into the output directory and prints
the detected fraction of each grid, which makes the non-monotone CZ
dephasing window immediately visible at high strengths.

Usage: python scripts/detection_regions.py --out-dir sweeps --grid 41
"""

import argparse
import sys
from pathlib import Path

from ruwitness.robustness import GATE_NAMES, NOISE_KINDS, sweep, write_sweep_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("sweeps"))
    parser.add_argument("--grid", type=int, default=41, help="points per axis")
    args = parser.parse_args()
    if args.grid < 2:
        parser.error(f"--grid must be >= 2, got {args.grid}")

    detected = {}
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for gate in GATE_NAMES:
            for kind in NOISE_KINDS:
                rows = sweep(gate, kind, args.grid)
                path = args.out_dir / f"{gate.lower()}_{kind}.csv"
                with open(path, "w", newline="") as fh:
                    write_sweep_csv(rows, fh)
                detected[path] = sum(r.detected for r in rows) / len(rows)
    except OSError as exc:  # an unwritable --out-dir is invalid input, as in the CLI
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    for path, fraction in detected.items():
        print(f"{path}  detected fraction: {fraction:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
