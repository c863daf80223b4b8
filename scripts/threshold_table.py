#!/usr/bin/env python3
"""Print the detection-threshold table for every gate/noise/slice combination.

Each row shows the exact roots of the closed-form witness expectation
along the pre-only, post-only and equal-strength noise slices.  Below the
table, the radical forms of the analytically solvable roots are listed for
comparison.

Usage: python scripts/threshold_table.py [--json out.json]
"""

import argparse
import json
import math

from ruwitness.robustness import GATE_NAMES, NOISE_KINDS, THRESHOLD_MODES, threshold
from ruwitness.serialize import fmt12

EXACT_FORMS = [
    ("depolarising before/after", "(4 - 2*sqrt(2))/3", (4 - 2 * math.sqrt(2)) / 3),
    ("dephasing/bitflip before/after", "1 - 1/sqrt(2)", 1 - 1 / math.sqrt(2)),
    ("CZ bitflip equal", "1 - 2**(-1/4)", 1 - 2 ** (-0.25)),
    ("CZ dephasing equal (lower)", "(1 - sqrt(sqrt(2) - 1))/2", (1 - math.sqrt(math.sqrt(2) - 1)) / 2),
    ("CZ dephasing equal (upper)", "(1 + sqrt(sqrt(2) - 1))/2", (1 + math.sqrt(math.sqrt(2) - 1)) / 2),
    ("amplitude damping before/after", "1 - (8**(1/4) - 1)**2", 1 - (8**0.25 - 1) ** 2),
    ("CZ amplitude damping equal", "2 - 8**(1/4)", 2 - 8**0.25),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=str, help="also write all roots to a JSON file")
    args = parser.parse_args()

    records = []
    print(f"{'gate':<6} {'noise':<18} {'mode':<12} roots")
    print("-" * 64)
    for gate in GATE_NAMES:
        for kind in NOISE_KINDS:
            for mode in THRESHOLD_MODES:
                roots = threshold(gate, kind, mode)
                shown = "  ".join(fmt12(r) for r in roots) or "(none)"
                print(f"{gate:<6} {kind:<18} {mode:<12} {shown}")
                records.append(
                    {"gate": gate, "noise": kind, "mode": mode, "roots": roots}
                )

    print("\nexact radical forms:")
    for label, form, value in EXACT_FORMS:
        print(f"  {label:<34} {form:<26} = {fmt12(value)}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
