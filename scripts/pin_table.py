#!/usr/bin/env python3
"""Print the output pins of ``tests/test_cli.py`` from the current code.

Runs every pinned command in process, as the pin tests of
``tests/test_cli.py`` do, and prints ``OUTPUT_DIGESTS``, ``SELFTEST_STDOUT``
and ``EXPECT_VALUES`` as Python source in that file's layout:

- the SHA-256 of each output of ``witness`` and ``beta`` for both gates,
  of seeded ``simulate`` for all 8 (gate, noise) pairs, of all 24
  ``threshold`` slices and of ``sweep --grid 7`` in both formats;
- the SHA-256 of ``selftest``'s stdout;
- the four lines of ``expect`` at q1 = 0.3, q2 = 0.15 for all 8 pairs, by
  value.

Paste the output over the three assignments, so that a deliberate output
change shows as a diff of that file.

Usage: python scripts/pin_table.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from ruwitness.cli import main as cli_main
from ruwitness.thresholds import GATE_NAMES, NOISE_KINDS

GATES = [gate.lower() for gate in GATE_NAMES]
# the outputs each command is pinned on; a file "name" is written through --name-out ("out" through --out)
OUTPUTS = {"witness": ("stdout", "decomposition", "settings"), "beta": ("stdout",),
           "simulate": ("stdout", "out"), "threshold": ("stdout", "out"), "sweep": ("out",)}
KEY_FLAGS = {"simulate": ("--noise",), "threshold": ("--noise", "--mode"), "sweep": ("--noise", "--format")}
KEY_VALUES = {"--noise": NOISE_KINDS, "--mode": ("after", "before", "equal"), "--format": ("csv", "json")}
PINNED_ARGS = {"simulate": ("--q1", "0.3", "--q2", "0.15", "--shots", "5000", "--seed", "11"),
               "sweep": ("--grid", "7")}
EXPECT_ARGS = ("--q1", "0.3", "--q2", "0.15")


def run(*argv: str) -> str:
    """The stdout of one CLI call, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    if code != 0:
        raise RuntimeError(f"ruwitness {' '.join(argv)} exited {code}")
    return out.getvalue()


def keys() -> list:
    """Every pinned (command, gate, *key flag values), command by command, gate outer."""
    out = []
    for command in OUTPUTS:
        combos = [()]
        for flag in KEY_FLAGS.get(command, ()):
            combos = [(*combo, value) for combo in combos for value in KEY_VALUES[flag]]
        out += [(command, gate, *combo) for gate in GATES for combo in combos]
    return out


def output_digests() -> dict:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key in keys():
            command, gate, *values = key
            files = {name: Path(tmp, f"{name}.json") for name in OUTPUTS[command] if name != "stdout"}
            flags = [arg for name, path in files.items()
                     for arg in ("--out" if name == "out" else f"--{name}-out", str(path))]
            key_flags = [arg for pair in zip(KEY_FLAGS.get(command, ()), values) for arg in pair]
            stdout = run(command, "--gate", gate, *key_flags, *PINNED_ARGS.get(command, ()), *flags)
            outputs = {"stdout": stdout.encode(), **{name: path.read_bytes() for name, path in files.items()}}
            digests[key] = {name: hashlib.sha256(outputs[name]).hexdigest() for name in OUTPUTS[command]}
    return digests


def expect_values() -> dict:
    values = {}
    for gate in GATES:
        for noise in NOISE_KINDS:
            lines = [line.split(" = ")[1] for line in run("expect", "--gate", gate, "--noise", noise,
                                                           *EXPECT_ARGS).splitlines()]
            values[gate, noise] = (*map(float, lines[:3]), lines[3])
    return values


def source(digests: dict, selftest: str, expect: dict) -> str:
    """The three assignments as Python source, in the layout of ``tests/test_cli.py``."""
    text = ["OUTPUT_DIGESTS = {"]
    for key, entry in digests.items():
        key_text = "(" + ", ".join(map(json.dumps, key)) + ")"
        if len(entry) == 1:
            ((name, digest),) = entry.items()
            text.append(f"    {key_text}: {{{json.dumps(name)}: {json.dumps(digest)}}},")
        else:
            text += [f"    {key_text}: {{", *(f"        {json.dumps(name)}: {json.dumps(digest)},"
                                              for name, digest in entry.items()), "    },"]
    text += ["}", f"SELFTEST_STDOUT = {json.dumps(selftest)}", "EXPECT_VALUES = {"]
    for (gate, noise), (*numbers, detected) in expect.items():
        text.append(f"    ({json.dumps(gate)}, {json.dumps(noise)}): ({', '.join(map(repr, numbers))}, "
                    f"{json.dumps(detected)}),")
    return "\n".join(text + ["}", ""])


def main() -> int:
    selftest = hashlib.sha256(run("selftest").encode()).hexdigest()
    sys.stdout.write(source(output_digests(), selftest, expect_values()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
