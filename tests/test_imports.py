import os
import subprocess
import sys
from pathlib import Path

import ruwitness


def _fresh_interpreter(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(ruwitness.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    """The library runs on numpy alone; scipy serves only the test oracles."""
    code = "import sys, ruwitness; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh_interpreter(code) == "[]"


def test_thresholds_load_no_scipy_or_sympy():
    """Exact thresholds need only Python integers: no scipy, sympy or numpy.polynomial."""
    code = (
        "import sys, ruwitness\n"
        "from ruwitness.robustness import GATE_NAMES, NOISE_KINDS, THRESHOLD_MODES, threshold\n"
        "for gate in GATE_NAMES:\n"
        "    for kind in NOISE_KINDS:\n"
        "        for mode in THRESHOLD_MODES:\n"
        "            threshold(gate, kind, mode)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'sympy')\n"
        "             or m.startswith('numpy.polynomial')))"
    )
    assert _fresh_interpreter(code) == "[]"
