import os
import subprocess
import sys
from pathlib import Path

import ruwitness


def _fresh_interpreter(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(ruwitness.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


# The public API.  A name added here or removed from here is a deliberate API change.
PUBLIC_NAMES = [
    "DEFAULT_TOL", "GATE_NAMES", "NOISE_KINDS", "PAULIS",
    "ChoiState", "EstimateResult", "KrausChannel", "NoiseSpec", "PauliDecomposition",
    "ShotPlan", "SweepRow", "Witness",
    "all_pauli_strings", "amplitude_damping", "apply", "beta_sru", "bit_flip",
    "build_witness", "choi_of", "closed_form", "compose", "cover_exists", "dephasing",
    "depolarising", "estimate_expectation", "estimate_expectation_exact", "expectation",
    "gate_matrix", "haar_unitary", "identity_channel", "is_hermitian", "is_psd", "kron",
    "minimal_settings", "noisy_gate", "numeric_expectation", "gate_witness",
    "partial_trace", "pauli_channel", "pauli_decompose", "sample_sru", "sweep", "tensor",
    "threshold", "unitary_channel", "validate_cpt",
]


def test_public_api_is_pinned():
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 46
    assert ruwitness.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(ruwitness, name)] == []


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


def test_closed_forms_build_no_channel():
    """Thresholds and sweeps read the gate PTM from its formula, never a KrausChannel."""
    code = (
        "from ruwitness.channels import KrausChannel\n"
        "def refuse(self):\n"
        "    raise AssertionError('a KrausChannel was built')\n"
        "KrausChannel.__post_init__ = refuse\n"
        "from ruwitness.robustness import GATE_NAMES, NOISE_KINDS, THRESHOLD_MODES, sweep, threshold\n"
        "for gate in GATE_NAMES:\n"
        "    for kind in NOISE_KINDS:\n"
        "        for mode in THRESHOLD_MODES:\n"
        "            threshold(gate, kind, mode)\n"
        "        sweep(gate, kind, 3)\n"
        "print('no channel')"
    )
    assert _fresh_interpreter(code) == "no channel"
