"""Witness-based detection of non-separable random-unitary two-qubit channels.

Builds the detection operators W = beta*1 - C_U for the CNOT and CZ gates,
decomposes them into local Pauli measurements with a provably minimal set
of nine settings, and quantifies how much depolarising, dephasing, bit-flip
or amplitude-damping noise the detection tolerates, both in closed form and
by first-principles Kraus simulation.

Public names and submodules resolve on first use (PEP 562), so ``import
ruwitness`` loads no submodule and no numpy; each name then stays bound in
the package.
"""

from importlib import import_module

# Each public name and the submodule that defines it, in the order of ``__all__``.
_SUBMODULE = {
    "DEFAULT_TOL": "linalg",
    "GATE_NAMES": "thresholds",
    "NOISE_KINDS": "thresholds",
    "PAULIS": "linalg",
    "EstimateResult": "protocol",
    "KrausChannel": "channels",
    "NoiseSpec": "robustness",
    "PauliDecomposition": "cover",
    "ShotPlan": "protocol",
    "SweepRow": "robustness",
    "Witness": "witness",
    "all_pauli_strings": "linalg",
    "amplitude_damping": "channels",
    "beta_sru": "witness",
    "bit_flip": "channels",
    "build_witness": "witness",
    "closed_form": "robustness",
    "cover_exists": "cover",
    "dephasing": "channels",
    "depolarising": "channels",
    "estimate_expectation": "protocol",
    "estimate_expectation_exact": "protocol",
    "expectation": "witness",
    "gate_matrix": "channels",
    "haar_unitary": "channels",
    "minimal_settings": "cover",
    "noisy_gate": "robustness",
    "numeric_expectation": "robustness",
    "gate_witness": "witness",
    "pauli_channel": "channels",
    "pauli_decompose": "witness",
    "sample_sru": "channels",
    "sweep": "robustness",
    "threshold": "thresholds",
    "unitary_channel": "channels",
    "validate_cpt": "channels",
}

__all__ = list(_SUBMODULE)

# The submodules an eager ``import ruwitness`` used to bind, resolved the same way.
_SUBMODULES = {*_SUBMODULE.values(), "serialize"}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{submodule}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
