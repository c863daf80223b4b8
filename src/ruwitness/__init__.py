"""Witness-based detection of non-separable random-unitary two-qubit channels.

Builds the detection operators W = beta*1 - C_U for the CNOT and CZ gates,
decomposes them into local Pauli measurements with a provably minimal set
of nine settings, and quantifies how much depolarising, dephasing, bit-flip
or amplitude-damping noise the detection tolerates, both in closed form and
by first-principles Kraus simulation.
"""

from .channels import (
    KrausChannel,
    amplitude_damping,
    apply,
    bit_flip,
    compose,
    dephasing,
    depolarising,
    gate_matrix,
    haar_unitary,
    identity_channel,
    pauli_channel,
    sample_sru,
    tensor,
    unitary_channel,
    validate_cpt,
)
from .choi import ChoiState, choi_of
from .linalg import (
    DEFAULT_TOL,
    PAULIS,
    all_pauli_strings,
    is_hermitian,
    is_psd,
    kron,
    partial_trace,
)
from .protocol import (
    EstimateResult,
    ShotPlan,
    estimate_expectation,
    estimate_expectation_exact,
)
from .robustness import (
    GATE_NAMES,
    NOISE_KINDS,
    NoiseSpec,
    SweepRow,
    closed_form,
    noisy_gate,
    numeric_expectation,
    sweep,
    threshold,
)
from .witness import (
    PauliDecomposition,
    Witness,
    beta_sru,
    build_witness,
    cover_exists,
    expectation,
    minimal_settings,
    gate_witness,
    pauli_decompose,
)

__all__ = [
    "DEFAULT_TOL",
    "GATE_NAMES",
    "NOISE_KINDS",
    "PAULIS",
    "ChoiState",
    "EstimateResult",
    "KrausChannel",
    "NoiseSpec",
    "PauliDecomposition",
    "ShotPlan",
    "SweepRow",
    "Witness",
    "all_pauli_strings",
    "amplitude_damping",
    "apply",
    "beta_sru",
    "bit_flip",
    "build_witness",
    "choi_of",
    "closed_form",
    "compose",
    "cover_exists",
    "dephasing",
    "depolarising",
    "estimate_expectation",
    "estimate_expectation_exact",
    "expectation",
    "gate_matrix",
    "haar_unitary",
    "identity_channel",
    "is_hermitian",
    "is_psd",
    "kron",
    "minimal_settings",
    "noisy_gate",
    "numeric_expectation",
    "gate_witness",
    "partial_trace",
    "pauli_channel",
    "pauli_decompose",
    "sample_sru",
    "sweep",
    "tensor",
    "threshold",
    "unitary_channel",
    "validate_cpt",
]

__version__ = "0.1.0"
