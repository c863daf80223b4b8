"""Shot-based simulation of the local-measurement detection procedure.

The experiment prepares the four-qubit state |alpha>_AC |alpha>_BD, sends
qubits A and B through the channel under test, and measures all four
qubits along one Pauli axis each (a "setting").  Every Pauli string in the
witness decomposition is estimated from the one setting assigned to it
(the first covering setting in the minimal cover), and the witness
expectation is the coefficient-weighted sum of the term estimates; the
identity term enters exactly and is never sampled.

Measurement is realised by exact Born probabilities on the post-channel
Choi state followed by multinomial sampling per setting, with one private
RNG stream per setting derived from ``(seed, setting_index)``.  There is
no trajectory-level circuit simulation: at dimension 16 the exact
distribution is cheap and sidesteps rotation-gate conventions entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .choi import choi_of
from .linalg import kron
from .witness import (
    IDENTITY_STRING,
    Witness,
    minimal_settings,
    pauli_decompose,
    setting_covers,
)

_SQRT2 = np.sqrt(2.0)

# Columns are the +1 and -1 eigenvectors of the measured Pauli axis.
_AXIS_EIGENBASIS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / _SQRT2,
    "Z": np.eye(2, dtype=complex),
}


@dataclass(frozen=True)
class ShotPlan:
    """Measurement budget: shots per setting and the sampling seed."""

    shots_per_setting: int
    seed: int

    def __post_init__(self) -> None:
        if self.shots_per_setting < 1:
            raise ValueError(f"shots_per_setting must be >= 1, got {self.shots_per_setting}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class EstimateResult:
    """Witness-expectation estimate with its standard error.

    ``per_setting`` records, for each measurement setting in order, the
    estimated value of every Pauli term assigned to that setting.
    """

    estimate: float
    std_error: float
    per_setting: tuple[tuple[str, tuple[tuple[str, float], ...]], ...]

    @property
    def detected(self) -> bool:
        return self.estimate < 0


def setting_distribution(ch: KrausChannel, setting: str) -> np.ndarray:
    """Born probabilities of the 16 joint outcomes for one setting.

    Outcome index bits follow the qubit order A, B, C, D (big-endian);
    bit 0 means eigenvalue +1, bit 1 means -1.
    """
    return _born_vectors(ch, (setting,))[0]


def _born_vectors(ch: KrausChannel, settings) -> list[np.ndarray]:
    """Born vectors of several settings, read off one Choi state."""
    if ch.dim != 4:
        raise ValueError(f"channel must act on dimension 4, got {ch.dim}")
    for setting in settings:
        if len(setting) != 4 or any(a not in _AXIS_EIGENBASIS for a in setting):
            raise ValueError(f"setting must be 4 letters over XYZ, got {setting!r}")
    c = choi_of(ch).matrix
    rotations = (kron(*[_AXIS_EIGENBASIS[a] for a in s]) for s in settings)
    return [np.real(np.diag(r.conj().T @ c @ r)) for r in rotations]


def _term_signs(string: str) -> np.ndarray:
    """Eigenvalue product of a Pauli string for each of the 16 outcomes."""
    signs = np.ones(16)
    outcomes = np.arange(16)
    for qubit, label in enumerate(string):
        if label != "I":
            bits = (outcomes >> (3 - qubit)) & 1
            signs *= 1.0 - 2.0 * bits
    return signs


def _assign_terms(terms, settings):
    """Map each non-identity term to the first covering setting."""
    assignment: dict[str, list[tuple[float, str]]] = {s: [] for s in settings}
    for coeff, string in terms:
        if string == IDENTITY_STRING:
            continue
        for s in settings:
            if setting_covers(s, string):
                assignment[s].append((float(coeff), string))
                break
        else:
            raise ValueError(f"no setting covers Pauli string {string!r}")
    return assignment


def _estimate(w, ch, settings, plan):
    """Shared estimator core; ``plan`` None means exact Born weights.

    Sampled counts are only divided by the shot number after the dot
    products, which keeps deterministic-outcome channels bit-exact.
    """
    decomp = pauli_decompose(w)
    if settings is None:
        settings = minimal_settings(decomp)
    settings = tuple(settings)
    assignment = _assign_terms(decomp.terms, settings)
    identity = float(decomp.coefficient(IDENTITY_STRING))
    born = _born_vectors(ch, settings)

    estimate = identity
    variance = 0.0
    per_setting = []
    for index, (setting, probs) in enumerate(zip(settings, born)):
        terms = assignment[setting]
        if plan is None:
            weights, shots = probs, None
        else:
            shots = plan.shots_per_setting
            rng = np.random.default_rng((plan.seed, index))
            p = np.clip(probs, 0.0, None)  # clip eigendecomposition dust
            weights = rng.multinomial(shots, p / p.sum()).astype(float)
        denom = 1.0 if shots is None else float(shots)
        term_estimates = []
        combined = np.zeros(16)
        for coeff, string in terms:
            signs = _term_signs(string)
            term_estimates.append((string, float(signs @ weights) / denom))
            combined += coeff * signs
        mean = float(combined @ weights) / denom
        estimate += mean
        if shots is not None:
            second = float((combined**2) @ weights) / denom
            sample_var = max(second - mean**2, 0.0) * shots / max(shots - 1, 1)
            variance += sample_var / shots
        per_setting.append((setting, tuple(term_estimates)))
    return EstimateResult(
        estimate=estimate,
        std_error=float(np.sqrt(variance)),
        per_setting=tuple(per_setting),
    )


def estimate_expectation(
    w: Witness,
    ch: KrausChannel,
    plan: ShotPlan,
    settings: tuple[str, ...] | None = None,
) -> EstimateResult:
    """Monte-Carlo estimate of Tr[W C_M] from multinomial setting samples.

    Deterministic for a fixed plan: setting ``i`` samples from the stream
    seeded by ``(plan.seed, i)``.  The standard error combines the sample
    variance of each setting's term combination (settings are
    independent), which is exact about correlations between Pauli terms
    sharing a setting.
    """
    return _estimate(w, ch, settings, plan)


def estimate_expectation_exact(
    w: Witness,
    ch: KrausChannel,
    settings: tuple[str, ...] | None = None,
) -> EstimateResult:
    """Infinite-shot limit: plug exact Born probabilities into the estimator.

    Matches :func:`ruwitness.witness.expectation` to numerical precision,
    which pins down estimator bias at the distribution level.
    """
    return _estimate(w, ch, settings, None)


def result_json_obj(result: EstimateResult, plan: ShotPlan, settings) -> dict:
    from .serialize import round12

    return {
        "estimate": round12(result.estimate),
        "std_error": round12(result.std_error),
        "detected": result.detected,
        "shots_per_setting": plan.shots_per_setting,
        "seed": plan.seed,
        "settings": list(settings),
    }
