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

Everything that depends only on the witness and the settings (the term
assignment, the sign rows, the stacked local rotations) is compiled once
into a measurement plan kept on the witness's cached decomposition.  An
estimate then reads the channel's Choi state C (a noisy gate keeps the one
it was built from) and all Born vectors as ``diag(R^dag C R)`` from one
stacked matrix product over the settings.
Settings must be distinct: a repeated setting would count its terms twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from numbers import Integral

import numpy as np

from .channels import KrausChannel
from .choi import choi_of
from .linalg import kron
from .witness import (
    IDENTITY_STRING,
    PauliDecomposition,
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
        for name in ("shots_per_setting", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
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
    rotations = _rotations((setting,))
    return _born_vectors(ch, rotations, rotations.conj().transpose(0, 2, 1))[0]


def _rotations(settings: tuple[str, ...]) -> np.ndarray:
    """Stacked (n, 16, 16) rotations whose columns are the outcome eigenvectors."""
    for setting in settings:
        if len(setting) != 4 or any(a not in _AXIS_EIGENBASIS for a in setting):
            raise ValueError(f"setting must be 4 letters over XYZ, got {setting!r}")
    rotations = [kron(*[_AXIS_EIGENBASIS[a] for a in s]) for s in settings]
    return np.array(rotations, dtype=complex).reshape(-1, 16, 16)


def _born_vectors(ch: KrausChannel, rotations: np.ndarray, adjoints: np.ndarray) -> np.ndarray:
    """Born vectors diag(R^dag C R) of all settings, read off one Choi state."""
    if ch.dim != 4:
        raise ValueError(f"channel must act on dimension 4, got {ch.dim}")
    c = choi_of(ch).matrix
    return np.real(np.diagonal(adjoints @ c @ rotations, axis1=1, axis2=2))


@dataclass(frozen=True)
class _MeasurementPlan:
    """The channel-independent part of an estimate, for one witness and settings.

    ``strings`` lists the non-identity terms grouped by the setting they are
    assigned to, ``term_counts[i]`` of them for setting ``i``.  Row ``t`` of
    ``signs`` holds the +-1 eigenvalue products of term ``t`` over the 16
    outcomes and ``term_setting[t]`` its setting; ``combined[i]`` is the
    coefficient-weighted sum of setting ``i``'s sign rows.
    """

    settings: tuple[str, ...]
    identity: float
    strings: tuple[str, ...]
    term_counts: tuple[int, ...]
    term_setting: np.ndarray
    signs: np.ndarray
    combined: np.ndarray
    combined_sq: np.ndarray
    rotations: np.ndarray
    adjoints: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def _compile_plan(decomp: PauliDecomposition, settings: tuple[str, ...]) -> _MeasurementPlan:
    """Assign every non-identity term to its first covering setting and precompute."""
    if len(set(settings)) != len(settings):
        raise ValueError(f"measurement settings repeat: {settings!r}")
    rotations = _rotations(settings)
    assigned = []
    for coeff, string in decomp.terms:
        if string != IDENTITY_STRING:
            index = next((i for i, s in enumerate(settings) if setting_covers(s, string)), None)
            if index is None:
                raise ValueError(f"no setting covers Pauli string {string!r}")
            assigned.append((index, float(coeff), string))
    assigned.sort(key=lambda a: a[0])  # stable: decomposition order within a setting
    # qubit q's eigenvalue over the outcomes: +1 where its bit is 0, -1 where it is 1
    qubit_signs = 1.0 - 2.0 * ((np.arange(16) >> np.arange(3, -1, -1)[:, None]) & 1)
    measured = np.array([[p != "I" for p in string] for _, _, string in assigned])
    signs = np.where(measured.reshape(-1, 4, 1), qubit_signs, 1.0).prod(axis=1)
    term_setting = np.array([index for index, _, _ in assigned], dtype=int)
    combined = np.zeros((len(settings), 16))
    for (index, coeff, _), row in zip(assigned, signs):
        combined[index] += coeff * row
    return _MeasurementPlan(
        settings=settings,
        identity=float(decomp.coefficient(IDENTITY_STRING)),
        strings=tuple(string for _, _, string in assigned),
        term_counts=tuple(np.bincount(term_setting, minlength=len(settings)).tolist()),
        term_setting=term_setting,
        signs=signs,
        combined=combined,
        combined_sq=combined**2,
        rotations=rotations,
        adjoints=rotations.conj().transpose(0, 2, 1),
    )


def _plan_for(w: Witness, settings) -> _MeasurementPlan:
    """The plan for ``settings`` (the minimal cover if None), compiled once.

    The last plan compiled is kept on the witness's cached decomposition,
    so it lives and dies with the witness and holds one plan at most.
    """
    decomp = pauli_decompose(w)
    settings = minimal_settings(decomp) if settings is None else tuple(settings)
    plan = vars(decomp).get("_plan")
    if plan is None or plan.settings != settings:
        plan = _compile_plan(decomp, settings)
        vars(decomp)["_plan"] = plan
    return plan


def _estimate(w, ch, settings, shot_plan):
    """Shared estimator core; ``shot_plan`` None means exact Born weights.

    Sampled counts are only divided by the shot number after the dot
    products, which keeps deterministic-outcome channels bit-exact.
    """
    plan = _plan_for(w, settings)
    born = _born_vectors(ch, plan.rotations, plan.adjoints)
    if shot_plan is None:
        weights, shots = born, None
    else:
        shots = shot_plan.shots_per_setting
        p = np.maximum(born, 0.0)  # clip eigendecomposition dust
        p /= p.sum(axis=1, keepdims=True)
        weights = np.empty_like(p)
        for index, row in enumerate(p):
            weights[index] = np.random.default_rng((shot_plan.seed, index)).multinomial(shots, row)
    denom = 1.0 if shots is None else float(shots)
    values = np.einsum("tj,tj->t", plan.signs, weights[plan.term_setting]) / denom
    means = np.einsum("ij,ij->i", plan.combined, weights) / denom
    seconds = np.einsum("ij,ij->i", plan.combined_sq, weights) / denom

    estimate = plan.identity
    variance = 0.0
    for mean, second in zip(means.tolist(), seconds.tolist()):
        estimate += mean
        if shots is not None:
            sample_var = max(second - mean**2, 0.0) * shots / max(shots - 1, 1)
            variance += sample_var / shots
    terms = iter(zip(plan.strings, values.tolist()))
    return EstimateResult(
        estimate=estimate,
        std_error=float(np.sqrt(variance)),
        per_setting=tuple(
            (setting, tuple(islice(terms, count)))
            for setting, count in zip(plan.settings, plan.term_counts)
        ),
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
