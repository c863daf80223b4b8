"""Shot-based simulation of the local-measurement detection procedure.

The experiment prepares the four-qubit state |alpha>_AC |alpha>_BD, sends
qubits A and B through the channel under test, and measures all four
qubits along one Pauli axis each (a "setting").  Every Pauli string in the
witness decomposition is estimated from the one setting assigned to it
(the first covering setting in the minimal cover), and the witness
expectation is the coefficient-weighted sum of the term estimates; the
identity term enters exactly and is never sampled.

Measurement is realised by exact Born probabilities followed by one
multinomial draw per setting.  A setting measures 16 Pauli strings (its
axes on a subset of the qubits, I elsewhere), and its Born vector is the
Walsh-Hadamard transform of their components Tr[C (P ⊗ Q)] on the Choi
state C, read off a noisy gate's PTM up to signs, or else off its Kraus stack.

Sampling reads one random stream per estimate, ``default_rng(seed)``, and
draws the settings in order from it, so setting i's counts depend on the
draws of the settings before it; the output is deterministic for a given
seed and settings order.  Before the draw each Born probability is put on a
grid of step 2^-40 (``rint(max(p, 0) * 2^40)``, then each row is
normalised).  The grid snaps round-off dust to exactly 0 and absorbs
last-bit differences, so two routes to the same Born vectors give the same
counts, and a certain outcome keeps probability exactly 1.  It moves a
probability by at most 8 * 2^-40 (about 7e-12; about 5e-13 on typical rows)
from the normalised Born vector, far below any standard error the estimator
reports.

The Choi state of a channel M is ``C_M = (M ⊗ id)[|alpha><alpha|]`` with
``|alpha> = (1/2) sum_k |k>|k>``, a 16x16 density matrix whose qubits are
ordered A, B (channel output) then C, D (reference), big-endian.  Since
``|alpha>_ABCD = |alpha>_AC ⊗ |alpha>_BD``, every separability statement
about random-unitary channels lives in the AC|BD split.

The term assignment, the sign rows and the indices of each setting's
strings are compiled once into a measurement plan kept on the witness's
cached decomposition.
Settings must be distinct: a repeated setting would count its terms twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from numbers import Integral

import numpy as np

from .channels import _E0, KrausChannel, _PTMChannel
from .cover import IDENTITY_STRING, PauliDecomposition, minimal_settings, setting_covers
from .linalg import DEFAULT_TOL, _pauli_components, all_pauli_strings
from .witness import Witness, pauli_decompose

_AXIS_CODE = {"X": 1, "Y": 2, "Z": 3}  # index of the letter in "IXYZ"
_BITS = (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1  # bits of qubits A to D
# Row ``mask``: the +-1 outcome signs of a string that measures the qubits in ``mask``.
_H16 = 1.0 - 2.0 * (_BITS @ _BITS.T % 2)
_TRANSPOSE_SIGNS = np.array([(-1) ** q.count("Y") for q in all_pauli_strings(2)])  # Q^T = s_Q Q


# numpy's multinomial draw takes its count as a C int64
_MAX_SHOTS = 2**63 - 1
# sampled Born probabilities are multiples of 2^-40 before normalisation
_GRID = 2.0**40


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
        if not 1 <= self.shots_per_setting <= _MAX_SHOTS:
            raise ValueError(f"shots_per_setting must be in [1, {_MAX_SHOTS}], got {self.shots_per_setting}")
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


def _substrings(settings: tuple[str, ...]) -> np.ndarray:
    """Per setting, entry ``mask``: the index of the string with the setting's
    axes on the qubits in ``mask`` and I elsewhere."""
    for setting in settings:
        if len(setting) != 4 or any(a not in _AXIS_CODE for a in setting):
            raise ValueError(f"setting must be 4 letters over XYZ, got {setting!r}")
    codes = np.array([[_AXIS_CODE[a] for a in s] for s in settings], dtype=int).reshape(-1, 4)
    return (codes * [64, 16, 4, 1]) @ _BITS.T


def _outcome_probabilities(ch: KrausChannel, substrings: np.ndarray) -> np.ndarray:
    """Born vectors of the settings whose strings are ``substrings``.

    A channel kept as its PTM R has components Tr[C (P ⊗ Q)] = R_PQ s_Q, with Q^T = s_Q Q;
    else they come from (1/4) sum_k rowvec(A_k) rowvec(A_k)^dag, Hermitian and PSD by
    construction.  Trace preservation needs Tr[C (1 ⊗ Q)] = [Q = 1].
    """
    if ch.dim != 4:
        raise ValueError(f"channel must act on dimension 4, got {ch.dim}")
    if isinstance(ch, _PTMChannel):
        components = (ch.ptm * _TRANSPOSE_SIGNS).ravel()
    else:
        m = ch.kraus.reshape(-1, 16)
        components = _pauli_components(m.T @ m.conj() / 4)
    if not np.max(np.abs(components[:16] - _E0)) <= DEFAULT_TOL:
        raise ValueError("channel is not trace preserving")
    return components.real[substrings] @ _H16 / 16


@dataclass(frozen=True)
class _MeasurementPlan:
    """The channel-independent part of an estimate, for one witness and settings.

    ``strings`` lists the non-identity terms grouped by the setting they are
    assigned to, ``term_counts[i]`` of them for setting ``i``.  Row ``t`` of
    ``signs`` holds the +-1 eigenvalue products of term ``t`` over the 16
    outcomes and ``term_setting[t]`` its setting; ``combined[i]`` is the
    coefficient-weighted sum of setting ``i``'s sign rows.  Row ``i`` of
    ``substrings`` indexes the 16 strings setting ``i`` measures.
    """

    settings: tuple[str, ...]
    identity: float
    strings: tuple[str, ...]
    term_counts: tuple[int, ...]
    term_setting: np.ndarray
    signs: np.ndarray
    combined: np.ndarray
    combined_sq: np.ndarray
    substrings: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def _compile_plan(decomp: PauliDecomposition, settings: tuple[str, ...]) -> _MeasurementPlan:
    """Assign every non-identity term to its first covering setting and precompute."""
    if len(set(settings)) != len(settings):
        raise ValueError(f"measurement settings repeat: {settings!r}")
    substrings = _substrings(settings)
    assigned = []
    for coeff, string in decomp.terms:
        if string != IDENTITY_STRING:
            index = next((i for i, s in enumerate(settings) if setting_covers(s, string)), None)
            if index is None:
                raise ValueError(f"no setting covers Pauli string {string!r}")
            assigned.append((index, float(coeff), string))
    assigned.sort(key=lambda a: a[0])  # stable: decomposition order within a setting
    measured = np.array([[p != "I" for p in string] for _, _, string in assigned], dtype=bool)
    signs = _H16[measured.reshape(-1, 4) @ [8, 4, 2, 1]]
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
        substrings=substrings,
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


def _sample_counts(born: np.ndarray, shot_plan: ShotPlan) -> np.ndarray:
    """Outcome counts, row by row, from one stream on the 2^-40 probability grid."""
    p = np.rint(np.maximum(born, 0.0) * _GRID)  # snaps round-off dust and last bits
    p /= p.sum(axis=1, keepdims=True)
    # numpy draws the rows in order from the one generator
    return np.random.default_rng(shot_plan.seed).multinomial(shot_plan.shots_per_setting, p)


def _estimate(w, ch, settings, shot_plan):
    """Shared estimator core; ``shot_plan`` None means exact Born weights.

    Sampled counts are only divided by the shot number after the dot
    products, which keeps deterministic-outcome channels bit-exact.
    """
    plan = _plan_for(w, settings)
    born = _outcome_probabilities(ch, plan.substrings)
    if shot_plan is None:
        weights, shots = born, None
    else:
        shots = shot_plan.shots_per_setting
        weights = _sample_counts(born, shot_plan)
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

    Deterministic for a fixed plan and settings order: the settings draw
    in order from the one stream ``default_rng(plan.seed)``, each from its
    Born vector on a 2^-40 grid, which moves a probability by at most
    8 * 2^-40 and makes the counts insensitive to round-off in the Born
    vectors (module docstring).  The standard error combines the sample
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
