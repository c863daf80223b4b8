"""Quantum channels in Kraus form.

A channel is a completely positive trace-preserving (CPT) map stored as one
read-only complex ``(n_kraus, dim, dim)`` array of Kraus operators ``A_k``
with ``sum_k A_k^dag A_k = 1``; every function here reads that array whole,
with no loop over operators.  This module provides the gate set used by the
witness construction, the four standard single-qubit noise models, the
Kraus form of noisy gates given by their Pauli transfer matrices and a
seeded sampler for separable random-unitary channels.  It holds no channel
algebra: nothing in the pipeline tensors, composes or applies channels.

Conventions
-----------
* Gates use the big-endian qubit order: the control of CNOT/CZ is the most
  significant qubit.
* Kraus operators that are exactly the zero matrix are dropped on
  construction, and non-finite entries are rejected.  A Kraus list is CP by
  construction, so :func:`validate_cpt` checks the one property it can lack.
* Noisy gates are kept as their Pauli transfer matrices (PTMs), checked CP
  and TP when built; their Choi matrix is built on first read of ``choi`` (or
  by the CP check, when the PTM does not prove CP alone), and their at most 16
  Kraus operators on first read of ``kraus``.
* A Kraus list is only unique up to a unitary gauge, so channel equality
  is never defined entrywise on Kraus operators; compare Choi states
  instead, through ``tests/oracles.py::choi_of``.

Noise models (single qubit, strength ``q`` resp. ``gamma``):

* depolarising:  probabilities (1 - 3q/4, q/4, q/4, q/4) on (1, X, Y, Z)
* dephasing:     probabilities (1 - q, 0, 0, q)
* bit flip:      probabilities (1 - q, q, 0, 0)
* amplitude damping (not random-unitary):
      A1 = [[1, 0], [0, sqrt(1 - gamma)]],  A2 = [[0, sqrt(gamma)], [0, 0]]
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import _CONJ_PAULI_ROWS, DEFAULT_TOL, PAULI_X, PAULI_Z, pauli_basis

_SQRT2 = np.sqrt(2.0)
_EYE4, _E0, _CP_SHIFT = np.eye(4), np.eye(16)[0], DEFAULT_TOL * np.eye(16)  # noisy-gate checks
# (W ⊗ W)/16, W[a, b] = +1 if the one-qubit Paulis a, b (order I, X, Y, Z) commute, else -1
_W = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])
_PAULI_SIGNS = np.kron(_W, _W) / 16

_GATES = {
    "I": np.eye(2, dtype=complex),
    "X": PAULI_X,
    "Z": PAULI_Z,
    "H": (PAULI_X + PAULI_Z) / _SQRT2,
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
}

for _m in _GATES.values():
    _m.setflags(write=False)
del _m


def gate_matrix(name: str) -> np.ndarray:
    """Fixed unitary for a named gate (case-insensitive)."""
    key = name.upper() if isinstance(name, str) else None
    if key not in _GATES:
        raise ValueError(f"unknown gate {name!r}; expected one of {sorted(_GATES)}")
    return _GATES[key].copy()


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPT map as one read-only complex (n_kraus, dim, dim) array of Kraus operators.

    ``kraus`` may be given as any iterable of dim x dim matrices or as an
    (n, dim, dim) array; it is copied once, and exact-zero operators are dropped.
    """

    dim: int
    kraus: np.ndarray

    def __post_init__(self) -> None:
        ops = self.kraus if isinstance(self.kraus, np.ndarray) else list(self.kraus)
        ops = np.asarray(ops, dtype=complex)
        if ops.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"Kraus stack shape {ops.shape} does not match dim {self.dim}")
        if not np.isfinite(ops).all():
            raise ValueError("Kraus operators must have finite entries")
        ops = ops[ops.any(axis=(1, 2))]  # exact zeros carry no weight; the mask also copies
        if not len(ops):
            raise ValueError("channel needs at least one nonzero Kraus operator")
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary_channel expects a square matrix")
    return KrausChannel(u.shape[0], (u,))


def validate_cpt(ch: KrausChannel, tol: float = DEFAULT_TOL) -> bool:
    """Check the completeness relation ||sum A^dag A - 1||_max <= tol."""
    return bool(np.abs(_kraus_gram(ch.kraus) - np.eye(ch.dim)).max() <= tol)


def _kraus_gram(kraus: np.ndarray) -> np.ndarray:
    """sum_k A_k^dag A_k as one product m^dag m of the operators stacked as rows of m."""
    m = kraus.reshape(-1, kraus.shape[-1])
    return m.conj().T @ m


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def pauli_channel(p0: float, p1: float, p2: float, p3: float) -> KrausChannel:
    """Single-qubit mixture of Pauli conjugations with the given probabilities.

    Zero-probability terms are dropped, so e.g. ``pauli_channel(1, 0, 0, 0)``
    is the one-Kraus identity channel.
    """
    probs = np.array([p0, p1, p2, p3], dtype=float)
    if (probs < 0).any():
        raise ValueError(f"Pauli probabilities must be non-negative, got {probs.tolist()}")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError(f"Pauli probabilities must sum to 1, got {probs.sum()!r}")
    return KrausChannel(2, np.sqrt(probs)[:, None, None] * pauli_basis(1)[1])


def depolarising(q: float) -> KrausChannel:
    _check_unit_interval("q", q)
    return pauli_channel(1 - 0.75 * q, q / 4, q / 4, q / 4)


def dephasing(q: float) -> KrausChannel:
    _check_unit_interval("q", q)
    return pauli_channel(1 - q, 0.0, 0.0, q)


def bit_flip(q: float) -> KrausChannel:
    _check_unit_interval("q", q)
    return pauli_channel(1 - q, q, 0.0, 0.0)


def amplitude_damping(gamma: float) -> KrausChannel:
    _check_unit_interval("gamma", gamma)
    a1 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    a2 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(2, (a1, a2))


@lru_cache(maxsize=None)
def _gate_ptm(name: str) -> np.ndarray:
    """Pauli transfer matrix R_ij = Tr[P_i U P_j U^dag] / 4 of a named two-qubit gate."""
    u = gate_matrix(name)
    _, p = pauli_basis(2)
    r = np.einsum("iab,bc,jcd,ad->ij", p, u, p, u.conj()).real / 4
    r.setflags(write=False)
    return r


@dataclass(frozen=True, eq=False, init=False, repr=False)
class _PTMChannel(KrausChannel):
    """A two-qubit CPT map kept as its checked PTM; ``choi`` and ``kraus`` are built on first read.

    TP (row 0 of the PTM is e_0) is checked here, so every instance is TP; a caller whose
    check has already built the Choi matrix passes it in, as if read once.
    """

    ptm: np.ndarray

    def __init__(self, ptm: np.ndarray, choi: np.ndarray | None = None) -> None:
        if not np.abs(ptm[0] - _E0).max() <= DEFAULT_TOL:
            raise ValueError("channel is not trace preserving")
        ptm.setflags(write=False)
        vars(self).update(dim=4, ptm=ptm)  # frozen: no __setattr__
        if choi is not None:
            vars(self)["choi"] = choi

    @cached_property
    def choi(self) -> np.ndarray:
        """C = sum_ij R_ij P_i ⊗ P_j^T / 16, read-only."""
        return _ptm_choi(self.ptm)

    @cached_property
    def kraus(self) -> np.ndarray:
        """One operator per eigenpair (lam, v) of ``choi`` above round-off: sqrt(4 lam) unvec(v),
        row-major.  ``KrausChannel``'s checks are not run again: the checked ``choi`` is finite
        with unit trace, so the kept operators are finite, nonzero and at least one."""
        lam, vecs = np.linalg.eigh(self.choi)
        if lam[0] < -DEFAULT_TOL:
            raise ValueError("Choi matrix is not positive semidefinite")
        keep = lam > 1e-12  # round-off: dropping all of it moves the trace by at most 1.6e-11
        ops = (2 * (np.sqrt(lam[keep]) * vecs[:, keep])).T.reshape(-1, 4, 4)
        if not np.abs(_kraus_gram(ops) - _EYE4).max() <= DEFAULT_TOL:
            raise ValueError("channel is not trace preserving")
        ops.setflags(write=False)
        return ops


def _ptm_choi(r: np.ndarray) -> np.ndarray:
    """The read-only Choi matrix C = sum_ij R_ij P_i ⊗ P_j^T / 16 of a two-qubit PTM R."""
    x = pauli_basis(2)[1].reshape(16, 16).T @ r @ _CONJ_PAULI_ROWS  # P^T = conj(P)
    choi = x.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16) / 16
    choi.setflags(write=False)
    return choi


def _noisy_gate_channel(gate: str, r: np.ndarray) -> KrausChannel:
    """The noisy ``gate`` with two-qubit PTM R, checked now, Kraus stack on read.

    CP iff the smallest eigenvalue of the Choi matrix C is above -``DEFAULT_TOL``, then TP iff
    row 0 of R is e_0 (checked by ``_PTMChannel``).  When A = R_U^T R, the PTM of U^dag ∘ M, is
    diagonal (any Pauli noise: R_U is a signed permutation, so the off-diagonal zeros are exact),
    U^dag ∘ M is a Pauli channel and the eigenvalues of C are exactly its probabilities
    p = (W ⊗ W) diag(A)/16: no C, no factor.  Any other A forms C and tests C + ``DEFAULT_TOL`` 1
    for a (finite) Cholesky factor; C is kept.
    """
    a = _gate_ptm(gate).T @ r
    lam, choi = a.diagonal(), None
    if np.count_nonzero(a) == np.count_nonzero(lam):  # A is diagonal; off it, a NaN is nonzero
        # a NaN or infinity on diag(A) leaves p a NaN or -inf, unless it is A_00 = R_00 alone,
        # which fails the TP check below
        cp = (_PAULI_SIGNS @ lam).min() >= -DEFAULT_TOL
    else:
        choi = _ptm_choi(r)
        try:
            cp = np.isfinite(np.linalg.cholesky(choi + _CP_SHIFT)).all()
        except np.linalg.LinAlgError:
            cp = False
    if not cp:
        raise ValueError("Choi matrix is not positive semidefinite")
    return _PTMChannel(r, choi)  # checks TP


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian with phase fixing."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / _SQRT2
    q, r = np.linalg.qr(z)
    phase = np.diagonal(r).copy()
    phase /= np.abs(phase)
    return q * phase


def sample_sru(terms: int, seed: int = 0) -> KrausChannel:
    """Random separable random-unitary channel on two qubits.

    Kraus set is {sqrt(p_k) V_k ⊗ W_k} with Haar-random single-qubit
    unitaries and probabilities drawn uniformly from the simplex.
    Deterministic for a fixed seed.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(terms))
    kraus = tuple(
        np.sqrt(p) * np.kron(haar_unitary(2, rng), haar_unitary(2, rng)) for p in probs
    )
    return KrausChannel(4, kraus)
