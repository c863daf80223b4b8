"""Witness operators that detect non-separable random-unitary channels.

For a two-qubit unitary U the witness is ``W = beta*1 - C_U`` where C_U is
the Choi state of U and beta is the largest squared overlap between C_U
and the Choi vector of any product unitary,

    beta = max_{V,W} |Tr[(V ⊗ W)^dag U]|^2 / 16 .

Tr[W C_M] >= 0 holds for every separable random-unitary (SRU) channel M,
so a negative measured expectation certifies that a channel is not SRU.
beta has a closed form (Kraus & Cirac, PRA 63, 062309 (2001)): in the
magic basis product unitaries are SO(4) rotations, and by Horn's theorem
the diagonals of SO(4) fill the hull of the even-sign vectors, so beta is
a maximum over eight sign vectors applied to the square roots of the
eigenvalues of U_B^T U_B.  For both CNOT and CZ it is 1/2.

The module also decomposes witnesses over the 256 four-qubit Pauli strings.
The decomposition type, the minimal measurement-setting cover and the gate
witnesses' exact terms, rationals with denominator 64, live in the numpy-free
:mod:`ruwitness.cover`; this module re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .channels import KrausChannel, gate_matrix
from .cover import (  # noqa: F401  (every name re-exported)
    _SETTING_INDEX, ALL_SETTINGS, GATE_BETA, GATE_DECOMPOSITIONS, IDENTITY_STRING, PauliDecomposition,
    _candidates, _coeff_str, _cover_problem, best_cover, cover_exists, minimal_settings, setting_covers)
from .linalg import _pauli_components, pauli_basis
from .thresholds import GATE_NAMES, _check_gate

# The magic basis as columns, scaled by sqrt(2) so that the change of basis
# is exact in floating point.  In the normalised basis every V ⊗ W with
# V, W in SU(2) is a real rotation in SO(4).
_MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]])
# The sign vectors with an even number of minus signs, the vertices of the
# set of SO(4) diagonals (Horn 1954).
_EVEN_SIGNS = np.array([s for s in product((1, -1), repeat=4) if s.count(-1) % 2 == 0])


@dataclass(frozen=True, eq=False)
class Witness:
    """Detection operator beta*1 - C_U for a two-qubit unitary U."""

    beta: float
    unitary: np.ndarray
    matrix: np.ndarray
    gate: str | None = None

    def __post_init__(self) -> None:
        for field in ("unitary", "matrix"):
            a = np.array(getattr(self, field), dtype=complex)
            a.setflags(write=False)
            object.__setattr__(self, field, a)

    @cached_property
    def _decomposition(self) -> PauliDecomposition:
        return _decompose(self.matrix)


def build_witness(
    u: np.ndarray, beta: float | None = None, gate: str | None = None
) -> Witness:
    """Assemble beta*1 - C_U, with the exact offset unless ``beta`` is given.

    An offset below the exact one is not a witness: some product unitary
    would then give a negative expectation.  It raises ``ValueError``.
    """
    exact = beta_sru(u)
    if beta is None:
        beta = exact
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta!r}")
    if beta < exact - 1e-12:
        raise ValueError(f"beta {beta!r} is below the exact offset {exact!r}")
    # beta_sru has checked that u is a finite unitary, so its Choi state
    # (1/4) sum_k rowvec(A_k) rowvec(A_k)^dag is the projector onto rowvec(U)/2
    u = np.asarray(u, dtype=complex)
    v = u.reshape(1, 16) / 2
    matrix = beta * np.eye(16) - np.einsum("ki,kj->ij", v, v.conj())
    return Witness(beta=float(beta), unitary=u, matrix=matrix, gate=gate)


@lru_cache(maxsize=None)
def gate_witness(gate: str) -> Witness:
    """The CNOT or CZ witness, its certified beta = 1/2 and exact Pauli terms, built once per gate."""
    name = _check_gate(gate)
    if gate != name:
        return gate_witness(name)
    w = build_witness(gate_matrix(name), GATE_BETA, gate=name)
    vars(w)["_decomposition"] = GATE_DECOMPOSITIONS[name]
    return w


def beta_sru(
    u: np.ndarray, restarts: int = 200, tol: float = 1e-8, seed: int = 0
) -> float:
    """Maximal squared overlap of C_U with product-unitary Choi vectors, exactly.

    In the magic basis U becomes U_B = O_1 D O_2 with O_1, O_2 in SO(4) and
    D = diag(lambda), where lambda^2 are the eigenvalues of U_B^T U_B and
    prod(lambda) = det U.  The overlap is |sum_k Q_kk lambda_k|^2 / 16 over
    Q in SO(4), and Horn's theorem puts the diagonals of SO(4) in the hull
    of the even-sign vectors, so the maximum sits on one of those eight.
    The value is exact up to round-off; ``restarts``, ``tol`` and ``seed``
    are accepted for compatibility and do not change it.  The last value is
    kept, so :func:`build_witness` rechecking its caller's beta is free.
    """
    u = np.asarray(u, dtype=complex)
    return _exact_beta(u.shape, u.tobytes())


@lru_cache(maxsize=1)
def _exact_beta(shape: tuple[int, ...], data: bytes) -> float:
    u = np.frombuffer(data, dtype=complex).reshape(shape)
    if (
        u.shape != (4, 4)
        or not np.isfinite(u).all()
        or not np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10  # NaN fails too
    ):
        raise ValueError("beta_sru expects a finite 4x4 unitary")
    ub = _MAGIC.conj().T @ u @ _MAGIC
    lam = np.sqrt(np.linalg.eigvals(ub.T @ ub))
    if (np.prod(lam) * np.conj(np.linalg.det(u))).real < 0:
        lam[0] = -lam[0]
    # lam carries the factor 2 of the unnormalised basis, hence 64 = 16 * 2^2
    return min(float(np.max(np.abs(_EVEN_SIGNS @ lam)) ** 2 / 64), 1.0)


# A coefficient snaps to k/64 only at round-off level; dressed Clifford
# witnesses sit within 1.1e-16 of their 64ths.  One that snaps to 0 is dropped.
_SNAP_TOL = 1e-12


def pauli_decompose(w: Witness) -> PauliDecomposition:
    """Expand the witness over Pauli strings, coeff(P) = Tr[P W]/16, once per witness."""
    return w._decomposition


def _decompose(matrix: np.ndarray) -> PauliDecomposition:
    coeffs = _pauli_components(matrix) / 16.0
    if not np.max(np.abs(coeffs.imag)) <= 1e-12:  # NaN fails too
        raise ArithmeticError("witness matrix is not Hermitian")
    c = coeffs.real
    snapped = np.rint(c * 64)
    exact = np.abs(c - snapped / 64) <= _SNAP_TOL
    kept = np.flatnonzero(~exact | (snapped != 0))
    columns = (kept.tolist(), c[kept].tolist(), snapped[kept].tolist(), exact[kept].tolist())
    pairs = pauli_basis(2)[0]  # component 16 p + q is string pairs[p] + pairs[q]
    return PauliDecomposition(tuple(
        (Fraction(int(k), 64) if e else v, pairs[i >> 4] + pairs[i & 15]) for i, v, k, e in zip(*columns)
    ))


def expectation(w: Witness, m: KrausChannel) -> float:
    """Tr[W C_M] = beta - (1/16) sum_k |Tr[A_k U^dag]|^2.

    Negative means the channel is detected as non-SRU.
    """
    if m.dim != 4:
        raise ValueError(f"channel must act on dimension 4, got {m.dim}")
    t = np.einsum("kij,ij->k", m.kraus, w.unitary.conj())
    return float(w.beta - np.sum(t.real**2 + t.imag**2) / 16.0)
