"""Dense complex linear algebra for few-qubit objects (dimensions 2 to 16).

Everything operates on plain numpy arrays (complex128, row-major).  The
qubit convention is big-endian package-wide: qubit A is the most
significant tensor factor, then B, C, D.  All functions are pure and never
mutate their inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from typing import Iterator

import numpy as np

# Single default for Hermiticity / positivity / trace checks.  Every
# construction in the package is exact up to double rounding, so one loose
# tolerance suffices; callers can override per call.
DEFAULT_TOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

for _m in PAULIS.values():
    _m.setflags(write=False)
del _m


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor most significant."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    return reduce(np.kron, (np.asarray(f, dtype=complex) for f in factors))


def all_pauli_strings(n_qubits: int = 4) -> Iterator[str]:
    """All n-qubit Pauli strings in lexicographic order (IIII first)."""
    for labels in product("IXYZ", repeat=n_qubits):
        yield "".join(labels)


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_psd(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -tol.  Input must be Hermitian."""
    if not is_hermitian(a, tol):
        raise ValueError("is_psd expects a Hermitian matrix")
    eigs = np.linalg.eigvalsh(np.asarray(a))
    return bool(eigs[0] >= -tol)


def is_density_matrix(rho: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    rho = np.asarray(rho)
    if not is_hermitian(rho, tol):
        return False
    if abs(np.trace(rho) - 1) > tol:
        return False
    return is_psd(rho, tol)


def partial_trace(mat: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator on dims[0]*dims[1]."""
    d1, d2 = dims
    t = np.asarray(mat).reshape(d1, d2, d1, d2)
    if keep == 0:
        return np.einsum("abcb->ac", t)
    if keep == 1:
        return np.einsum("abad->bd", t)
    raise ValueError("keep must be 0 or 1")


def _validate_choi(m: np.ndarray, d: int, tol: float, lowest: float | None = None) -> None:
    """Raise unless ``m`` is the Choi matrix of a CPT map on dimension ``d``.

    ``lowest`` is the smallest eigenvalue of ``m`` when the caller already
    holds its spectrum; otherwise it is computed here.  PSD is checked before
    the trace, since dropping negative eigenvalues also moves the trace.
    """
    if not is_hermitian(m, tol):
        raise ValueError("Choi matrix is not Hermitian")
    if (np.linalg.eigvalsh(m)[0] if lowest is None else lowest) < -tol:
        raise ValueError("Choi matrix is not positive semidefinite")
    if abs(np.trace(m).real - 1.0) > tol:
        raise ValueError("Choi matrix does not have unit trace")
    marginal = partial_trace(m, (d, d), keep=1)
    if np.max(np.abs(marginal - np.eye(d) / d)) > tol:
        raise ValueError("channel is not trace preserving (bad Choi marginal)")


@lru_cache(maxsize=4)
def pauli_basis(n_qubits: int = 4) -> tuple[tuple[str, ...], np.ndarray]:
    """All Pauli strings of a given length and their stacked read-only matrices.

    The stack is built by broadcasting, one outer product with the four
    one-qubit Paulis per added qubit, in the order of
    :func:`all_pauli_strings`; entry for entry it equals the Kronecker
    product of each string's factors.
    """
    if n_qubits < 1:
        raise ValueError("empty Pauli string")
    stack = one = np.stack(list(PAULIS.values()))
    for _ in range(n_qubits - 1):
        d = stack.shape[1] * 2
        stack = np.einsum("aij,bkl->abikjl", stack, one).reshape(-1, d, d)
    stack.setflags(write=False)
    return tuple(all_pauli_strings(n_qubits)), stack


def _pauli_components(m: np.ndarray) -> np.ndarray:
    """Tr[m (P ⊗ Q)] for the 256 strings P ⊗ Q, entry 16 p + q as in :func:`all_pauli_strings`:
    m[(a c), (b d)] regrouped as y[(a b), (c d)] gives conj(P) y conj(Q)^T, since P^T = conj(P)."""
    p = pauli_basis(2)[1].reshape(16, 16).conj()
    y = m.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
    return (p @ y @ p.T).ravel()
