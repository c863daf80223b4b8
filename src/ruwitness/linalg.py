"""Dense complex linear algebra for few-qubit objects (dimensions 2 to 16).

Everything operates on plain numpy arrays (complex128, row-major).  The
qubit convention is big-endian package-wide: qubit A is the most
significant tensor factor, then B, C, D.  All functions are pure and never
mutate their inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator

import numpy as np

# Single default for the positivity and trace-preservation checks of
# channels.  Every construction in the package is exact up to double
# rounding, so one loose tolerance suffices; callers can override per call.
DEFAULT_TOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

for _m in PAULIS.values():
    _m.setflags(write=False)
del _m


def all_pauli_strings(n_qubits: int = 4) -> Iterator[str]:
    """All n-qubit Pauli strings in lexicographic order (IIII first)."""
    for labels in product("IXYZ", repeat=n_qubits):
        yield "".join(labels)


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


# The conjugated two-qubit Pauli stack, one flattened string per row, read-only
_CONJ_PAULI_ROWS = pauli_basis(2)[1].reshape(16, 16).conj()
_CONJ_PAULI_ROWS.setflags(write=False)


def _pauli_components(m: np.ndarray) -> np.ndarray:
    """Tr[m (P ⊗ Q)] for the 256 strings P ⊗ Q, entry 16 p + q as in :func:`all_pauli_strings`:
    m[(a c), (b d)] regrouped as y[(a b), (c d)] gives conj(P) y conj(Q)^T, since P^T = conj(P)."""
    y = m.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
    return (_CONJ_PAULI_ROWS @ y @ _CONJ_PAULI_ROWS.T).ravel()
