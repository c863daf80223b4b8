"""Choi states of channels.

For a channel M with input dimension d the Choi state is
``C_M = (M ⊗ id)[|alpha><alpha|]`` with ``|alpha> = (1/sqrt d) sum_k |k>|k>``.
For two-qubit channels C_M is a 16x16 density matrix whose qubits are
ordered A, B (channel output) then C, D (reference), big-endian.

The maximally entangled state factorises across the AC|BD split,
``|alpha>_ABCD = |alpha>_AC ⊗ |alpha>_BD``, and every separability
statement about random-unitary channels lives in that split.  The shot
estimator forms C_M from the Kraus stack by the same identity and reads
the Born probabilities of its local settings off its Pauli components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .linalg import DEFAULT_TOL, _validate_choi


@dataclass(frozen=True, eq=False)
class ChoiState:
    """Choi density matrix of a channel with input dimension ``dim_in``."""

    dim_in: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        d2 = self.dim_in**2
        if m.shape != (d2, d2):
            raise ValueError(f"Choi matrix shape {m.shape} does not match dim {self.dim_in}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def choi_of(ch: KrausChannel, tol: float = DEFAULT_TOL) -> ChoiState:
    """Choi state (M ⊗ id)[|alpha><alpha|] of a CPT channel.

    Uses the identity (A ⊗ 1)|alpha> = rowvec(A)/sqrt(d): the Choi matrix
    is (1/d) sum_k rowvec(A_k) rowvec(A_k)^dag, validated at ``tol``.
    """
    d = ch.dim
    vecs = ch.kraus.reshape(ch.n_kraus, d * d) / np.sqrt(d)
    m = np.einsum("ki,kj->ij", vecs, vecs.conj())
    _validate_choi(m, d, tol)
    return ChoiState(d, m)
