"""Choi states and the three equivalent channel-overlap formulas.

For a channel M with input dimension d the Choi state is
``C_M = (M ⊗ id)[|alpha><alpha|]`` with ``|alpha> = (1/sqrt d) sum_k |k>|k>``.
For two-qubit channels C_M is a 16x16 density matrix whose qubits are
ordered A, B (channel output) then C, D (reference), big-endian.

The maximally entangled state factorises across the AC|BD split,
``|alpha>_ABCD = |alpha>_AC ⊗ |alpha>_BD``, and every separability
statement about random-unitary channels lives in that split.  The index
bijection between the two orderings is implemented once in
:func:`permute_qubits`; it is the single most error-prone piece of
bookkeeping in the whole construction, so it gets its own unit tests.

Overlap routes (all compute Tr[C_M C_L]):

* ``overlap_direct`` - trace of the product of the two Choi matrices;
* ``overlap_kraus``  - (1/d^2) sum_{k,l} |Tr[A_k^dag B_l]|^2;
* ``overlap_basis``  - (1/d^2) sum_{i,j} Tr[M(|i><j|) L(|j><i|)].

Their three-way agreement is enforced in the test suite and the selftest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import KrausChannel, _apply
from .linalg import DEFAULT_TOL, _validate_choi, hs_inner, partial_trace, real_part


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


def max_entangled(d: int) -> np.ndarray:
    """Unit vector (1/sqrt d) sum_k |k>|k> on a d*d space."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * (d + 1)] = 1.0 / np.sqrt(d)
    return v


def choi_of(ch: KrausChannel, tol: float = DEFAULT_TOL) -> ChoiState:
    """Choi state (M ⊗ id)[|alpha><alpha|] of a CPT channel.

    Uses the identity (A ⊗ 1)|alpha> = rowvec(A)/sqrt(d): the Choi matrix
    is (1/d) sum_k rowvec(A_k) rowvec(A_k)^dag.  A noisy gate keeps the
    matrix it was built from, validated at ``DEFAULT_TOL``; it is returned
    as is unless ``tol`` is stricter.
    """
    kept = vars(ch).get("_choi")
    if kept is not None and tol >= DEFAULT_TOL:
        return ChoiState(ch.dim, kept)
    d = ch.dim
    vecs = ch.kraus.reshape(ch.n_kraus, d * d) / np.sqrt(d)
    m = np.einsum("ki,kj->ij", vecs, vecs.conj())
    _validate_choi(m, d, tol)
    return ChoiState(d, m)


def purity(c: ChoiState) -> float:
    """Tr[C^2]; equals 1 exactly when the channel is unitary."""
    return real_part(np.einsum("ij,ji->", c.matrix, c.matrix), tol=1e-9)


def permute_qubits(state: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of a 2^n vector or 2^n x 2^n matrix.

    ``perm[k]`` names the original qubit that ends up at position k; e.g.
    ``perm=(0, 2, 1, 3)`` maps the A,B,C,D ordering to A,C,B,D, under which
    the d=4 maximally entangled vector factorises into two Bell pairs.
    """
    perm = tuple(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm!r} is not a permutation of 0..{n - 1}")
    state = np.asarray(state)
    if state.ndim == 1:
        return state.reshape([2] * n).transpose(perm).reshape(-1)
    if state.ndim == 2:
        axes = list(perm) + [n + p for p in perm]
        return state.reshape([2] * (2 * n)).transpose(axes).reshape(state.shape)
    raise ValueError("state must be a vector or a square matrix")


def overlap_direct(c1: ChoiState, c2: ChoiState) -> float:
    """Tr[C1 C2] for two Choi states (real since both are Hermitian PSD)."""
    if c1.dim_in != c2.dim_in:
        raise ValueError(f"dimension mismatch: {c1.dim_in} vs {c2.dim_in}")
    return real_part(hs_inner(c1.matrix, c2.matrix))


def overlap_kraus(m: KrausChannel, l: KrausChannel) -> float:
    """Tr[C_M C_L] from Kraus operators: (1/d^2) sum_{k,l} |Tr[A_k^dag B_l]|^2."""
    if m.dim != l.dim:
        raise ValueError(f"dimension mismatch: {m.dim} vs {l.dim}")
    t = np.einsum("kij,lij->kl", m.kraus.conj(), l.kraus)
    return float(np.sum(t.real**2 + t.imag**2) / m.dim**2)


def overlap_basis(m: KrausChannel, l: KrausChannel) -> float:
    """Tr[C_M C_L] from matrix-unit images: (1/d^2) sum_ij Tr[M(|i><j|) L(|j><i|)]."""
    if m.dim != l.dim:
        raise ValueError(f"dimension mismatch: {m.dim} vs {l.dim}")
    d = m.dim
    total = 0.0 + 0.0j
    for i in range(d):
        for j in range(d):
            e_ij = np.zeros((d, d), dtype=complex)
            e_ij[i, j] = 1.0
            total += np.trace(_apply(m, e_ij) @ _apply(l, e_ij.T))
    return real_part(total / d**2)


def apply_via_choi(c: ChoiState, rho: np.ndarray) -> np.ndarray:
    """Reconstruct the channel action from the Choi state.

    M(rho) = d * Tr_2[ C_M (1 ⊗ rho^T) ], the inverse direction of the
    isomorphism; used to cross-check Kraus application.
    """
    d = c.dim_in
    rho = np.asarray(rho, dtype=complex)
    m = c.matrix @ np.kron(np.eye(d), rho.T)
    return d * partial_trace(m, (d, d), keep=0)
