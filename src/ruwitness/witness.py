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

The module also decomposes witnesses over the 256 four-qubit Pauli strings
(coefficients come out as exact rationals with denominator 64 for the two
gate witnesses) and finds a provably minimal set of local measurement
settings covering the decomposition.  A measurement setting is a 4-letter
string over {X, Y, Z} assigning one measured axis per qubit; it covers a
Pauli string iff every non-identity factor matches the assigned axis.  One
exhaustive branch-and-bound answers both the minimal-cover and the
cover-of-size-k questions; it finishes on the 16-term CNOT/CZ witnesses in
milliseconds and on generic ones (sqrt(SWAP), Haar-random unitaries) too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import ceil

import numpy as np

from .channels import KrausChannel, gate_matrix
from .linalg import _pauli_components, pauli_basis

GATE_NAMES = ("CNOT", "CZ")
IDENTITY_STRING = "IIII"

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
    # beta_sru has checked that u is a finite unitary, so its Choi state is the
    # rank-one projector onto rowvec(U)/2, the expression choi_of evaluates
    u = np.asarray(u, dtype=complex)
    v = u.reshape(1, 16) / 2
    matrix = beta * np.eye(16) - np.einsum("ki,kj->ij", v, v.conj())
    return Witness(beta=float(beta), unitary=u, matrix=matrix, gate=gate)


@lru_cache(maxsize=None)
def gate_witness(gate: str) -> Witness:
    """The CNOT or CZ witness with its certified offset beta = 1/2, built once per gate."""
    name = gate.upper()
    if name not in GATE_NAMES:
        raise ValueError(f"gate must be one of {GATE_NAMES}, got {gate!r}")
    return build_witness(gate_matrix(name), 0.5, gate=name) if gate == name else gate_witness(name)


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


@dataclass(frozen=True)
class PauliDecomposition:
    """Nonzero Pauli-string coefficients of a witness, in lexicographic order.

    Coefficients are exact ``Fraction`` values whenever they lie within
    round-off (1e-12) of a rational with denominator 64, floats otherwise.
    """

    terms: tuple[tuple[Fraction | float, str], ...]

    @cached_property
    def _problem(self) -> tuple[list[int], list[list[int]], int]:
        return _cover_problem(self)

    @cached_property
    def _cover(self) -> tuple[str, ...]:
        masks, cand_for, max_gain = self._problem
        return tuple(ALL_SETTINGS[j] for j in best_cover(masks, cand_for, max_gain, len(cand_for)))

    def coefficient(self, string: str) -> Fraction | float:
        for coeff, s in self.terms:
            if s == string:
                return coeff
        return Fraction(0)

    def strings(self) -> tuple[str, ...]:
        return tuple(s for _, s in self.terms)

    def to_matrix(self) -> np.ndarray:
        strings, stack = pauli_basis(4)
        index = {s: i for i, s in enumerate(strings)}
        out = np.zeros((16, 16), dtype=complex)
        for coeff, s in self.terms:
            out += float(coeff) * stack[index[s]]
        return out

    def to_json_obj(self) -> list[dict]:
        return [{"coeff": _coeff_str(c), "string": s} for c, s in self.terms]


def _coeff_str(coeff: Fraction | float) -> str:
    if isinstance(coeff, Fraction) and 64 % coeff.denominator == 0:
        return f"{coeff.numerator * (64 // coeff.denominator)}/64"
    return repr(float(coeff))


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


# ---------------------------------------------------------------------------
# Minimal measurement-setting covers (exact branch-and-bound set cover)
# ---------------------------------------------------------------------------

ALL_SETTINGS = tuple("".join(axes) for axes in product("XYZ", repeat=4))


def setting_covers(setting: str, string: str) -> bool:
    """A setting covers a Pauli string iff non-identity factors match its axes."""
    return all(p == "I" or p == a for p, a in zip(string, setting))


_SETTING_INDEX = {s: j for j, s in enumerate(ALL_SETTINGS)}


def _cover_problem(decomp: PauliDecomposition) -> tuple[list[int], list[list[int]], int]:
    """Per-setting bitmasks of covered strings, each string's candidate settings
    and the most strings one setting covers.

    Bits follow a stable sort by identity count, fewest candidates first;
    of settings with equal masks only the smallest index stays a candidate.
    """
    strings = sorted((s for _, s in decomp.terms if s != IDENTITY_STRING), key=lambda s: s.count("I"))
    candidates = [_candidates(s) for s in strings]
    masks = [0] * len(ALL_SETTINGS)
    for i, c in enumerate(candidates):
        for j in c:
            masks[j] |= 1 << i
    first = {m: j for j, m in reversed(tuple(enumerate(masks)))}
    max_gain = max(m.bit_count() for m in masks)
    return masks, [[j for j in c if first[masks[j]] == j] for c in candidates], max_gain


@lru_cache(maxsize=None)
def _candidates(string: str) -> tuple[int, ...]:
    """Settings covering a string: an identity factor takes any axis, others fix their own."""
    if len(string) != 4 or not set(string) <= set("IXYZ"):
        raise ValueError(f"not a four-qubit Pauli string: {string!r}")
    axes = ("XYZ" if p == "I" else p for p in string)
    return tuple(_SETTING_INDEX["".join(a)] for a in product(*axes))


def best_cover(
    masks: list[int], cand_for: list[list[int]], max_gain: int, bound: int
) -> tuple[int, ...] | None:
    """The smallest cover of at most ``bound`` settings, or None if there is none.

    Exhaustive branch-and-bound: branch on the lowest uncovered string,
    which has the fewest covering settings because :func:`_cover_problem`
    orders strings by identity count, and prune a branch only when even
    covering ``max_gain`` strings (the largest mask's bit count) per
    further setting would exceed ``bound``.  Ties survive the pruning, so
    among minimum covers the smallest sorted index tuple wins.  A setting
    whose mask repeats a smaller index's is dropped: a minimum cover holds
    at most one of the two, and swapping in the smaller index gives a
    smaller sorted tuple.
    """
    universe = (1 << len(cand_for)) - 1
    best: tuple[int, ...] | None = None

    def rec(covered: int, chosen: list[int]) -> None:
        nonlocal best, bound
        if covered == universe:
            cover = tuple(sorted(chosen))
            if best is None or (len(cover), cover) < (len(best), best):
                best, bound = cover, len(cover)
            return
        remaining = (universe & ~covered).bit_count()
        if len(chosen) + ceil(remaining / max_gain) > bound:
            return
        for j in cand_for[(~covered & (covered + 1)).bit_length() - 1]:
            chosen.append(j)
            rec(covered | masks[j], chosen)
            chosen.pop()

    rec(0, [])
    return best


def cover_exists(decomp: PauliDecomposition, size: int) -> bool:
    """Whether ``size`` measurement settings suffice to cover the decomposition."""
    return best_cover(*decomp._problem, size) is not None


def minimal_settings(decomp: PauliDecomposition) -> tuple[str, ...]:
    """An exactly minimal measurement-setting cover of all non-identity strings.

    One exhaustive branch-and-bound (:func:`best_cover`) over the 81
    candidate settings certifies minimality.  Ties between equal-size
    covers break lexicographically on the sorted axis strings, so the
    output is reproducible.  The search finishes on generic witnesses too:
    52 terms for sqrt(SWAP), 226 for a Haar-random unitary.  The cover is
    computed once per decomposition and cached on it.
    """
    return decomp._cover


def expectation(w: Witness, m: KrausChannel) -> float:
    """Tr[W C_M] = beta - (1/16) sum_k |Tr[A_k U^dag]|^2.

    Negative means the channel is detected as non-SRU.
    """
    if m.dim != 4:
        raise ValueError(f"channel must act on dimension 4, got {m.dim}")
    t = np.einsum("kij,ij->k", m.kraus, w.unitary.conj())
    return float(w.beta - np.sum(t.real**2 + t.imag**2) / 16.0)
