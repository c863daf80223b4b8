"""Noisy-gate composition, closed-form witness expectations and thresholds.

A noisy two-qubit gate is modelled as the same single-qubit noise channel
on both lines before and after the gate,

    M = (N_2 ⊗ N_2) ∘ U ∘ (N_1 ⊗ N_1),

with independent strengths q1 (pre) and q2 (post).  In Pauli transfer
matrices (PTMs), 16 Tr[W_U C_M] = 8 - <R_U, (D_2 ⊗ D_2) R_U (D_1 ⊗ D_1)>, and
each noise PTM D is an integer polynomial in x = q, or s = sqrt(1 - gamma) for
damping, so :func:`closed_form` is 1/2 - T(x1, x2)/16 for an integer table T
per gate and noise.  :func:`noisy_gate` composes the same D(x) numerically, so
the selftest checks both against the Kraus composition, the independent route.

Thresholds are the sign changes of slices of T (pre-only, post-only or equal
strengths), integer polynomials whose roots a Sturm chain isolates exactly,
including the two-root window of CZ under equal dephasing, where high noise
becomes detectable again because dephasing commutes with CZ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import dropwhile
from math import sqrt
from operator import not_
from typing import IO, Iterable, NamedTuple

import numpy as np

from .channels import (
    KrausChannel,
    _check_unit_interval,
    _gate_ptm,
    _noisy_gate_channel,
    amplitude_damping,
    bit_flip,
    dephasing,
    depolarising,
)
from .serialize import fmt12, round12
from .witness import GATE_NAMES, expectation, gate_witness

# kind -> (single-qubit constructor, PTM coefficients D[k] in the Pauli order I, X, Y, Z,
# stacked as one (k, 4, 4) integer array)
_NOISES = {kind: (make, np.array(d)) for kind, (make, d) in {
    "depolarising": (depolarising, (np.eye(4, dtype=int), -np.diag([0, 1, 1, 1]))),
    "dephasing": (dephasing, (np.eye(4, dtype=int), -2 * np.diag([0, 1, 1, 0]))),
    "bitflip": (bit_flip, (np.eye(4, dtype=int), -2 * np.diag([0, 0, 1, 1]))),
    "amplitude_damping": (amplitude_damping, (np.outer([1, 0, 0, 1], [1, 0, 0, 0]),
                                              np.diag([0, 1, 1, 0]), np.outer([0, 0, 0, 1], [-1, 0, 0, 1]))),
}.items()}
NOISE_KINDS = tuple(_NOISES)
THRESHOLD_MODES = ("before_only", "after_only", "equal")


def _check_gate(gate: str) -> str:
    name = gate.upper()
    if name not in GATE_NAMES:
        raise ValueError(f"gate must be one of {GATE_NAMES}, got {gate!r}")
    return name


def _check_kind(kind: str) -> str:
    if kind not in NOISE_KINDS:
        raise ValueError(f"noise kind must be one of {NOISE_KINDS}, got {kind!r}")
    return kind


@dataclass(frozen=True)
class NoiseSpec:
    """Noise kind plus pre-gate (q1) and post-gate (q2) strengths."""

    kind: str
    q1: float
    q2: float

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        _check_unit_interval("q1", self.q1)
        _check_unit_interval("q2", self.q2)


class SweepRow(NamedTuple):
    q1: float
    q2: float
    value: float
    detected: bool


def single_qubit_noise(kind: str, q: float) -> KrausChannel:
    return _NOISES[_check_kind(kind)][0](q)


def noisy_gate(gate: str, noise: NoiseSpec) -> KrausChannel:
    """(N_2 ⊗ N_2) ∘ gate ∘ (N_1 ⊗ N_1) with at most 16 Kraus operators; their order
    and gauge are not part of the contract, so compare Choi states, not Kraus lists.
    The noise PTMs come from the ``_NOISES`` coefficients that the closed forms use.
    """
    pre, post = (_noise_ptm(noise.kind, q) for q in (noise.q1, noise.q2))
    return _noisy_gate_channel(_check_gate(gate), pre, post)


def _noise_ptm(kind: str, q: float) -> np.ndarray:
    """Single-qubit noise PTM D(x) = sum_k x^k D[k] from ``_NOISES``, x = q, or sqrt(1 - q)."""
    x = sqrt(1.0 - q) if kind == "amplitude_damping" else q
    d = _NOISES[kind][1]
    return np.dot([x**k for k in range(len(d))], d.reshape(len(d), 16)).reshape(4, 4)


def closed_form(gate: str, kind: str, q1: float, q2: float) -> float:
    """Analytic Tr[W_gate C_M] for the noisy gate with strengths (q1, q2)."""
    name, kind = _check_gate(gate), _check_kind(kind)
    _check_unit_interval("q1", q1)
    _check_unit_interval("q2", q2)
    return _closed_form(name, kind, q1, q2, sqrt)


def _closed_form(name: str, kind: str, q1, q2, sqrt):
    """``closed_form`` unvalidated, on floats (``sqrt=math.sqrt``) or arrays (``np.sqrt``)."""
    if kind == "amplitude_damping":
        q1, q2 = sqrt(1.0 - q1), sqrt(1.0 - q2)
    total = 0.0
    for row in _horner_rows(name, kind):  # Horner's rule: x1 outside, each row in x2 inside
        inner = 0.0
        for c in row:
            inner = inner * q2 + c
        total = total * q1 + inner
    return 0.5 - total / 16.0


@cache
def _table(name: str, kind: str) -> tuple[tuple[int, ...], ...]:
    """T[a][b] = <R_U, DD[b] R_U DD[a]>, the integer coefficient of x1^a x2^b in <R_U, R_M>,
    where D(x) = sum_k x^k D[k] and DD[m] = sum_{k+l=m} D[k] ⊗ D[l]; built on first use."""
    r_u = np.rint(r := _gate_ptm(name)).astype(int)  # a signed permutation
    if not np.abs(r - r_u).max() <= 1e-12:
        raise ValueError(f"the {name} PTM is not an integer matrix")
    d = _NOISES[kind][1]
    dd = [sum(np.kron(a, d[m - k]) for k, a in enumerate(d) if 0 <= m - k < len(d))
          for m in range(2 * len(d) - 1)]
    return tuple(tuple(int(np.sum(r_u * (post @ r_u @ pre))) for post in dd) for pre in dd)


@cache
def _horner_rows(name: str, kind: str) -> tuple[tuple[float, ...], ...]:
    """``_table`` as float tuples, highest powers first, for ``_closed_form``; leading
    zeros are dropped, since they only add 0.0 to a 0.0 accumulator."""
    rows = (tuple(dropwhile(not_, map(float, reversed(row)))) for row in reversed(_table(name, kind)))
    return tuple(dropwhile(not_, rows))


def _slice_polynomial(gate: str, kind: str, mode: str) -> np.ndarray:
    """Integer coefficients, lowest first, of 16 times a slice in x = q, or s for damping:
    anti-diagonal sums of ``_table``, or one side noiseless at x = 0, or s = 1 for damping."""
    if mode not in THRESHOLD_MODES:
        raise ValueError(f"mode must be one of {THRESHOLD_MODES}, got {mode!r}")
    t = np.array(_table(gate, kind))
    if mode == "equal":
        coeffs = np.array([np.trace(t[::-1], k) for k in range(1 - len(t), len(t))])
    else:
        t = t.T if mode == "after_only" else t
        coeffs = t.sum(axis=1) if kind == "amplitude_damping" else t[:, 0]
    return 8 * (np.arange(len(coeffs)) == 0) - coeffs


def _crossings(coeffs: Iterable[int]) -> list[float]:
    """Ascending points of [0, 1] where a nonzero integer polynomial changes sign.

    Exact in ``Fraction`` arithmetic: roots at 0 and 1 are divided out and kept
    at odd multiplicity; a Sturm chain (Sturm 1829) counts the distinct roots in
    a dyadic cell, halved until it holds one, kept if the signs at its ends
    differ and bisected in floats on the square-free part to adjacent floats.
    """
    from numpy.polynomial import polynomial as P  # on first use: it costs import time and memory
    p = np.trim_zeros(np.array([Fraction(int(c)) for c in coeffs], dtype=object), "b")
    if not len(p):
        raise ValueError("the zero polynomial has no isolated roots")
    roots = []
    for end in (0, 1):
        odd = False
        while len(p) > 1 and P.polyval(end, p) == 0:
            p, odd = P.polydiv(p, [Fraction(-end), Fraction(1)])[0], not odd
        roots += [float(end)] * odd
    chain = [p, P.polyder(p)]
    while any(chain[-1]) and any(rem := -P.polydiv(chain[-2], chain[-1])[1]):
        chain.append(rem)

    def variations(x: Fraction) -> int:
        signs = [v > 0 for v in (P.polyval(x, c) for c in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    cells = [(Fraction(0), Fraction(1))]
    while cells:
        a, b = cells.pop()
        count = variations(a) - variations(b)
        if count > 1:
            m = (a + b) / 2
            while P.polyval(m, p) == 0:
                m = (a + m) / 2
            cells += [(a, m), (m, b)]
        elif count == 1 and (P.polyval(a, p) < 0) != (P.polyval(b, p) < 0):
            simple = P.polydiv(p, chain[-1])[0]  # p / gcd(p, p'): the same roots, all simple
            lo, hi, negative, pf = float(a), float(b), P.polyval(a, simple) < 0, simple.astype(float)
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (mid, hi) if (P.polyval(mid, pf) < 0) == negative else (lo, mid)
            roots.append(mid)
    return sorted(roots)


def threshold(gate: str, kind: str, mode: str) -> list[float]:
    """All sign-change points of the closed form along a one-parameter slice.

    ``mode`` selects the slice: pre-gate noise only, post-gate noise only, or
    equal strengths on both sides.  Roots are exact to the last float; a root
    where the expectation touches zero without crossing it is not reported.
    """
    roots = _crossings(_slice_polynomial(_check_gate(gate), _check_kind(kind), mode))
    return sorted(1.0 - s * s for s in roots) if kind == "amplitude_damping" else roots


def threshold_json_obj(gate: str, kind: str, mode: str, roots: Iterable[float]) -> dict:
    return {
        "gate": gate.lower(),
        "noise": kind,
        "mode": mode,
        "roots": [round12(r) for r in roots],
    }


def sweep(gate: str, kind: str, grid_points: int) -> list[SweepRow]:
    """Witness expectation on a uniform (q1, q2) grid over [0, 1]^2.

    Rows come out in row-major order (q1 outer, q2 inner); ``detected``
    is the strict sign test value < 0, so boundary zeros do not count.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    name, kind = _check_gate(gate), _check_kind(kind)
    q1, q2 = np.indices((grid_points, grid_points)).reshape(2, -1) / (grid_points - 1)
    values = _closed_form(name, kind, q1, q2, np.sqrt)
    return list(map(SweepRow._make, zip(q1.tolist(), q2.tolist(), values.tolist(), (values < 0).tolist())))


def write_sweep_csv(rows: Iterable[SweepRow], fh: IO[str]) -> None:
    """CSV with header q1,q2,value,detected and 12-significant-digit numbers."""
    coord = cache(fmt12)  # q1 and q2 repeat: format each distinct one once
    fh.write("q1,q2,value,detected\n")
    for q1, q2, value, detected in rows:
        fh.write(f"{coord(q1)},{coord(q2)},{fmt12(value)},{'true' if detected else 'false'}\n")


def sweep_json_obj(gate: str, kind: str, rows: Iterable[SweepRow]) -> dict:
    coord = cache(round12)
    return {
        "gate": gate.lower(),
        "noise": kind,
        "rows": [{"q1": coord(q1), "q2": coord(q2), "value": round12(value), "detected": detected}
                 for q1, q2, value, detected in rows],
    }


def numeric_expectation(gate: str, noise: NoiseSpec) -> float:
    """Numeric route: build the noisy gate as a channel, then Tr[W C_M]."""
    return expectation(gate_witness(gate), noisy_gate(gate, noise))
