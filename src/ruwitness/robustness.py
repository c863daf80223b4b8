"""Noisy-gate composition, closed-form witness expectations and thresholds.

A noisy two-qubit gate is modelled as the same single-qubit noise channel
on both lines before and after the gate,

    M = (N_2 ⊗ N_2) ∘ U ∘ (N_1 ⊗ N_1),

with independent strengths q1 (pre) and q2 (post).  For each of the four
noise kinds and both gates, :func:`closed_form` evaluates the analytic
witness expectation Tr[W_U C_M]; the selftest checks it against both
:func:`noisy_gate` (Pauli transfer matrices) and the first-principles
Kraus composition on a dense grid, the master validation of every formula.

Thresholds are the sign changes of one-parameter slices (pre-only, post-only,
or equal strengths), each an integer polynomial in q, or s = sqrt(1 - gamma),
whose roots a Sturm chain isolates exactly.  This covers the monotone cases
and the two-root window of the CZ gate under equal dephasing, where high
noise becomes detectable again because dephasing commutes with CZ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import sqrt
from typing import IO, Iterable

import numpy as np

from .channels import (
    KrausChannel,
    _check_unit_interval,
    _noisy_gate_channel,
    amplitude_damping,
    bit_flip,
    dephasing,
    depolarising,
)
from .serialize import fmt12, round12
from .witness import expectation, gate_witness

NOISE_KINDS = ("depolarising", "dephasing", "bitflip", "amplitude_damping")
GATE_NAMES = ("CNOT", "CZ")
THRESHOLD_MODES = ("before_only", "after_only", "equal")

_NOISE_CONSTRUCTORS = {
    "depolarising": depolarising,
    "dephasing": dephasing,
    "bitflip": bit_flip,
    "amplitude_damping": amplitude_damping,
}


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


@dataclass(frozen=True)
class SweepRow:
    q1: float
    q2: float
    value: float
    detected: bool


def single_qubit_noise(kind: str, q: float) -> KrausChannel:
    return _NOISE_CONSTRUCTORS[_check_kind(kind)](q)


def noisy_gate(gate: str, noise: NoiseSpec) -> KrausChannel:
    """(N_2 ⊗ N_2) ∘ gate ∘ (N_1 ⊗ N_1) with at most 16 Kraus operators; their order
    and gauge are not part of the contract, so compare Choi states, not Kraus lists.
    """
    pre, post = (single_qubit_noise(noise.kind, q) for q in (noise.q1, noise.q2))
    return _noisy_gate_channel(_check_gate(gate), pre, post)


def closed_form(gate: str, kind: str, q1: float, q2: float) -> float:
    """Analytic Tr[W_gate C_M] for the noisy gate with strengths (q1, q2).

    Depolarising noise gives the same expression for both gates, and bit
    flip on CNOT coincides with dephasing on CNOT; the remaining cases are
    gate-specific.
    """
    name = _check_gate(gate)
    _check_kind(kind)
    _check_unit_interval("q1", q1)
    _check_unit_interval("q2", q2)
    return _closed_form(name, kind, q1, q2, sqrt)


def _closed_form(name: str, kind: str, q1, q2, sqrt):
    """``closed_form`` unvalidated, on floats (``sqrt=math.sqrt``) or arrays (``np.sqrt``)."""
    if kind == "depolarising":
        b1 = 1.0 - 0.75 * q1
        b2 = 1.0 - 0.75 * q2
        s = (
            16.0 * b1 * b1 * b2 * b2
            + 2.0 * q1 * b1 * q2 * b2
            + q1 * q1 * q2 * b2
            + q1 * b1 * q2 * q2
            + (5.0 / 16.0) * q1 * q1 * q2 * q2
        )
        return 0.5 - s / 16.0

    if kind in ("dephasing", "bitflip") and name == "CNOT":
        return 0.5 - ((1 - q1) ** 2 * (1 - q2) ** 2 + q1 * q2 * (1 - q1 * q2))

    if kind == "dephasing":  # CZ
        return 0.5 - (1 - q1 - q2 + 2 * q1 * q2) ** 2

    if kind == "bitflip":  # CZ
        return 0.5 - (1 - q1) ** 2 * (1 - q2) ** 2

    # amplitude damping; q1, q2 play the role of gamma_1, gamma_2
    g1 = 1.0 - q1
    g2 = 1.0 - q2
    if name == "CNOT":
        core = (1.0 + sqrt(g1 * g2) * (1.0 + sqrt(g1) + sqrt(g2))) ** 2 + q1 * g1 * q2 * g2
        return 0.5 - core / 16.0
    return 0.5 - (1.0 + sqrt(g1 * g2)) ** 4 / 16.0


def _slice_polynomial(gate: str, kind: str, mode: str) -> np.ndarray:
    """Integer coefficients, lowest first, of 16 times a slice in x = q, or s for damping.

    Read off the closed form at the nodes x = k/8, where every input and square
    root is exact, and checked at eight more; a miss raises ``ArithmeticError``.
    """
    if mode not in THRESHOLD_MODES:
        raise ValueError(f"mode must be one of {THRESHOLD_MODES}, got {mode!r}")
    pre, post = {"before_only": (1, 0), "after_only": (0, 1), "equal": (1, 1)}[mode]
    xs = np.arange(17) / 16  # nodes k/8 at even indices, checks at odd ones
    qs = 1.0 - xs * xs if kind == "amplitude_damping" else xs
    ys = 16.0 * _closed_form(gate, kind, pre * qs, post * qs, np.sqrt)
    coeffs = np.rint(np.linalg.solve(np.vander(xs[::2], increasing=True), ys[::2]))
    miss = np.max(np.abs(np.polyval(coeffs[::-1], xs[1::2]) - ys[1::2]))
    if not miss <= 1e-9:
        raise ArithmeticError(f"{gate} {kind} {mode} slice is not an integer polynomial (miss {miss:.3g})")
    return coeffs.astype(int)


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
    name = _check_gate(gate)
    _check_kind(kind)
    q1, q2 = np.indices((grid_points, grid_points)).reshape(2, -1) / (grid_points - 1)
    values = _closed_form(name, kind, q1, q2, np.sqrt)
    return [SweepRow(a, b, v, v < 0) for a, b, v in zip(q1.tolist(), q2.tolist(), values.tolist())]


def write_sweep_csv(rows: Iterable[SweepRow], fh: IO[str]) -> None:
    """CSV with header q1,q2,value,detected and 12-significant-digit numbers."""
    coord = cache(fmt12)  # q1 and q2 repeat: format each distinct one once
    fh.write("q1,q2,value,detected\n")
    for row in rows:
        flag = "true" if row.detected else "false"
        fh.write(f"{coord(row.q1)},{coord(row.q2)},{fmt12(row.value)},{flag}\n")


def sweep_json_obj(gate: str, kind: str, rows: Iterable[SweepRow]) -> dict:
    coord = cache(round12)
    return {
        "gate": gate.lower(),
        "noise": kind,
        "rows": [
            {
                "q1": coord(r.q1),
                "q2": coord(r.q2),
                "value": round12(r.value),
                "detected": r.detected,
            }
            for r in rows
        ],
    }


def numeric_expectation(gate: str, noise: NoiseSpec) -> float:
    """Numeric route: build the noisy gate as a channel, then Tr[W C_M]."""
    return expectation(gate_witness(gate), noisy_gate(gate, noise))
