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
strengths), integer polynomials whose roots a Sturm chain on Python ints
isolates exactly, including the two-root window of CZ under equal dephasing,
where high noise becomes detectable again because dephasing commutes with CZ.
Each root comes back as the float nearest to it, and exact integer signs at
the two floats that bracket it, and at their midpoint, certify that float.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, dropwhile, islice, repeat, zip_longest
from math import gcd, nextafter, sqrt, ulp
from operator import ne, not_
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
from .serialize import _fmt12_column, _round12_column, round12
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


def _slice_polynomial(gate: str, kind: str, mode: str) -> list[int]:
    """Integer coefficients, lowest first, of 16 times a slice in x = q, or s for damping:
    anti-diagonal sums of ``_table``, or one side noiseless at x = 0, or s = 1 for damping."""
    if mode not in THRESHOLD_MODES:
        raise ValueError(f"mode must be one of {THRESHOLD_MODES}, got {mode!r}")
    t = _table(gate, kind)
    if mode == "equal":
        coeffs = [0] * (2 * len(t) - 1)
        for a, row in enumerate(t):
            for b, c in enumerate(row):
                coeffs[a + b] += c
    else:
        rows = zip(*t) if mode == "after_only" else t
        coeffs = [sum(row) if kind == "amplitude_damping" else row[0] for row in rows]
    return [8 - coeffs[0]] + [-c for c in coeffs[1:]]


def _crossings(coeffs: Iterable[int]) -> list[float]:
    """Ascending points of [0, 1] where a nonzero integer polynomial changes sign.

    Exact on Python ints: roots at 0 and 1 are divided out by synthetic division
    and kept at odd multiplicity; a Sturm chain (Sturm 1829) of primitive
    pseudo-remainders counts the distinct roots in a dyadic cell, halved until it
    holds one, which is kept if the signs at its ends differ.  Each kept root is
    the float nearest to it, ties to even, certified by exact signs at floats.
    """
    p = list(dropwhile(not_, map(int, reversed(list(coeffs)))))  # highest power first
    if not p:
        raise ValueError("the zero polynomial has no isolated roots")
    odd0 = odd1 = False
    while len(p) > 1 and not p[-1]:  # a root at 0
        p, odd0 = p[:-1], not odd0
    while len(p) > 1 and not sum(p):  # a root at 1: synthetic division by x - 1
        p, odd1 = list(accumulate(p[:-1])), not odd1
    roots = [0.0] * odd0 + [1.0] * odd1
    if len(p) == 1:
        return roots
    sturm = [p, [c * k for c, k in zip(p, range(len(p) - 1, 0, -1))]]
    while rem := _pseudo_divmod(sturm[-2], sturm[-1])[1]:
        sturm.append(_primitive([-c for c in rem]))
    # p / gcd(p, p'): the same roots, all simple; in floats, for the root estimates, scaled
    # by one power of two below its largest coefficient, so that no coefficient overflows
    simple = _pseudo_divmod(p, sturm[-1])[0] if len(sturm[-1]) > 1 else p
    scale = 1 << max(map(int.bit_length, simple))
    simple = [c / scale for c in simple]

    cells = [(_sturm_point(sturm, (0, 1)), _sturm_point(sturm, (1, 1)))]
    while cells:
        (a, va, a_positive), (b, vb, b_positive) = left, right = cells.pop()
        if va - vb > 1:
            m = _midpoint(a, b)
            while not _value(p, m):
                m = _midpoint(a, m)
            middle = _sturm_point(sturm, m)
            cells += [(left, middle), (middle, right)]
        elif va - vb == 1 and a_positive != b_positive:
            roots.append(_round_root(p, a, b, a_positive, _estimate(simple, a[0] / a[1], b[0] / b[1])))
    return sorted(roots)


# Exact points are pairs (n, d) for n/d, d a power of two; polynomials are int lists,
# highest power first.


def _value(poly: list[int], x: tuple[int, int]) -> int:
    """d^deg * poly(n/d) for x = (n, d): the sign of poly at n/d, by Horner's rule on ints."""
    n, d = x
    v, scale = 0, 1
    for c in poly:
        v, scale = v * n + c * scale, scale * d
    return v


def _midpoint(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    d = max(a[1], b[1])
    return a[0] * (d // a[1]) + b[0] * (d // b[1]), 2 * d


def _sturm_point(chain: list[list[int]], x: tuple[int, int]) -> tuple[tuple[int, int], int, bool]:
    """x, the sign variations of the chain at x and whether chain[0] is positive there."""
    values = [_value(c, x) for c in chain]
    signs = [v > 0 for v in values if v]
    return x, sum(map(ne, signs, signs[1:])), values[0] > 0


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with |lc(b)|^(deg a - deg b + 1) a = q b + r and deg r < deg b, the leading
    zeros of r dropped; the factor is positive, so r has the signs of the true remainder."""
    lead, sign = abs(b[0]), 1 if b[0] > 0 else -1
    q, r = [], list(a)
    for i in range(len(a) - len(b) + 1):
        c = sign * r[i]
        q = [lead * x for x in q] + [c]
        r[i:] = [lead * x - c * y for x, y in zip_longest(r[i:], b, fillvalue=0)]
    return q, list(dropwhile(not_, r[len(q):]))


def _primitive(poly: list[int]) -> list[int]:
    """poly divided by the gcd of its coefficients, a positive factor."""
    g = gcd(*poly)
    return [c // g for c in poly]


def _estimate(poly: list[float], lo: float, hi: float) -> float:
    """A float near the one sign change of poly in (lo, hi), by Newton's method; a step
    that leaves the bracket kept by float signs is replaced by bisection."""
    negative = _horner(poly, lo)[0] < 0
    x = 0.5 * (lo + hi)
    for _ in range(100):
        f, df = _horner(poly, x)
        if not f:
            break
        lo, hi = (x, hi) if (f < 0) == negative else (lo, x)
        step = x - f / df if df else hi
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:  # lo and hi are adjacent floats
                break
        elif step == x:
            break
        x = step
    return x


def _horner(poly: list[float], x: float) -> tuple[float, float]:
    f = df = 0.0
    for c in poly:
        f, df = f * x + c, df * x + f
    return f, df


def _round_root(p: list[int], a: tuple[int, int], b: tuple[int, int], a_positive: bool, x: float) -> float:
    """The float nearest the one root of p in the cell (a, b), ties to even, where p is
    positive at a if ``a_positive`` and changes sign once in (a, b).

    Floats from the estimate x outwards, 1, 2, 4, ... ulps, then by bisection, are
    signed exactly until two adjacent floats lo < hi bracket the root; the exact sign
    at their midpoint then picks the nearer one.
    """
    step = ulp(x)
    while (lo := a[0] / a[1]) != (hi := b[0] / b[1]):
        if nextafter(lo, hi) == hi:
            m = _midpoint(lo.as_integer_ratio(), hi.as_integer_ratio())
            if a[0] * m[1] >= m[0] * a[1]:  # a is the midpoint, rounded down to lo
                return hi
            if m[0] * b[1] >= b[0] * m[1]:
                return lo
            if not (v := _value(p, m)):
                return m[0] / m[1]  # an exact tie: int division rounds half to even
            return hi if (v > 0) == a_positive else lo
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        if not (v := _value(p, point := x.as_integer_ratio())):
            return x
        if (v > 0) == a_positive:
            a, x = point, x + step
        else:
            b, x = point, x - step
        step *= 2
    return lo


def threshold(gate: str, kind: str, mode: str) -> list[float]:
    """All sign-change points of the closed form along a one-parameter slice.

    ``mode`` selects the slice: pre-gate noise only, post-gate noise only, or
    equal strengths on both sides.  Each root is the float nearest to the exact
    root, ties to even (for damping, 1 - s*s of the nearest float s, since the
    slice is a polynomial in s = sqrt(1 - gamma)); a root where the expectation
    touches zero without crossing it is not reported.
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
    fields = zip(q1.tolist(), q2.tolist(), values.tolist(), (values < 0).tolist())
    return list(map(tuple.__new__, repeat(SweepRow), fields))


_CSV_BLOCK_ROWS = 4096


def write_sweep_csv(rows: Iterable[SweepRow], fh: IO[str]) -> None:
    """CSV with header q1,q2,value,detected and 12-significant-digit numbers.

    Written column by column, one join per block of rows, so that memory does not
    grow with the grid: each distinct q1, q2 and value of a block is formatted
    once, with ``fmt12``'s digits from one numpy pass per column, and ``detected``
    prints by its truth value.
    """
    fh.write("q1,q2,value,detected\n")
    rows = iter(rows)
    while block := list(islice(rows, _CSV_BLOCK_ROWS)):
        q1, q2, value, detected = zip(*block)
        lines = zip(_fmt12_column(q1), repeat(","), _fmt12_column(q2), repeat(","), _fmt12_column(value),
                    map((",false\n", ",true\n").__getitem__, map(bool, detected)))
        fh.write("".join(chain.from_iterable(lines)))


def sweep_json_obj(gate: str, kind: str, rows: Iterable[SweepRow]) -> dict:
    """The JSON object of a sweep, one record per row, numbers rounded to 12 digits.

    Built column by column: each distinct q1, q2 and value is rounded once, with
    ``round12``'s floats from one numpy pass per column, so equal numbers share
    one float.
    """
    q1, q2, value, detected = list(zip(*rows)) or [()] * 4
    return {
        "gate": gate.lower(),
        "noise": kind,
        "rows": [{"q1": a, "q2": b, "value": v, "detected": d}
                 for a, b, v, d in zip(*map(_round12_column, (q1, q2, value)), detected)],
    }


def numeric_expectation(gate: str, noise: NoiseSpec) -> float:
    """Numeric route: build the noisy gate as a channel, then Tr[W C_M]."""
    return expectation(gate_witness(gate), noisy_gate(gate, noise))
