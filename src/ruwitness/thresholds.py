"""Gate and noise names, the closed forms' integer tables and exact thresholds.

For a gate U and noise M, 16 Tr[W_U C_M] = 8 - <R_U, (D_2 ⊗ D_2) R_U (D_1 ⊗ D_1)>
in Pauli transfer matrices (PTMs), and each noise PTM D is an integer
polynomial in x = q, or s = sqrt(1 - gamma) for damping.  So the witness
expectation is 1/2 - T(x1, x2)/16 for one integer table T per gate and noise,
held here as literals; the tests derive them again from the PTMs.

Thresholds are the sign changes of slices of T (pre-only, post-only or equal
strengths), integer polynomials whose roots a Sturm chain on Python ints
isolates exactly, including the two-root window of CZ under equal dephasing,
where high noise becomes detectable again because dephasing commutes with CZ.
Each root comes back as the float nearest to it, found by bisecting float bit
patterns with exact integer signs; the signs at the two floats that bracket it,
and at their midpoint, certify that float.  No float arithmetic enters before
that rounding, and each slice's roots are kept once found.

The module needs only the standard library, so thresholds run without numpy.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache
from itertools import accumulate, dropwhile, zip_longest
from math import gcd
from operator import ne, not_
from struct import pack, unpack

from .serialize import round12

GATE_NAMES = ("CNOT", "CZ")
NOISE_KINDS = ("depolarising", "dephasing", "bitflip", "amplitude_damping")
THRESHOLD_MODES = ("before_only", "after_only", "equal")

# (gate, kind) -> T, where T[a][b] = <R_U, DD[b] R_U DD[a]> is the coefficient of
# x1^a x2^b in <R_U, R_M>, for D(x) = sum_k x^k D[k] and DD[m] = sum_{k+l=m} D[k] ⊗ D[l]
_TABLES = {
    ("CNOT", "depolarising"): ((16, -24, 9), (-24, 38, -14), (9, -14, 5)),
    ("CNOT", "dephasing"): ((16, -32, 16), (-32, 80, -32), (16, -32, 0)),
    ("CNOT", "bitflip"): ((16, -32, 16), (-32, 80, -32), (16, -32, 0)),
    ("CNOT", "amplitude_damping"): ((1, 0, 0, 0, 0), (0, 2, 2, 0, 0), (0, 2, 2, 2, 0),
                                    (0, 0, 2, 2, 0), (0, 0, 0, 0, 1)),
    ("CZ", "depolarising"): ((16, -24, 9), (-24, 38, -14), (9, -14, 5)),
    ("CZ", "dephasing"): ((16, -32, 16), (-32, 96, -64), (16, -64, 64)),
    ("CZ", "bitflip"): ((16, -32, 16), (-32, 64, -32), (16, -32, 16)),
    ("CZ", "amplitude_damping"): ((1, 0, 0, 0, 0), (0, 4, 0, 0, 0), (0, 0, 6, 0, 0),
                                  (0, 0, 0, 4, 0), (0, 0, 0, 0, 1)),
}


def _check_gate(gate: str) -> str:
    name = gate.upper() if isinstance(gate, str) else None
    if name not in GATE_NAMES:
        raise ValueError(f"gate must be one of {GATE_NAMES}, got {gate!r}")
    return name


def _check_kind(kind: str) -> str:
    if kind not in NOISE_KINDS:
        raise ValueError(f"noise kind must be one of {NOISE_KINDS}, got {kind!r}")
    return kind


def _slice_polynomial(gate: str, kind: str, mode: str) -> list[int]:
    """Integer coefficients, lowest first, of 16 times a slice in x = q, or s for damping:
    anti-diagonal sums of the table, or one side noiseless at x = 0, or s = 1 for damping."""
    t = _TABLES[gate, kind]
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
    the float nearest to it, ties to even, found from its cell by exact signs alone.
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
            roots.append(_round_root(p, a, b, a_positive))
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


def _round_root(p: list[int], a: tuple[int, int], b: tuple[int, int], a_positive: bool) -> float:
    """The float nearest the one root of p in the cell (a, b), ties to even, where p is
    positive at a if ``a_positive`` and changes sign once in (a, b).

    The bit patterns of the non-negative floats order them, so bisecting the patterns
    between the cell's ends, each probe signed exactly, brackets the root by two adjacent
    floats lo < hi in at most about 64 steps; the exact sign at their midpoint then picks
    the nearer one.
    """
    lo_bits, hi_bits = unpack("<2q", pack("<2d", a[0] / a[1], b[0] / b[1]))
    while hi_bits - lo_bits > 1:
        n = (lo_bits + hi_bits) // 2
        x = unpack("<d", pack("<q", n))[0]
        if not (v := _value(p, point := x.as_integer_ratio())):
            return x
        if (v > 0) == a_positive:
            a, lo_bits = point, n
        else:
            b, hi_bits = point, n
    lo, hi = a[0] / a[1], b[0] / b[1]
    m = _midpoint(lo.as_integer_ratio(), hi.as_integer_ratio())
    if a[0] * m[1] >= m[0] * a[1]:  # a is the midpoint, rounded down to lo
        return hi
    if m[0] * b[1] >= b[0] * m[1]:
        return lo
    if not (v := _value(p, m)):
        return m[0] / m[1]  # an exact tie: int division rounds half to even
    return hi if (v > 0) == a_positive else lo


def threshold(gate: str, kind: str, mode: str) -> list[float]:
    """All sign-change points of the closed form along a one-parameter slice.

    ``mode`` selects the slice: pre-gate noise only, post-gate noise only, or
    equal strengths on both sides.  Each root is the float nearest to the exact
    root, ties to even (for damping, 1 - s*s of the nearest float s, since the
    slice is a polynomial in s = sqrt(1 - gamma)); a root where the expectation
    touches zero without crossing it is not reported.  The arguments are checked
    first; each of the 24 slices is then solved once per process, and every call
    returns a fresh list.
    """
    gate, kind = _check_gate(gate), _check_kind(kind)
    if mode not in THRESHOLD_MODES:
        raise ValueError(f"mode must be one of {THRESHOLD_MODES}, got {mode!r}")
    return list(_slice_roots(gate, kind, mode))


@cache
def _slice_roots(gate: str, kind: str, mode: str) -> tuple[float, ...]:
    roots = _crossings(_slice_polynomial(gate, kind, mode))
    return tuple(sorted(1.0 - s * s for s in roots) if kind == "amplitude_damping" else roots)


def threshold_json_obj(gate: str, kind: str, mode: str, roots: Iterable[float]) -> dict:
    return {
        "gate": gate.lower(),
        "noise": kind,
        "mode": mode,
        "roots": [round12(r) for r in roots],
    }
