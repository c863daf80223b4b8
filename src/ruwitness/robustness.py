"""Noisy-gate composition, closed-form witness expectations and thresholds.

A noisy two-qubit gate is modelled as the same single-qubit noise channel
on both lines before and after the gate,

    M = (N_2 ⊗ N_2) ∘ U ∘ (N_1 ⊗ N_1),

with independent strengths q1 (pre) and q2 (post).  For each of the four
noise kinds and both gates, :func:`closed_form` evaluates the analytic
witness expectation Tr[W_U C_M]; the selftest checks it against both
:func:`noisy_gate` (Pauli transfer matrices) and the first-principles
Kraus composition on a dense grid, the master validation of every formula.

Threshold extraction works on one-parameter slices (pre-only, post-only,
or equal strengths) by a dense sign scan plus bisection, so the same code
path covers the monotone cases and the two-root window of the CZ gate
under equal dephasing, where high noise becomes detectable again because
dephasing commutes with CZ.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt
from numbers import Integral, Real
from typing import Callable, IO, Iterable

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
from .witness import Witness, expectation, gate_witness

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


def _slice_function(gate: str, kind: str, mode: str) -> Callable[[float], float]:
    if mode == "before_only":
        return lambda t: closed_form(gate, kind, t, 0.0)
    if mode == "after_only":
        return lambda t: closed_form(gate, kind, 0.0, t)
    if mode == "equal":
        return lambda t: closed_form(gate, kind, t, t)
    raise ValueError(f"mode must be one of {THRESHOLD_MODES}, got {mode!r}")


def _bisect(f: Callable[[float], float], lo: float, hi: float, xtol: float) -> float:
    flo = f(lo)
    mid = 0.5 * (lo + hi)
    while hi - lo > xtol and lo < mid < hi:  # adjacent floats have no midpoint between them
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def scan_roots(
    f: Callable[[float], float], scan_points: int = 1000, xtol: float = 1e-9
) -> list[float]:
    """Sign-change points of ``f`` on [0, 1]: dense scan plus bisection.

    Returns the ascending roots; an empty list means the sign never
    changes, which is a valid outcome, not an error.  ``scan_points`` must be
    an integer >= 1 and ``xtol`` a finite number > 0.
    """
    if isinstance(scan_points, bool) or not isinstance(scan_points, Integral) or scan_points < 1:
        raise ValueError(f"scan_points must be an integer >= 1, got {scan_points!r}")
    if not (isinstance(xtol, Real) and 0 < xtol < inf):
        raise ValueError(f"xtol must be a finite number > 0, got {xtol!r}")
    ts = [i / scan_points for i in range(scan_points + 1)]
    values = [f(t) for t in ts]
    roots: list[float] = []
    for (t0, v0), (t1, v1) in zip(zip(ts, values), zip(ts[1:], values[1:])):
        if v0 == 0.0:
            roots.append(t0)
        elif (v0 < 0) != (v1 < 0) and v1 != 0.0:
            roots.append(_bisect(f, t0, t1, xtol))
    if values[-1] == 0.0:
        roots.append(ts[-1])
    return roots


def threshold(
    gate: str, kind: str, mode: str, scan_points: int = 1000, xtol: float = 1e-9
) -> list[float]:
    """All sign-change points of the closed form along a one-parameter slice.

    ``mode`` selects the slice: pre-gate noise only, post-gate noise only,
    or equal strengths on both sides.
    """
    f = _slice_function(_check_gate(gate), _check_kind(kind), mode)
    return scan_roots(f, scan_points=scan_points, xtol=xtol)


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
    rows = []
    for i in range(grid_points):
        q1 = i / (grid_points - 1)
        for j in range(grid_points):
            q2 = j / (grid_points - 1)
            value = closed_form(name, kind, q1, q2)
            rows.append(SweepRow(q1=q1, q2=q2, value=value, detected=value < 0))
    return rows


def write_sweep_csv(rows: Iterable[SweepRow], fh: IO[str]) -> None:
    """CSV with header q1,q2,value,detected and 12-significant-digit numbers."""
    fh.write("q1,q2,value,detected\n")
    for row in rows:
        flag = "true" if row.detected else "false"
        fh.write(f"{fmt12(row.q1)},{fmt12(row.q2)},{fmt12(row.value)},{flag}\n")


def sweep_json_obj(gate: str, kind: str, rows: Iterable[SweepRow]) -> dict:
    return {
        "gate": gate.lower(),
        "noise": kind,
        "rows": [
            {
                "q1": round12(r.q1),
                "q2": round12(r.q2),
                "value": round12(r.value),
                "detected": r.detected,
            }
            for r in rows
        ],
    }


def numeric_expectation(gate: str, noise: NoiseSpec, w: Witness | None = None) -> float:
    """Numeric route: build the noisy gate as a channel, then Tr[W C_M]."""
    if w is None:
        w = gate_witness(gate)
    return expectation(w, noisy_gate(gate, noise))
