"""Noisy-gate composition, closed-form witness expectations and sweeps.

A noisy two-qubit gate is modelled as the same single-qubit noise channel
on both lines before and after the gate,

    M = (N_2 ⊗ N_2) ∘ U ∘ (N_1 ⊗ N_1),

with independent strengths q1 (pre) and q2 (post).  In Pauli transfer
matrices (PTMs), 16 Tr[W_U C_M] = 8 - <R_U, (D_2 ⊗ D_2) R_U (D_1 ⊗ D_1)>, and
each noise PTM D is an integer polynomial in x = q, or s = sqrt(1 - gamma) for
damping, so :func:`closed_form` is 1/2 - T(x1, x2)/16 for the integer table T
of the gate and noise in :mod:`ruwitness.thresholds`.  :func:`noisy_gate`
composes the same D(x) numerically, so the selftest checks both against the
Kraus composition, the independent route.

The thresholds, the sign changes of slices of T, live in
:mod:`ruwitness.thresholds`, which needs no numpy; this module re-exports
them with the gate and noise names, so closed forms, sweeps and thresholds
read one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, dropwhile, islice, repeat
from math import sqrt
from operator import not_
from typing import IO, Iterable, NamedTuple

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
from .serialize import _fmt12_column, _round12_column
from .thresholds import (  # noqa: F401  (the names, modes and thresholds are re-exported)
    GATE_NAMES,
    NOISE_KINDS,
    THRESHOLD_MODES,
    _TABLES,
    _check_gate,
    _check_kind,
    threshold,
    threshold_json_obj,
)
from .witness import expectation, gate_witness

# kind -> (single-qubit constructor, PTM coefficients D[k] in the Pauli order I, X, Y, Z,
# stacked as one (k, 4, 4) integer array), in the order of NOISE_KINDS
_NOISES = {kind: (make, np.array(d)) for kind, (make, d) in {
    "depolarising": (depolarising, (np.eye(4, dtype=int), -np.diag([0, 1, 1, 1]))),
    "dephasing": (dephasing, (np.eye(4, dtype=int), -2 * np.diag([0, 1, 1, 0]))),
    "bitflip": (bit_flip, (np.eye(4, dtype=int), -2 * np.diag([0, 0, 1, 1]))),
    "amplitude_damping": (amplitude_damping, (np.outer([1, 0, 0, 1], [1, 0, 0, 0]),
                                              np.diag([0, 1, 1, 0]), np.outer([0, 0, 0, 1], [-1, 0, 0, 1]))),
}.items()}


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
    """(N_2 ⊗ N_2) ∘ gate ∘ (N_1 ⊗ N_1), checked CP and TP now; it keeps its PTM, its Choi
    matrix is built on first read of ``choi`` (under damping, by the CP check), and its at
    most 16 Kraus operators on first read of ``kraus``, in an order and gauge that are not
    part of the contract (compare Choi states).  A Pauli noise is checked CP on its Pauli
    probabilities, with no Choi matrix.  The noise PTMs come from the ``_NOISES``
    coefficients, to which a test pins the closed forms' literal tables.
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
def _horner_rows(name: str, kind: str) -> tuple[tuple[float, ...], ...]:
    """The integer table as float tuples, highest powers first, for ``_closed_form``;
    leading zeros are dropped, since they only add 0.0 to a 0.0 accumulator."""
    rows = (tuple(dropwhile(not_, map(float, reversed(row)))) for row in reversed(_TABLES[name, kind]))
    return tuple(dropwhile(not_, rows))


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
