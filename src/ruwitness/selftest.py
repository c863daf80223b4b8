"""Invariant registry run by the ``selftest`` CLI command and, one pytest
case per check, by ``tests/test_acceptance.py``.

Each check raises through ``_require``, which ``python -O`` cannot strip;
the runner prints one PASS/FAIL line per check.  The registry pins the
ten invariants of what the package runs: Pauli orthogonality, CPT
validity, CZ-dephasing commutation, golden decompositions, minimal setting
covers, exact beta, SRU non-negativity, reference thresholds, estimator
exactness and closed forms versus the PTM and Kraus routes.  Routes that
exist only to cross-check these (Choi states, the three overlap formulas,
the channel action read off a Choi state, Kraus algebra) live in
``tests/oracles.py`` and are checked by the test suite.  ``closed_form`` and
``noisy_gate`` share ``_gate_ptm`` and the ``_NOISES`` coefficients, so only
the Kraus route (here in ``check_closed_forms`` and in
``tests/oracles.py::kraus_noisy_gate``) is independent of them; the
CZ-dephasing check reads its noise PTM off the Kraus constructor too.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product
from typing import Callable

import numpy as np

from . import channels, cover, linalg, protocol, robustness, witness
from .serialize import fmt12


def _require(condition: bool, detail: object = "") -> None:
    if not condition:
        raise AssertionError(detail)


def check_pauli_orthogonality() -> None:
    _, stack = linalg.pauli_basis(4)
    flat = stack.reshape(256, 256)
    gram = flat.conj() @ flat.T
    _require(np.max(np.abs(gram - 16 * np.eye(256))) < 1e-12)


def check_constructors_cpt() -> None:
    for q in (0.0, 0.3, 1.0):
        for make in (channels.depolarising, channels.dephasing,
                     channels.bit_flip, channels.amplitude_damping):
            _require(channels.validate_cpt(make(q), 1e-10))
    for gate in ("CNOT", "CZ", "H"):
        _require(channels.validate_cpt(channels.unitary_channel(channels.gate_matrix(gate))))
    for seed in range(50):
        _require(channels.validate_cpt(channels.sample_sru(1 + seed % 6, seed)))
    for gate in robustness.GATE_NAMES:
        for kind in robustness.NOISE_KINDS:
            ch = robustness.noisy_gate(gate, robustness.NoiseSpec(kind, 0.35, 0.15))
            _require(channels.validate_cpt(ch, 1e-10))


def check_cz_dephasing_commutation() -> None:
    # R_CZ (D ⊗ D) = (D ⊗ D) R_CZ, with D_ij = Tr[P_i N(P_j)] / 2 from the Kraus operators
    r_cz = channels._gate_ptm("CZ")
    _, p = linalg.pauli_basis(1)
    for q in (0.1, 0.5, 0.9):
        k = channels.dephasing(q).kraus
        d = np.einsum("iab,kbc,jcd,kad->ij", p, k, p, k.conj()).real / 2
        dd = np.kron(d, d)
        _require(np.max(np.abs(r_cz @ dd - dd @ r_cz)) < 1e-12, q)


def check_golden_decompositions() -> None:
    for gate in witness.GATE_NAMES:
        w = witness.gate_witness(gate)
        d = witness.pauli_decompose(w)
        _require(len(d.terms) == 16)
        _require(d.coefficient("IIII") == Fraction(7, 16))
        _require(all(abs(c) == Fraction(1, 16) for c, s in d.terms if s != "IIII"))
        _require(np.max(np.abs(d.to_matrix() - w.matrix)) < 1e-12)


def check_minimal_settings() -> None:
    for gate in witness.GATE_NAMES:
        d = witness.pauli_decompose(witness.gate_witness(gate))
        chosen = cover.minimal_settings(d)
        _require(len(chosen) == 9)
        # no 8-cover, twice: 9 terms whose covering settings are pairwise
        # disjoint, and the exhaustive search at bound 8
        packing = d._packing
        sets = [{c for c in cover.ALL_SETTINGS if cover.setting_covers(c, s)} for s in packing]
        _require(len(packing) == 9 and set(packing) <= set(d.strings()) - {cover.IDENTITY_STRING})
        _require(sum(map(len, sets)) == len(set().union(*sets)))
        _require(cover.best_cover(*d._problem, 8) is None)
        _require(not cover.cover_exists(d, 8))
        for _, s in d.terms:
            if s != "IIII":
                _require(any(cover.setting_covers(c, s) for c in chosen))


def check_beta_invariants() -> None:
    for name in witness.GATE_NAMES:
        u = channels.gate_matrix(name)
        t0 = time.perf_counter()
        b = witness.beta_sru(u)
        _require(time.perf_counter() - t0 < 5.0, name)
        _require(abs(np.trace(u)) ** 2 / 16 - 1e-12 <= b <= 1.0, (name, b))
        _require(abs(b - 0.5) < 1e-12, (name, b))


def check_sru_nonnegativity() -> None:
    witnesses = [witness.gate_witness(g) for g in witness.GATE_NAMES]
    for seed in range(1000):
        ch = channels.sample_sru(1 + seed % 6, seed=seed)
        for w in witnesses:
            _require(witness.expectation(w, ch) >= -1e-9)
    for w in witnesses:
        _require(witness.expectation(w, channels.unitary_channel(w.unitary)) == -0.5)


def _local_pair(ch: channels.KrausChannel) -> np.ndarray:
    """Kraus stack of ch ⊗ ch: every pairwise Kronecker product, first factor outer."""
    return np.einsum("xab,ycd->xyacbd", ch.kraus, ch.kraus).reshape(-1, 4, 4)


def check_closed_forms() -> None:
    grid = [i / 20 for i in range(21)]
    for gate in robustness.GATE_NAMES:
        w = witness.gate_witness(gate)
        for kind, q1 in product(robustness.NOISE_KINDS, grid):
            core = w.unitary @ _local_pair(robustness.single_qubit_noise(kind, q1))
            for q2 in grid:
                post = _local_pair(robustness.single_qubit_noise(kind, q2))
                kraus = channels.KrausChannel(4, (post[:, None] @ core).reshape(-1, 4, 4))
                ptm = robustness.noisy_gate(gate, robustness.NoiseSpec(kind, q1, q2))
                cf = robustness.closed_form(gate, kind, q1, q2)
                for num in (witness.expectation(w, ptm), witness.expectation(w, kraus)):
                    _require(abs(cf - num) < 1e-10, (gate, kind, q1, q2, cf - num))
                _require(abs(cf - robustness.closed_form(gate, kind, q2, q1)) < 1e-14)


def _unit_root(coeffs) -> float:
    """The one real root in [0, 1] of a polynomial, by ``np.roots``."""
    roots = np.roots(coeffs)
    (root,) = [r.real for r in roots if abs(r.imag) < 1e-9 and -1e-12 <= r.real <= 1 + 1e-12]
    return root


def check_thresholds() -> None:
    # Exact roots, independent of the Sturm chain: radical forms, or the root
    # of the polynomial an equal-strength slice reduces to: depolarising
    # (q-2)^2 (5q^2 - 8q + 4) = 8, CNOT dephasing 8q^3 - 14q^2 + 8q = 1, and
    # CNOT damping s^8 + 2s^6 + 4s^5 + 2s^4 + 4s^3 + 2s^2 = 7, s = sqrt(1 - gamma).
    depol_equal = _unit_root([5, -28, 56, -48, 8])
    s = _unit_root([1, 0, 2, 4, 2, 4, 2, 0, -7])
    sqrt2 = np.sqrt(2.0)
    depol, deph, damp = (4 - 2 * sqrt2) / 3, 1 - 1 / sqrt2, 1 - (8**0.25 - 1) ** 2
    window = np.sqrt(sqrt2 - 1) / 2
    cases = [
        # gates, kind, mode, exact roots, reference two-decimal values
        (("CNOT", "CZ"), "depolarising", "before_only", [depol], [0.39]),
        (("CNOT", "CZ"), "depolarising", "equal", [depol_equal], [0.21]),
        (("CNOT",), "dephasing", "before_only", [deph], [0.29]),
        (("CNOT",), "dephasing", "equal", [_unit_root([8, -14, 8, -1])], [0.17]),
        (("CZ",), "dephasing", "before_only", [deph], [0.29]),
        (("CZ",), "dephasing", "equal", [0.5 - window, 0.5 + window], [0.18, 0.82]),
        (("CZ",), "bitflip", "before_only", [deph], [0.29]),
        (("CZ",), "bitflip", "equal", [1 - 2 ** (-0.25)], [0.16]),
        (("CNOT", "CZ"), "amplitude_damping", "before_only", [damp], [0.53]),
        (("CNOT",), "amplitude_damping", "equal", [1 - s**2], [0.31]),
        (("CZ",), "amplitude_damping", "equal", [2 - 8**0.25], [0.31]),
    ]
    for gates, kind, mode, exact, reference in cases:
        for gate in gates:
            roots = robustness.threshold(gate, kind, mode)
            _require(len(roots) == len(exact), (gate, kind, mode, roots))
            for root, target, value in zip(roots, exact, reference):
                _require(abs(root - target) < 1e-13, (gate, kind, mode, root, target))
                _require(fmt12(root) == fmt12(target), (gate, kind, mode, root, target))
                # the reference values are quoted to two decimals, some
                # rounded and some truncated, so accept either reading
                _require(value - 0.005 <= root < value + 0.01, (gate, kind, mode, root))
    # bit flip on CNOT is the same function as dephasing on CNOT
    for i, j in np.ndindex(5, 5):
        flip = robustness.closed_form("CNOT", "bitflip", i / 4, j / 4)
        _require(flip == robustness.closed_form("CNOT", "dephasing", i / 4, j / 4), (i / 4, j / 4))


def check_exact_estimator() -> None:
    cases = [("depolarising", 0.0, 0.0), ("depolarising", 0.2, 0.1), ("dephasing", 0.3, 0.2),
             ("amplitude_damping", 0.3, 0.0), ("amplitude_damping", 0.4, 0.1)]
    for gate in witness.GATE_NAMES:
        w = witness.gate_witness(gate)
        for kind, q1, q2 in cases:
            ch = robustness.noisy_gate(gate, robustness.NoiseSpec(kind, q1, q2))
            exact = protocol.estimate_expectation_exact(w, ch)
            _require(abs(exact.estimate - witness.expectation(w, ch)) < 1e-10, (gate, kind))
            _require(exact.std_error == 0.0)


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("Pauli string Hilbert-Schmidt orthogonality", check_pauli_orthogonality),
    ("constructors produce CPT channels", check_constructors_cpt),
    ("CZ commutes with dephasing (PTM equality)", check_cz_dephasing_commutation),
    ("golden witness decompositions", check_golden_decompositions),
    ("minimal measurement settings (9, no 8-cover)", check_minimal_settings),
    ("exact beta invariants", check_beta_invariants),
    ("SRU non-negativity over 1000 channels", check_sru_nonnegativity),
    ("closed forms match the PTM and Kraus routes", check_closed_forms),
    ("reference thresholds reproduced", check_thresholds),
    ("exact-distribution estimator is unbiased", check_exact_estimator),
)


def run_all(report: Callable[[str], None] = print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            report(f"[FAIL] {name}: {exc!r}")
        else:
            report(f"[PASS] {name}")
    return failures
