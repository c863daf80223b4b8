"""Invariant suite behind the ``selftest`` CLI command.

Each check raises AssertionError on failure; the runner prints one
PASS/FAIL line per check.  The suite covers every module-level invariant:
algebra identities, CPT validity of all constructors, the three-way
overlap equivalence, golden witness decompositions, minimal setting
covers, closed-form versus Kraus agreement, SRU non-negativity, reference
threshold reproduction, and estimator exactness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from . import channels, choi, linalg, protocol, robustness, witness


def _random_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def check_kron_algebra() -> None:
    rng = np.random.default_rng(101)
    for _ in range(20):
        dims = rng.integers(2, 5, size=3)
        a, b, c = (_random_matrix(rng, d) for d in dims)
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        assert np.max(np.abs(left - right)) < 1e-14
        assert abs(np.trace(np.kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def check_pauli_orthogonality() -> None:
    _, stack = linalg.pauli_basis(4)
    flat = stack.reshape(256, 256)
    gram = flat.conj() @ flat.T
    assert np.max(np.abs(gram - 16 * np.eye(256))) < 1e-12


def check_constructors_cpt() -> None:
    for q in (0.0, 0.3, 1.0):
        for make in (channels.depolarising, channels.dephasing,
                     channels.bit_flip, channels.amplitude_damping):
            assert channels.validate_cpt(make(q), 1e-10)
    for gate in ("CNOT", "CZ", "H"):
        assert channels.validate_cpt(channels.unitary_channel(channels.gate_matrix(gate)))
    for seed in range(50):
        assert channels.validate_cpt(channels.sample_sru(1 + seed % 6, seed))
    for gate in robustness.GATE_NAMES:
        for kind in robustness.NOISE_KINDS:
            ch = robustness.noisy_gate(gate, robustness.NoiseSpec(kind, 0.35, 0.15))
            assert channels.validate_cpt(ch, 1e-10)


def check_cz_dephasing_commutation() -> None:
    cz = channels.unitary_channel(channels.gate_matrix("CZ"))
    for q in (0.1, 0.5, 0.9):
        noise = channels.tensor(channels.dephasing(q), channels.dephasing(q))
        before = choi.choi_of(channels.compose(cz, noise))
        after = choi.choi_of(channels.compose(noise, cz))
        assert np.max(np.abs(before.matrix - after.matrix)) < 1e-12


def check_overlap_equivalence() -> None:
    for seed in range(20):
        for dim in (2, 4):
            m = channels.sample_channel(dim, 1 + seed % 3, seed=seed)
            l = channels.sample_channel(dim, 1 + (seed + 1) % 3, seed=seed + 1000)
            direct = choi.overlap_direct(choi.choi_of(m), choi.choi_of(l))
            kraus = choi.overlap_kraus(m, l)
            basis = choi.overlap_basis(m, l)
            assert abs(direct - kraus) < 1e-10 and abs(kraus - basis) < 1e-10


def check_apply_matches_choi() -> None:
    rng = np.random.default_rng(11)
    for seed in range(10):
        ch = channels.sample_channel(4, 3, seed=seed)
        g = _random_matrix(rng, 4)
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        via_kraus = channels.apply(ch, rho)
        via_choi = choi.apply_via_choi(choi.choi_of(ch), rho)
        assert np.max(np.abs(via_kraus - via_choi)) < 1e-10


def check_golden_decompositions() -> None:
    for gate in ("CNOT", "CZ"):
        d = witness.pauli_decompose(witness.gate_witness(gate))
        assert len(d.terms) == 16
        assert d.coefficient("IIII") == Fraction(7, 16)
        assert all(abs(c) == Fraction(1, 16) for c, s in d.terms if s != "IIII")
        w = witness.gate_witness(gate)
        assert np.max(np.abs(d.to_matrix() - w.matrix)) < 1e-12


def check_minimal_settings() -> None:
    for gate in ("CNOT", "CZ"):
        d = witness.pauli_decompose(witness.gate_witness(gate))
        cover = witness.minimal_settings(d)
        assert len(cover) == 9
        assert not witness.cover_exists(d, 8)
        for _, s in d.terms:
            if s != "IIII":
                assert any(witness.setting_covers(c, s) for c in cover)


def check_beta_invariants() -> None:
    b_cnot = witness.beta_sru(channels.gate_matrix("CNOT"))
    b_cz = witness.beta_sru(channels.gate_matrix("CZ"))
    assert abs(b_cnot - b_cz) < 1e-6  # local-unitary equivalence
    for name, b in (("CNOT", b_cnot), ("CZ", b_cz)):
        u = channels.gate_matrix(name)
        floor = abs(np.trace(u)) ** 2 / 16
        assert floor - 1e-9 <= b <= 1 + 1e-9
        assert abs(b - 0.5) < 1e-6


def check_sru_nonnegativity() -> None:
    witnesses = [witness.gate_witness(g) for g in ("CNOT", "CZ")]
    for seed in range(1000):
        ch = channels.sample_sru(1 + seed % 6, seed=seed)
        for w in witnesses:
            assert witness.expectation(w, ch) >= -1e-9
    for w in witnesses:
        noiseless = channels.unitary_channel(w.unitary)
        assert witness.expectation(w, noiseless) == -0.5


def check_closed_forms() -> None:
    grid = [i / 8 for i in range(9)]
    for gate in robustness.GATE_NAMES:
        w = witness.gate_witness(gate)
        for kind in robustness.NOISE_KINDS:
            for q1 in grid:
                for q2 in grid:
                    cf = robustness.closed_form(gate, kind, q1, q2)
                    num = witness.expectation(
                        w, robustness.noisy_gate(gate, robustness.NoiseSpec(kind, q1, q2))
                    )
                    assert abs(cf - num) < 1e-10
                    assert abs(cf - robustness.closed_form(gate, kind, q2, q1)) < 1e-14


def check_thresholds() -> None:
    # (gate, kind, mode, reference two-decimal value)
    reference = [
        ("CNOT", "depolarising", "before_only", 0.39),
        ("CNOT", "depolarising", "equal", 0.21),
        ("CNOT", "dephasing", "before_only", 0.29),
        ("CNOT", "dephasing", "equal", 0.17),
        ("CZ", "dephasing", "before_only", 0.29),
        ("CZ", "bitflip", "before_only", 0.29),
        ("CZ", "bitflip", "equal", 0.16),
        ("CNOT", "amplitude_damping", "before_only", 0.53),
        ("CNOT", "amplitude_damping", "equal", 0.31),
        ("CZ", "amplitude_damping", "before_only", 0.53),
        ("CZ", "amplitude_damping", "equal", 0.31),
    ]
    for gate, kind, mode, value in reference:
        roots = robustness.threshold(gate, kind, mode)
        assert len(roots) == 1, (gate, kind, mode, roots)
        # printed values are rounded or truncated to two decimals
        assert value - 0.005 <= roots[0] < value + 0.01, (gate, kind, mode, roots)
    two = robustness.threshold("CZ", "dephasing", "equal")
    assert len(two) == 2
    assert abs(two[0] - 0.18) < 0.005 and abs(two[1] - 0.82) < 0.005


def check_exact_estimator() -> None:
    for gate in ("CNOT", "CZ"):
        w = witness.gate_witness(gate)
        for kind, q1, q2 in (("depolarising", 0.2, 0.1), ("amplitude_damping", 0.3, 0.0)):
            ch = robustness.noisy_gate(gate, robustness.NoiseSpec(kind, q1, q2))
            exact = protocol.estimate_expectation_exact(w, ch)
            assert abs(exact.estimate - witness.expectation(w, ch)) < 1e-10
            assert exact.std_error == 0.0


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("kron associativity and trace multiplicativity", check_kron_algebra),
    ("Pauli string Hilbert-Schmidt orthogonality", check_pauli_orthogonality),
    ("constructors produce CPT channels", check_constructors_cpt),
    ("CZ commutes with dephasing (Choi equality)", check_cz_dephasing_commutation),
    ("three-way overlap equivalence", check_overlap_equivalence),
    ("Kraus application matches Choi reconstruction", check_apply_matches_choi),
    ("golden witness decompositions", check_golden_decompositions),
    ("minimal measurement settings (9, no 8-cover)", check_minimal_settings),
    ("exact beta invariants", check_beta_invariants),
    ("SRU non-negativity over 1000 channels", check_sru_nonnegativity),
    ("closed forms match Kraus numerics", check_closed_forms),
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
