import io
import itertools
import math
from fractions import Fraction
from functools import reduce
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ruwitness import channels, selftest
from ruwitness.channels import (
    KrausChannel,
    _gate_ptm,
    _noisy_gate_channel,
    bit_flip,
    gate_matrix,
    unitary_channel,
    validate_cpt,
)
from ruwitness.robustness import (
    GATE_NAMES,
    NOISE_KINDS,
    THRESHOLD_MODES,
    NoiseSpec,
    SweepRow,
    closed_form,
    noisy_gate,
    _NOISES,
    _closed_form,
    _horner_rows,
    _ptm_table,
    numeric_expectation,
    single_qubit_noise,
    sweep,
    sweep_json_obj,
    threshold,
    threshold_json_obj,
    write_sweep_csv,
)
from ruwitness.linalg import DEFAULT_TOL
from ruwitness.serialize import dumps
from ruwitness.thresholds import _TABLES, _crossings, _slice_polynomial, _slice_roots, _value
from ruwitness.witness import expectation, gate_witness

from oracles import (
    choi_of,
    gate_ptm_int,
    hand_closed_form,
    kraus_noisy_gate,
    kraus_ptm,
    loop_compose,
    noise_ptm,
    noisy_ptm,
    ptm_choi,
    ptm_slice_polynomial,
    ptm_table,
    reference_sweep_rows,
    reference_sweep_texts,
    sympy_crossings,
)

ALL_COMBOS = [(g, k) for g in GATE_NAMES for k in NOISE_KINDS]
ALL_SLICES = [(g, k, m) for g, k in ALL_COMBOS for m in THRESHOLD_MODES]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _power(factor: list[int], k: int) -> list[int]:
    return reduce(_poly_mul, [factor] * k, [1])


_fraction = st.integers(1, 60).flatmap(lambda d: st.tuples(st.integers(0, d), st.just(d)))
# integer factors, lowest coefficient first, that plant the root patterns a Sturm count must
# get right: a sign change at n/d, a tangent root (not a crossing), a triple root, two roots
# 1/1000 apart, roots at 0 and 1 with multiplicity, roots outside [0, 1], and quadratics
# with no rational root (complex roots, or two irrational ones)
PLANTED_FACTORS = st.one_of(
    _fraction.map(lambda f: [-f[0], f[1]]),
    _fraction.map(lambda f: _power([-f[0], f[1]], 2)),
    _fraction.map(lambda f: _power([-f[0], f[1]], 3)),
    st.integers(0, 999).map(lambda k: _poly_mul([-k, 1000], [-k - 1, 1000])),
    st.tuples(st.sampled_from([[0, 1], [-1, 1]]), st.integers(1, 4)).map(lambda t: _power(*t)),
    st.tuples(st.integers(1, 20), st.integers(1, 20)).map(lambda t: [-t[0] - t[1], t[1]]),
    st.tuples(st.integers(1, 20), st.integers(1, 20)).map(lambda t: [t[0], t[1]]),
    st.tuples(st.integers(1, 9), st.integers(-20, 20), st.integers(-20, 20))
    .filter(lambda t: math.isqrt(max(0, d := t[1] ** 2 - 4 * t[0] * t[2])) ** 2 != d)
    .map(lambda t: [t[2], t[1], t[0]]),
)
# the grids of TestSweep::test_matches_per_point_reference
SWEEP_GRIDS = (2, 3, 11, 21, 31, 41, 51, 61, 81, 101, 201)


class TestNoiseSpec:
    def test_valid(self):
        noise = NoiseSpec("dephasing", 0.1, 0.9)
        assert (noise.q1, noise.q2) == (0.1, 0.9)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec("thermal", 0.1, 0.1)

    def test_bad_strength(self):
        with pytest.raises(ValueError):
            NoiseSpec("dephasing", -0.1, 0.5)
        with pytest.raises(ValueError):
            NoiseSpec("dephasing", 0.5, 1.1)


class TestNoisyGate:
    def test_zero_noise_equals_bare_gate(self):
        for kind in NOISE_KINDS:
            ch = noisy_gate("CNOT", NoiseSpec(kind, 0.0, 0.0))
            bare = unitary_channel(gate_matrix("CNOT"))
            assert np.max(np.abs(choi_of(ch) - choi_of(bare))) < 1e-12

    def test_depolarising_kraus_count(self):
        ch = noisy_gate("CNOT", NoiseSpec("depolarising", 0.4, 0.4))
        assert ch.n_kraus == 16  # full Choi rank; the Kraus route gives 256

    @pytest.mark.parametrize("gate,kind", ALL_COMBOS)
    def test_matches_kraus_composition(self, gate, kind):
        grid = [i / 5 for i in range(6)]
        for q1, q2 in itertools.product(grid, grid):
            noise = NoiseSpec(kind, q1, q2)
            ch = noisy_gate(gate, noise)
            choi = choi_of(ch)
            reference = choi_of(kraus_noisy_gate(gate, noise))
            assert np.max(np.abs(choi - reference)) < 1e-12, (q1, q2)
            assert ch.n_kraus == np.linalg.matrix_rank(choi) <= 16, (q1, q2)
            assert validate_cpt(ch), (q1, q2)
        for q in grid:
            # the coefficient table against the Kraus constructors
            table_ptm = noise_ptm(kind, q)
            assert np.max(np.abs(table_ptm - kraus_ptm(single_qubit_noise(kind, q)))) < 1e-15, q

    def test_composed_map_that_is_not_cp_raises(self):
        # depolarising at strength 1.5 has Pauli weight 1 - 3q/4 < 0 on the identity
        with pytest.raises(ValueError, match="positive semidefinite"):
            _noisy_gate_channel("CNOT", noisy_ptm("CNOT", noise_ptm("depolarising", 1.5),
                                                  noise_ptm("depolarising", 0.0)))

    def test_composed_map_that_is_not_tp_raises(self):
        # one Kraus operator diag(sqrt 1.5, sqrt 0.5): CP with a unit-trace Choi state, not TP
        lossy = kraus_ptm(KrausChannel(2, [np.diag([math.sqrt(1.5), math.sqrt(0.5)])]))
        with pytest.raises(ValueError, match="not trace preserving"):
            _noisy_gate_channel("CZ", noisy_ptm("CZ", lossy, noise_ptm("dephasing", 0.0)))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(-500, 500).filter(bool))
    def test_pauli_cp_check_is_the_spectrum_criterion(self, step):
        # depolarising at q = 4/3 + delta before CNOT: the smallest Choi eigenvalue is
        # (1 - 3q/4) q/4 = -(3 delta^2 + 4 delta)/16, set within 50% of -DEFAULT_TOL but
        # never within 1e-13 of it; A is diagonal, so no Cholesky factor is formed
        lowest = -1e-10 * (1 + step / 1000)
        delta = -32 * lowest / (4 + math.sqrt(16 - 192 * lowest))
        r = noisy_ptm("CNOT", noise_ptm("depolarising", 4 / 3 + delta), noise_ptm("depolarising", 0.0))
        with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as spy:
            if step > 0:
                with pytest.raises(ValueError, match="positive semidefinite"):
                    _noisy_gate_channel("CNOT", r)
            else:
                choi = _noisy_gate_channel("CNOT", r).choi
                assert abs(np.linalg.eigvalsh(choi)[0] - lowest) < 1e-13
        assert spy.call_count == 0

    @settings(deadline=None, max_examples=40)
    @given(st.integers(-500, 500).filter(bool))
    def test_cholesky_cp_check_is_the_spectrum_criterion(self, step):
        # damping at gamma = 1 before CNOT resets both qubits to |0>, so A is not diagonal and
        # the map is rho -> Tr(rho) s ⊗ s for s = N(|0><0|), with N depolarising at q = 2 + delta
        # after the gate; s has eigenvalues -delta/2 and 1 + delta/2, so the smallest Choi
        # eigenvalue is -(delta/2)(1 + delta/2)/4 = -(delta^2 + 2 delta)/16, set as above
        lowest = -1e-10 * (1 + step / 1000)
        delta = -16 * lowest / (1 + math.sqrt(1 - 16 * lowest))
        r = noisy_ptm("CNOT", noise_ptm("amplitude_damping", 1.0), noise_ptm("depolarising", 2 + delta))
        with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as spy:
            if step > 0:
                with pytest.raises(ValueError, match="positive semidefinite"):
                    _noisy_gate_channel("CNOT", r)
            else:
                choi = _noisy_gate_channel("CNOT", r).choi
                assert abs(np.linalg.eigvalsh(choi)[0] - lowest) < 1e-13
        assert spy.call_count == 1

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from(GATE_NAMES), st.sampled_from(NOISE_KINDS[:3]),
           st.floats(0.0, 1.5), st.floats(0.0, 1.5))
    def test_pauli_route_raises_iff_the_choi_spectrum_dips(self, gate, kind, q1, q2):
        # the exact Pauli-probability test against the eigenvalues of C from its definition,
        # with strengths beyond 1 where the noise itself stops being CP
        r = noisy_ptm(gate, noise_ptm(kind, q1), noise_ptm(kind, q2))
        lowest = np.linalg.eigvalsh(ptm_choi(r))[0]
        assume(abs(lowest + DEFAULT_TOL) > 1e-13)
        if lowest < -DEFAULT_TOL:
            with pytest.raises(ValueError, match="positive semidefinite"):
                _noisy_gate_channel(gate, r)
        else:
            ch = _noisy_gate_channel(gate, r)
            assert np.max(np.abs(ch.ptm - r)) < 1e-15 and np.max(np.abs(ch.choi - ptm_choi(r))) < 1e-15

    @pytest.mark.parametrize("gate", GATE_NAMES)
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_only_damping_forms_choi_and_a_cholesky_factor_when_built(self, gate, kind):
        damping = kind == "amplitude_damping"
        with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as spy:
            ch = noisy_gate(gate, NoiseSpec(kind, 0.3, 0.6))
            assert spy.call_count == damping and ("choi" in vars(ch)) == damping
            choi = ch.choi
            assert ch.choi is choi and vars(ch)["choi"] is choi and not choi.flags.writeable
            assert np.max(np.abs(choi - choi_of(ch))) <= 1e-15
        assert spy.call_count == damping

    @pytest.mark.parametrize("where", [(2, 1), (1, 1), (0, 0)])  # off A's diagonal, on it, A_00
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_ptm_raises_on_construction(self, where, bad, side):
        ptms = [noise_ptm("dephasing", 0.2), noise_ptm("dephasing", 0.1)]
        ptms[side][where] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):  # inf * 0 in the products
            _noisy_gate_channel("CZ", noisy_ptm("CZ", *ptms))

    @pytest.mark.parametrize("gate,kind", ALL_COMBOS)
    def test_kraus_stack_is_built_once_on_first_read(self, gate, kind, monkeypatch):
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        ch = noisy_gate(gate, NoiseSpec(kind, 0.3, 0.6))
        assert calls == [] and "kraus" not in vars(ch)
        kraus = ch.kraus
        assert ch.kraus is kraus and not kraus.flags.writeable
        assert len(calls) == 1 and calls[0] is ch.choi is vars(ch)["choi"]
        assert np.max(np.abs(choi_of(ch) - ch.choi)) <= 1e-15
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["dephasing", "amplitude_damping"])
    def test_derived_channels_keep_no_choi_state(self, kind):
        # the noisy gate keeps its PTM, and its Choi matrix once built (damping builds it for
        # the CP check); channels built from its Kraus stack keep neither
        ch = noisy_gate("CZ", NoiseSpec(kind, 0.3, 0.6))
        kept = {"dim", "ptm", "choi"} if kind == "amplitude_damping" else {"dim", "ptm"}
        assert isinstance(ch, KrausChannel) and set(vars(ch)) == kept
        for derived in (KrausChannel(4, ch.kraus), loop_compose(unitary_channel(np.eye(4)), ch)):
            assert set(vars(derived)) == {"dim", "kraus"} and validate_cpt(derived)
            assert np.max(np.abs(choi_of(derived) - choi_of(ch))) < 1e-15
        assert set(vars(ch)) == {"dim", "ptm", "choi", "kraus"}

    def test_amplitude_damping_one_sided_count(self):
        ch = noisy_gate("CZ", NoiseSpec("amplitude_damping", 0.4, 0.0))
        assert ch.n_kraus == 4

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            noisy_gate("SWAP", NoiseSpec("dephasing", 0.1, 0.1))

    @pytest.mark.parametrize("gate", GATE_NAMES)
    def test_gate_ptm_is_the_signed_permutation(self, gate):
        r = _gate_ptm(gate)
        assert np.array_equal(r, gate_ptm_int(gate))
        assert np.array_equal(r, kraus_ptm(unitary_channel(gate_matrix(gate))))
        assert not r.flags.writeable

    @pytest.mark.parametrize("gate,kind", ALL_COMBOS)
    def test_ptm_table_entries_are_exact_integers(self, gate, kind):
        # one row per monomial x1^a x2^b, a, b < n: 3 x 3 under the Pauli noises, 5 x 5 in s
        # under damping
        powers, table = _ptm_table(gate, kind)
        n = 5 if kind == "amplitude_damping" else 3
        assert powers == range(n) and table.shape == (n * n, 256) and not table.flags.writeable
        assert np.array_equal(table, np.rint(table)) and np.abs(table).max() <= 16
        assert _ptm_table(gate, kind)[1] is table

    @pytest.mark.parametrize("gate,kind", ALL_COMBOS)
    def test_ptm_table_evaluates_to_the_kraus_constructors_composition(self, gate, kind):
        # within 1e-15 where the expanded polynomial adds terms of one sign; where its terms
        # cancel, as in (1 - 2 q1)(1 - 2 q2) = 1 - 2 q1 - 2 q2 + 4 q1 q2 near q = 1, the bound is
        # 1e-15 times the sum of the terms' magnitudes (measured: at most 3.7e-16 times it)
        (powers, table), rng = _ptm_table(gate, kind), np.random.default_rng(37)
        for q1, q2 in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), *rng.random((40, 2)).tolist()]:
            d1, d2 = (kraus_ptm(single_qubit_noise(kind, q)) for q in (q1, q2))
            reference = np.kron(d2, d2) @ gate_ptm_int(gate) @ np.kron(d1, d1)
            x1, x2 = (math.sqrt(1 - q1), math.sqrt(1 - q2)) if kind == "amplitude_damping" else (q1, q2)
            terms = np.outer(np.power(x1, powers), np.power(x2, powers)).ravel() @ np.abs(table)
            error = np.abs(noisy_gate(gate, NoiseSpec(kind, q1, q2)).ptm - reference)
            assert (error <= 1e-15 * np.maximum(1.0, terms.reshape(16, 16))).all(), (q1, q2)

    @pytest.mark.parametrize("gate,kind", ALL_COMBOS)
    def test_closed_form_table_is_the_contraction_of_the_ptm_table(self, gate, kind):
        # T[a][b] = <R_U, R_ab>, integer for integer
        powers, table = _ptm_table(gate, kind)
        contraction = (table @ gate_ptm_int(gate).ravel()).reshape(len(powers), len(powers))
        assert np.array_equal(contraction, np.rint(contraction))
        assert tuple(tuple(int(c) for c in row) for row in contraction) == _TABLES[gate, kind]


@pytest.mark.parametrize("gate", [None, ["CNOT"], 3])
@pytest.mark.parametrize("call", [
    lambda gate: threshold(gate, "depolarising", "equal"),
    lambda gate: sweep(gate, "depolarising", 3),
    lambda gate: closed_form(gate, "depolarising", 0.1, 0.2),
    lambda gate: noisy_gate(gate, NoiseSpec("depolarising", 0.1, 0.2)),
    gate_witness,
], ids=["threshold", "sweep", "closed_form", "noisy_gate", "gate_witness"])
def test_gate_that_is_not_a_string_raises_value_error(call, gate):
    with pytest.raises(ValueError, match="gate must be one of"):
        call(gate)


class TestSelftestRoutes:
    """The selftest's own routes are independent of the tables and can fail."""

    def test_cz_check_fails_on_noise_that_does_not_commute(self, monkeypatch):
        selftest.check_cz_dephasing_commutation()
        monkeypatch.setattr(channels, "dephasing", bit_flip)
        with pytest.raises(AssertionError):
            selftest.check_cz_dephasing_commutation()

    @pytest.mark.parametrize("gate,kind", ALL_COMBOS)
    def test_local_pair_route_matches_kraus_composition(self, gate, kind):
        u = gate_matrix(gate)
        for q1, q2 in [(0.0, 0.0), (0.35, 0.15), (0.5, 1.0), (1.0, 0.7)]:
            core = u @ selftest._local_pair(single_qubit_noise(kind, q1))
            post = selftest._local_pair(single_qubit_noise(kind, q2))
            route = KrausChannel(4, (post[:, None] @ core).reshape(-1, 4, 4))
            reference = kraus_noisy_gate(gate, NoiseSpec(kind, q1, q2))
            assert np.max(np.abs(choi_of(route) - choi_of(reference))) < 1e-12, (q1, q2)


class TestClosedForm:
    def test_depolarising_pre_only_reduction(self):
        for q in (0.0, 0.17, 0.62, 1.0):
            qbar = 1 - 0.75 * q
            assert closed_form("CNOT", "depolarising", q, 0.0) == pytest.approx(
                0.5 - qbar**2, abs=1e-14
            )

    def test_depolarising_equal_strength_polynomial(self):
        for q in (0.0, 0.21, 0.5, 1.0):
            expected = 0.5 - (q - 2) ** 2 * (5 * q**2 - 8 * q + 4) / 16
            assert closed_form("CZ", "depolarising", q, q) == pytest.approx(expected, abs=1e-12)

    def test_amplitude_damping_cz_equal_quartic(self):
        # equal strengths collapse the CZ expression to 1/2 - (1 + gbar)^4/16
        for g in (0.0, 0.31, 0.8):
            value = closed_form("CZ", "amplitude_damping", g, g)
            assert value == pytest.approx(0.5 - (2 - g) ** 4 / 16, abs=1e-12)

    def test_depolarising_is_gate_independent(self):
        for q1 in (0.0, 0.3, 0.9):
            for q2 in (0.0, 0.5, 1.0):
                assert closed_form("CNOT", "depolarising", q1, q2) == closed_form(
                    "CZ", "depolarising", q1, q2
                )

    def test_bitflip_cnot_equals_dephasing_cnot(self):
        grid = [i / 20 for i in range(21)]
        for q1 in grid:
            for q2 in grid:
                assert closed_form("CNOT", "bitflip", q1, q2) == closed_form(
                    "CNOT", "dephasing", q1, q2
                )

    def test_exchange_symmetry(self):
        grid = [i / 6 for i in range(7)]
        for gate, kind in ALL_COMBOS:
            for q1 in grid:
                for q2 in grid:
                    assert closed_form(gate, kind, q1, q2) == pytest.approx(
                        closed_form(gate, kind, q2, q1), abs=1e-14
                    )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            closed_form("CNOT", "dephasing", 1.2, 0.0)

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from(ALL_COMBOS),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    def test_matches_kraus_numerics(self, combo, q1, q2):
        gate, kind = combo
        analytic = closed_form(gate, kind, q1, q2)
        numeric = expectation(gate_witness(gate), noisy_gate(gate, NoiseSpec(kind, q1, q2)))
        assert analytic == pytest.approx(numeric, abs=1e-10)

    @pytest.mark.parametrize("gate,kind", ALL_COMBOS)
    def test_literal_table_equals_ptm_derivation(self, gate, kind):
        assert _TABLES[gate, kind] == ptm_table(gate, kind)
        assert all(type(c) is int for row in _TABLES[gate, kind] for c in row)

    def test_tables_cover_the_gate_and_noise_names(self):
        assert tuple(_NOISES) == NOISE_KINDS
        assert list(_TABLES) == [(g, k) for g in GATE_NAMES for k in NOISE_KINDS]

    @pytest.mark.parametrize("gate,kind", ALL_COMBOS)
    def test_table_equals_hand_transcription(self, gate, kind):
        # exact certificate: 8 - 16 * hand form, expanded in sympy, has the table's terms;
        # damping tables are in s = sqrt(1 - gamma), so substitute gamma = 1 - s^2
        if kind == "amplitude_damping":
            x = sympy.symbols("s1 s2", positive=True)
            strengths = [1 - v**2 for v in x]
        else:
            x = strengths = sympy.symbols("q1 q2")
        hand = hand_closed_form(gate, kind, *strengths, sympy.sqrt)
        hand = hand.xreplace({f: sympy.Rational(f) for f in hand.atoms(sympy.Float)})  # exact binary values
        expected = dict(sympy.Poly(sympy.expand(8 - 16 * hand), *x).terms())
        table = _TABLES[gate, kind]
        assert {(a, b): c for a, row in enumerate(table) for b, c in enumerate(row) if c} == expected

    @pytest.mark.parametrize("gate,kind", ALL_COMBOS)
    def test_matches_hand_transcription_on_sweep_grids(self, gate, kind):
        for grid in SWEEP_GRIDS:
            for i, j in itertools.product(range(grid), repeat=2):
                q1, q2 = i / (grid - 1), j / (grid - 1)
                value = closed_form(gate, kind, q1, q2)
                hand = hand_closed_form(gate, kind, q1, q2, math.sqrt)
                assert abs(value - hand) <= 1e-15 and (value < 0) == (hand < 0), (grid, q1, q2)

    @pytest.mark.parametrize("gate,kind", ALL_COMBOS)
    def test_trimmed_horner_is_bit_identical_to_the_full_table(self, gate, kind):
        # _horner_rows drops leading zero coefficients; every grid-201 value keeps its bits
        q1, q2 = np.indices((201, 201)).reshape(2, -1) / 200
        x1, x2 = (np.sqrt(1.0 - q1), np.sqrt(1.0 - q2)) if kind == "amplitude_damping" else (q1, q2)
        total = 0.0
        for row in _TABLES[gate, kind][::-1]:
            inner = 0.0
            for c in row[::-1]:
                inner = inner * x2 + float(c)
            total = total * x1 + inner
        full = 0.5 - total / 16.0
        trimmed = _closed_form(gate, kind, q1, q2, np.sqrt)
        assert np.array_equal(trimmed.view(np.int64), full.view(np.int64))
        scalars = [closed_form(gate, kind, a, b) for a, b in zip(q1.tolist(), q2.tolist())]
        assert np.array_equal(np.array(scalars).view(np.int64), full.view(np.int64))

    def test_damping_tables_are_trimmed(self):
        assert sum(map(len, _horner_rows("CZ", "amplitude_damping"))) == 15
        assert sum(map(len, _horner_rows("CNOT", "amplitude_damping"))) == 17
        assert all(row and row[0] for row in _horner_rows("CZ", "amplitude_damping"))

    def test_depolarising_numeric_cz_route(self):
        # the shared formula must also match the CZ witness numerics
        noise = NoiseSpec("depolarising", 0.25, 0.65)
        assert closed_form("CZ", "depolarising", 0.25, 0.65) == pytest.approx(
            numeric_expectation("CZ", noise), abs=1e-10
        )


class TestThreshold:
    def test_depolarising_pre_only_exact_root(self):
        roots = threshold("CNOT", "depolarising", "before_only")
        assert len(roots) == 1
        assert roots[0] == pytest.approx((4 - 2 * math.sqrt(2)) / 3, abs=1e-13)

    def test_dephasing_pre_only_exact_root(self):
        for gate in GATE_NAMES:
            roots = threshold(gate, "dephasing", "before_only")
            assert len(roots) == 1
            assert roots[0] == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-13)

    def test_cz_dephasing_equal_two_roots(self):
        roots = threshold("CZ", "dephasing", "equal")
        assert len(roots) == 2
        lo = (1 - math.sqrt(math.sqrt(2) - 1)) / 2
        hi = (1 + math.sqrt(math.sqrt(2) - 1)) / 2
        assert roots[0] == pytest.approx(lo, abs=1e-13)
        assert roots[1] == pytest.approx(hi, abs=1e-13)

    def test_cz_bitflip_equal_exact_root(self):
        roots = threshold("CZ", "bitflip", "equal")
        assert roots == [pytest.approx(1 - 2 ** (-0.25), abs=1e-13)]

    def test_amplitude_damping_pre_only_exact_root(self):
        expected = 1 - (8**0.25 - 1) ** 2
        for gate in GATE_NAMES:
            roots = threshold(gate, "amplitude_damping", "before_only")
            assert roots == [pytest.approx(expected, abs=1e-13)]

    def test_root_is_exact_to_the_last_float(self):
        roots = threshold("CNOT", "depolarising", "before_only")
        assert roots == [pytest.approx((4 - 2 * math.sqrt(2)) / 3, abs=1e-15)]

    def test_before_equals_after(self):
        for gate, kind in ALL_COMBOS:
            assert threshold(gate, kind, "before_only") == threshold(gate, kind, "after_only")

    def test_huge_coefficients_do_not_overflow_the_estimate(self):
        assert _crossings([-10**399, 10**400]) == [0.1]  # 10^400 x - 10^399

    @pytest.mark.parametrize("coeffs,root", [
        ([-1, 10**300], 1e-300), ([-1, 2**1000], 2.0**-1000), ([-3, 10**200], 3e-200),
    ])
    def test_root_far_below_its_cell_takes_a_bounded_search(self, monkeypatch, coeffs, root):
        # the bit patterns of [0, 1] span 2^62: at most about 62 halvings, the Sturm
        # chain's signs at 0 and 1 and the sign at the final midpoint
        calls = []
        monkeypatch.setattr("ruwitness.thresholds._value", lambda p, x: calls.append(x) or _value(p, x))
        assert _crossings(coeffs) == [root]
        assert len(calls) <= 70

    def test_scaled_slices_keep_their_roots(self):
        for gate, kind, mode in ALL_SLICES:
            coeffs = _slice_polynomial(gate, kind, mode)
            assert _crossings([c * 10**400 for c in coeffs]) == _crossings(coeffs), (gate, kind, mode)

    def test_no_sign_change_gives_empty(self):
        assert _crossings([5]) == []
        assert _crossings([1, 0, 2]) == []  # 2x^2 + 1

    def test_scan_finds_multiple_crossings(self):
        # (1000x - 499)(1000x - 501): two roots 0.002 apart, each the float nearest to it
        assert _crossings([499 * 501, -10**6, 10**6]) == [0.499, 0.501]
        assert _crossings([3, -10]) == [0.3]

    @pytest.mark.parametrize("gate,kind,mode", ALL_SLICES)
    def test_roots_are_the_correctly_rounded_sympy_roots(self, gate, kind, mode):
        roots = sympy_crossings(ptm_slice_polynomial(gate, kind, mode))
        if kind == "amplitude_damping":
            roots = sorted(1 - s * s for s in roots)
        assert threshold(gate, kind, mode) == roots

    @settings(deadline=None, max_examples=80)
    @given(st.lists(PLANTED_FACTORS, min_size=1, max_size=4), st.sampled_from([-3, -1, 1, 2]))
    def test_crossings_match_sympy_on_planted_factors(self, factors, scale):
        coeffs = reduce(_poly_mul, factors, [scale])
        assert _crossings(coeffs) == sympy_crossings(coeffs)

    def test_roots_closer_than_a_float_and_exact_ties(self):
        def with_roots(*offsets):  # roots 1/2 + offset, where floats are 2^-53 apart
            return reduce(_poly_mul, ([-r.numerator, r.denominator] for r in (Fraction(1, 2) + o for o in offsets)))

        assert _crossings(with_roots(Fraction(1, 2**62), Fraction(3, 2**62))) == [0.5, 0.5]
        # either side of the midpoint between 0.5 and the next float
        straddle = with_roots(Fraction(1, 2**54) - Fraction(1, 2**70), Fraction(1, 2**54) + Fraction(1, 2**70))
        assert _crossings(straddle) == [0.5, 0.5 + 2.0**-53]
        # exact ties round to the float with the even last bit
        assert _crossings(with_roots(Fraction(1, 2**54))) == [0.5]
        assert _crossings(with_roots(Fraction(3, 2**54))) == [0.5 + 2.0**-52]

    @pytest.mark.parametrize("coeffs", [[0], [], [0, 0]])
    def test_zero_polynomial_raises(self, coeffs):
        with pytest.raises(ValueError, match="zero polynomial"):
            _crossings(coeffs)

    def test_touching_root_is_not_a_crossing(self):
        assert _crossings([1, -4, 4]) == []  # (2x - 1)^2

    def test_odd_multiplicity_root_is_a_crossing(self):
        assert _crossings([-1, 6, -12, 8]) == [0.5]  # (2x - 1)^3

    def test_roots_at_the_endpoints(self):
        assert _crossings([0, 1]) == [0.0]
        assert _crossings([-1, 1]) == [1.0]
        assert _crossings([0, 0, 1]) == []  # x^2 touches zero at 0
        assert _crossings([0, 0, 0, 1, -1]) == [0.0, 1.0]  # x^3 (1 - x)

    def test_roots_outside_the_unit_interval_are_not_reported(self):
        assert _crossings([1, 1]) == []  # x + 1
        assert _crossings([-2, -1, 1]) == []  # (x - 2)(x + 1)
        assert _crossings([2, -5, 2]) == [0.5]  # (x - 2)(2x - 1)

    @pytest.mark.parametrize("gate,kind,mode", ALL_SLICES)
    def test_slice_polynomial_matches_ptm_certificate(self, gate, kind, mode):
        exact = ptm_slice_polynomial(gate, kind, mode)
        recovered = _slice_polynomial(gate, kind, mode)
        assert len(recovered) >= len(exact)
        assert recovered == exact + [0] * (len(recovered) - len(exact))

    def test_bad_mode(self):
        for mode in ("sideways", ["equal"]):  # an unhashable mode is checked before the cache
            with pytest.raises(ValueError, match="mode must be one of"):
                threshold("CNOT", "dephasing", mode)

    def test_returned_roots_are_a_fresh_list(self):
        roots = threshold("CZ", "dephasing", "equal")
        want = list(roots)
        roots.append(2.0)
        roots[0] = -1.0
        assert threshold("CZ", "dephasing", "equal") == want

    def test_second_call_for_a_slice_signs_nothing(self, monkeypatch):
        _slice_roots.cache_clear()
        calls = []
        monkeypatch.setattr("ruwitness.thresholds._value", lambda p, x: calls.append(x) or _value(p, x))
        first = threshold("CNOT", "depolarising", "before_only")
        assert calls
        calls.clear()
        assert threshold("CNOT", "depolarising", "before_only") == first
        assert calls == []

    def test_gate_case_shares_one_cache_entry(self):
        _slice_roots.cache_clear()
        assert threshold("cnot", "bitflip", "equal") == threshold("CNOT", "bitflip", "equal")
        info = _slice_roots.cache_info()
        assert (info.currsize, info.hits, info.misses) == (1, 1, 1)

    @pytest.mark.parametrize(
        "options",
        [
            {"xtol": 0.0},
            {"xtol": -1e-9},
            {"xtol": math.nan},
            {"xtol": math.inf},
            {"scan_points": 0},
            {"scan_points": 2.5},
            {"scan_points": True},
        ],
        ids=["xtol-zero", "xtol-negative", "xtol-nan", "xtol-inf", "points-zero", "points-float", "points-bool"],
    )
    def test_bad_scan_options_fail_fast(self, options):
        # threshold has no scan or tolerance option: its roots are exact
        with pytest.raises(TypeError):
            threshold("CNOT", "depolarising", "before_only", **options)

    def test_json_record(self):
        roots = threshold("CNOT", "depolarising", "before_only")
        obj = threshold_json_obj("CNOT", "depolarising", "before_only", roots)
        assert obj["gate"] == "cnot"
        assert obj["noise"] == "depolarising"
        assert obj["mode"] == "before_only"
        assert obj["roots"] == [pytest.approx((4 - 2 * math.sqrt(2)) / 3, abs=1e-12)]


class TestSweepRow:
    def test_fields_in_order(self):
        assert SweepRow._fields == ("q1", "q2", "value", "detected")

    def test_repr(self):
        row = sweep("CNOT", "bitflip", 2)[0]
        assert repr(row) == "SweepRow(q1=0.0, q2=0.0, value=-0.5, detected=True)"

    def test_fields_cannot_be_assigned(self):
        row = SweepRow(0.0, 0.0, -0.5, True)
        with pytest.raises(AttributeError):
            row.value = 1.0

    def test_hash_and_equality_by_value(self):
        row = SweepRow(0.0, 0.5, -0.25, True)
        same = SweepRow(q1=0.0, q2=0.5, value=-0.25, detected=True)
        assert row == same and hash(row) == hash(same) and len({row, same}) == 1
        assert row == (0.0, 0.5, -0.25, True)
        assert row != SweepRow(0.0, 0.5, -0.25, False)

    def test_sweep_yields_python_scalars(self):
        for row in sweep("CZ", "amplitude_damping", 3):
            assert tuple(map(type, row)) == (float, float, float, bool)

    def test_sweep_yields_sweep_rows(self):
        rows = sweep("CNOT", "dephasing", 7)
        assert all(type(row) is SweepRow for row in rows)

    def test_writers_accept_a_generator(self):
        rows = sweep("CZ", "dephasing", 4)
        want = io.StringIO()
        write_sweep_csv(rows, want)
        got = io.StringIO()
        write_sweep_csv((r for r in rows), got)
        assert got.getvalue() == want.getvalue()
        assert sweep_json_obj("cz", "dephasing", (r for r in rows)) == sweep_json_obj("cz", "dephasing", rows)

    def test_writers_accept_an_empty_iterable(self):
        buf = io.StringIO()
        write_sweep_csv(iter(()), buf)
        assert buf.getvalue() == "q1,q2,value,detected\n"
        obj = sweep_json_obj("CZ", "bitflip", [])
        assert obj == {"gate": "cz", "noise": "bitflip", "rows": []}
        assert '"rows": []' in dumps(obj)


class TestSweep:
    def test_noiseless_corner_detected(self):
        rows = sweep("CNOT", "bitflip", 3)
        assert rows[0].q1 == 0 and rows[0].q2 == 0
        assert rows[0].value == pytest.approx(-0.5)
        assert rows[0].detected

    def test_depolarising_full_noise_corner(self):
        rows = sweep("CNOT", "depolarising", 2)
        corner = rows[-1]
        assert corner.q1 == 1 and corner.q2 == 1
        assert corner.value == pytest.approx(7 / 16)
        assert not corner.detected

    def test_row_major_order_and_symmetry(self):
        n = 5
        rows = sweep("CZ", "amplitude_damping", n)
        assert len(rows) == n * n
        value = {(r.q1, r.q2): r.value for r in rows}
        for r in rows:
            assert value[(r.q2, r.q1)] == pytest.approx(r.value, abs=1e-14)
        expected_order = [(i / (n - 1), j / (n - 1)) for i in range(n) for j in range(n)]
        assert [(r.q1, r.q2) for r in rows] == expected_order

    def test_minimum_grid(self):
        with pytest.raises(ValueError):
            sweep("CNOT", "dephasing", 1)

    def test_csv_golden(self):
        buf = io.StringIO()
        write_sweep_csv(sweep("CNOT", "depolarising", 2), buf)
        assert buf.getvalue() == (
            "q1,q2,value,detected\n"
            "0.00000000000,0.00000000000,-0.500000000000,true\n"
            "0.00000000000,1.00000000000,0.437500000000,false\n"
            "1.00000000000,0.00000000000,0.437500000000,false\n"
            "1.00000000000,1.00000000000,0.437500000000,false\n"
        )

    def test_json_form(self):
        obj = sweep_json_obj("CZ", "bitflip", sweep("CZ", "bitflip", 2))
        assert obj["gate"] == "cz" and obj["noise"] == "bitflip"
        assert len(obj["rows"]) == 4
        assert obj["rows"][0] == {"q1": 0.0, "q2": 0.0, "value": -0.5, "detected": True}

    @pytest.mark.parametrize("gate,kind", ALL_COMBOS)
    def test_matches_per_point_reference(self, gate, kind):
        for grid in (2, 3, 11, 21, 31, 41, 51, 61, 81, 101, 201):
            rows = sweep(gate, kind, grid)
            reference = reference_sweep_rows(gate, kind, grid)
            assert [(r.q1, r.q2) for r in rows] == [(r.q1, r.q2) for r in reference]
            for r, exact in zip(rows, reference):  # reference values are closed_form's
                assert abs(r.value - exact.value) <= 1e-15 and r.detected == exact.detected, (grid, r)
            buf = io.StringIO()
            write_sweep_csv(rows, buf)
            csv, json_text = reference_sweep_texts(gate, kind, reference)
            assert buf.getvalue() == csv, grid
            assert dumps(sweep_json_obj(gate, kind, rows)) == json_text, grid
