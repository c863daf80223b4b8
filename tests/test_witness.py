import time
import warnings
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruwitness.channels import (
    depolarising,
    gate_matrix,
    haar_unitary,
    sample_sru,
    unitary_channel,
)
from ruwitness import cover as cover_module
from ruwitness import witness as witness_module
from ruwitness.witness import (
    ALL_SETTINGS,
    PauliDecomposition,
    Witness,
    beta_sru,
    build_witness,
    cover_exists,
    expectation,
    minimal_settings,
    gate_witness,
    pauli_decompose,
    setting_covers,
)

from golden import CNOT_TERMS, CZ_COVER, CZ_TERMS, KNOWN_CNOT_COVER
from oracles import (
    beta_search,
    choi_of,
    expectation_via_choi,
    is_psd,
    max_entangled,
    overlap_direct,
    partial_trace,
    reference_best_cover,
    reference_decompose,
    sample_channel,
)

SQRT_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
        [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
        [0, 0, 0, 1],
    ]
)


SWAP = np.eye(4)[[0, 2, 1, 3]]
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])


def _local(rng):
    return np.kron(haar_unitary(2, rng), haar_unitary(2, rng))


# exact offsets of gates whose magic-basis spectra repeat
EXACT_BETA = {
    "CNOT": (gate_matrix("CNOT"), 0.5),
    "CZ": (gate_matrix("CZ"), 0.5),
    "SWAP": (SWAP, 0.25),
    "iSWAP": (ISWAP, 0.25),
    "sqrtSWAP": (SQRT_SWAP, 0.625),
    "identity": (np.eye(4), 1.0),
    "product": (_local(np.random.default_rng(3)), 1.0),
}


def _decomposition(*strings):
    return PauliDecomposition(tuple((Fraction(1, 16), s) for s in strings))


def _assert_same_terms(got, reference):
    """Fractions equal in value and type, floats within 1e-15, in the same order."""
    assert [s for _, s in got] == [s for _, s in reference]
    for (a, _), (b, _) in zip(got, reference):
        assert type(a) is type(b)
        if isinstance(a, Fraction):
            assert a == b
        else:
            assert abs(a - b) <= 1e-15


def _assert_same_covers(decomp):
    """minimal_settings and cover_exists at its size and one below equal the reference search."""
    strings = decomp.strings()
    cover = minimal_settings(decomp)
    assert cover == reference_best_cover(strings)
    for size in (len(cover) - 1, len(cover)):
        assert cover_exists(decomp, size) == (reference_best_cover(strings, size) is not None)


def _single_qubit_cliffords():
    """The 24 single-qubit Cliffords, phase-fixed, generated from H and S."""

    def phase_fixed(m):
        lead = m.flat[np.flatnonzero(np.abs(m) > 1e-9)[0]]
        return m * abs(lead) / lead

    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    found = frontier = [np.eye(2)]
    while frontier:
        fresh = []
        for g in frontier:
            for step in (h, np.diag([1, 1j])):
                c = phase_fixed(step @ g)
                if not any(np.allclose(c, f) for f in found + fresh):
                    fresh.append(c)
        found, frontier = found + fresh, fresh
    return found


class TestBeta:
    def test_cnot_beta_half(self):
        assert beta_sru(gate_matrix("CNOT"), restarts=40, seed=7) == pytest.approx(0.5, abs=1e-6)

    def test_cz_beta_half(self):
        assert beta_sru(gate_matrix("CZ"), restarts=40, seed=7) == pytest.approx(0.5, abs=1e-6)

    def test_product_unitary_gives_one(self):
        rng = np.random.default_rng(3)
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        b = beta_sru(u, restarts=40, seed=1)
        assert b == pytest.approx(1.0, abs=1e-6)
        assert b <= 1 + 1e-8

    def test_identity_trace_floor(self):
        u = gate_matrix("CNOT")
        floor = abs(np.trace(u)) ** 2 / 16
        assert beta_sru(u, restarts=5, seed=0) >= floor - 1e-12

    @pytest.mark.parametrize("name", sorted(EXACT_BETA))
    def test_exact_values_on_repeated_spectra(self, name):
        u, exact = EXACT_BETA[name]
        assert beta_sru(u) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(EXACT_BETA))
    def test_search_oracle_agrees(self, name):
        u, exact = EXACT_BETA[name]
        found = beta_search(u, restarts=20, seed=3)
        assert found <= beta_sru(u) + 1e-12
        assert found == pytest.approx(exact, abs=1e-6)

    def test_independent_of_restarts_and_seed(self):
        u = haar_unitary(4, np.random.default_rng(11))
        values = {beta_sru(u, restarts=r, tol=t, seed=s)
                  for r in (0, 3, 200) for t in (1e-3, 1e-8) for s in (0, 11)}
        assert len(values) == 1

    def test_product_unitaries_stay_in_range(self):
        # round-off lifts the unclipped value above 1 for some products,
        # which build_witness would then reject
        rng = np.random.default_rng(21)
        for _ in range(300):
            u = _local(rng)
            assert 1 - 1e-12 <= beta_sru(u) <= 1.0
            assert build_witness(u).beta == beta_sru(u)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6))
    def test_search_never_exceeds_exact(self, seed):
        u = haar_unitary(4, np.random.default_rng(seed))
        assert beta_search(u, restarts=5, seed=seed) <= beta_sru(u) + 1e-12

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 10**6))
    def test_no_product_unitary_beats_it(self, seed):
        rng = np.random.default_rng(seed)
        u = haar_unitary(4, rng)
        beta = beta_sru(u)
        for _ in range(20):
            assert abs(np.trace(_local(rng).conj().T @ u)) ** 2 / 16 <= beta + 1e-12

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 10**6))
    def test_invariant_under_local_dressing(self, seed):
        rng = np.random.default_rng(seed)
        u = haar_unitary(4, rng)
        assert beta_sru(_local(rng) @ u @ _local(rng)) == pytest.approx(beta_sru(u), abs=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 10**6))
    def test_trace_floor_on_haar(self, seed):
        u = haar_unitary(4, np.random.default_rng(seed))
        assert beta_sru(u) >= abs(np.trace(u)) ** 2 / 16 - 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            beta_sru(np.ones((4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite(self, bad):
        u = gate_matrix("CNOT")
        u[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="4x4 unitary"):
                beta_sru(u)

    def test_memo_is_keyed_on_shape_and_bytes(self):
        cnot = gate_matrix("CNOT")
        first = beta_sru(cnot)
        assert first == pytest.approx(0.5, abs=1e-12)
        assert beta_sru(SWAP) == pytest.approx(0.25, abs=1e-12)
        assert beta_sru(cnot.astype(complex)) == first
        with pytest.raises(ValueError):
            beta_sru(cnot.reshape(16))  # same bytes, not a 4x4 unitary
        with pytest.raises(ValueError):
            beta_sru(cnot + 1e-6)
        assert beta_sru(cnot) == first


class TestBuildWitness:
    def test_cnot_self_expectation(self):
        w = gate_witness("CNOT")
        assert expectation(w, unitary_channel(gate_matrix("CNOT"))) == pytest.approx(-0.5)

    def test_trace_arithmetic(self):
        w = gate_witness("CZ")
        assert np.trace(w.matrix).real == pytest.approx(16 * 0.5 - 1)

    def test_identity_witness_is_psd(self):
        w = build_witness(np.eye(4), 1.0)
        assert is_psd(w.matrix, tol=1e-12)

    def test_matrix_is_beta_identity_minus_choi(self):
        w = gate_witness("CNOT")
        c = choi_of(unitary_channel(gate_matrix("CNOT")))
        assert np.max(np.abs(w.matrix - (0.5 * np.eye(16) - c))) == 0.0
        for name in ("CNOT", "CZ", "SWAP", "sqrtSWAP"):  # byte for byte, as the Kraus route
            u, beta = EXACT_BETA[name]
            expected = beta * np.eye(16) - choi_of(unitary_channel(u))
            assert build_witness(u, beta).matrix.tobytes() == expected.tobytes()

    def test_choi_state_is_the_kraus_routes_on_haar(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            u = haar_unitary(4, rng)
            w = build_witness(u)
            expected = w.beta * np.eye(16) - choi_of(unitary_channel(u))
            assert w.matrix.tobytes() == expected.tobytes()

    def test_rank_one_choi_state_is_valid(self):
        rng = np.random.default_rng(29)
        for u in [gate_matrix("CNOT"), SQRT_SWAP] + [haar_unitary(4, rng) for _ in range(10)]:
            c = np.eye(16) - build_witness(u, 1.0).matrix
            assert is_psd(c, 1e-10)
            assert abs(np.trace(c) - 1) <= 1e-10
            assert np.max(np.abs(partial_trace(c, (4, 4), keep=1) - np.eye(4) / 4)) <= 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("beta", [None, 0.5])
    def test_rejects_non_finite(self, bad, beta):
        u = gate_matrix("CZ")
        u[3, 0] = bad
        with pytest.raises(ValueError, match="4x4 unitary"):
            build_witness(u, beta)

    def test_gate_witness_is_built_once_per_gate(self):
        w = gate_witness("cnot")
        assert w is gate_witness("CNOT")
        assert not w.matrix.flags.writeable and not w.unitary.flags.writeable
        for _ in range(2):  # a failed lookup is not cached
            with pytest.raises(ValueError):
                gate_witness("swap")

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            build_witness(np.eye(4), 0.0)
        with pytest.raises(ValueError):
            build_witness(np.eye(4), 1.2)

    def test_rejects_beta_below_exact(self):
        # beta = 0.437 < 1/2: the CNOT operator is negative on a product unitary
        with pytest.raises(ValueError, match="below the exact offset"):
            build_witness(gate_matrix("CNOT"), beta=0.437)

    def test_checking_the_callers_beta_reuses_it(self):
        u = haar_unitary(4, np.random.default_rng(19))
        beta = beta_sru(u)
        hits = witness_module._exact_beta.cache_info().hits
        assert build_witness(u, beta).beta == beta
        assert witness_module._exact_beta.cache_info().hits == hits + 1

    def test_patched_beta_reaches_the_below_exact_check(self, monkeypatch):
        monkeypatch.setattr(witness_module, "beta_sru", lambda u, *args, **kwargs: 0.7)
        assert build_witness(gate_matrix("CNOT")).beta == 0.7
        with pytest.raises(ValueError, match="below the exact offset"):
            build_witness(gate_matrix("CNOT"), 0.6)

    def test_default_beta_is_exact(self):
        u = haar_unitary(4, np.random.default_rng(9))
        w = build_witness(u)
        assert w.beta == beta_sru(u)
        assert build_witness(u, beta=w.beta).beta == w.beta

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6))
    def test_nonnegative_on_extremal_product_states(self, seed):
        rng = np.random.default_rng(seed)
        w = gate_witness("CNOT" if seed % 2 else "CZ")
        phi = np.kron(np.kron(haar_unitary(2, rng), haar_unitary(2, rng)), np.eye(4)) @ max_entangled(4)
        value = np.real(phi.conj() @ w.matrix @ phi)
        assert value >= -1e-9


class TestPauliDecompose:
    @pytest.mark.parametrize("gate,golden", [("CNOT", CNOT_TERMS), ("CZ", CZ_TERMS)])
    def test_golden_terms_exact(self, gate, golden):
        decomp = pauli_decompose(gate_witness(gate))
        got = {s: c for c, s in decomp.terms}
        assert got == golden  # exact Fractions, zero tolerance

    @pytest.mark.parametrize("gate,golden", [("CNOT", CNOT_TERMS), ("CZ", CZ_TERMS)])
    def test_literal_terms_are_the_numeric_split(self, gate, golden):
        """The gate witness and the CLI read one literal; it is the numeric route's split of the
        witness matrix and the golden table, and its beta is the exact one."""
        literal = tuple((Fraction(k, 64), s) for k, s in cover_module.GATE_TERMS[gate])
        w = gate_witness(gate)
        assert pauli_decompose(w) is cover_module.GATE_DECOMPOSITIONS[gate]
        assert pauli_decompose(w).terms == literal
        _assert_same_terms(literal, witness_module._decompose(w.matrix).terms)
        assert {s: c for c, s in literal} == golden
        assert w.beta == cover_module.GATE_BETA
        assert abs(cover_module.GATE_BETA - beta_sru(gate_matrix(gate))) <= 1e-12

    @pytest.mark.parametrize("gate", ["CNOT", "CZ"])
    def test_reconstruction(self, gate):
        w = gate_witness(gate)
        decomp = pauli_decompose(w)
        assert np.max(np.abs(decomp.to_matrix() - w.matrix)) < 1e-12

    def test_terms_sorted_lexicographically(self):
        decomp = pauli_decompose(gate_witness("CNOT"))
        strings = decomp.strings()
        assert list(strings) == sorted(strings)
        assert strings[0] == "IIII"

    def test_coefficient_lookup(self):
        decomp = pauli_decompose(gate_witness("CNOT"))
        assert decomp.coefficient("IXIX") == Fraction(-1, 16)
        assert decomp.coefficient("YYXZ") == Fraction(1, 16)
        assert decomp.coefficient("XXXX") == 0

    def test_json_export_uses_64ths(self):
        obj = pauli_decompose(gate_witness("CZ")).to_json_obj()
        by_string = {e["string"]: e["coeff"] for e in obj}
        assert by_string["IIII"] == "28/64"
        assert by_string["ZZZZ"] == "-4/64"
        assert by_string["ZYIY"] == "4/64"

    def test_generic_beta_keeps_float_coefficients(self):
        w = build_witness(gate_matrix("CNOT"), beta=0.563)
        decomp = pauli_decompose(w)
        identity_coeff = decomp.coefficient("IIII")
        assert isinstance(identity_coeff, float)
        assert identity_coeff == pytest.approx(0.563 - 1 / 16)

    def test_cached_per_witness(self):
        w = gate_witness("CNOT")
        decomp = pauli_decompose(w)
        assert pauli_decompose(w) is decomp
        fresh = build_witness(gate_matrix("CNOT"), 0.5)
        assert pauli_decompose(fresh) is not decomp and pauli_decompose(fresh) == decomp

    def test_cached_result_is_immutable(self):
        decomp = pauli_decompose(gate_witness("CZ"))
        with pytest.raises(FrozenInstanceError):
            decomp.terms = ()
        assert isinstance(decomp.terms, tuple)
        assert all(isinstance(term, tuple) for term in decomp.terms)
        with pytest.raises(ValueError):
            gate_witness("CZ").matrix[0, 0] = 0

    def test_non_hermitian_raises_on_every_call(self):
        w = Witness(beta=0.5, unitary=np.eye(4), matrix=np.triu(np.ones((16, 16))))
        for _ in range(2):
            with pytest.raises(ArithmeticError):
                pauli_decompose(w)

    @pytest.mark.parametrize("name", list(EXACT_BETA))
    def test_matches_reference_route(self, name):
        u, _ = EXACT_BETA[name]
        for beta in (None, 1.0):
            w = build_witness(u, beta)
            _assert_same_terms(pauli_decompose(w).terms, reference_decompose(w.matrix))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6))
    def test_matches_reference_route_on_haar(self, seed):
        w = build_witness(haar_unitary(4, np.random.default_rng(seed)))
        _assert_same_terms(pauli_decompose(w).terms, reference_decompose(w.matrix))

    def test_matches_reference_route_on_dressed_sqrt_swap(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            w = build_witness(_local(rng) @ SQRT_SWAP @ _local(rng))
            terms = pauli_decompose(w).terms
            assert any(isinstance(coeff, float) for coeff, _ in terms)
            _assert_same_terms(terms, reference_decompose(w.matrix))

    def test_non_hermitian_raises_like_reference(self):
        matrix = np.triu(np.ones((16, 16)))
        with pytest.raises(ArithmeticError):
            reference_decompose(matrix)
        with pytest.raises(ArithmeticError):
            pauli_decompose(Witness(beta=0.5, unitary=np.eye(4), matrix=matrix))

    def test_near_rational_coefficient_stays_float(self):
        c = 1 / 64 + 5e-10
        w = Witness(beta=c, unitary=np.eye(4), matrix=c * np.eye(16))
        coeff = pauli_decompose(w).coefficient("IIII")
        assert isinstance(coeff, float)
        assert coeff == pytest.approx(c, abs=1e-15)

    @pytest.mark.parametrize("name", ["CNOT", "CZ", "SWAP", "iSWAP"])
    def test_dressed_clifford_gates_stay_exact(self, name):
        cliffords = _single_qubit_cliffords()
        assert len(cliffords) == 24
        rng = np.random.default_rng(17)
        u, _ = EXACT_BETA[name]
        for _ in range(6):
            a, b, c, d = (cliffords[i] for i in rng.integers(0, 24, 4))
            decomp = pauli_decompose(build_witness(np.kron(a, b) @ u @ np.kron(c, d)))
            assert len(decomp.terms) == 16
            assert all(isinstance(coeff, Fraction) for coeff, _ in decomp.terms)


class TestMinimalSettings:
    @pytest.mark.parametrize("gate", ["CNOT", "CZ"])
    def test_nine_settings(self, gate):
        decomp = pauli_decompose(gate_witness(gate))
        cover = minimal_settings(decomp)
        assert len(cover) == 9
        for _, s in decomp.terms:
            if s != "IIII":
                assert any(setting_covers(c, s) for c in cover)

    @pytest.mark.parametrize("gate", ["CNOT", "CZ"])
    def test_no_eight_setting_cover(self, gate):
        decomp = pauli_decompose(gate_witness(gate))
        assert not cover_exists(decomp, 8)
        assert cover_exists(decomp, 9)

    def test_known_cover_is_valid(self):
        decomp = pauli_decompose(gate_witness("CNOT"))
        for _, s in decomp.terms:
            if s != "IIII":
                assert any(setting_covers(c, s) for c in KNOWN_CNOT_COVER)

    def test_identity_only_needs_no_settings(self):
        decomp = PauliDecomposition(((Fraction(1, 2), "IIII"),))
        assert minimal_settings(decomp) == ()

    @pytest.mark.parametrize("decomp", [
        PauliDecomposition(((Fraction(1, 2), "IIII"),)),
        _decomposition("XYZX"),
        pauli_decompose(gate_witness("CNOT")),
    ], ids=["identity-only", "one-string", "cnot"])
    def test_negative_cover_size_never_suffices(self, decomp):
        assert not cover_exists(decomp, -1)
        assert not cover_exists(decomp, -9)
        assert cover_exists(decomp, 0) == (decomp.strings() == ("IIII",))

    def test_single_full_weight_string(self):
        assert minimal_settings(_decomposition("XYZX")) == ("XYZX",)

    @pytest.mark.parametrize(
        "strings,cover",
        [
            (("XIII",), ("XXXX",)),
            (("XIII", "IYII"), ("XYXX",)),
            # depth-first search meets a lexicographically later seven-setting cover first
            (
                ("IIIX", "IIZY", "IXIZ", "IXXX", "XXXY", "YXIZ",
                 "YXXI", "YYYY", "YYZX", "ZIIX", "ZXIZ", "ZXZI"),
                ("XXXY", "XXZY", "YXXZ", "YYYY", "YYZX", "ZXXX", "ZXZZ"),
            ),
        ],
    )
    def test_ties_break_lexicographically(self, strings, cover):
        assert minimal_settings(_decomposition(*strings)) == cover

    @pytest.mark.parametrize("string", ["XY", "XQII", "XYZXI"])
    def test_rejects_malformed_strings(self, string):
        decomp = _decomposition(string)
        for _ in range(2):  # a failed search caches nothing
            with pytest.raises(ValueError):
                minimal_settings(decomp)
            with pytest.raises(ValueError):
                cover_exists(decomp, 81)

    def test_deterministic_output(self):
        cnot = pauli_decompose(gate_witness("CNOT"))
        assert minimal_settings(cnot) == tuple(sorted(KNOWN_CNOT_COVER))
        assert minimal_settings(pauli_decompose(gate_witness("CZ"))) == CZ_COVER

    def test_cover_cached_per_decomposition(self):
        decomp = pauli_decompose(gate_witness("CZ"))
        cover = minimal_settings(decomp)
        assert minimal_settings(decomp) is cover
        fresh = PauliDecomposition(decomp.terms)
        assert fresh == decomp
        assert minimal_settings(fresh) == cover
        assert isinstance(cover, tuple)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.text("IXYZ", min_size=4, max_size=4), min_size=1, max_size=20))
    def test_matches_reference_search(self, strings):
        _assert_same_covers(_decomposition(*strings))

    @pytest.mark.parametrize("name", ["CNOT", "CZ", "SWAP", "iSWAP"])
    def test_matches_reference_search_on_dressed_gates(self, name):
        cliffords = _single_qubit_cliffords()
        u, _ = EXACT_BETA[name]
        for k in range(24):  # every Clifford in every slot
            a, b, c, d = (cliffords[(m * k + r) % 24] for m, r in ((1, 0), (7, 3), (11, 5), (13, 1)))
            _assert_same_covers(pauli_decompose(build_witness(np.kron(a, b) @ u @ np.kron(c, d))))

    @pytest.mark.parametrize("make", [
        lambda: SQRT_SWAP,
        lambda: haar_unitary(4, np.random.default_rng(5)),
    ], ids=["sqrtSWAP", "haar"])
    def test_matches_reference_search_on_generic_witnesses(self, make):
        _assert_same_covers(pauli_decompose(build_witness(make())))

    @pytest.mark.parametrize("first", ["minimal_settings", "cover_exists"])
    def test_cover_problem_built_once_per_decomposition(self, monkeypatch, first):
        built = []
        real = cover_module._cover_problem
        monkeypatch.setattr(cover_module, "_cover_problem", lambda d: built.append(d) or real(d))
        decomp = PauliDecomposition(pauli_decompose(gate_witness("CZ")).terms)
        if first == "cover_exists":
            assert cover_exists(decomp, 9)
        assert len(minimal_settings(decomp)) == 9
        assert not cover_exists(decomp, 8)
        assert cover_exists(decomp, 9)
        assert built == [decomp]
        other = PauliDecomposition(decomp.terms)
        assert minimal_settings(other) == minimal_settings(decomp)
        assert len(built) == 2 and built[1] is other

    def test_candidate_pool(self):
        assert len(ALL_SETTINGS) == 81
        assert setting_covers("XYZX", "XIZX")
        assert not setting_covers("XYZX", "XIZY")


class TestExpectation:
    def test_identity_channel_not_detected(self):
        w = gate_witness("CNOT")
        assert expectation(w, unitary_channel(np.eye(4))) == pytest.approx(0.25)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            expectation(gate_witness("CNOT"), unitary_channel(np.eye(2)))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_nonnegative_on_sru_channels(self, seed, terms):
        ch = sample_sru(terms, seed=seed)
        assert expectation(gate_witness("CNOT"), ch) >= -1e-9
        assert expectation(gate_witness("CZ"), ch) >= -1e-9

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6))
    def test_kraus_route_matches_choi_route(self, seed):
        w = gate_witness("CZ")
        ch = sample_channel(4, terms=3, seed=seed)
        kraus_route = expectation(w, ch)
        choi_route = w.beta - overlap_direct(choi_of(ch), choi_of(unitary_channel(w.unitary)))
        assert kraus_route == pytest.approx(choi_route, abs=1e-10)
        assert kraus_route == pytest.approx(expectation_via_choi(w, ch), abs=1e-10)


def test_minimal_settings_runtime_budget():
    t0 = time.perf_counter()
    for gate in ("CNOT", "CZ"):
        # a fresh decomposition, so the search runs rather than the cached cover
        decomp = PauliDecomposition(pauli_decompose(gate_witness(gate)).terms)
        assert len(minimal_settings(decomp)) == 9
        assert not cover_exists(decomp, 8)
    assert time.perf_counter() - t0 < 1.0

    # Generic witnesses: sqrt(SWAP) has 52 Pauli terms, a Haar-random
    # unitary 226.  The searches below take about 0.45 s together on a
    # 2-core x86-64 VM, nearly all of it sqrt(SWAP); the budget dates from
    # when they took about 2 s.
    haar = haar_unitary(4, np.random.default_rng(5))
    generic = [
        pauli_decompose(build_witness(u, beta_sru(u, restarts=5, seed=0)))
        for u in (SQRT_SWAP, haar)
    ]
    t0 = time.perf_counter()
    assert len(minimal_settings(generic[0])) == 27
    assert not cover_exists(generic[0], 26)
    assert len(minimal_settings(generic[1])) == 81
    assert time.perf_counter() - t0 < 8.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: depolarising(0.1),
        lambda: build_witness(gate_matrix("CNOT")),
    ],
    ids=["KrausChannel", "Witness"],
)
def test_equality_is_identity_and_objects_hash(make):
    # ndarray fields have no truth value, so the objects compare by identity;
    # channels are compared by Choi state, not by their Kraus operators
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert a in [b, a] and a not in [b]
    assert hash(a) == hash(a) and len({a, b, a}) == 2
