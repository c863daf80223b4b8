import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_density
from ruwitness.channels import (
    KrausChannel,
    _kraus_gram,
    amplitude_damping,
    bit_flip,
    dephasing,
    depolarising,
    gate_matrix,
    haar_unitary,
    pauli_channel,
    sample_sru,
    unitary_channel,
    validate_cpt,
)
from ruwitness.linalg import PAULI_X, PAULI_Z

from oracles import (
    _kraus_image,
    choi_of,
    loop_compose,
    loop_tensor,
    reference_kraus_gram,
    reference_validate_choi,
    sample_channel,
)


def choi_equal(a: KrausChannel, b: KrausChannel, tol: float = 1e-12) -> bool:
    """Channel equality is Choi-state equality, not Kraus-list equality."""
    return np.max(np.abs(choi_of(a) - choi_of(b))) <= tol


class TestGates:
    def test_cnot_matrix(self):
        assert np.array_equal(
            gate_matrix("cnot"),
            np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        )

    def test_cz_matrix(self):
        assert np.array_equal(gate_matrix("CZ"), np.diag([1, 1, 1, -1]))

    def test_cz_is_hadamard_conjugated_cnot(self):
        h = gate_matrix("H")
        ih = np.kron(np.eye(2), h)
        assert np.allclose(ih @ gate_matrix("CNOT") @ ih, gate_matrix("CZ"))

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            gate_matrix("SWAP")


class TestValidateCpt:
    def test_unitary_channel(self):
        assert validate_cpt(unitary_channel(gate_matrix("CNOT")))

    def test_incomplete_kraus_set(self):
        ch = KrausChannel(2, (np.eye(2, dtype=complex) / 2,))
        assert not validate_cpt(ch)

    def test_amplitude_damping_completeness(self):
        # independent oracle: assemble A1^dag A1 + A2^dag A2 by hand
        g = 0.3
        a1 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex)
        a2 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)
        total = a1.conj().T @ a1 + a2.conj().T @ a2
        assert np.allclose(total, np.eye(2))
        assert validate_cpt(amplitude_damping(g))

    def test_shape_mismatch_rejected(self):
        for bad in ((np.eye(3, dtype=complex),), np.eye(2), [np.eye(2), np.eye(3)]):
            with pytest.raises(ValueError):
                KrausChannel(2, bad)

    def test_rejects_channels_that_are_not_cpt(self):
        assert not validate_cpt(KrausChannel(2, [2 * np.eye(2)]))
        # CP with a unit-trace Choi state, not TP
        assert not validate_cpt(KrausChannel(2, [np.diag([np.sqrt(1.5), np.sqrt(0.5)])]))

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 10**6), st.sampled_from([2, 4]), st.integers(1, 5),
        st.booleans(), st.floats(-13, 0),
    )
    def test_rejects_whatever_the_choi_matrix_validator_rejects(self, seed, dim, terms, tp, log_eps):
        # off TP, sum A^dag A = (1 + eps) 1; at eps = tol both checks read round-off
        assume(tp or abs(log_eps + 10) > 1e-3)
        ch = sample_channel(dim, terms, seed)
        if not tp:
            ch = KrausChannel(dim, ch.kraus * np.sqrt(1 + 10**log_eps))
        try:
            reference_validate_choi(choi_of(ch), dim, 1e-10)
        except ValueError:
            assert not tp
            assert not validate_cpt(ch, 1e-10)
        if tp:
            assert validate_cpt(ch, 1e-10)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 10**6), st.sampled_from([2, 4]), st.integers(1, 16),
        st.integers(-500, 500).filter(bool), st.sampled_from([-1, 1]),
    )
    def test_one_product_equals_the_einsum(self, seed, dim, terms, step, sign):
        # sum A^dag A = (1 +- eps) 1 with eps within 50% of the tolerance, but never within
        # 1e-13 of it, so the two sums' round-off cannot decide the check
        eps = 1e-10 * (1 + step / 1000)
        ch = KrausChannel(dim, sample_channel(dim, terms, seed).kraus * np.sqrt(1 + sign * eps))
        gram, reference = _kraus_gram(ch.kraus), reference_kraus_gram(ch.kraus)
        assert np.max(np.abs(gram - reference)) <= 1e-15
        within = bool(np.max(np.abs(reference - np.eye(dim))) <= 1e-10)
        assert validate_cpt(ch, 1e-10) == within == (step < 0)


class TestKrausArray:
    @pytest.mark.parametrize("form", ["tuple", "list", "generator", "ndarray"])
    def test_one_read_only_array(self, form):
        ops = [np.eye(2), np.zeros((2, 2)), PAULI_X]
        given_ops = {
            "tuple": tuple(ops),
            "list": ops,
            "generator": (a for a in ops),
            "ndarray": np.array(ops),
        }[form]
        ch = KrausChannel(2, given_ops)
        assert type(ch.kraus) is np.ndarray and ch.kraus.dtype == complex
        assert ch.kraus.shape == (2, 2, 2) and ch.kraus.flags.c_contiguous
        assert np.array_equal(ch.kraus, [np.eye(2), PAULI_X])  # the zero operator is dropped
        assert ch.n_kraus == len(ch.kraus) == len(list(ch.kraus)) == 2
        assert np.array_equal(ch.kraus[1], PAULI_X)
        with pytest.raises(ValueError):
            ch.kraus[0, 0, 0] = 5.0
        with pytest.raises(ValueError):
            ch.kraus[1][0, 1] = 5.0

    def test_input_is_copied(self):
        ops = np.array([np.eye(2), PAULI_X])
        ch = KrausChannel(2, ops)
        ops[0, 0, 0] = 7.0
        assert ch.kraus[0, 0, 0] == 1.0

    @pytest.mark.parametrize(
        "ops", [(), [], np.zeros((0, 2, 2)), (np.zeros((2, 2)),), np.zeros((3, 2, 2))]
    )
    def test_empty_or_all_zero_rejected(self, ops):
        with pytest.raises(ValueError):
            KrausChannel(2, ops)

    @pytest.mark.parametrize("value", [
        np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(0.0, np.nan), complex(0.0, -np.inf),
    ])
    def test_non_finite_rejected(self, value):
        a = np.eye(2, dtype=complex)
        a[0, 1] = value
        for ops in ((a,), np.array([np.eye(2), a]), [np.eye(2).tolist(), a.tolist()]):
            with pytest.raises(ValueError, match="finite"):
                KrausChannel(2, ops)


class TestPauliChannel:
    def test_depolarising_probabilities(self):
        ch = depolarising(0.4)
        weights = sorted(np.max(np.abs(k)) for k in ch.kraus)
        assert weights[:3] == pytest.approx([math.sqrt(0.1)] * 3)
        assert weights[3] == pytest.approx(math.sqrt(0.7))

    def test_dephasing_drops_zero_terms(self):
        ch = dephasing(0.2)
        assert ch.n_kraus == 2
        assert np.allclose(ch.kraus[0], math.sqrt(0.8) * np.eye(2))
        assert np.allclose(ch.kraus[1], math.sqrt(0.2) * PAULI_Z)

    def test_bit_flip_kraus(self):
        ch = bit_flip(0.3)
        assert ch.n_kraus == 2
        assert np.allclose(ch.kraus[1], math.sqrt(0.3) * PAULI_X)

    def test_negative_probability(self):
        with pytest.raises(ValueError):
            pauli_channel(1.2, -0.2, 0, 0)

    def test_unnormalised_probabilities(self):
        with pytest.raises(ValueError):
            pauli_channel(0.5, 0.4, 0, 0)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_simplex_samples_are_cpt(self, seed):
        p = np.random.default_rng(seed).dirichlet(np.ones(4))
        assert validate_cpt(pauli_channel(*p))


class TestAmplitudeDamping:
    def test_zero_damping_is_identity(self):
        ch = amplitude_damping(0.0)
        assert ch.n_kraus == 1
        assert np.array_equal(ch.kraus[0], np.eye(2))

    def test_full_damping(self):
        ch = amplitude_damping(1.0)
        assert np.allclose(ch.kraus[0], np.diag([1.0, 0.0]))
        assert np.allclose(ch.kraus[1], np.array([[0, 1], [0, 0]]))

    def test_half_damping_entry(self):
        assert amplitude_damping(0.5).kraus[0][1, 1] == pytest.approx(1 / math.sqrt(2))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            amplitude_damping(1.5)
        with pytest.raises(ValueError):
            amplitude_damping(-0.01)


class TestAlgebra:
    """The Kraus algebra of the tests, ``loop_tensor`` and ``loop_compose``."""

    def test_tensor_identities(self):
        assert choi_equal(loop_tensor(unitary_channel(np.eye(2)), unitary_channel(np.eye(2))), unitary_channel(np.eye(4)))

    def test_tensor_kraus_counts(self):
        assert loop_tensor(depolarising(0.5), depolarising(0.5)).n_kraus == 16
        assert loop_tensor(amplitude_damping(0.5), amplitude_damping(0.5)).n_kraus == 4

    def test_compose_unitaries(self):
        u, v = gate_matrix("CNOT"), gate_matrix("CZ")
        assert choi_equal(
            loop_compose(unitary_channel(u), unitary_channel(v)), unitary_channel(u @ v)
        )

    def test_compose_with_identity(self):
        ch = depolarising(0.3)
        assert choi_equal(loop_compose(unitary_channel(np.eye(2)), ch), ch)
        assert choi_equal(loop_compose(ch, unitary_channel(np.eye(2))), ch)

    def test_cz_commutes_with_two_sided_dephasing(self):
        cz = unitary_channel(gate_matrix("CZ"))
        for q in (0.1, 0.5, 0.9):
            noise = loop_tensor(dephasing(q), dephasing(q))
            assert choi_equal(loop_compose(noise, cz), loop_compose(cz, noise), tol=1e-12)


class TestApply:
    """Physics of the Kraus action sum_k A_k rho A_k^dag."""

    def test_full_depolarisation(self):
        rho = random_density(2, seed=5)
        assert np.allclose(_kraus_image(depolarising(1.0), rho), np.eye(2) / 2)

    def test_bit_flip_unitary(self):
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        ket1 = np.diag([0.0, 1.0]).astype(complex)
        assert np.allclose(_kraus_image(unitary_channel(PAULI_X), ket0), ket1)

    def test_half_dephasing_kills_coherence(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        # independent oracle: evaluate the Kraus sum by hand
        expected = 0.5 * plus + 0.5 * (PAULI_Z @ plus @ PAULI_Z)
        assert np.allclose(expected, np.eye(2) / 2)
        assert np.allclose(_kraus_image(dephasing(0.5), plus), np.eye(2) / 2)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6))
    def test_preserves_density_matrices(self, seed):
        rng = np.random.default_rng(seed)
        ch = sample_channel(4, terms=int(rng.integers(1, 5)), seed=seed)
        rho = random_density(4, seed=seed + 1)
        out = _kraus_image(ch, rho)
        assert abs(np.trace(out) - 1) < 1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(out)[0] > -1e-10


class TestSampling:
    def test_single_term_is_product_unitary(self):
        ch = sample_sru(1, seed=3)
        assert ch.n_kraus == 1
        u = ch.kraus[0]
        assert np.allclose(u.conj().T @ u, np.eye(4))

    def test_deterministic_for_fixed_seed(self):
        a, b = sample_sru(4, seed=9), sample_sru(4, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))

    def test_requires_positive_terms(self):
        with pytest.raises(ValueError):
            sample_sru(0, seed=1)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_sru_samples_are_cpt(self, seed, terms):
        assert validate_cpt(sample_sru(terms, seed))

    def test_haar_unitary_is_unitary(self, rng):
        u = haar_unitary(2, rng)
        assert np.allclose(u.conj().T @ u, np.eye(2))
