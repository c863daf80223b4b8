import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from ruwitness.channels import (
    KrausChannel,
    amplitude_damping,
    apply,
    bit_flip,
    channel_from_json_obj,
    channel_to_json_obj,
    compose,
    dephasing,
    depolarising,
    gate_matrix,
    haar_unitary,
    identity_channel,
    pauli_channel,
    sample_channel,
    sample_sru,
    tensor,
    unitary_channel,
    validate_cpt,
)
from ruwitness.choi import choi_of
from ruwitness.linalg import PAULI_X, PAULI_Z

from oracles import loop_compose, loop_tensor


def choi_equal(a: KrausChannel, b: KrausChannel, tol: float = 1e-12) -> bool:
    """Channel equality is Choi-state equality, not Kraus-list equality."""
    return np.max(np.abs(choi_of(a).matrix - choi_of(b).matrix)) <= tol


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_non_finite_rejected(self, value):
        a = np.eye(2, dtype=complex)
        a[0, 1] = value
        with pytest.raises(ValueError):
            KrausChannel(2, (a,))

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rejected_from_json(self, text):
        obj = json.loads(f'{{"dim": 2, "kraus": [[[1, 0], [{text}, 0], [0, 0], [1, 0]]]}}')
        with pytest.raises(ValueError):
            channel_from_json_obj(obj)


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
    def test_tensor_identities(self):
        assert choi_equal(tensor(identity_channel(2), identity_channel(2)), identity_channel(4))

    def test_tensor_kraus_counts(self):
        assert tensor(depolarising(0.5), depolarising(0.5)).n_kraus == 16
        assert tensor(amplitude_damping(0.5), amplitude_damping(0.5)).n_kraus == 4

    @pytest.mark.parametrize("dim", [2, 4])
    def test_array_forms_match_loop_forms(self, dim):
        """tensor and compose give the loop forms' operators, bit for bit and in order."""
        for n_a in range(1, 5):
            for n_b in range(1, 5):
                a = sample_channel(dim, n_a, seed=10 * n_a + n_b)
                b = sample_channel(dim, n_b, seed=100 + 10 * n_a + n_b)
                assert np.array_equal(tensor(a, b).kraus, loop_tensor(a, b).kraus)
                assert np.array_equal(compose(a, b).kraus, loop_compose(a, b).kraus)

    def test_compose_unitaries(self):
        u, v = gate_matrix("CNOT"), gate_matrix("CZ")
        assert choi_equal(
            compose(unitary_channel(u), unitary_channel(v)), unitary_channel(u @ v)
        )

    def test_compose_with_identity(self):
        ch = depolarising(0.3)
        assert choi_equal(compose(identity_channel(2), ch), ch)
        assert choi_equal(compose(ch, identity_channel(2)), ch)

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_channel(2), identity_channel(4))

    def test_cz_commutes_with_two_sided_dephasing(self):
        cz = unitary_channel(gate_matrix("CZ"))
        for q in (0.1, 0.5, 0.9):
            noise = tensor(dephasing(q), dephasing(q))
            assert choi_equal(compose(noise, cz), compose(cz, noise), tol=1e-12)


class TestApply:
    def test_full_depolarisation(self):
        rho = random_density(2, seed=5)
        assert np.allclose(apply(depolarising(1.0), rho), np.eye(2) / 2)

    def test_bit_flip_unitary(self):
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        ket1 = np.diag([0.0, 1.0]).astype(complex)
        assert np.allclose(apply(unitary_channel(PAULI_X), ket0), ket1)

    def test_half_dephasing_kills_coherence(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        # independent oracle: evaluate the Kraus sum by hand
        expected = 0.5 * plus + 0.5 * (PAULI_Z @ plus @ PAULI_Z)
        assert np.allclose(expected, np.eye(2) / 2)
        assert np.allclose(apply(dephasing(0.5), plus), np.eye(2) / 2)

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            apply(depolarising(0.1), np.diag([1.0, 1.0]).astype(complex))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6))
    def test_preserves_density_matrices(self, seed):
        rng = np.random.default_rng(seed)
        ch = sample_channel(4, terms=int(rng.integers(1, 5)), seed=seed)
        rho = random_density(4, seed=seed + 1)
        out = apply(ch, rho)
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


class TestJson:
    def test_round_trip(self):
        for ch in (tensor(depolarising(0.35), amplitude_damping(0.2)), sample_channel(2, 3, seed=4)):
            back = channel_from_json_obj(json.loads(json.dumps(channel_to_json_obj(ch))))
            assert back.dim == ch.dim
            assert np.array_equal(ch.kraus, back.kraus)

    def test_golden_dephasing(self):
        obj = channel_to_json_obj(dephasing(0.25))
        s75, s25 = math.sqrt(0.75), math.sqrt(0.25)
        assert obj == {
            "dim": 2,
            "kraus": [
                [[s75, 0.0], [0.0, 0.0], [0.0, 0.0], [s75, 0.0]],
                [[s25, 0.0], [0.0, 0.0], [0.0, 0.0], [-s25, 0.0]],
            ],
        }
