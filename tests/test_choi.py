"""Choi matrices and the cross-check routes of ``tests/oracles.py`` that read them.

``TestSelftestCrossChecks`` holds the two invariants that ``ruwitness
selftest`` ran while these routes lived in the package, with the same
fixed inputs and tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from ruwitness.channels import dephasing, depolarising, gate_matrix, sample_sru, unitary_channel
from ruwitness.linalg import PAULIS

from oracles import (
    _kraus_image,
    apply_via_choi,
    choi_of,
    loop_tensor,
    max_entangled,
    overlap_basis,
    overlap_direct,
    overlap_kraus,
    partial_trace,
    permute_qubits,
    purity,
    sample_channel,
)


class TestMaxEntangled:
    def test_bell_pair(self):
        v = max_entangled(2)
        assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_d4_amplitudes(self):
        v = max_entangled(4)
        for k in range(4):
            assert v[4 * k + k] == pytest.approx(0.5)
        assert np.linalg.norm(v) == pytest.approx(1)

    def test_ac_bd_factorisation(self):
        # swapping qubits B and C must turn |alpha>_4 into two Bell pairs
        v = permute_qubits(max_entangled(4), (0, 2, 1, 3))
        bell = max_entangled(2)
        assert np.allclose(v, np.kron(bell, bell))

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            max_entangled(1)


class TestPermuteQubits:
    def test_roundtrip(self, rng):
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        w = permute_qubits(permute_qubits(v, (0, 2, 1, 3)), (0, 2, 1, 3))
        assert np.array_equal(v, w)

    def test_matrix_permutation_consistent_with_vectors(self, rng):
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        m = np.outer(v, v.conj())
        pv = permute_qubits(v, (1, 0, 3, 2))
        pm = permute_qubits(m, (1, 0, 3, 2))
        assert np.allclose(pm, np.outer(pv, pv.conj()))

    def test_single_qubit_relabelling(self):
        x_on_b = np.kron(np.eye(2), PAULIS["X"])
        x_on_a = permute_qubits(x_on_b, (1, 0))
        assert np.array_equal(x_on_a, np.kron(PAULIS["X"], np.eye(2)))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute_qubits(np.zeros(16), (0, 0, 1, 2))


class TestChoiOf:
    def test_identity_gives_bell_projector(self):
        c = choi_of(unitary_channel(np.eye(2)))
        v = max_entangled(2)
        assert np.allclose(c, np.outer(v, v.conj()))

    def test_unitary_choi_is_pure(self):
        c = choi_of(unitary_channel(gate_matrix("CNOT")))
        assert purity(c) == pytest.approx(1.0, abs=1e-12)

    def test_full_depolarising_is_maximally_mixed(self):
        # independent oracle: apply the four Pauli Kraus terms to |alpha><alpha|
        alpha = np.outer(max_entangled(2), max_entangled(2).conj())
        acc = np.zeros((4, 4), dtype=complex)
        for p in "IXYZ":
            k = np.kron(PAULIS[p], np.eye(2)) / 2
            acc += k @ alpha @ k.conj().T
        assert np.allclose(acc, np.eye(4) / 4)
        assert np.allclose(choi_of(depolarising(1.0)), np.eye(4) / 4)

    def test_noisy_choi_purity_below_one(self):
        c = choi_of(sample_channel(4, terms=4, seed=8))
        assert purity(c) < 1 - 1e-6

    def test_output_marginal_is_maximally_mixed(self):
        c = choi_of(sample_channel(4, terms=3, seed=2))
        marginal = partial_trace(c, (4, 4), keep=1)
        assert np.allclose(marginal, np.eye(4) / 4)

    def test_density_properties(self):
        m = choi_of(sample_sru(3, seed=12))
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert np.trace(m).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(m)[0] > -1e-12


class TestOverlaps:
    def test_pure_self_overlap(self):
        c = choi_of(unitary_channel(gate_matrix("CZ")))
        assert overlap_direct(c, c) == pytest.approx(1.0)

    def test_cnot_vs_identity(self):
        # oracle: (1/16) |Tr CNOT|^2 = 4/16
        c1 = choi_of(unitary_channel(gate_matrix("CNOT")))
        c2 = choi_of(unitary_channel(np.eye(4)))
        assert overlap_direct(c1, c2) == pytest.approx(0.25, abs=1e-12)

    def test_cnot_vs_cz(self):
        # oracle: Tr[CZ CNOT] = 2, so (1/16) |2|^2 = 1/4
        tr = np.trace(gate_matrix("CZ") @ gate_matrix("CNOT"))
        assert tr == pytest.approx(2)
        c1 = choi_of(unitary_channel(gate_matrix("CNOT")))
        c2 = choi_of(unitary_channel(gate_matrix("CZ")))
        assert overlap_direct(c1, c2) == pytest.approx(0.25, abs=1e-12)

    def test_unitary_self_overlap_kraus(self):
        ch = unitary_channel(gate_matrix("CNOT"))
        assert overlap_kraus(ch, ch) == pytest.approx(1.0)

    def test_depolarised_vs_identity_single_qubit(self):
        # oracle: (1/4) sum_i p_i |Tr sigma_i|^2 = (1/4) * (1/4) * 4
        assert overlap_kraus(depolarising(1.0), unitary_channel(np.eye(2))) == pytest.approx(0.25)

    def test_identity_self_overlap_basis(self):
        assert overlap_basis(unitary_channel(np.eye(2)), unitary_channel(np.eye(2))) == pytest.approx(1.0)

    def test_half_dephasing_consistent_across_routes(self):
        # oracle: (1/4) sum_ij |Tr[A_i^dag A_j]|^2 with A = {I/sqrt2, Z/sqrt2}
        # has only the two diagonal terms |Tr I/2|^2 = 1, giving 1/2
        ch = dephasing(0.5)
        direct = overlap_direct(choi_of(ch), choi_of(ch))
        assert direct == pytest.approx(0.5, abs=1e-12)
        assert overlap_kraus(ch, ch) == pytest.approx(direct, abs=1e-10)
        assert overlap_basis(ch, ch) == pytest.approx(direct, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            overlap_kraus(unitary_channel(np.eye(2)), unitary_channel(np.eye(4)))
        with pytest.raises(ValueError):
            overlap_direct(choi_of(unitary_channel(np.eye(2))), choi_of(unitary_channel(np.eye(4))))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.sampled_from([2, 4]))
    def test_three_way_equivalence(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = sample_channel(dim, terms=int(rng.integers(1, 5)), seed=seed)
        l = sample_channel(dim, terms=int(rng.integers(1, 5)), seed=seed + 10**7)
        direct = overlap_direct(choi_of(m), choi_of(l))
        kraus = overlap_kraus(m, l)
        basis = overlap_basis(m, l)
        assert direct == pytest.approx(kraus, abs=1e-10)
        assert kraus == pytest.approx(basis, abs=1e-10)


class TestChoiReconstruction:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6))
    def test_apply_matches_choi_action(self, seed):
        ch = sample_channel(4, terms=3, seed=seed)
        rho = random_density(4, seed=seed + 1)
        assert np.max(np.abs(_kraus_image(ch, rho) - apply_via_choi(choi_of(ch), rho))) < 1e-10

    def test_noise_sandwich_matches(self):
        ch = loop_tensor(depolarising(0.3), depolarising(0.3))
        rho = random_density(4, seed=77)
        assert np.allclose(_kraus_image(ch, rho), apply_via_choi(choi_of(ch), rho))


class TestSelftestCrossChecks:
    def test_three_way_overlap_equivalence(self):
        for index in range(100):
            dim = 2 if index < 50 else 4
            m = sample_channel(dim, 1 + index % 4, seed=index)
            l = sample_channel(dim, 1 + (index + 2) % 4, seed=index + 5000)
            direct = overlap_direct(choi_of(m), choi_of(l))
            kraus = overlap_kraus(m, l)
            basis = overlap_basis(m, l)
            assert max(abs(direct - kraus), abs(kraus - basis), abs(direct - basis)) < 1e-10, index

    def test_kraus_application_matches_choi_reconstruction(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            ch = sample_channel(4, 3, seed=seed)
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho)
            assert np.max(np.abs(_kraus_image(ch, rho) - apply_via_choi(choi_of(ch), rho))) < 1e-10, seed
