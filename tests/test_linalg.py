import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruwitness.linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    _validate_choi,
    all_pauli_strings,
    hs_inner,
    is_hermitian,
    is_psd,
    kron,
    partial_trace,
    pauli_basis,
    pauli_string_matrix,
    real_part,
)

from oracles import reference_pauli_basis

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestKron:
    def test_identity_times_identity(self):
        assert np.array_equal(kron(PAULI_I, PAULI_I), np.eye(4))

    def test_xx_entries(self):
        xx = kron(PAULI_X, PAULI_X)
        assert xx[0, 3] == 1
        assert xx[0, 0] == 0

    def test_zz_diagonal(self):
        assert np.allclose(kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))

    def test_needs_a_factor(self):
        with pytest.raises(ValueError):
            kron()

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_associativity_and_trace(self, seed):
        rng = np.random.default_rng(seed)
        dims = rng.integers(2, 5, size=3)
        a, b, c = (_random_matrix(rng, d) for d in dims)
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-14
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


class TestHsInner:
    def test_pauli_norm(self):
        assert hs_inner(PAULI_X, PAULI_X) == pytest.approx(2)

    def test_pauli_orthogonality(self):
        assert hs_inner(PAULI_X, PAULI_Z) == pytest.approx(0)

    def test_identity_with_cnot_is_diagonal_sum(self):
        # independent oracle: sum the CNOT diagonal entrywise
        expected = sum(CNOT[i, i] for i in range(4))
        assert expected == 2
        assert hs_inner(np.eye(4), CNOT) == pytest.approx(2)

    def test_conjugate_symmetry(self, rng):
        a, b = _random_matrix(rng, 4), _random_matrix(rng, 4)
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(PAULI_X, np.eye(4))


class TestPauliStrings:
    def test_identity_string(self):
        assert np.array_equal(pauli_string_matrix("IIII"), np.eye(16))

    def test_traceless_when_not_identity(self):
        assert np.trace(pauli_string_matrix("IXIX")) == pytest.approx(0)

    def test_zzzz_diagonal_pm_one(self):
        m = pauli_string_matrix("ZZZZ")
        assert np.allclose(m, np.diag(np.diag(m)))
        assert set(np.real(np.diag(m)).tolist()) == {1.0, -1.0}

    def test_hermitian_and_involutory(self):
        for s in ("IXIX", "YZXY", "ZZZZ"):
            m = pauli_string_matrix(s)
            assert is_hermitian(m, 1e-15)
            assert np.allclose(m @ m, np.eye(16))

    def test_trace_sixteen_only_for_identity(self):
        for s in all_pauli_strings(4):
            tr = np.trace(pauli_string_matrix(s)).real
            assert tr == pytest.approx(16.0 if s == "IIII" else 0.0)

    def test_full_basis_orthogonality(self):
        strings, stack = pauli_basis(4)
        assert len(strings) == 256
        flat = stack.reshape(256, 256)
        gram = flat.conj() @ flat.T
        assert np.max(np.abs(gram - 16 * np.eye(256))) < 1e-12

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            pauli_string_matrix("IXQZ")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_basis_equals_kron_reference(self, n):
        strings, stack = pauli_basis(n)
        ref_strings, ref_stack = reference_pauli_basis(n)
        assert strings == ref_strings
        assert stack.shape == ref_stack.shape == (4**n, 2**n, 2**n)
        assert np.array_equal(stack, ref_stack)
        assert not stack.flags.writeable

    def test_basis_needs_a_qubit(self):
        with pytest.raises(ValueError):
            pauli_basis(0)


class TestPsd:
    def test_maximally_mixed(self):
        assert is_psd(np.eye(2) / 2)

    def test_negative_eigenvalue(self):
        assert not is_psd(np.diag([1.0, -0.1]).astype(complex), tol=1e-12)

    def test_rank_one_projector(self):
        v = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
        assert is_psd(np.outer(v, v.conj()))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            is_psd(np.array([[0, 1], [0, 0]], dtype=complex))


class TestHelpers:
    def test_partial_trace_of_product(self, rng):
        a, b = _random_matrix(rng, 2), _random_matrix(rng, 3)
        m = np.kron(a, b)
        assert np.allclose(partial_trace(m, (2, 3), keep=0), a * np.trace(b))
        assert np.allclose(partial_trace(m, (2, 3), keep=1), b * np.trace(a))

    def test_real_part_guards_imaginary(self):
        assert real_part(1.25 + 1e-15j) == 1.25
        with pytest.raises(ArithmeticError):
            real_part(1.0 + 1e-6j)


class TestValidateChoi:
    BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex) / 2  # Choi state of the identity

    def test_accepts_a_choi_state(self):
        _validate_choi(self.BELL, 2, 1e-10)
        _validate_choi(np.eye(4) / 4, 2, 1e-10, lowest=0.25)

    @pytest.mark.parametrize("matrix,message", [
        (np.triu(np.ones((4, 4))) / 4, "not Hermitian"),
        (np.eye(4) / 2, "unit trace"),
        (np.diag([0.75, 0.25, -0.25, 0.25]), "positive semidefinite"),
        (np.diag([0.5, 0.25, 0.25, 0.0]), "not trace preserving"),
    ])
    def test_rejects(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            _validate_choi(matrix, 2, 1e-10)

    def test_lowest_eigenvalue_from_the_caller(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            _validate_choi(self.BELL, 2, 1e-10, lowest=-1e-9)
        _validate_choi(np.diag([0.75, 0.25, -0.25, 0.25]), 2, 1e-10, lowest=0.0)  # trusted as given
