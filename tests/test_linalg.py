import numpy as np
import pytest

from ruwitness.linalg import PAULI_X, PAULI_Z, all_pauli_strings, pauli_basis

from oracles import hs_inner, is_hermitian, is_psd, partial_trace, real_part, reference_pauli_basis

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def pauli_string(labels: str) -> np.ndarray:
    """The matrix of a four-qubit Pauli string, read from ``pauli_basis(4)``."""
    strings, stack = pauli_basis(4)
    return stack[strings.index(labels)]


def _random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


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
        assert np.array_equal(pauli_string("IIII"), np.eye(16))

    def test_traceless_when_not_identity(self):
        assert np.trace(pauli_string("IXIX")) == pytest.approx(0)

    def test_zzzz_diagonal_pm_one(self):
        m = pauli_string("ZZZZ")
        assert np.allclose(m, np.diag(np.diag(m)))
        assert set(np.real(np.diag(m)).tolist()) == {1.0, -1.0}

    def test_hermitian_and_involutory(self):
        for s in ("IXIX", "YZXY", "ZZZZ"):
            m = pauli_string(s)
            assert is_hermitian(m, 1e-15)
            assert np.allclose(m @ m, np.eye(16))

    def test_trace_sixteen_only_for_identity(self):
        for s in all_pauli_strings(4):
            tr = np.trace(pauli_string(s)).real
            assert tr == pytest.approx(16.0 if s == "IIII" else 0.0)

    def test_full_basis_orthogonality(self):
        strings, stack = pauli_basis(4)
        assert len(strings) == 256
        flat = stack.reshape(256, 256)
        gram = flat.conj() @ flat.T
        assert np.max(np.abs(gram - 16 * np.eye(256))) < 1e-12

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

    def test_non_hermitian_is_not_psd(self):
        assert not is_psd(np.array([[0, 1], [0, 0]], dtype=complex))


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

