import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmrand.linalg import (
    DomainError,
    ValidationError,
    binary_entropy,
    fidelity,
    hermitian_part,
    is_psd,
    matrix_sqrt,
    require_hermitian,
    von_neumann_entropy,
)

from conftest import random_hermitian, random_state_vector, random_unitary


def _rng(seed):
    return np.random.default_rng(seed)


hermitian_seeds = st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 8))


class TestPsd:
    def test_identity(self):
        assert is_psd(np.eye(3))

    def test_negative_eigenvalue(self):
        assert not is_psd(np.diag([1.0, -0.01]))

    def test_rank_one_projector(self, rng):
        v = random_state_vector(rng, 4)
        assert is_psd(np.outer(v, v.conj()))


class TestMatrixSqrt:
    def test_diagonal(self):
        assert np.allclose(matrix_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(matrix_sqrt(np.eye(5)), np.eye(5))

    def test_noisy_projector_eigenvalues(self):
        # element of the noisy qubit measurement at eps = 0.15
        S = matrix_sqrt(np.diag([0.925, 0.075]))
        assert np.allclose(np.diag(S), [np.sqrt(0.925), np.sqrt(0.075)], atol=1e-12)
        assert abs(S[0, 0] - 0.9617692030835672) < 1e-12
        assert abs(S[1, 1] - 0.27386127875258304) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            matrix_sqrt(np.diag([1.0, -1e-6]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            matrix_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @settings(max_examples=25, deadline=None)
    @given(hermitian_seeds)
    def test_square_roundtrip(self, seed_dim):
        seed, d = seed_dim
        G = random_hermitian(_rng(seed), d)
        H = G @ G.conj().T + 1e-3 * np.eye(d)
        S = matrix_sqrt(H)
        assert np.max(np.abs(S @ S - H)) < 1e-9
        assert np.linalg.eigvalsh(S)[0] >= -1e-10


class TestFidelity:
    def test_self_fidelity(self, rng):
        v = random_state_vector(rng, 3)
        rho = np.outer(v, v.conj())
        assert abs(fidelity(rho, rho) - 1.0) < 1e-9

    def test_orthogonal_states(self):
        assert abs(fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))) < 1e-12

    def test_pure_vs_maximally_mixed(self):
        val = fidelity(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert abs(val - 1.0 / np.sqrt(2.0)) < 1e-12

    def test_rejects_non_psd(self):
        with pytest.raises(DomainError):
            fidelity(np.diag([1.1, -0.1]), np.eye(2) / 2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetric(self, seed):
        rng = _rng(seed)
        d = 3
        A = random_hermitian(rng, d)
        B = random_hermitian(rng, d)
        rho = A @ A.conj().T
        rho /= np.trace(rho).real
        sig = B @ B.conj().T
        sig /= np.trace(sig).real
        assert abs(fidelity(rho, sig) - fidelity(sig, rho)) < 1e-9


class TestEntropies:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0, 0.0])) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-12

    def test_noisy_state_entropy(self):
        # eigenvalues (0.925, 0.075): direct -sum(lam log2 lam) evaluation
        expected = -(0.925 * np.log2(0.925) + 0.075 * np.log2(0.075))
        assert abs(expected - 0.38431154412649704) < 1e-12
        assert abs(von_neumann_entropy(np.diag([0.925, 0.075])) - expected) < 1e-12

    def test_trace_validation(self):
        with pytest.raises(ValidationError):
            von_neumann_entropy(np.diag([0.5, 0.4]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_unitary_invariance(self, seed):
        rng = _rng(seed)
        d = 4
        A = random_hermitian(rng, d)
        rho = A @ A.conj().T
        rho /= np.trace(rho).real
        U = random_unitary(rng, d)
        assert abs(von_neumann_entropy(U @ rho @ U.conj().T) - von_neumann_entropy(rho)) < 1e-9

    def test_binary_entropy_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert abs(binary_entropy(0.763391) - 0.789) < 1e-3

    def test_binary_entropy_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(1.2)

    def test_binary_entropy_maximum(self):
        xs = np.linspace(0.01, 0.99, 99)
        vals = [binary_entropy(float(x)) for x in xs]
        assert np.argmax(vals) == 49


def test_require_hermitian_symmetrizes():
    H = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 1e-14j, 2.0]])
    out = require_hermitian(H)
    assert np.max(np.abs(out - out.conj().T)) == 0.0


def test_hermitian_part_checks_a_stack():
    # the check of verify_decomposition and verify_dual_certificate, on (m, n, d, d) stacks
    S = np.zeros((2, 3, 2, 2), dtype=complex)
    S[1, 2, 0, 1] = 1e-6
    with pytest.raises(ValidationError,
                       match=r"^dual slack is not Hermitian: asymmetry 1\.000e-06 > 1\.0e-08$"):
        hermitian_part(S, 1e-8, "dual slack")
    S[1, 2, 0, 1] = 1e-9
    out = hermitian_part(S, 1e-8)
    assert out[1, 2, 0, 1] == out[1, 2, 1, 0] == 5e-10
