import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmrand.closed_form import (
    detect_noisy_projective,
    midpoint_lower_bound,
    pguess_star_certified,
    pguess_star_noisy_projective,
    pguess_star_qubit_two_outcome,
    two_outcome_upper_bound,
)
from qmrand.linalg import ValidationError
from qmrand.povm import NoiseModel, Povm, noisy_projective, two_outcome_qubit, unbiased_state

from conftest import random_povm, random_qubit_two_outcome, random_unitary


def qubit_formula(m1, m2):
    """1 - tr M1 + (tr sqrt M1)^2 / 2 evaluated on the eigenvalues."""
    return 1.0 - (m1 + m2) + 0.5 * (np.sqrt(m1) + np.sqrt(m2)) ** 2


class TestTheorem1:
    def test_projective_limit(self):
        rep = pguess_star_qubit_two_outcome(two_outcome_qubit(1.0, 0.0))
        assert abs(rep.pguess - 0.5) < 1e-15
        assert abs(rep.hmin_bits - 1.0) < 1e-12

    def test_trivial_povm(self):
        rep = pguess_star_qubit_two_outcome(two_outcome_qubit(0.5, 0.5))
        assert abs(rep.pguess - 1.0) < 1e-15

    def test_spot_value(self):
        # diag(0.5, 0.1): 1 - 0.6 + (sqrt(.5)+sqrt(.1))^2/2 = 0.92360679775
        rep = pguess_star_qubit_two_outcome(two_outcome_qubit(0.5, 0.1))
        assert abs(rep.pguess - 0.9236067977499790) < 1e-12
        assert abs(rep.pguess - qubit_formula(0.5, 0.1)) < 1e-15

    def test_unitary_invariance(self, rng):
        for _ in range(5):
            U = random_unitary(rng, 2)
            plain = two_outcome_qubit(0.63, 0.21)
            rotated = two_outcome_qubit(0.63, 0.21, basis=U)
            a = pguess_star_qubit_two_outcome(plain).pguess
            b = pguess_star_qubit_two_outcome(rotated).pguess
            assert abs(a - b) < 1e-12

    def test_optimal_state_unbiased(self, rng):
        pv = random_qubit_two_outcome(rng)
        rep = pguess_star_qubit_two_outcome(pv)
        w, V = np.linalg.eigh(pv.elements[0])
        overlaps = np.abs(V.conj().T @ rep.optimal_state.amplitudes) ** 2
        assert np.allclose(overlaps, 0.5, atol=1e-10)

    def test_wrong_dim(self):
        with pytest.raises(ValidationError):
            pguess_star_qubit_two_outcome(noisy_projective(3, 0.1))


class TestTheorem2:
    def test_noiseless(self):
        for d in (2, 3, 5):
            rep = pguess_star_noisy_projective(NoiseModel(d, 0.0))
            assert abs(rep.pguess - 1.0 / d) < 1e-12

    def test_maximally_mixed(self):
        for d in (2, 4):
            rep = pguess_star_noisy_projective(NoiseModel(d, 1.0))
            assert abs(rep.pguess - 1.0) < 1e-12

    def test_spot_value_d3(self):
        # (sqrt(2.6) + 2 sqrt(0.2))^2 / 9
        expected = (np.sqrt(2.6) + 2 * np.sqrt(0.2)) ** 2 / 9.0
        rep = pguess_star_noisy_projective(NoiseModel(3, 0.2))
        assert abs(expected - 0.6982712244856881) < 1e-12
        assert abs(rep.pguess - expected) < 1e-15

    def test_hmin_consistency(self):
        noise = NoiseModel(4, 0.3)
        rep = pguess_star_noisy_projective(noise)
        trsq = noise.trace_sqrt_element()
        assert abs(rep.hmin_bits - (np.log2(4) - np.log2(trsq**2))) < 1e-12

    def test_monotone_in_epsilon(self):
        for d in (2, 3, 4, 5, 6):
            vals = [
                pguess_star_noisy_projective(NoiseModel(d, e)).pguess
                for e in np.linspace(0.0, 1.0, 41)
            ]
            assert np.all(np.diff(vals) >= -1e-14)

    def test_d2_equals_theorem1(self):
        for eps in np.linspace(0.0, 1.0, 21):
            a = pguess_star_noisy_projective(NoiseModel(2, float(eps))).pguess
            b = pguess_star_qubit_two_outcome(noisy_projective(2, float(eps))).pguess
            closed = 0.5 * (1.0 + np.sqrt(eps * (2.0 - eps)))
            assert abs(a - b) < 1e-12
            assert abs(a - closed) < 1e-12


class TestCorollary1:
    def _embedded_povm(self):
        # d = 3 two-outcome POVM with lmax(M1) = 0.9, lmin(M1) = 0.1
        M1 = np.diag([0.9, 0.4, 0.1]).astype(complex)
        return Povm((M1, np.eye(3) - M1))

    def test_spot_value(self):
        rep = two_outcome_upper_bound(self._embedded_povm())
        # (sqrt(0.9) - sqrt(0.1))^2 = 0.4 exactly
        assert abs(rep.pguess - 0.8) < 1e-12
        assert rep.method == "corollary1-bound"

    def test_qubit_subspace_cross_check(self):
        # Theorem 1 on the projected qubit POVM diag(0.9, 0.1)
        rep = two_outcome_upper_bound(self._embedded_povm())
        assert abs(rep.pguess - qubit_formula(0.9, 0.1)) < 1e-12

    def test_projector_complement(self):
        P = np.diag([1.0, 1.0, 0.0]).astype(complex)
        rep = two_outcome_upper_bound(Povm((P, np.eye(3) - P)))
        assert abs(rep.pguess - 0.5) < 1e-12

    def test_reduces_to_theorem1_for_qubits(self, rng):
        for _ in range(10):
            pv = random_qubit_two_outcome(rng)
            a = two_outcome_upper_bound(pv).pguess
            b = pguess_star_qubit_two_outcome(pv).pguess
            assert abs(a - b) < 1e-12

    def test_degenerate_spectrum(self):
        pv = Povm((np.eye(3) * 0.4, np.eye(3) * 0.6))
        assert abs(two_outcome_upper_bound(pv).pguess - 1.0) < 1e-15


class TestMidpointBound:
    def test_extreme_case_saturates_corollary(self):
        pv = two_outcome_qubit(1.0, 0.0)
        assert abs(midpoint_lower_bound(pv) - 0.5) < 1e-15

    def test_trivial(self):
        pv = Povm((np.eye(3) * 0.3, np.eye(3) * 0.7))
        assert abs(midpoint_lower_bound(pv) - 1.0) < 1e-15

    def test_spot_value(self):
        M1 = np.diag([0.9, 0.4, 0.1]).astype(complex)
        pv = Povm((M1, np.eye(3) - M1))
        assert abs(midpoint_lower_bound(pv) - 0.6) < 1e-15

    def test_lower_bounds_upper_bound(self, rng):
        for _ in range(20):
            pv = random_qubit_two_outcome(rng)
            assert midpoint_lower_bound(pv) <= two_outcome_upper_bound(pv).pguess + 1e-12


class TestDetection:
    def test_detects_computational_basis(self):
        assert abs(detect_noisy_projective(noisy_projective(3, 0.27))[0].epsilon - 0.27) < 1e-9

    def test_detects_rotated_basis(self, rng):
        U = random_unitary(rng, 3)
        pv = noisy_projective(3, 0.27)
        rotated = Povm(tuple(U @ E @ U.conj().T for E in pv.elements))
        assert abs(detect_noisy_projective(rotated)[0].epsilon - 0.27) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.integers(0, 2**32 - 1))
    def test_returns_the_basis(self, d, eps, seed):
        # any basis, any outcome order: U^dag M_x U is the computational element
        rng = np.random.default_rng(seed)
        U = random_unitary(rng, d)
        order = rng.permutation(d)
        elements = noisy_projective(d, eps).elements
        pv = Povm(tuple(U @ elements[x] @ U.conj().T for x in order))
        noise, V = detect_noisy_projective(pv)
        assert abs(noise.epsilon - eps) < 1e-9
        assert np.max(np.abs(V.conj().T @ V - np.eye(d))) < 1e-9
        for M, N in zip(pv.elements, noise.povm().elements):
            assert np.max(np.abs(V.conj().T @ M @ V - N)) < 1e-9

    def test_rejects_non_isotropic(self):
        M1 = np.diag([0.6, 0.25, 0.15]).astype(complex)
        M2 = np.diag([0.25, 0.6, 0.15]).astype(complex)
        pv = Povm((M1, M2, np.eye(3) - M1 - M2))
        assert detect_noisy_projective(pv) is None

    def test_rejects_element_traces_off_one(self, rng):
        # a random 3-outcome qutrit POVM fails the first test, tr M_x = 1
        pv = Povm(tuple(random_povm(rng, 3, 3)))
        assert max(abs(np.trace(E).real - 1.0) for E in pv.elements) > 1e-3
        assert detect_noisy_projective(pv) is None
        assert pguess_star_certified(pv) is None

    def test_certified_dispatch(self, rng):
        pv = random_qubit_two_outcome(rng)
        assert pguess_star_certified(pv).method == "theorem1"
        assert pguess_star_certified(noisy_projective(4, 0.4)).method == "theorem2"
        M1 = np.diag([0.6, 0.25, 0.15]).astype(complex)
        M2 = np.diag([0.25, 0.6, 0.15]).astype(complex)
        assert pguess_star_certified(Povm((M1, M2, np.eye(3) - M1 - M2))) is None
