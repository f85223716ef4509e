import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmrand import linalg
from qmrand.linalg import DomainError, ValidationError, max_abs
from qmrand.povm import (
    NoiseModel,
    Povm,
    PureState,
    born_probabilities,
    coarse_grain,
    depolarize,
    halves_partition,
    noisy_projective,
    two_outcome_qubit,
    unbiased_state,
)

from conftest import random_state_vector, random_unitary


class TestPureState:
    def test_phase_gauge(self):
        st1 = PureState(np.array([0.6j, 0.8j]))
        assert np.allclose(st1.amplitudes, [0.6, 0.8])

    def test_normalization_enforced(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_amplitude_rejected(self, bad):
        # a NaN amplitude used to pass the normalization test, as NaN compares False
        with pytest.raises(ValidationError, match="finite"):
            PureState(np.array([bad, 0.8]))

    def test_projector(self):
        p = unbiased_state(2).projector()
        assert np.allclose(p, 0.5 * np.ones((2, 2)))


class TestPovmType:
    def test_rejects_single_element(self):
        with pytest.raises(ValidationError):
            Povm((np.eye(2),))

    def test_rejects_non_psd(self):
        with pytest.raises(ValidationError):
            Povm((np.diag([1.2, 1.0]), np.diag([-0.2, 0.0])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        # three qubit outcomes, one NaN entry: PSD and completeness tests compare False
        E = np.diag([0.5, 0.0]).astype(complex)
        E[1, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            Povm((E, np.diag([0.5, 0.5]), np.diag([0.0, 0.5])))

    def test_rejects_incomplete(self):
        with pytest.raises(ValidationError):
            Povm((np.eye(2) / 2, np.eye(2) / 3))

    @pytest.mark.parametrize("diagonals, first", [
        ([(0.5, 0.5), (0.6, 0.1), (-0.1, 0.4)], 2),
        ([(-0.1, 0.5), (0.2, -0.1), (0.9, 0.6)], 0),
    ])
    def test_non_psd_message_names_the_first_bad_element(self, diagonals, first):
        with pytest.raises(ValidationError, match=rf"^POVM element {first} is not PSD within 1\.0e-09$"):
            Povm([np.diag(w) for w in diagonals])

    def test_elements_keep_sequence_behaviour(self):
        pv = noisy_projective(3, 0.2)
        M1, M2, M3 = pv.elements
        assert len(pv.elements) == 3 and pv.elements.shape == (3, 3, 3)
        assert [E.shape for E in pv.elements] == [(3, 3)] * 3
        assert np.array_equal(pv.elements[1], M2) and np.array_equal(M1 + M2 + M3, np.eye(3))

    def test_elements_are_read_only(self):
        pv = noisy_projective(2, 0.2)
        with pytest.raises(ValueError, match="read-only"):
            pv.elements[0, 0, 0] = 1.0
        E, _ = pv.elements
        with pytest.raises(ValueError, match="read-only"):
            E[1, 1] = 0.0

    def test_tuple_list_and_array_inputs_agree(self):
        elements = [np.diag([0.9, 0.2]), np.diag([0.1, 0.8])]
        array = np.array(elements, dtype=complex)
        stacks = [Povm(seq).elements for seq in (tuple(elements), elements, array)]
        for stack in stacks:
            assert stack.dtype == complex and np.array_equal(stack, stacks[0])
        array[0, 0, 0] = 0.0   # the caller's array is copied, not frozen
        assert stacks[2][0, 0, 0] == 0.9

    def test_each_element_validated_once(self, monkeypatch):
        # the Hermiticity check sees every element exactly once, the PSD test
        # included: 6 matrices for two 3-element POVMs
        seen = []
        hermitian_part = linalg.hermitian_part

        def spy(S, *args, **kwargs):
            seen.append(S.size // S.shape[-1] ** 2)
            return hermitian_part(S, *args, **kwargs)

        monkeypatch.setattr(linalg, "hermitian_part", spy)
        noisy_projective(3, 0.2)
        Povm((np.eye(2) / 4, np.eye(2) / 4, np.eye(2) / 2))
        assert sum(seen) == 6

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValidationError, match="one dimension"):
            Povm((np.eye(2) / 2, np.eye(3) / 2))


class TestDepolarize:
    def test_zero_noise_identity(self, rng):
        v = random_state_vector(rng, 3)
        op = np.outer(v, v.conj())
        assert np.allclose(depolarize(op, 0.0), op)

    def test_full_noise(self):
        op = np.diag([0.0, 1.0]).astype(complex)
        assert np.allclose(depolarize(op, 1.0), np.eye(2) / 2)

    def test_spot_value(self):
        out = depolarize(np.diag([0.0, 1.0]).astype(complex), 0.15)
        assert np.allclose(np.diag(out), [0.075, 0.925], atol=1e-14)

    def test_trace_preserved(self, rng):
        from conftest import random_hermitian

        H = random_hermitian(rng, 4)
        assert abs(np.trace(depolarize(H, 0.37)) - np.trace(H)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            depolarize(np.eye(2), 1.5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_born_rule_preserved(self, seed, eps):
        # tr(D_eps(rho) D_eps(M)) = tr(D_delta(rho) M) with delta = eps(2-eps)
        rng = np.random.default_rng(seed)
        d = 3
        v = random_state_vector(rng, d)
        rho = np.outer(v, v.conj())
        w = random_state_vector(rng, d)
        M = np.outer(w, w.conj())  # unit-trace test operator
        delta = eps * (2.0 - eps)
        lhs = np.trace(depolarize(rho, eps) @ depolarize(M, eps))
        mid = np.trace(depolarize(rho, delta) @ M)
        rhs = np.trace(rho @ depolarize(M, delta))
        assert abs(lhs - mid) < 1e-10
        assert abs(mid - rhs) < 1e-10


class TestNoisyProjective:
    def test_projective_limit(self):
        pv = noisy_projective(2, 0.0)
        assert np.allclose(pv.elements[0], np.diag([1.0, 0.0]))
        assert np.allclose(pv.elements[1], np.diag([0.0, 1.0]))

    def test_maximally_mixed_limit(self):
        pv = noisy_projective(2, 1.0)
        assert np.allclose(pv.elements[0], np.eye(2) / 2)

    def test_spot_value_d3(self):
        pv = noisy_projective(3, 0.2)
        want = np.diag([0.8 + 0.2 / 3, 0.2 / 3, 0.2 / 3])
        assert max_abs(pv.elements[0] - want) < 1e-12

    def test_eigenvalue_structure(self):
        noise = NoiseModel(5, 0.3)
        for E in noise.povm().elements:
            w = np.sort(np.linalg.eigvalsh(E))
            assert abs(w[-1] - noise.A / 5) < 1e-12
            assert np.allclose(w[:-1], 0.3 / 5, atol=1e-12)

    def test_permutation_covariance(self):
        pv = noisy_projective(4, 0.3)
        perm = [2, 0, 3, 1]
        P = np.zeros((4, 4))
        for i, p in enumerate(perm):
            P[p, i] = 1.0
        for x in range(4):
            assert max_abs(P.T @ pv.elements[perm[x]] @ P - pv.elements[x]) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            noisy_projective(1, 0.5)
        with pytest.raises(DomainError):
            noisy_projective(3, -0.1)


class TestNoiseModel:
    def test_stored_fields(self):
        noise = NoiseModel(4, 0.3)
        assert noise.A == 4 - 0.3 * 3
        assert noise.delta == 0.3 * (2 - 0.3)

    def test_epsilon_range(self):
        with pytest.raises(DomainError):
            NoiseModel(3, 1.2)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_pguess_star_is_the_closed_form_at_most_one(self, d):
        # a plain float: the entropy curves read it at every grid point
        for eps in np.linspace(0.0, 1.0, 101):
            noise = NoiseModel(d, float(eps))
            pstar = noise.pguess_star
            assert type(pstar) is float and 1.0 / d - 1e-15 <= pstar <= 1.0
            assert abs(pstar - (np.sqrt(noise.A) + (d - 1) * np.sqrt(eps)) ** 2 / d**2) <= 1e-15


class TestBornProbabilities:
    def test_trivial_povm(self, rng):
        pv = Povm((np.eye(2) / 2, np.eye(2) / 2))
        st_ = PureState(random_state_vector(rng, 2))
        assert np.allclose(born_probabilities(st_, pv), [0.5, 0.5])

    def test_basis_state(self):
        st_ = PureState(np.array([1.0, 0.0], dtype=complex))
        p = born_probabilities(st_, noisy_projective(2, 0.15))
        assert np.allclose(p, [0.925, 0.075], atol=1e-14)

    def test_unbiased_uniform(self):
        p = born_probabilities(unbiased_state(3), noisy_projective(3, 0.2))
        assert np.allclose(p, 1 / 3)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            born_probabilities(unbiased_state(3), noisy_projective(2, 0.1))


class TestCoarseGrain:
    def test_halves_block_structure(self):
        pv = coarse_grain(noisy_projective(4, 0.2), halves_partition(4))
        # M_hat_1 inflates the qubit element diag((2-eps)/2, eps/2)
        assert np.allclose(pv.elements[0], np.diag([0.9, 0.9, 0.1, 0.1]), atol=1e-12)
        assert np.allclose(pv.elements[1], np.diag([0.1, 0.1, 0.9, 0.9]), atol=1e-12)

    def test_generic_eps_blocks(self):
        eps = 0.37
        pv = coarse_grain(noisy_projective(6, eps), halves_partition(6))
        top = (2.0 - eps) / 2.0
        assert np.allclose(np.diag(pv.elements[0]), [top] * 3 + [eps / 2] * 3, atol=1e-12)

    def test_singleton_partition_identity(self):
        pv = noisy_projective(3, 0.4)
        out = coarse_grain(pv, [[0], [1], [2]])
        for a, b in zip(out.elements, pv.elements):
            assert max_abs(a - b) == 0.0

    def test_invalid_partition(self):
        pv = noisy_projective(4, 0.2)
        with pytest.raises(ValidationError):
            coarse_grain(pv, [[0, 1], [1, 2, 3]])
        with pytest.raises(ValidationError):
            coarse_grain(pv, [[0, 1], [2]])

    def test_preserves_identity_sum(self, rng):
        pv = coarse_grain(noisy_projective(6, 0.5), [[0, 3], [1, 4], [2, 5]])
        assert max_abs(sum(pv.elements) - np.eye(6)) < 1e-12


class TestTwoOutcomeQubit:
    def test_projective(self):
        pv = two_outcome_qubit(1.0, 0.0)
        assert np.allclose(pv.elements[0], np.diag([1.0, 0.0]))

    def test_trivial(self):
        pv = two_outcome_qubit(0.5, 0.5)
        assert np.allclose(pv.elements[0], np.eye(2) / 2)

    def test_matches_noisy_projective(self):
        pv = two_outcome_qubit(0.925, 0.075)
        ref = noisy_projective(2, 0.15)
        # trace-ordering swaps labels: diag(0.925, 0.075) has trace 1, fine
        assert max_abs(pv.elements[0] - ref.elements[0]) < 1e-12

    def test_trace_ordering_swap(self):
        pv = two_outcome_qubit(0.9, 0.8)
        tr0 = np.trace(pv.elements[0]).real
        tr1 = np.trace(pv.elements[1]).real
        assert tr0 <= tr1

    def test_basis_conjugation(self, rng):
        U = random_unitary(rng, 2)
        pv = two_outcome_qubit(0.7, 0.2, basis=U)
        assert np.allclose(np.sort(np.linalg.eigvalsh(pv.elements[0])), [0.2, 0.7])

    def test_domain(self):
        with pytest.raises(DomainError):
            two_outcome_qubit(1.2, 0.5)
