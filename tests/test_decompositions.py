import itertools

import numpy as np
import pytest

from qmrand.closed_form import pguess_star_noisy_projective, pguess_star_qubit_two_outcome
from qmrand.decompositions import (
    EPSILON_STAR,
    Decomposition,
    bloch_decomposition_qubit,
    block_uniform_state,
    coarse_grain_eve_attack,
    coarse_grained_attack_value,
    inflate_qubit_decomposition,
    joint_noise_decomposition,
    permutation_symmetrize,
    sqrt_decomposition_qubit,
    sqrt_decomposition_qudit,
    sqrt_guess_value,
    symmetric_coefficients,
    symmetric_decomposition_from_coefficients,
    symmetric_family_decomposition,
    symmetric_family_value,
    trivial_decomposition,
    uninformative_decomposition,
    verify_decomposition,
)
from qmrand.linalg import DomainError, ValidationError
from qmrand.noise_comparison import shared_noise_lower_bound
from qmrand.povm import (
    NoiseModel,
    Povm,
    PureState,
    coarse_grain,
    halves_partition,
    noisy_projective,
    two_outcome_qubit,
    unbiased_state,
)

from conftest import random_qubit_two_outcome, random_state_vector


def random_pure(rng, d):
    return PureState(random_state_vector(rng, d))


def sqrt_reference(noise, amplitudes):
    """Gauge reference: the square-root decomposition at the real state |a|,
    one block at a time, rotated by the phase gauge D = diag(a / |a|)."""
    d, eps = noise.d, noise.epsilon
    amp = np.abs(amplitudes)
    phases = np.where(amp > 0.0, np.exp(1j * np.angle(amplitudes)), 1.0)
    sqrt_m = [np.diag(np.where(np.arange(d) == x, np.sqrt(noise.A / d), np.sqrt(eps / d))) for x in range(d)]
    eye = np.eye(d)
    K = np.zeros((d, d, d, d), dtype=complex)
    for x in range(d):
        phi_x = sqrt_m[x] @ amp
        rest = amp - amp[x] * eye[x]
        K[x, x] = np.outer(phi_x, phi_x) + (eps / d) * (
            (1.0 - amp[x] ** 2) * (eye - np.outer(eye[x], eye[x])) - np.outer(rest, rest))
        for j in range(d):
            if j != x:
                v = sqrt_m[x] @ (amp[j] * eye[x] - amp[x] * eye[j])
                K[x, j] = np.outer(v, v)
    D = np.diag(phases)
    return np.einsum("ab,xjbc,cd->xjad", D, K, D.conj().T)


def symmetrize_reference(K):
    """The group average by brute force: the mean over all d! relabellings,
    taken along a last, contiguous axis so that numpy sums it pairwise."""
    perms = [list(p) for p in itertools.permutations(range(K.shape[0]))]
    return np.stack([K[p][:, p][:, :, p][:, :, :, p] for p in perms], axis=-1).mean(axis=-1)


class TestSqrtQubit:
    def test_unbiased_value(self):
        pv = noisy_projective(2, 0.15)
        psi = unbiased_state(2)
        dec = sqrt_decomposition_qubit(pv, psi)
        # (1 + sqrt(0.15 * 1.85)) / 2
        assert abs(dec.guess_value(psi) - 0.7633913438213184) < 1e-12
        assert verify_decomposition(dec, pv, 1e-9).passed

    def test_eigenbasis_state_perfect_guessing(self, rng):
        # at an eigenbasis state Eve guesses perfectly; strictly above the
        # closed form unless M1 is proportional to the identity
        for m1, m2 in [(0.7, 0.2), (0.5, 0.5), (0.9, 0.05)]:
            pv = two_outcome_qubit(m1, m2)
            e1 = PureState(np.eye(2)[:, 0].astype(complex))
            dec = sqrt_decomposition_qubit(pv, e1)
            val = dec.guess_value(e1)
            ref = pguess_star_qubit_two_outcome(pv).pguess
            assert abs(val - 1.0) < 1e-12
            if abs(m1 - m2) > 1e-12:
                assert val > ref + 1e-3
            else:
                assert abs(val - ref) < 1e-12

    def test_bloch_grid_dominates_closed_form(self, rng):
        # brute-force grid over the Bloch sphere: the attack value never
        # drops below the closed form, with equality only near the equator
        pv = two_outcome_qubit(0.62, 0.18)
        ref = pguess_star_qubit_two_outcome(pv).pguess
        best = np.inf
        for theta in np.linspace(0.0, np.pi, 41):
            for phase in np.linspace(0.0, np.pi, 11):
                st = PureState(
                    np.array([np.cos(theta / 2), np.exp(1j * phase) * np.sin(theta / 2)])
                )
                val = sqrt_decomposition_qubit(pv, st).guess_value(st)
                assert val >= ref - 1e-12
                best = min(best, val)
        assert abs(best - ref) < 1e-3

    def test_rank_one_special_case(self):
        # tr M1 = 1 makes K[1][1] rank one
        pv = two_outcome_qubit(1.0, 0.0)
        st = PureState(np.array([0.8, 0.6], dtype=complex))
        dec = sqrt_decomposition_qubit(pv, st)
        w = np.linalg.eigvalsh(dec.K[1, 1])
        assert abs(w[0]) < 1e-12
        assert verify_decomposition(dec, pv, 1e-9).passed

    def test_requires_trace_ordering(self):
        M1 = np.diag([0.9, 0.8]).astype(complex)
        pv = Povm((M1, np.eye(2) - M1))
        with pytest.raises(ValidationError):
            sqrt_decomposition_qubit(pv, unbiased_state(2))

    def test_random_validity(self, rng):
        for _ in range(20):
            pv = random_qubit_two_outcome(rng)
            st = random_pure(rng, 2)
            dec = sqrt_decomposition_qubit(pv, st)
            assert verify_decomposition(dec, pv, 1e-9).passed


class TestSqrtQudit:
    def test_unbiased_matches_theorem2(self):
        noise = NoiseModel(3, 0.2)
        psi = unbiased_state(3)
        dec = sqrt_decomposition_qudit(noise, psi)
        ref = pguess_star_noisy_projective(noise).pguess
        assert abs(dec.guess_value(psi) - ref) < 1e-12
        assert abs(dec.guess_value(psi) - 0.6982712244856881) < 1e-12

    def test_unbiased_equality_all_d(self):
        for d in range(2, 7):
            for eps in (0.05, 0.5, 0.95):
                noise = NoiseModel(d, eps)
                psi = unbiased_state(d)
                val = sqrt_decomposition_qudit(noise, psi).guess_value(psi)
                assert abs(val - noise.trace_sqrt_element() ** 2 / d) < 1e-12

    def test_biased_state_strictly_larger(self):
        noise = NoiseModel(2, 0.3)
        st = PureState(np.array([0.8, 0.6], dtype=complex))
        val = sqrt_decomposition_qudit(noise, st).guess_value(st)
        ref = pguess_star_noisy_projective(noise).pguess
        assert val > ref + 1e-4

    def test_margin_is_sum_of_deltas(self, rng):
        # value - closed form = sum_x delta_x^2 with
        # delta_x = (|phi_x|^2 - 1/d)(sqrt(A) - sqrt(eps))/sqrt(d)
        for d in (2, 3, 5):
            noise = NoiseModel(d, 0.4)
            st = random_pure(rng, d)
            amp2 = np.abs(st.amplitudes) ** 2
            deltas = (amp2 - 1.0 / d) * (np.sqrt(noise.A) - np.sqrt(noise.epsilon)) / np.sqrt(d)
            val = sqrt_guess_value(noise, st)
            ref = noise.trace_sqrt_element() ** 2 / d
            assert abs(val - ref - np.sum(deltas**2)) < 1e-12

    def test_complex_state_realified(self, rng):
        noise = NoiseModel(3, 0.25)
        st = random_pure(rng, 3)
        dec = sqrt_decomposition_qudit(noise, st)
        assert verify_decomposition(dec, noise.povm(), 1e-9).passed
        assert abs(dec.guess_value(st) - sqrt_guess_value(noise, st)) < 1e-12

    @pytest.mark.parametrize("case", ["complex", "zero amplitude", "negative real", "basis state"])
    def test_matches_the_gauge_reference(self, rng, case):
        for d in (2, 3, 4, 6):
            for eps in (0.0, 0.3, 1.0):
                a = random_state_vector(rng, d)
                if case == "zero amplitude":
                    a[d // 2] = 0.0
                elif case == "negative real":
                    a = -np.abs(a)
                    a[0] = abs(a[0])
                elif case == "basis state":
                    a = np.eye(d)[d - 1].astype(complex)
                st = PureState(a / np.linalg.norm(a))
                dec = sqrt_decomposition_qudit(NoiseModel(d, eps), st)
                assert np.max(np.abs(dec.K - sqrt_reference(NoiseModel(d, eps), st.amplitudes))) < 1e-14
                assert verify_decomposition(dec, noisy_projective(d, eps), 1e-12).passed

    def test_noiseless_limit(self, rng):
        noise = NoiseModel(3, 0.0)
        st = random_pure(rng, 3)
        dec = sqrt_decomposition_qudit(noise, st)
        assert verify_decomposition(dec, noise.povm(), 1e-9).passed


class TestBlochWitness:
    def test_unbiased_matches_theorem1(self, rng):
        for _ in range(10):
            pv = random_qubit_two_outcome(rng)
            rep = pguess_star_qubit_two_outcome(pv)
            bw = bloch_decomposition_qubit(pv, rep.optimal_state)
            assert abs(bw.guess_value - rep.pguess) < 1e-9
            assert abs(bw.cos_theta) < 1e-9
            tr1 = float(np.trace(pv.elements[0]).real)
            assert abs(bw.a - tr1 / 2) < 1e-9
            assert abs(bw.b - tr1 / 2) < 1e-9

    def test_trivial_povm(self, rng):
        pv = two_outcome_qubit(0.4, 0.4)
        bw = bloch_decomposition_qubit(pv, random_pure(rng, 2))
        assert abs(bw.z) < 1e-14
        assert abs(bw.guess_value - 1.0) < 1e-12

    def test_zero_first_element(self, rng):
        # M_1 = 0: Eve always guesses the second outcome
        pv = Povm((np.zeros((2, 2)), np.eye(2)))
        st = random_pure(rng, 2)
        bw = bloch_decomposition_qubit(pv, st)
        assert bw.tr_m1 == 0.0 and bw.guess_value == 1.0
        dec = bw.to_decomposition()
        assert verify_decomposition(dec, pv, 1e-12).passed
        assert abs(dec.guess_value(st) - 1.0) < 1e-12

    def test_agrees_with_sqrt_at_unbiased_only(self, rng):
        # the two constructions coincide at the unbiased state; away from it
        # they are different (both valid) attacks
        pv = two_outcome_qubit(0.62, 0.18)
        rep = pguess_star_qubit_two_outcome(pv)
        bw = bloch_decomposition_qubit(pv, rep.optimal_state)
        sq = sqrt_decomposition_qubit(pv, rep.optimal_state).guess_value(rep.optimal_state)
        assert abs(bw.guess_value - sq) < 1e-9

    def test_witness_invariants(self, rng):
        for _ in range(20):
            pv = random_qubit_two_outcome(rng)
            st = random_pure(rng, 2)
            bw = bloch_decomposition_qubit(pv, st)
            tr1 = float(np.trace(pv.elements[0]).real)
            assert bw.a >= -1e-12 and bw.b >= -1e-12
            assert bw.a + bw.b <= tr1 + 1e-10
            for r in (bw.r_lambda1, bw.r_mu1, bw.r_1, bw.r_phi):
                assert abs(np.linalg.norm(r) - 1.0) < 1e-10
            triangle = bw.a * bw.r_lambda1 - bw.b * bw.r_mu1 - bw.z * bw.r_1
            assert np.max(np.abs(triangle)) < 1e-9
            assert abs(bw.l**2 - (2 * (bw.a**2 + bw.b**2) - bw.z**2)) < 1e-9
            dec = bw.to_decomposition()
            assert verify_decomposition(dec, pv, 1e-8).passed
            assert abs(dec.guess_value(st) - bw.guess_value) < 1e-9

    def test_degenerate_state_rejected(self):
        pv = two_outcome_qubit(0.7, 0.2)
        with pytest.raises(DomainError):
            bloch_decomposition_qubit(pv, PureState(np.array([1.0, 0.0], dtype=complex)))


class TestVerify:
    def test_construction_passes(self, rng):
        noise = NoiseModel(4, 0.35)
        dec = sqrt_decomposition_qudit(noise, random_pure(rng, 4))
        assert verify_decomposition(dec, noise.povm(), 1e-9).passed

    def test_injected_fault_detected(self):
        noise = NoiseModel(2, 0.3)
        dec = sqrt_decomposition_qudit(noise, unbiased_state(2))
        K = np.array(dec.K)
        K[0, 0, 0, 0] -= 1e-3
        bad = type(dec)(K)
        report = verify_decomposition(bad, noise.povm(), 1e-9)
        assert not report.passed
        assert max(report.max_psd_violation, report.max_reconstruction_violation) > 1e-4

    def test_trivial_decomposition_needs_trivial_povm(self):
        # K[x][j] = delta_xj M_x satisfies the proportionality constraint
        # only when each element is proportional to the identity (eps = 1)
        noisy = trivial_decomposition(noisy_projective(3, 0.4))
        report = verify_decomposition(noisy, noisy_projective(3, 0.4), 1e-9)
        assert not report.passed
        assert report.max_proportionality_violation > 1e-3
        flat = trivial_decomposition(noisy_projective(3, 1.0))
        assert verify_decomposition(flat, noisy_projective(3, 1.0), 1e-9).passed

    def test_uninformative_always_valid(self, rng):
        pv = random_qubit_two_outcome(rng)
        assert verify_decomposition(uninformative_decomposition(pv), pv, 1e-12).passed

    def test_input_array_stays_writable(self):
        # the caller's complex array is copied, not frozen in place
        K = np.zeros((2, 2, 2, 2), dtype=complex)
        dec = Decomposition(K)
        K[0, 0, 0, 0] = 1.0
        assert dec.K[0, 0, 0, 0] == 0.0 and not dec.K.flags.writeable


class TestSymmetrization:
    def test_preserves_unbiased_value(self):
        for d in (2, 3, 4, 5):
            noise = NoiseModel(d, 0.3)
            psi = unbiased_state(d)
            dec = sqrt_decomposition_qudit(noise, psi)
            sym = permutation_symmetrize(dec)
            assert abs(sym.guess_value(psi) - dec.guess_value(psi)) < 1e-10
            assert verify_decomposition(sym, noise.povm(), 1e-9).passed

    def test_covariance_property(self, rng):
        import itertools

        noise = NoiseModel(3, 0.2)
        dec = sqrt_decomposition_qudit(noise, random_pure(rng, 3))
        sym = permutation_symmetrize(dec)
        for perm in itertools.permutations(range(3)):
            P = np.zeros((3, 3))
            for i, p in enumerate(perm):
                P[p, i] = 1.0
            for x in range(3):
                for j in range(3):
                    lhs = sym.K[perm[x], perm[j]]
                    rhs = P @ sym.K[x, j] @ P.T
                    assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_coefficients_of_perturbed_decomposition(self, rng):
        # symmetrizing an asymmetric decomposition lands on the canonical
        # symmetric coefficient structure
        noise = NoiseModel(3, 0.2)
        st = random_pure(rng, 3)
        sym = permutation_symmetrize(sqrt_decomposition_qudit(noise, st))
        coeff = symmetric_coefficients(sym, tol=1e-9)
        assert coeff["b"] is None  # needs d >= 4
        rebuilt = symmetric_coefficients(permutation_symmetrize(sym), tol=1e-9)
        for key in ("tau", "gamma", "alpha", "f", "g", "h"):
            assert abs(coeff[key] - rebuilt[key]) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_orbit_means_equal_the_group_average(self, rng, d):
        K = rng.normal(size=(d,) * 4) + 1j * rng.normal(size=(d,) * 4)
        sym = permutation_symmetrize(Decomposition(K))
        assert np.max(np.abs(sym.K - symmetrize_reference(K))) < 1e-14

    @pytest.mark.parametrize("d", [7, 8])
    def test_beyond_enumeration(self, d):
        # d! = 5040 and 40320 relabellings: the orbit means need none of them
        noise = NoiseModel(d, 0.2)
        psi = unbiased_state(d)
        dec = sqrt_decomposition_qudit(noise, psi)
        sym = permutation_symmetrize(dec)
        assert abs(sym.guess_value(psi) - dec.guess_value(psi)) < 1e-12
        assert verify_decomposition(sym, noise.povm(), 1e-9).passed


class TestSymmetricFamily:
    def test_optimum_at_right_endpoint(self):
        noise = NoiseModel(3, 0.2)
        h_star = 0.2 / 9
        ref = pguess_star_noisy_projective(noise).pguess
        assert abs(symmetric_family_value(noise, h_star) - ref) < 1e-12

    def test_h_zero(self):
        noise = NoiseModel(4, 0.3)
        assert abs(symmetric_family_value(noise, 0.0) - (1 - 3 * 0.7 / 4)) < 1e-12

    def test_qubit_spot_value(self):
        noise = NoiseModel(2, 0.15)
        assert abs(symmetric_family_value(noise, 0.15 / 4) - 0.7633913438213184) < 1e-12

    def test_monotone_on_grid(self):
        noise = NoiseModel(3, 0.4)
        hs = np.linspace(0.0, 0.4 / 9, 200)
        vals = [symmetric_family_value(noise, float(h)) for h in hs]
        assert np.all(np.diff(vals) > 0.0)

    def test_family_decomposition_realizes_value(self):
        noise = NoiseModel(4, 0.5)
        psi = unbiased_state(4)
        for h in (0.0, 0.01, 0.5 / 16):
            dec = symmetric_family_decomposition(noise, h)
            assert verify_decomposition(dec, noise.povm(), 1e-9).passed
            assert abs(dec.guess_value(psi) - symmetric_family_value(noise, h)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_coefficients_round_trip(self, d):
        eps = 0.4
        noise = NoiseModel(d, eps)
        for h in (0.0, 0.5 * eps / d**2, eps / d**2):
            dec = symmetric_family_decomposition(noise, h)
            coeff = symmetric_coefficients(dec, tol=1e-14)
            f = h + (1.0 - eps) / d
            expected = {"tau": 1.0 / d - (d - 1) * h, "gamma": np.sqrt(f * h), "alpha": eps / d - h,
                        "f": f, "g": -np.sqrt(f * h), "h": h}
            for key, value in coeff.items():
                if key in expected:
                    assert abs(value - expected[key]) < 1e-15
                else:   # beta, s, t, a, b: zero, or None where d is too small
                    needs = {"beta": 3, "s": 3, "t": 3, "a": 3, "b": 4}[key]
                    assert value == (0.0 if d >= needs else None)
            assert np.max(np.abs(symmetric_decomposition_from_coefficients(d, coeff).K - dec.K)) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            symmetric_family_value(NoiseModel(3, 0.2), 0.1)


class TestCoarseGraining:
    def test_inflated_attack_achieves_qubit_optimum(self):
        eps = 0.2
        noise = NoiseModel(4, eps)
        alpha = 1.0 / np.sqrt(2.0)
        qdec = sqrt_decomposition_qubit(
            noisy_projective(2, eps), PureState(np.array([alpha, alpha], dtype=complex))
        )
        infl = inflate_qubit_decomposition(noise, qdec)
        cg_povm = coarse_grain(noise.povm(), halves_partition(4))
        assert verify_decomposition(infl, cg_povm, 1e-9).passed
        bus = block_uniform_state(4, alpha, alpha)
        assert abs(infl.guess_value(bus) - 0.8) < 1e-12

    def test_pole_state_value_one(self):
        eps = 0.2
        noise = NoiseModel(4, eps)
        st2 = PureState(np.array([1.0, 0.0], dtype=complex))
        qdec = sqrt_decomposition_qubit(noisy_projective(2, eps), st2)
        infl = inflate_qubit_decomposition(noise, qdec)
        bus = block_uniform_state(4, 1.0, 0.0)
        assert abs(infl.guess_value(bus) - 1.0) < 1e-12

    def test_general_alpha_formula(self):
        for eps in (0.2, 0.6):
            for a1 in (0.3, 0.6, 0.92):
                a2 = np.sqrt(1 - a1**2)
                noise = NoiseModel(4, eps)
                qdec = sqrt_decomposition_qubit(
                    noisy_projective(2, eps), PureState(np.array([a1, a2], dtype=complex))
                )
                infl = inflate_qubit_decomposition(noise, qdec)
                val = infl.guess_value(block_uniform_state(4, a1, a2))
                ref = 1 - a1**2 * (1 - a1**2) * (np.sqrt(2 - eps) - np.sqrt(eps)) ** 2
                assert abs(val - ref) < 1e-12

    def test_coarse_grained_attack_value(self):
        noise = NoiseModel(4, 0.2)
        psi = unbiased_state(4)
        dec = sqrt_decomposition_qudit(noise, psi)
        cg = coarse_grain_eve_attack(dec, halves_partition(4))
        cg_povm = coarse_grain(noise.povm(), halves_partition(4))
        assert verify_decomposition(cg, cg_povm, 1e-9).passed
        # 1/2 + (sqrt(0.2)/8)(2 sqrt(3.4) + 2 sqrt(0.2))
        assert abs(cg.guess_value(psi) - 0.7561552812808829) < 1e-12
        assert abs(coarse_grained_attack_value(noise) - 0.7561552812808829) < 1e-12

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_coarse_grained_attack_at_zero_noise(self, d):
        # the attack needs no noise: at eps = 0 it is valid and meets its closed form
        noise = NoiseModel(d, 0.0)
        psi = unbiased_state(d)
        cg = coarse_grain_eve_attack(sqrt_decomposition_qudit(noise, psi), halves_partition(d))
        assert verify_decomposition(cg, coarse_grain(noise.povm(), halves_partition(d)), 1e-9).passed
        assert abs(cg.guess_value(psi) - coarse_grained_attack_value(noise)) < 1e-12

    def test_strictly_suboptimal_interior(self):
        for d in (4, 6):
            for eps in np.linspace(0.05, 0.95, 10):
                noise = NoiseModel(d, float(eps))
                cg_val = coarse_grained_attack_value(noise)
                opt = pguess_star_noisy_projective(NoiseModel(2, float(eps))).pguess
                assert cg_val < opt - 1e-6

    def test_equality_at_endpoints(self):
        for d in (4, 6):
            for eps in (0.0, 1.0):
                noise = NoiseModel(d, eps)
                cg_val = coarse_grained_attack_value(noise)
                opt = pguess_star_noisy_projective(NoiseModel(2, eps)).pguess
                assert abs(cg_val - opt) < 1e-10

    def test_odd_dimension_rejected(self):
        qdec = sqrt_decomposition_qubit(noisy_projective(2, 0.2), unbiased_state(2))
        with pytest.raises(DomainError):
            inflate_qubit_decomposition(NoiseModel(5, 0.2), qdec)


class TestJointNoise:
    def test_threshold_value(self):
        jd = joint_noise_decomposition(EPSILON_STAR)
        assert abs(jd.guess_value() - 1.0) < 1e-9
        assert jd.validate(1e-9).passed

    def test_below_threshold_value(self):
        jd = joint_noise_decomposition(0.15)
        # (1 + 2 * 0.85 * sqrt(0.15 * 1.85)) / 2
        assert abs(jd.guess_value() - 0.9477652844962414) < 1e-12
        assert jd.validate(1e-9).passed

    def test_above_threshold_perfect(self):
        for eps in (0.3, 0.5, 0.8, 0.99):
            jd = joint_noise_decomposition(eps)
            assert abs(jd.guess_value() - 1.0) < 1e-9
            report = jd.validate(1e-9)
            assert report.passed
            assert jd.measurement_epsilon == EPSILON_STAR

    def test_state_marginal_tracks_epsilon(self):
        for eps in (0.1, 0.45, 0.9):
            jd = joint_noise_decomposition(eps)
            psi = unbiased_state(2).amplitudes
            rho = (1 - eps) * np.outer(psi, psi) + eps / 2 * np.eye(2)
            avg = np.einsum("ijl,ila,ilb->ab", jd.weights, jd.states, jd.states.conj())
            assert np.max(np.abs(avg - rho)) < 1e-12

    def test_closed_form_helper(self):
        # the shared-noise curve at delta = eps (2 - eps)
        assert abs(shared_noise_lower_bound(0.15 * (2 - 0.15)) - 0.9477652844962414) < 1e-12
        assert shared_noise_lower_bound(0.7 * (2 - 0.7)) == 1.0
        for eps in (0.05, 0.15, 0.25, 0.3, 0.6):
            jd = joint_noise_decomposition(eps)
            assert abs(jd.guess_value() - shared_noise_lower_bound(eps * (2 - eps))) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            joint_noise_decomposition(0.0)
        with pytest.raises(DomainError):
            joint_noise_decomposition(1.0)


class TestDominanceInvariant:
    def test_sqrt_value_never_below_closed_form(self, rng):
        for d in (2, 3, 4, 5, 6):
            for eps in (0.1, 0.5, 0.9):
                noise = NoiseModel(d, eps)
                ref = noise.trace_sqrt_element() ** 2 / d
                for _ in range(20):
                    st = random_pure(rng, d)
                    assert sqrt_guess_value(noise, st) >= ref - 1e-10
