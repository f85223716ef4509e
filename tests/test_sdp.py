import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmrand.closed_form import pguess_star_noisy_projective, pguess_star_qubit_two_outcome
from qmrand.decompositions import (
    DecompositionReport,
    sqrt_decomposition_qubit,
    sqrt_decomposition_qudit,
    verify_decomposition,
)
import qmrand.sdp as sdp
from qmrand.linalg import SolverError, ValidationError
from qmrand.povm import NoiseModel, Povm, PureState, noisy_projective, two_outcome_qubit, unbiased_state
from qmrand.sdp import (
    DualCertificate,
    PrimalProblem,
    SolverConfig,
    build_dual_certificate_noisy_projective,
    complementary_slackness_residual,
    minimize_over_states,
    solve_primal,
    verify_dual_certificate,
)

from conftest import (
    random_hermitian,
    random_qubit_two_outcome,
    random_state_vector,
    random_unitary,
)


class TestSolvePrimal:
    def test_noisy_qubit_at_unbiased(self):
        res = solve_primal(PrimalProblem(noisy_projective(2, 0.15), unbiased_state(2)))
        assert abs(res.value - 0.7633913438213185) < 1e-5
        assert res.gap is not None and res.gap < 1e-6
        assert res.feasibility_residual < 1e-8

    def test_noisy_qutrit_at_unbiased(self):
        res = solve_primal(PrimalProblem(noisy_projective(3, 0.2), unbiased_state(3)))
        assert abs(res.value - 0.6982712244856881) < 1e-5

    def test_trivial_povm(self, rng):
        pv = Povm((np.eye(2) / 2, np.eye(2) / 2))
        st = PureState(random_state_vector(rng, 2))
        res = solve_primal(PrimalProblem(pv, st))
        assert abs(res.value - 1.0) < 1e-6

    def test_output_decomposition_feasible(self, rng):
        pv = random_qubit_two_outcome(rng)
        st = PureState(random_state_vector(rng, 2))
        res = solve_primal(PrimalProblem(pv, st))
        assert verify_decomposition(res.decomposition, pv, 1e-8).passed

    def test_weak_duality_and_sqrt_lower_bound(self, rng):
        # the analytic attack is feasible, hence a lower bound; resolving it
        # to 1e-8 requires a tighter certified gap than the default
        cfg = SolverConfig(tol=1e-7)
        for _ in range(10):
            pv = random_qubit_two_outcome(rng)
            st = PureState(random_state_vector(rng, 2))
            res = solve_primal(PrimalProblem(pv, st), cfg)
            assert res.value <= res.dual_value + 1e-8
            sq = sqrt_decomposition_qubit(pv, st).guess_value(st)
            assert res.value >= sq - 1e-8

    def test_extracted_certificate_verifies(self, rng):
        pv = random_qubit_two_outcome(rng)
        st = PureState(random_state_vector(rng, 2))
        res = solve_primal(PrimalProblem(pv, st))
        chk = verify_dual_certificate(res.certificate, st, pv, tol=1e-9)
        assert chk.feasible
        assert abs(chk.dual_value - res.dual_value) < 1e-12

    def test_rank_deficient_restoration(self):
        # facial reduction is exact: no white noise, so no sqrt(eta) bias at eps = 0
        res = solve_primal(PrimalProblem(noisy_projective(2, 0.0), unbiased_state(2)))
        assert res.restored
        assert abs(res.value - 0.5) <= SolverConfig().tol
        assert res.gap >= -1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_projective_solves_exactly_on_the_faces(self, d):
        tol = SolverConfig().tol
        res = solve_primal(PrimalProblem(noisy_projective(d, 0.0), unbiased_state(d)))
        assert res.restored
        assert abs(res.value - 1.0 / d) <= tol
        assert -1e-12 <= res.gap <= tol
        # the objective is constant on the reduced feasible set, so the start is every
        # centre (under depolarizing restoration d = 8 took 91 steps, eps = 0.5 takes 38)
        assert res.iterations == 0

    def test_scale_cap(self):
        with pytest.raises(ValidationError):
            solve_primal(PrimalProblem(noisy_projective(9, 0.5), unbiased_state(9)))

    @pytest.mark.parametrize("d, eps", [(6, 1e-6), (8, 0.5)])
    def test_large_noisy_projective_brackets_closed_form(self, monkeypatch, d, eps):
        stages = []
        center = sdp._newton_center
        monkeypatch.setattr(sdp, "_newton_center",
                            lambda st, c, t, *rest: stages.append(t) or center(st, c, t, *rest))
        pstar = pguess_star_noisy_projective(NoiseModel(d, eps)).pguess
        res = solve_primal(PrimalProblem(noisy_projective(d, eps), unbiased_state(d)))
        assert not res.restored
        assert res.value <= pstar + 1e-9 <= res.dual_value + 2e-9
        assert res.gap >= -1e-12
        # one path, ending at t_final = m n d / (tol / 4): no further push
        t_final = d * d * d / (0.25 * SolverConfig().tol)
        assert stages[-1] == max(stages) == t_final and stages.count(t_final) == 1
        assert res.feasibility_residual <= 1e-8

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_element_solves_to_one(self, d):
        # the zero outcome's face is {0}: its blocks drop out and P* = 1
        pv = Povm((np.eye(d), np.zeros((d, d))))
        res = solve_primal(PrimalProblem(pv, unbiased_state(d)))
        assert res.restored
        assert abs(res.value - 1.0) <= SolverConfig().tol
        assert -1e-12 <= res.gap <= SolverConfig().tol
        assert verify_dual_certificate(res.certificate, unbiased_state(d), pv).feasible

    def test_failed_decomposition_check_raises(self, monkeypatch):
        monkeypatch.setattr(sdp, "verify_decomposition", _violating_report)
        with pytest.raises(SolverError, match="violates its constraints by 2.000e-08"):
            solve_primal(PrimalProblem(noisy_projective(2, 0.3), unbiased_state(2)))

    def test_failed_certificate_check_raises(self, monkeypatch):
        monkeypatch.setattr(sdp, "verify_dual_certificate",
                            lambda cert, state, povm: sdp.DualCheck(0.5, False, -2e-9, 0.0))
        with pytest.raises(SolverError, match="least slack eigenvalue -2.000e-09"):
            solve_primal(PrimalProblem(noisy_projective(2, 0.3), unbiased_state(2)))

    @pytest.mark.parametrize("polish", [True, False])
    def test_negative_gap_raises(self, monkeypatch, polish):
        # a dual value below the primal value is no bracket, whatever its size
        real = DualCertificate.dual_value
        monkeypatch.setattr(DualCertificate, "dual_value",
                            lambda cert, povm: real(cert, povm) - 1e-6)
        with pytest.raises(SolverError, match="above the certified dual value"):
            solve_primal(PrimalProblem(noisy_projective(2, 0.3), unbiased_state(2)),
                         polish=polish)


def _violating_report(decomp, povm, tol=1e-9):
    """A verification report with a reconstruction violation of 2e-8."""
    return DecompositionReport(0.0, 0.0, 2e-8, tol)


# Copies of the benchmark's draws (bench/workloads.py, which is not importable).
def random_povm(rng, d, m):
    """Full-rank POVM: S^-1/2 G_x S^-1/2 for Ginibre G_x = A A^dagger."""
    G = []
    for _ in range(m):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        G.append(A @ A.conj().T)
    w, V = np.linalg.eigh(sum(G))
    S = (V / np.sqrt(w)) @ V.conj().T
    return [0.5 * (E + E.conj().T) for E in (S @ g @ S for g in G)]


def random_state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _random_problems(seed, count, d_range, m_range):
    """``count`` (POVM, state) draws, d and m each from ``rng.integers``."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d, m = int(rng.integers(*d_range)), int(rng.integers(*m_range))
        out.append((Povm(tuple(random_povm(rng, d, m))), PureState(random_state(rng, d))))
    return out


def _assert_verified_bracket(pv, state, tol):
    """Solve at ``tol``, check the decomposition and the certificate independently,
    and return the number of Newton steps."""
    res = solve_primal(PrimalProblem(pv, state), SolverConfig(tol=tol))
    assert verify_dual_certificate(res.certificate, state, pv, tol=1e-9).feasible
    assert verify_decomposition(res.decomposition, pv, 1e-9).passed
    assert -1e-12 <= res.gap <= tol
    return res.iterations


class TestTightTolerance:
    def test_random_draw_verifies_at_1e_8(self):
        # d, m in 2..4; before the drift correction every one of these hit the
        # iteration cap or the gap gate at this tolerance.  The line search on the
        # difference of two barrier values near t c.k stalled the damped phase:
        # 1167 steps in all, 878 since it reads the step's eigenvalues.
        steps = sum(_assert_verified_bracket(pv, state, 1e-8)
                    for pv, state in _random_problems(5, 20, (2, 5), (2, 5)))
        assert steps <= 1000

    def test_large_random_povm_brackets_at_default(self):
        # d = 7, m = 5: the barrier path once ended with a certified gap of 6.5e-4
        pv, state = _random_problems(21, 2, (5, 8), (2, 6))[1]
        assert (pv.dim, pv.num_outcomes) == (7, 5)
        _assert_verified_bracket(pv, state, SolverConfig().tol)


class TestPrimalRounding:
    def test_random_draw_rounds_onto_the_face(self, monkeypatch):
        # d = 3, m = 4: 400 rounds of alternating projections left this one unaccepted
        pv, state = _random_problems(5, 20, (2, 5), (2, 5))[2]
        assert (pv.dim, pv.num_outcomes) == (3, 4)
        rounded = []
        round_primal = sdp._round_primal
        monkeypatch.setattr(sdp, "_round_primal",
                            lambda *args: rounded.append(round_primal(*args)) or rounded[-1])
        res = solve_primal(PrimalProblem(pv, state))
        [out] = rounded
        assert out is not None and out[1] == res.value
        # the dual fit is refused here, so the barrier's certificate stays
        assert -1e-12 <= res.gap <= SolverConfig().tol

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_polished_noisy_projective_gap(self, d):
        res = solve_primal(PrimalProblem(noisy_projective(d, 0.05), unbiased_state(d)))
        assert -1e-12 <= res.gap <= 1e-12


def _random_scaling(rng, st):
    X = rng.normal(size=(st.nblocks, st.d, st.d)) + 1j * rng.normal(size=(st.nblocks, st.d, st.d))
    K = X @ X.conj().swapaxes(1, 2) + 1e-3 * np.eye(st.d)
    return sdp._scaling(st, st.coords_of_stack(K))


def _reference_sandwich(d, L, R):
    """Re(U^H (L kron R^T) U) per block, U the row-major vecs of the Hermitian basis as columns."""
    U = sdp.hermitian_basis(d).reshape(d * d, d * d).T
    return np.stack([np.real(U.conj().T @ np.kron(Lb, Rb.T) @ U) for Lb, Rb in zip(L, R)])


class TestNewtonSystem:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_sandwich_matches_kronecker_reference(self, rng, d):
        st = sdp._structure(d, 2, 2)
        L, R = (np.stack([random_hermitian(rng, d) for _ in range(st.nblocks)]) for _ in "LR")
        # _round_primal passes (Q, Q), _round_dual (Q, P) with range(Q) inside the
        # face range(P), and P the real identity off reduced structures
        V = np.stack([random_unitary(rng, d) for _ in range(st.nblocks)])
        ranks = rng.integers(1, d + 1, size=(2, st.nblocks))
        Q, P = ((V * (np.arange(d) < r[:, None])[:, None, :]) @ V.conj().swapaxes(1, 2)
                for r in (ranks.min(axis=0), ranks.max(axis=0)))
        eye = np.broadcast_to(np.eye(d), (st.nblocks, d, d))
        for left, right in ((L, L), (L, R), (Q, Q), (Q, P), (Q, eye)):
            want = _reference_sandwich(d, left, right)
            got = sdp._sandwich(st, left, right)
            assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("reduced", [False, True])
    def test_step_changes_log_det_by_its_eigenvalues(self, rng, reduced):
        # K + alpha Delta = R (1 - alpha X) R on the faces, X = mats(rtil), so the line
        # search reads log det(K + alpha Delta) - log det K from the eigenvalues of X
        povm = noisy_projective(3, 0.0 if reduced else 0.2)
        bases = sdp._face_bases(povm)
        assert (bases is not None) == reduced
        st = sdp._Structure(3, 3, 3, bases) if reduced else sdp._structure(3, 3, 3)
        X = rng.normal(size=(st.nblocks, 3, 3)) + 1j * rng.normal(size=(st.nblocks, 3, 3))
        # a point near the centre of a small objective, where the full step stays inside
        K = st.P @ (np.eye(3) + 0.1 * X @ X.conj().swapaxes(1, 2)) @ st.P
        Phi = sdp._scaling(st, st.coords_of_stack(K))
        c = 0.1 * rng.normal(size=(st.nblocks, st.dd, 1))
        gtil = (-(Phi @ c)[:, :, 0] - st.eye_coords).reshape(st.nvar)
        rtil = sdp._multipliers(st, Phi, gtil)[1].reshape(st.nblocks, st.dd)
        Delta = st.mats(-(Phi @ rtil[:, :, None])[:, :, 0])
        mu = np.linalg.eigvalsh(st.mats(rtil))
        assert 0.0 < mu.max() < 1.0
        logdet0 = np.sum(np.linalg.slogdet(K + st.Pi)[1])
        for alpha in (0.1, 0.5, 0.9 / mu.max()):
            sign, logdet = np.linalg.slogdet(K + alpha * Delta + st.Pi)
            assert np.all(sign > 0.0)
            want = np.sum(logdet) - logdet0
            assert abs(np.sum(np.log1p(-alpha * mu)) - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("least", [0.0, -1e-3])
    def test_scaling_rejects_an_iterate_off_the_cone(self, rng, least):
        st = sdp._structure(3, 2, 2)
        X = rng.normal(size=(st.nblocks, 3, 3)) + 1j * rng.normal(size=(st.nblocks, 3, 3))
        K = X @ X.conj().swapaxes(1, 2) + 0.1 * np.eye(3)
        K[1] = np.diag([1.0, 0.5, least])
        with pytest.raises(SolverError, match="not positive definite"):
            sdp._scaling(st, st.coords_of_stack(K))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_step_raises(self, monkeypatch, bad):
        # no step length mends a non-finite step: the line search runs out and says so
        multipliers = sdp._multipliers

        def broken(st, Phi, gtil, r=0.0):
            nu, rtil = multipliers(st, Phi, gtil, r)
            rtil[0] = bad
            return nu, rtil

        monkeypatch.setattr(sdp, "_multipliers", broken)
        with pytest.raises(SolverError, match="line search found no step"):
            solve_primal(PrimalProblem(noisy_projective(2, 0.3), unbiased_state(2)))

    @pytest.mark.parametrize("d", [5, 6])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_structured_multipliers_match_dense(self, rng, d, m):
        st = sdp._structure(d, m, m)
        Phi = _random_scaling(rng, st)
        gtil = rng.normal(size=st.nvar)
        for r in (np.zeros(st.ncon), rng.normal(size=st.ncon)):
            nu_dense, r_dense = sdp._least_squares_multipliers(
                sdp._scaled_constraints(st, Phi), gtil, r)
            nu, rtil = sdp._structured_multipliers(st, Phi, gtil, r)
            assert np.linalg.norm(nu - nu_dense) <= 1e-10 * np.linalg.norm(nu_dense)
            assert np.linalg.norm(rtil - r_dense) <= 1e-10 * np.linalg.norm(r_dense)

    @pytest.mark.parametrize("d, m", [(3, 3), (5, 4)])
    def test_residual_step_is_least_norm_in_the_metric(self, rng, d, m):
        # dense path at d = m = 3, structured at d = 5, m = 4
        st = sdp._structure(d, m, m)
        assert st.structured == (d == 5)
        Phi = _random_scaling(rng, st)
        r = rng.normal(size=st.ncon)
        rtil = sdp._multipliers(st, Phi, np.zeros(st.nvar), r)[1]
        step = -(Phi @ rtil.reshape(st.nblocks, st.dd, 1)).reshape(st.nvar)
        assert np.linalg.norm(st.apply_A(step) - r) <= 1e-10 * np.linalg.norm(r)
        Atil = sdp._scaled_constraints(st, Phi)
        ref = (Phi @ np.linalg.lstsq(Atil, r, rcond=None)[0].reshape(st.nblocks, st.dd, 1))
        ref = ref.reshape(st.nvar)
        assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_min_norm_fallback_meets_the_residual(self, rng, monkeypatch):
        import scipy.linalg

        Atil = rng.normal(size=(6, 15))
        gtil = rng.normal(size=15)
        r = rng.normal(size=6)
        nu_chol, r_chol = sdp._least_squares_multipliers(Atil, gtil, r)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(scipy.linalg, "cho_factor", singular)
        nu, rtil = sdp._least_squares_multipliers(Atil, gtil, r)
        assert np.allclose(Atil @ rtil, -r, rtol=0, atol=1e-12)
        assert np.allclose(nu, nu_chol, rtol=0, atol=1e-12)
        assert np.allclose(rtil, r_chol, rtol=0, atol=1e-12)

    def test_structured_falls_back_to_dense(self, rng, monkeypatch):
        st = sdp._structure(5, 3, 3)
        Phi = _random_scaling(rng, st)
        gtil = rng.normal(size=st.nvar)
        nu_dense, r_dense = sdp._least_squares_multipliers(sdp._scaled_constraints(st, Phi), gtil)

        def not_pd(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(sdp.np.linalg, "cholesky", not_pd)
        nu, rtil = sdp._structured_multipliers(st, Phi, gtil)
        assert np.array_equal(nu, nu_dense) and np.array_equal(rtil, r_dense)

    @pytest.mark.parametrize("d, m", [(2, 2), (3, 4), (5, 3)])
    def test_affine_projection_matches_dense(self, rng, d, m):
        # every affine step maps through apply_A, which must agree with the dense A
        st = sdp._structure(d, m, m)
        A = st.A3.reshape(st.ncon, st.nvar)
        k = rng.normal(size=st.nvar)
        assert np.allclose(st.apply_A(k), A @ k, rtol=0, atol=1e-12)

    def test_singular_gram_takes_the_min_norm_solve(self):
        # the sixth row of Atil is a combination of the first five, so A A^T is
        # singular up to rounding; without the pivot test 8 of these 20 draws got a wrong nu
        rng = np.random.default_rng(0)
        for _ in range(20):
            Atil = rng.normal(size=(6, 20))
            Atil[5] = rng.normal(size=5) @ Atil[:5]
            gtil = rng.normal(size=20)
            nu, rtil = sdp._least_squares_multipliers(Atil, gtil)
            ref = np.linalg.lstsq(Atil.T, -gtil, rcond=None)[0]
            assert np.allclose(nu, ref, rtol=0, atol=1e-10)
            assert np.allclose(rtil, gtil + Atil.T @ ref, rtol=0, atol=1e-10)


class TestDualMaps:
    @pytest.mark.parametrize("d, m", [(3, 3), (5, 4)])
    def test_dual_matches_constraint_layout(self, rng, d, m):
        # one size on the dense path, one on the structured path
        st = sdp._structure(d, m, m)
        assert st.structured == (d == 5)
        nu = rng.normal(size=st.ncon)
        Y, G = st.dual(nu)
        blocks = st.mats(st.apply_AT(nu))
        for x in range(m):
            for j in range(m):
                assert np.allclose(blocks[x * m + j], Y[x] - G[j], rtol=0, atol=1e-12)
        assert max(abs(np.trace(Gj)) for Gj in G) < 1e-12

    @pytest.mark.parametrize("m, n, real", [(3, 2, False), (2, 3, False), (3, 3, False),
                                            (3, 3, True)])
    def test_slacks_match_formula(self, rng, m, n, real):
        # real: real Y and G with a complex projector, as a hand-written certificate has them
        d = 3
        mats = [random_hermitian(rng, d) for _ in range(m + n)]
        mats = [M.real for M in mats] if real else mats
        cert = DualCertificate(tuple(mats[:m]), tuple(mats[m:]))
        proj = PureState(random_state_vector(rng, d)).projector()
        Z = cert.slacks(proj)
        assert Z.shape == (m, n, d, d)
        for x in range(m):
            for j in range(n):
                assert np.array_equal(Z[x, j], cert.Y[x] - cert.G[j] - (proj if x == j else 0.0))


def _rounded_primal(povm, state):
    """(st, c, k, proj) at the primal that a polished solve returns."""
    res = solve_primal(PrimalProblem(povm, state))
    d, m = povm.dim, povm.num_outcomes
    bases = sdp._face_bases(povm)
    st = sdp._structure(d, m, m) if bases is None else sdp._Structure(d, m, m, bases)
    proj = state.projector()
    c = np.zeros((m, m, st.dd))
    c[range(m), range(m)] = st.coords(proj)
    k = st.coords_of_stack(res.decomposition.K.reshape(st.nblocks, d, d))
    return st, c.ravel(), k, proj


def _reference_round_dual(st, k, proj, tol):
    """The polish fit built row by row: P Z v = d_xj P proj v for each kept eigenvector v
    of K[x][j], P the projector onto the face of outcome x."""
    d, n, dd, s = st.d, st.n, st.dd, st.s
    rows, rhs = [], []
    for blk, (Kb, P) in enumerate(zip(st.mats(k), st.P)):
        x, j = divmod(blk, n)
        w, V = np.linalg.eigh(Kb)
        for v in V[:, w > max(w[-1], 0.0) * 1e-7 + 1e-12].T:
            # Y_x v from the group-2 rows of outcome x; -G_j v from the group-1 rows of j.
            row = np.zeros((d, st.ncon), dtype=complex)
            row[:, st.group2_start + x * dd : st.group2_start + (x + 1) * dd] = (st.B @ v).T
            if j < n - 1:
                row[:, j * s : (j + 1) * s] = (st.T @ v).T
            rows.append(P @ row)
            rhs.append(P @ proj @ v if x == j else np.zeros(d))
    A = np.concatenate([np.vstack([r.real, r.imag]) for r in rows])
    b = np.concatenate([np.concatenate([v.real, v.imag]) for v in rhs])
    Y, G = st.dual(np.linalg.lstsq(A, b, rcond=None)[0])
    return sdp._dual_certificate(st, Y, G, proj, tol, reject_below=-1e-6)


class TestDualPolish:
    # dense d = 3, structured d = 6, and two rank-deficient polish systems at d = 2
    # (face-reduced eps = 0, and eps = 0.2)
    @pytest.mark.parametrize("d, eps", [(3, 0.2), (6, 0.2), (2, 0.0), (2, 0.2)])
    def test_round_dual_matches_row_reference(self, d, eps):
        tol = SolverConfig().tol
        st, c, k, proj = _rounded_primal(noisy_projective(d, eps), unbiased_state(d))
        assert st.structured == (d == 6) and st.reduced == (eps == 0.0)
        cert = sdp._round_dual(st, c, k, proj, tol)
        ref = _reference_round_dual(st, k, proj, tol)
        assert cert is not None and ref is not None
        # on the faces: off them the lift's entries near 1 / tol amplify rounding
        faces = st.P[:: st.n]
        got, want = (np.concatenate([faces @ np.stack(c.Y) @ faces, np.stack(c.G)])
                     for c in (cert, ref))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_rank_deficient_multipliers_are_min_norm(self, monkeypatch, eps):
        st, c, k, proj = _rounded_primal(noisy_projective(2, eps), unbiased_state(2))
        calls = []
        monkeypatch.setattr(sdp, "_multipliers",
                            lambda st, Phi, g: calls.append((Phi, g)) or (np.zeros(st.ncon), g))
        sdp._round_dual(st, c, k, proj, SolverConfig().tol)
        [(Phi, gtil)] = calls
        Atil = sdp._scaled_constraints(st, Phi)
        assert np.linalg.matrix_rank(Atil) < st.ncon
        nu, rtil = sdp._least_squares_multipliers(Atil, gtil)
        ref = np.linalg.lstsq(Atil.T, -gtil, rcond=None)[0]
        assert np.allclose(nu, ref, rtol=0, atol=1e-10)
        assert np.allclose(rtil, gtil + Atil.T @ ref, rtol=0, atol=1e-10)


_SOLVE_NP4_EPS0 = """
from qmrand.povm import noisy_projective, unbiased_state
from qmrand.sdp import PrimalProblem, solve_primal
print(repr(solve_primal(PrimalProblem(noisy_projective(4, 0.0), unbiased_state(4))).value))
"""


_NEWTON_STEPS_NP6 = """
from qmrand.povm import noisy_projective, unbiased_state
from qmrand.sdp import PrimalProblem, solve_primal
print(solve_primal(PrimalProblem(noisy_projective(6, 6e-7), unbiased_state(6))).iterations)
"""


def _at_one_and_two_blas_threads(script):
    """The stdout of ``script`` in a fresh interpreter at one and at two BLAS threads."""
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def test_face_reduced_value_does_not_depend_on_blas_threads():
    # under depolarizing restoration the polish of this input was once accepted on
    # one thread and refused on two, and the values differed by 2.8e-9
    values = [float(out) for out in _at_one_and_two_blas_threads(_SOLVE_NP4_EPS0)]
    assert abs(values[0] - values[1]) <= 1e-12


def test_final_stage_stops_at_the_decrement_floor():
    # near-singular optimal blocks put the decrement's float floor above the final
    # tolerance; spinning on rounding there took 85 steps at one thread and 84 at two
    steps = [int(out) for out in _at_one_and_two_blas_threads(_NEWTON_STEPS_NP6)]
    assert max(steps) <= 40


class TestAnalyticDualCertificate:
    def test_qutrit_objective(self):
        noise = NoiseModel(3, 0.2)
        cert = build_dual_certificate_noisy_projective(noise)
        chk = verify_dual_certificate(cert, unbiased_state(3), noise.povm(), tol=1e-9)
        assert chk.feasible
        assert abs(chk.dual_value - 0.6982712244856881) < 1e-9

    def test_tx_traceless_against_element(self):
        # tr(M_x T_x) = 0: the off-diagonal part never feeds the objective,
        # so sum_x tr(Y_x M_x) collapses to the closed form
        for d in (2, 3, 5):
            noise = NoiseModel(d, 0.35)
            cert = build_dual_certificate_noisy_projective(noise)
            pv = noise.povm()
            trsqrt = noise.trace_sqrt_element()
            eye = np.eye(d)
            for x, (Y, M) in enumerate(zip(cert.Y, pv.elements)):
                proj_x = np.outer(eye[x], eye[x])
                inv_sqrt = np.sqrt(d / noise.A) * proj_x + np.sqrt(d / noise.epsilon) * (
                    eye - proj_x
                )
                Tx = Y - trsqrt / d**2 * inv_sqrt
                assert abs(np.trace(Tx).real) < 1e-12
                assert abs(np.trace(M @ Tx).real) < 1e-12

    def test_two_by_two_slack_determinant(self):
        # the slack in the {psi_not_xj, psi_xj_perp} plane has det >= 0
        for d in (3, 4, 6):
            noise = NoiseModel(d, 0.4)
            cert = build_dual_certificate_noisy_projective(noise)
            proj = unbiased_state(d).projector()
            for x in range(d):
                for j in range(d):
                    slack = cert.Y[x] - cert.G[j] - (proj if x == j else 0.0)
                    w = np.linalg.eigvalsh(slack)
                    assert np.prod(np.sort(w)[-2:]) >= -1e-10

    def test_slackness_with_sqrt_decomposition(self):
        for d, eps in [(2, 0.15), (3, 0.2), (5, 0.6)]:
            noise = NoiseModel(d, eps)
            psi = unbiased_state(d)
            dec = sqrt_decomposition_qudit(noise, psi)
            cert = build_dual_certificate_noisy_projective(noise)
            assert complementary_slackness_residual(dec, cert, psi) < 1e-9

    def test_loose_certificate_positive_residual(self):
        noise = NoiseModel(3, 0.2)
        d = noise.d
        psi = unbiased_state(d)
        dec = sqrt_decomposition_qudit(noise, psi)
        loose = DualCertificate(
            tuple(1.5 * np.eye(d) for _ in range(d)),
            tuple(np.zeros((d, d)) for _ in range(d)),
        )
        chk = verify_dual_certificate(loose, psi, noise.povm())
        assert chk.feasible
        assert chk.dual_value > pguess_star_noisy_projective(noise).pguess
        assert complementary_slackness_residual(dec, loose, psi) > 1e-3

    def test_perturbed_trace_infeasible(self):
        noise = NoiseModel(3, 0.2)
        cert = build_dual_certificate_noisy_projective(noise)
        G = list(cert.G)
        G[0] = G[0] + 1e-3 * np.eye(3) / 3
        bad = DualCertificate(cert.Y, tuple(G))
        chk = verify_dual_certificate(bad, unbiased_state(3), noise.povm())
        assert not chk.feasible
        assert chk.max_trace_violation > 1e-4

    def test_domain(self):
        with pytest.raises(Exception):
            build_dual_certificate_noisy_projective(NoiseModel(3, 0.0))


class TestMinimizeOverStates:
    def test_qubit_class(self, rng):
        pv = random_qubit_two_outcome(rng)
        ref = pguess_star_qubit_two_outcome(pv).pguess
        search = minimize_over_states(pv, SolverConfig(multistarts=2))
        assert abs(search.value - ref) < 1e-4
        assert search.converged

    def test_qutrit_returns_unbiased_state(self):
        search = minimize_over_states(noisy_projective(3, 0.2), SolverConfig(multistarts=2))
        ref = pguess_star_noisy_projective(NoiseModel(3, 0.2)).pguess
        assert abs(search.value - ref) < 1e-4
        overlaps = np.abs(search.state.amplitudes) ** 2
        assert np.max(np.abs(overlaps - 1.0 / 3.0)) < 1e-3

    def test_trivial_povm(self):
        pv = Povm((np.eye(2) / 2, np.eye(2) / 2))
        search = minimize_over_states(pv, SolverConfig(multistarts=1))
        assert abs(search.value - 1.0) < 1e-6

    def test_tie_reporting(self):
        # every state minimizes the trivial POVM: all starts tie
        pv = Povm((np.eye(2) / 2, np.eye(2) / 2))
        search = minimize_over_states(pv, SolverConfig(multistarts=2), report_ties=True)
        assert len(search.ties) >= 2

    def test_dimension_cap(self):
        with pytest.raises(ValidationError):
            minimize_over_states(noisy_projective(5, 0.3))

    @staticmethod
    def _failing_solves(monkeypatch, fails):
        """Make the loose search solves raise SolverError while fails(call) holds."""
        calls = []
        real = sdp.solve_primal

        def solve(problem, config=None, polish=True):
            if not polish:
                calls.append(problem.state)
                if fails(len(calls)):
                    raise SolverError("injected failure")
            return real(problem, config, polish)

        monkeypatch.setattr(sdp, "solve_primal", solve)
        return calls

    def test_failed_starts_are_left_out(self, monkeypatch):
        # every state ties on the trivial POVM; the first two search solves
        # fail, which ends the first two of the three starts
        self._failing_solves(monkeypatch, lambda call: call <= 2)
        pv = Povm((np.eye(2) / 2, np.eye(2) / 2))
        search = minimize_over_states(pv, SolverConfig(multistarts=2), report_ties=True)
        assert search.starts == 3
        assert len(search.ties) == 1
        assert not search.converged
        assert abs(search.value - 1.0) < 1e-6

    def test_all_starts_failing_raises(self, monkeypatch):
        calls = self._failing_solves(monkeypatch, lambda call: True)
        with pytest.raises(SolverError, match="no valid candidate"):
            minimize_over_states(noisy_projective(2, 0.3), SolverConfig(multistarts=2))
        assert len(calls) == 3  # one failed solve per start, then each start ends

    @pytest.mark.parametrize("which", ["qubit", "qutrit"])
    def test_envelope_gradient_matches_finite_differences(self, rng, which):
        pv = random_qubit_two_outcome(rng) if which == "qubit" else noisy_projective(3, 0.2)
        d = pv.dim
        x = rng.normal(size=2 * d)
        x /= np.linalg.norm(x)
        cfg = SolverConfig(tol=1e-5)
        value, grad = sdp._search_objective(x, pv, cfg)
        h = 1e-4
        fd = np.array([
            (sdp._search_objective(x + h * e, pv, cfg)[0] - sdp._search_objective(x - h * e, pv, cfg)[0]) / (2 * h)
            for e in np.eye(2 * d)
        ])
        assert 0.0 < value <= 1.0
        assert np.linalg.norm(grad) > 1e-3
        assert np.linalg.norm(grad - fd) <= 1e-2 * np.linalg.norm(grad)


class TestSolverConfig:
    def test_json_roundtrip(self):
        cfg = SolverConfig(tol=1e-5, max_iters=99, multistarts=4, seed=3)
        again = SolverConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg

    def test_json_keys(self):
        keys = set(SolverConfig().to_json_dict())
        assert keys == {"tol", "max_iters", "multistarts", "seed"}

    @pytest.mark.parametrize("name, value", [
        ("tol", 0), ("tol", -1.0), ("tol", float("nan")), ("tol", float("inf")), ("tol", "abc"),
        ("max_iters", 0), ("max_iters", 2.5),
        ("multistarts", -1), ("multistarts", 2.0), ("seed", -1), ("seed", True),
        ("tol", 10**400),
    ])
    def test_rejects_bad_fields(self, name, value):
        with pytest.raises(ValidationError, match=name):
            SolverConfig(**{name: value})

    def test_accepts_boundaries(self):
        cfg = SolverConfig(tol=1, max_iters=1, multistarts=0, seed=0)
        assert SolverConfig.from_json_dict(cfg.to_json_dict()) == cfg
        assert SolverConfig(seed=10**400, max_iters=10**400).seed == 10**400

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValidationError, match="JSON object"):
            SolverConfig.from_json_dict([1, 2])

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="'tolerance'"):
            SolverConfig.from_json_dict({"tolerance": 1e-3, "seed": 1})
        assert SolverConfig.from_json_dict({"multistarts": 2}) == SolverConfig(multistarts=2)

    def test_from_json_rejects_the_removed_barrier_weight(self):
        # the first barrier weight is a module constant now, not a config field
        with pytest.raises(ValidationError, match="'barrier_mu0'"):
            SolverConfig.from_json_dict({"barrier_mu0": 1.0})

    def test_from_json_rejects_the_removed_restore_eta(self):
        # facial reduction replaced depolarizing restoration and its weight
        with pytest.raises(ValidationError, match="'restore_eta'"):
            SolverConfig.from_json_dict({"restore_eta": 1e-8})
