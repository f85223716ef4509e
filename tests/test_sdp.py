import dataclasses
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
import qmrand.linalg as linalg
import qmrand.sdp as sdp
from qmrand.linalg import SolverError, ValidationError
from qmrand.povm import NoiseModel, Povm, PureState, noisy_projective, two_outcome_qubit, unbiased_state
from qmrand.sdp import (
    DualCertificate,
    SolverConfig,
    build_dual_certificate_noisy_projective,
    complementary_slackness_residual,
    minimize_over_states,
    solve_primal,
    verify_dual_certificate,
)

from conftest import (
    random_hermitian,
    random_povm,
    random_qubit_two_outcome,
    random_state_vector,
    random_unitary,
)


class TestSolvePrimal:
    def test_noisy_qubit_at_unbiased(self):
        res = solve_primal(noisy_projective(2, 0.15), unbiased_state(2))
        assert abs(res.value - 0.7633913438213185) < 1e-5
        assert res.gap is not None and res.gap < 1e-6
        assert res.feasibility_residual < 1e-8

    def test_noisy_qutrit_at_unbiased(self):
        res = solve_primal(noisy_projective(3, 0.2), unbiased_state(3))
        assert abs(res.value - 0.6982712244856881) < 1e-5

    def test_trivial_povm(self, rng):
        pv = Povm((np.eye(2) / 2, np.eye(2) / 2))
        st = PureState(random_state_vector(rng, 2))
        res = solve_primal(pv, st)
        assert abs(res.value - 1.0) < 1e-6

    def test_output_decomposition_feasible(self, rng):
        pv = random_qubit_two_outcome(rng)
        st = PureState(random_state_vector(rng, 2))
        res = solve_primal(pv, st)
        assert verify_decomposition(res.decomposition, pv, 1e-8).passed

    def test_weak_duality_and_sqrt_lower_bound(self, rng):
        # the analytic attack is feasible, hence a lower bound; resolving it
        # to 1e-8 requires a tighter certified gap than the default
        cfg = SolverConfig(tol=1e-7)
        for _ in range(10):
            pv = random_qubit_two_outcome(rng)
            st = PureState(random_state_vector(rng, 2))
            res = solve_primal(pv, st, cfg)
            assert res.value <= res.dual_value + 1e-8
            sq = sqrt_decomposition_qubit(pv, st).guess_value(st)
            assert res.value >= sq - 1e-8

    def test_extracted_certificate_verifies(self, rng):
        pv = random_qubit_two_outcome(rng)
        st = PureState(random_state_vector(rng, 2))
        res = solve_primal(pv, st)
        chk = verify_dual_certificate(res.certificate, st, pv, tol=1e-9)
        assert chk.feasible
        assert abs(chk.dual_value - res.dual_value) < 1e-12

    def test_rank_deficient_restoration(self):
        # facial reduction is exact: no white noise, so no sqrt(eta) bias at eps = 0
        res = solve_primal(noisy_projective(2, 0.0), unbiased_state(2))
        assert res.restored
        assert abs(res.value - 0.5) <= SolverConfig().tol
        assert res.gap >= -1e-12

    def test_rank_deficient_random_povm_stops_at_its_floor(self):
        # ranks (1, 2, 3, 2) at d = 4: the final stage's rounding floor lies above
        # lam2 = 1e-6, where it once spun for 87 steps in all
        rng = np.random.default_rng(3)
        for d, ranks in ((3, (1, 2, 2)), (4, (1, 2, 3, 2))):   # the second draw is solved
            pv = Povm(tuple(random_povm(rng, d, len(ranks), ranks)))
            state = PureState(random_state(rng, d))
        res = solve_primal(pv, state)
        assert res.restored
        assert res.iterations <= 45
        assert -1e-12 <= res.gap <= SolverConfig().tol

    @pytest.mark.parametrize("d", range(2, 9))
    def test_projective_solves_exactly_on_the_faces(self, d):
        tol = SolverConfig().tol
        res = solve_primal(noisy_projective(d, 0.0), unbiased_state(d))
        assert res.restored
        assert abs(res.value - 1.0 / d) <= tol
        assert -1e-12 <= res.gap <= tol
        # the objective is constant on the reduced feasible set, so the start is every
        # centre (under depolarizing restoration d = 8 took 91 steps, eps = 0.5 takes 38)
        assert res.iterations == 0

    def test_scale_cap(self):
        with pytest.raises(ValidationError):
            solve_primal(noisy_projective(9, 0.5), unbiased_state(9))

    def test_state_dimension_must_match(self):
        with pytest.raises(ValidationError, match="state and POVM dimensions differ"):
            solve_primal(noisy_projective(3, 0.5), unbiased_state(2))

    @pytest.mark.parametrize("d, eps", [(6, 1e-6), (8, 0.5)])
    def test_large_noisy_projective_brackets_closed_form(self, monkeypatch, d, eps):
        # t of every path step, read back from its scaled gradient gtil = -t Phi c - eye
        ts, in_path, path, factored = [], [], sdp._barrier_path, sdp._factored

        def traced_path(*args):
            in_path.append(True)
            out = path(*args)
            in_path.clear()
            return out

        def traced_factored(st, Phi):
            solve = factored(st, Phi)

            def traced_solve(gtil, r=0.0):
                if in_path and np.any(gtil):   # not the drift step, whose gtil is 0
                    c = np.zeros((st.m, st.n, st.dd))
                    c[range(d), range(d)] = st.coords(unbiased_state(d).projector())
                    u = (Phi @ c.reshape(st.nblocks, st.dd, 1)).reshape(st.nvar)
                    ts.append(-np.dot(gtil + st.eye_coords.ravel(), u) / np.dot(u, u))
                return solve(gtil, r)

            return traced_solve

        monkeypatch.setattr(sdp, "_barrier_path", traced_path)
        monkeypatch.setattr(sdp, "_factored", traced_factored)
        pstar = pguess_star_noisy_projective(NoiseModel(d, eps)).pguess
        res = solve_primal(noisy_projective(d, eps), unbiased_state(d))
        assert not res.restored
        assert res.value <= pstar + 1e-9 <= res.dual_value + 2e-9
        assert res.gap >= -1e-12
        # one path, ending at t_final = m n d / (tol / 4): no further push
        stages = [t for i, t in enumerate(ts) if i == 0 or t != pytest.approx(ts[i - 1])]
        t_final = d * d * d / (0.25 * SolverConfig().tol)
        assert stages[-1] == pytest.approx(t_final) == max(stages)
        assert sum(t == pytest.approx(t_final) for t in stages) == 1
        assert res.feasibility_residual <= 1e-8

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_element_solves_to_one(self, d):
        # the zero outcome's face is {0}: its blocks drop out and P* = 1
        pv = Povm((np.eye(d), np.zeros((d, d))))
        res = solve_primal(pv, unbiased_state(d))
        assert res.restored
        assert abs(res.value - 1.0) <= SolverConfig().tol
        assert -1e-12 <= res.gap <= SolverConfig().tol
        assert verify_dual_certificate(res.certificate, unbiased_state(d), pv).feasible

    def test_failed_decomposition_check_raises(self, monkeypatch):
        monkeypatch.setattr(sdp, "verify_decomposition", _violating_report)
        with pytest.raises(SolverError, match="violates its constraints by 2.000e-08"):
            solve_primal(noisy_projective(2, 0.3), unbiased_state(2))

    def test_failed_certificate_check_raises(self, monkeypatch):
        monkeypatch.setattr(sdp, "verify_dual_certificate",
                            lambda cert, state, povm: sdp.DualCheck(0.5, False, -2e-9, 0.0))
        with pytest.raises(SolverError, match="least slack eigenvalue -2.000e-09"):
            solve_primal(noisy_projective(2, 0.3), unbiased_state(2))

    @pytest.mark.parametrize("polish", [True, False])
    def test_negative_gap_raises(self, monkeypatch, polish):
        # a dual value below the primal value is no bracket, whatever its size
        real = DualCertificate.dual_value
        monkeypatch.setattr(DualCertificate, "dual_value",
                            lambda cert, povm: real(cert, povm) - 1e-6)
        with pytest.raises(SolverError, match="above the certified dual value"):
            solve_primal(noisy_projective(2, 0.3), unbiased_state(2), polish=polish)

    def test_gap_above_tolerance_raises(self, monkeypatch):
        # a certificate that verifies but brackets the value only to 1e-3 fails the
        # gap gate, 20 tol; without the polish nothing can tighten it
        path = sdp._barrier_path

        def loose_path(*args):
            k, cert, value, dual_value, iters = path(*args)
            return k, cert, value, dual_value + 1e-3, iters

        monkeypatch.setattr(sdp, "_barrier_path", loose_path)
        with pytest.raises(SolverError, match="certified duality gap 1.0"):
            solve_primal(noisy_projective(2, 0.3), unbiased_state(2), polish=False)


def _structures_solved_on(monkeypatch):
    """The list to which every later ``solve_primal`` appends the structure of its path."""
    seen, path = [], sdp._barrier_path
    monkeypatch.setattr(sdp, "_barrier_path",
                        lambda st, *args: seen.append(st) or path(st, *args))
    return seen


class TestRealStructure:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_real_input_solves_on_the_real_symmetric_half(self, monkeypatch, rng, d):
        # real means every element and the gauge-fixed amplitudes have imaginary parts
        # exactly zero: i|u> is gauged to |u>; one complex input keeps all d^2
        seen = _structures_solved_on(monkeypatch)
        real_povm, u = noisy_projective(d, 0.3), unbiased_state(d)
        complex_povm = Povm(tuple(random_povm(rng, d, 3)))
        complex_state = PureState(random_state_vector(rng, d))
        cases = [(real_povm, u, True), (real_povm, PureState(1j * u.amplitudes), True),
                 (real_povm, complex_state, False), (complex_povm, u, False)]
        for povm, state, real in cases:
            solve_primal(povm, state)
            st = seen[-1]
            assert st.real == real and not st.reduced
            assert st.dd == (d * (d + 1) // 2 if real else d * d)
            assert np.iscomplexobj(st.B) != real

    @pytest.mark.parametrize("d", [3, 6])
    def test_real_faces_are_real(self, monkeypatch, d):
        seen = _structures_solved_on(monkeypatch)
        res = solve_primal(noisy_projective(d, 0.0), unbiased_state(d))
        [st] = seen
        assert st.real and st.reduced and st.dd == d * (d + 1) // 2
        assert not np.iscomplexobj(st.P) and not np.iscomplexobj(st.S)
        assert abs(res.value - 1.0 / d) <= SolverConfig().tol

    @pytest.mark.parametrize("d", range(2, 9))
    def test_real_solve_matches_its_phase_twin(self, monkeypatch, d):
        # D M_x D^dag = M_x for a diagonal unitary D, so P* at D|u> is P* at |u>: the
        # real path at |u> and the complex path at D|u> solve one problem
        eps = 0.3
        povm, u = noisy_projective(d, eps), unbiased_state(d)
        phases = np.exp(2j * np.pi * np.random.default_rng(d).uniform(size=d))
        pstar = pguess_star_noisy_projective(NoiseModel(d, eps)).pguess
        seen = _structures_solved_on(monkeypatch)
        values = []
        for state, real in ((u, True), (PureState(phases * u.amplitudes), False)):
            res = solve_primal(povm, state)
            assert seen[-1].real == real
            assert res.value <= pstar + 1e-9 <= res.dual_value + 2e-9
            assert verify_dual_certificate(res.certificate, state, povm).feasible
            values.append(res.value)
        assert abs(values[0] - values[1]) <= 1e-10

    @pytest.mark.parametrize("d, eps", [(3, 0.2), (6, 0.5)])
    def test_real_path_takes_the_steps_of_the_full_basis(self, monkeypatch, d, eps):
        # dense at d = 3, Schur complement at d = 6: the Newton system splits into
        # real-symmetric and imaginary-antisymmetric coordinates, the second with a
        # zero right-hand side, so the full basis takes the real structure's steps
        povm, u = noisy_projective(d, eps), unbiased_state(d)
        real = solve_primal(povm, u)
        monkeypatch.setattr(sdp, "_problem_structure", lambda povm, state: sdp._structure(d, d, d))
        full = solve_primal(povm, u)
        assert real.iterations == full.iterations
        assert abs(real.value - full.value) <= 1e-12
        assert abs(real.dual_value - full.dual_value) <= 1e-12


def _violating_report(decomp, povm, tol=1e-9):
    """A verification report with a reconstruction violation of 2e-8."""
    return DecompositionReport(0.0, 0.0, 2e-8, tol)


# Copies of the benchmark's draws (bench/workloads.py, which is not importable).
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
    res = solve_primal(pv, state, SolverConfig(tol=tol))
    assert verify_dual_certificate(res.certificate, state, pv, tol=1e-9).feasible
    assert verify_decomposition(res.decomposition, pv, 1e-9).passed
    assert -1e-12 <= res.gap <= tol
    return res.iterations


class TestTightTolerance:
    def test_random_draw_verifies_at_1e_8(self):
        # d, m in 2..4; before the drift correction every one of these hit the
        # iteration cap or the gap gate at this tolerance.  The line search on the
        # difference of two barrier values near t c.k stalled the damped phase:
        # 1167 steps in all, 878 with Armijo halving on the step's eigenvalues, 595
        # since the step length minimises the barrier along the step.
        steps = sum(_assert_verified_bracket(pv, state, 1e-8)
                    for pv, state in _random_problems(5, 20, (2, 5), (2, 5)))
        assert steps <= 700

    def test_large_random_draw_verifies_at_1e_9(self):
        # d = 5-7.  While the final stage stopped at rounding only below lam2 = 1e-6,
        # higher floors left six of these spinning for 107-116 steps and two raising
        # SolverError (774 steps in all for 8 verified); Armijo halving took 566 steps,
        # the step length that minimises the barrier along the step takes 392
        steps = sum(_assert_verified_bracket(pv, state, 1e-9)
                    for pv, state in _random_problems(21, 10, (5, 8), (2, 6)))
        assert steps <= 450

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
        res = solve_primal(pv, state)
        [out] = rounded
        assert out is not None and out[1] == res.value
        # the dual fit is refused here, so the barrier's certificate stays
        assert -1e-12 <= res.gap <= SolverConfig().tol

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_polished_noisy_projective_gap(self, d):
        res = solve_primal(noisy_projective(d, 0.05), unbiased_state(d))
        assert -1e-12 <= res.gap <= 1e-12


def _random_scaling(rng, st, shift=1e-3):
    X = rng.normal(size=(st.nblocks, st.d, st.d)) + 1j * rng.normal(size=(st.nblocks, st.d, st.d))
    K = X @ X.conj().swapaxes(1, 2) + shift * np.eye(st.d)
    return sdp._scaling(st, st.coords_of_stack(K))


def _singular_scaling(rng, st):
    """A scaling with Phi A^T w = 0 for a random w, so that w^T A Phi = 0: the normal
    matrix, dense or through its Schur complement, is singular up to rounding."""
    Phi = _random_scaling(rng, st, shift=1.0)
    v = st.apply_AT(rng.normal(size=st.ncon))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    Pv = np.eye(st.dd) - v[:, :, None] * v[:, None, :]
    return Pv @ Phi @ Pv


def _on_path(d, m, structured, real=False):
    """A fresh structure whose multiplier solve takes the given path, whatever its shape."""
    st = sdp._Structure(d, m, m, real=real)
    st.structured = structured
    return st


def _min_norm(st, Phi, gtil, r=0.0):
    """The minimum-norm (nu, rtil) of min ||Atil^T nu + gtil|| with Atil rtil = -r, by lstsq."""
    Atil = sdp._scaled_constraints(st, Phi)
    z = np.linalg.lstsq(Atil, r, rcond=None)[0] if np.any(r) else 0.0
    nu = np.linalg.lstsq(Atil.T, -(gtil + z), rcond=None)[0]
    return nu, gtil + Atil.T @ nu


def _factor_calls(monkeypatch, fail=0):
    """Record (shape, info) of every normal-matrix factor (``sdp._cholesky_lower``): info is 1
    when ``np.linalg.cholesky`` finds a non-positive pivot, else 0, whatever the pivot-root
    rule then decides.  The first ``fail`` calls report a non-positive pivot (info > 0)."""
    calls, factor = [], sdp._cholesky_lower

    def spy(S):
        if len(calls) < fail:
            calls.append((S.shape, 1))
            raise np.linalg.LinAlgError("not positive definite")
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            calls.append((S.shape, 1))
        else:
            calls.append((S.shape, 0))
        return factor(S)

    monkeypatch.setattr(sdp, "_cholesky_lower", spy)
    return calls


def _assert_singular_takes_the_min_norm_solve(monkeypatch, st):
    """On 20 draws of ``_singular_scaling`` the solve is lstsq's minimum-norm one.

    Cholesky accepts the factor in 9 of them (the dense Gram) or 11 (the Schur
    complement), so its least pivot root, 1e-8 to 5e-7 of the largest, decides: a
    corrected seminormal solve from such a factor keeps large null-space parts.
    """
    rng = np.random.default_rng(0)
    calls = _factor_calls(monkeypatch)
    for _ in range(20):
        Phi = _singular_scaling(rng, st)
        gtil = rng.normal(size=st.nvar)
        nu, rtil = sdp._factored(st, Phi)(gtil)
        ref, r_ref = _min_norm(st, Phi, gtil)
        assert np.allclose(nu, ref, rtol=0, atol=1e-10)
        assert np.allclose(rtil, r_ref, rtol=0, atol=1e-10)
    factored = (st.group2_start if st.structured else st.ncon,) * 2
    assert {shape for shape, _ in calls} == {factored}
    assert sum(info == 0 for _, info in calls) >= 5


def _reference_sandwich(st, L, R):
    """Re(U^H (L kron R^T) U) per block, U the row-major vecs of the structure's basis as columns."""
    U = st.B.reshape(st.dd, st.d * st.d).T
    return np.stack([np.real(U.conj().T @ np.kron(Lb, Rb.T) @ U) for Lb, Rb in zip(L, R)])


class TestNewtonSystem:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_sandwich_matches_kronecker_reference(self, rng, d):
        st = sdp._structure(d, 2, 2)
        L, R = (np.stack([random_hermitian(rng, d) for _ in range(st.nblocks)]) for _ in "LR")
        # _round_primal passes (D, D), _round_dual (Q, P) with range(Q) inside the
        # face range(P), and P the real identity off reduced structures
        V = np.stack([random_unitary(rng, d) for _ in range(st.nblocks)])
        ranks = rng.integers(1, d + 1, size=(2, st.nblocks))
        Q, P = ((V * (np.arange(d) < r[:, None])[:, None, :]) @ V.conj().swapaxes(1, 2)
                for r in (ranks.min(axis=0), ranks.max(axis=0)))
        eye = np.broadcast_to(np.eye(d), (st.nblocks, d, d))
        for left, right in ((L, L), (L, R), (Q, Q), (Q, P), (Q, eye)):
            want = _reference_sandwich(st, left, right)
            got = sdp._sandwich(st, left, right)
            assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_real_sandwich_matches_kronecker_reference(self, rng, d):
        # real symmetric L, R on the real-symmetric basis: vec(L B_a) . vec(B_b R), the
        # full basis's sandwich restricted to those coordinates, which it never leaves
        st, full = sdp._structure(d, 2, 2, True), sdp._structure(d, 2, 2)
        assert st.dd == d * (d + 1) // 2 and not np.iscomplexobj(st.B)
        L, R = (np.stack([random_hermitian(rng, d).real for _ in range(st.nblocks)])
                for _ in "LR")
        O = np.stack([np.linalg.qr(rng.normal(size=(d, d)))[0] for _ in range(st.nblocks)])
        ranks = rng.integers(1, d + 1, size=(2, st.nblocks))
        Q, P = ((O * (np.arange(d) < r[:, None])[:, None, :]) @ O.swapaxes(1, 2)
                for r in (ranks.min(axis=0), ranks.max(axis=0)))
        eye = np.broadcast_to(np.eye(d), (st.nblocks, d, d))
        sym = np.r_[np.arange(d), d + 2 * np.arange(d * (d - 1) // 2)]
        anti = np.setdiff1d(np.arange(d * d), sym)
        for left, right in ((L, L), (L, R), (Q, Q), (Q, P), (Q, eye)):
            want = _reference_sandwich(st, left, right)
            got = sdp._sandwich(st, left, right)
            assert not np.iscomplexobj(got)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-14 * scale
            Phi = sdp._sandwich(full, left, right)
            assert np.max(np.abs(Phi[:, sym][:, :, sym] - got)) <= 1e-14 * scale
            assert np.max(np.abs(Phi[:, sym][:, :, anti])) <= 1e-14 * scale

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
        rtil = sdp._factored(st, Phi)(gtil)[1].reshape(st.nblocks, st.dd)
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

    @pytest.mark.parametrize("bad, after_step", [
        pytest.param(bad, after_step, id=f"{bad}-after-step" if after_step else f"{bad}")
        for after_step in (False, True) for bad in (np.nan, np.inf, -np.inf)])
    def test_non_finite_step_raises(self, monkeypatch, bad, after_step):
        # One solve of the path returns a non-finite rtil.  No step length mends it,
        # and it raises before the stage stop rule reads lam2: right after a full
        # step from 2e-5 < lam2 < 1/16 (above the path's stage tolerance), lam2 = inf
        # would pass the rule's "lam2 > lam2_prev / 4" and end the stage as if the
        # decrement had reached its rounding floor.
        factored, last, broken_at = sdp._factored, [np.inf], []

        def broken(st, Phi):
            solve, fresh = factored(st, Phi), [True]

            def broken_solve(gtil, r=0.0):
                nu, rtil = solve(gtil, r)
                first, fresh[0] = fresh[0], False
                if not broken_at and first and (
                        2e-5 < last[0] < 1.0 / 16.0 if after_step else last[0] == np.inf):
                    broken_at.append(last[0])
                    rtil[0] = bad
                elif np.any(gtil):   # a gradient solve: lam2 of the step it leads to
                    last[0] = float(rtil @ rtil)
                return nu, rtil

            return broken_solve

        monkeypatch.setattr(sdp, "_factored", broken)
        with pytest.raises(SolverError, match="line search found no step"):
            solve_primal(noisy_projective(3, 0.3), unbiased_state(3))
        assert len(broken_at) == 1

    def test_step_length_minimises_the_barrier_along_the_step(self):
        # phi(a) = -a (lam2 + sum mu) - sum log(1 - a mu) is the step's barrier change
        rng = np.random.default_rng(25)
        at_cap = 0
        for _ in range(200):
            # lam2 from 0.4 to 6e5, about where the steps after a rise of t land
            mu = 10.0 ** rng.uniform(-1.0, 2.0) * rng.normal(size=rng.integers(4, 100))
            lam2 = float(mu @ mu)
            assert lam2 >= 1.0 / 16.0 and mu.min() < 0.0 < mu.max()
            alpha = sdp._step_length(np.diag(mu)[None], lam2)
            cap = 0.9 / mu.max()
            assert 0.0 < alpha <= cap
            assert -alpha * (lam2 + mu.sum()) - np.sum(np.log1p(-alpha * mu)) < 0.0
            grad = np.sum(mu / (1.0 - alpha * mu)) - (lam2 + mu.sum())   # phi'(alpha)
            assert abs(grad) <= 1e-2 * lam2 or alpha == cap
            at_cap += alpha == cap
        assert 0 < at_cap < 200   # both the cap and the interior minimiser are drawn

    def test_step_length_is_full_below_a_sixteenth(self, monkeypatch):
        # the full step reads no eigenvalue of the scaled step
        def no_eigvalsh(a):
            raise AssertionError("eigenvalues formed for a full step")

        rng = np.random.default_rng(26)
        monkeypatch.setattr(sdp.np.linalg, "eigvalsh", no_eigvalsh)
        for _ in range(20):
            mu = rng.normal(size=rng.integers(4, 300))
            mu *= rng.uniform(0.0, 0.2499) / np.linalg.norm(mu)
            assert sdp._step_length(np.diag(mu)[None], float(mu @ mu)) == 1.0

    # the normal matrices reach 245 rows (real d = m = 8) and 441 (d = m = 8), the
    # stacked D_x 64; leaves of the recursion have at most 64 rows
    @pytest.mark.parametrize("shape", [(n, n) for n in (1, 11, 64, 65, 245, 441)]
                             + [(8, 36, 36), (8, 64, 64)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_lower_inverse_is_a_stable_triangular_inverse(self, shape):
        from scipy.linalg import solve_triangular   # the oracle

        rng = np.random.default_rng(shape[-1])
        n, u = shape[-1], np.finfo(float).eps / 2
        # Cholesky factors of matrices with eigenvalues graded from 1 to 1e-8
        Q = np.linalg.qr(rng.normal(size=shape))[0]
        L = np.linalg.cholesky((Q * np.logspace(0, -8, n)) @ Q.swapaxes(-1, -2))
        X = sdp._lower_inverse(L)
        for Lb, Xb in zip(L.reshape(-1, n, n), X.reshape(-1, n, n)):
            # backward stable: |X L - I| <= n u |X||L| in the max norm (measured: at
            # most 0.2 of it); the leaves' LU pivoting leaves rounding in the strict
            # upper triangle, so the bound is not met entry by entry
            residual = np.max(np.abs(Xb @ Lb - np.eye(n)))
            assert residual <= n * u * np.max(np.abs(Xb) @ np.abs(Lb))
            ref = solve_triangular(Lb, np.eye(n), lower=True)
            err = np.linalg.norm(Xb - ref)
            assert err <= n * u * np.linalg.cond(Lb) * np.linalg.norm(ref)

    @pytest.mark.parametrize("d, m", [(3, 3), (5, 4)])
    def test_one_factorization_per_scaling(self, monkeypatch, d, m):
        # dense at d = m = 3, Schur complement at d = 5, m = 4: a stage change and the
        # drift step reuse the factor of their Phi, so each Newton step adds one
        rng = np.random.default_rng(d)
        pv = Povm(tuple(random_povm(rng, d, m)))
        state = PureState(random_state_vector(rng, d))
        st = sdp._structure(d, m, m)
        assert st.structured == (d == 5)
        calls = _factor_calls(monkeypatch)
        res = solve_primal(pv, state, polish=False)
        assert res.iterations > 0
        assert len(calls) == res.iterations + 1
        factored = (st.group2_start if st.structured else st.ncon,) * 2
        assert all(call == (factored, 0) for call in calls)

    @pytest.mark.parametrize("d", [5, 6])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_structured_multipliers_match_dense(self, rng, d, m):
        # on the Hermitian structure, then on its real twin
        for real in (False, True):
            st, dense = _on_path(d, m, True, real), _on_path(d, m, False, real)
            Phi = _random_scaling(rng, st)
            gtil = rng.normal(size=st.nvar)
            for r in (np.zeros(st.ncon), rng.normal(size=st.ncon)):
                nu_dense, r_dense = sdp._factored(dense, Phi)(gtil, r)
                nu, rtil = sdp._factored(st, Phi)(gtil, r)
                assert np.linalg.norm(nu - nu_dense) <= 1e-10 * np.linalg.norm(nu_dense)
                assert np.linalg.norm(rtil - r_dense) <= 1e-10 * np.linalg.norm(r_dense)

    def test_multiplier_path_is_read_from_the_shape(self):
        # a real structure takes the path of its Hermitian twin: with the real nvar of
        # 160, d = m = 4 went dense and noisy_projective(4, 1e-8) at 8 real states
        # verified at tol 1e-6 in 2 of 8 cases instead of 7
        for d in range(2, 9):
            for m in range(2, 9):
                twins = sdp._Structure(d, m, m), sdp._Structure(d, m, m, real=True)
                assert [st.structured for st in twins] == [m * m * d * d >= 256] * 2

    @pytest.mark.parametrize("d, m", [(3, 3), (5, 4)])
    def test_residual_step_is_least_norm_in_the_metric(self, rng, d, m):
        # dense path at d = m = 3, structured at d = 5, m = 4
        st = sdp._structure(d, m, m)
        assert st.structured == (d == 5)
        Phi = _random_scaling(rng, st)
        r = rng.normal(size=st.ncon)
        rtil = sdp._factored(st, Phi)(np.zeros(st.nvar), r)[1]
        step = -(Phi @ rtil.reshape(st.nblocks, st.dd, 1)).reshape(st.nvar)
        assert np.linalg.norm(st.apply_A(step) - r) <= 1e-10 * np.linalg.norm(r)
        Atil = sdp._scaled_constraints(st, Phi)
        ref = (Phi @ np.linalg.lstsq(Atil, r, rcond=None)[0].reshape(st.nblocks, st.dd, 1))
        ref = ref.reshape(st.nvar)
        assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_min_norm_fallback_meets_the_residual(self, rng, monkeypatch):
        st = sdp._structure(2, 2, 2)
        Phi = _random_scaling(rng, st, shift=1.0)
        gtil = rng.normal(size=st.nvar)
        r = rng.normal(size=st.ncon)
        nu_chol, r_chol = sdp._factored(st, Phi)(gtil, r)

        # a factor that reports info > 0 takes the min-norm lstsq solve
        calls = _factor_calls(monkeypatch, fail=1)
        nu, rtil = sdp._factored(st, Phi)(gtil, r)
        ref, r_ref = _min_norm(st, Phi, gtil, r)
        assert calls == [((st.ncon, st.ncon), 1)]
        assert np.array_equal(nu, ref) and np.array_equal(rtil, r_ref)
        Atil = sdp._scaled_constraints(st, Phi)
        assert np.allclose(Atil @ rtil, -r, rtol=0, atol=1e-12)
        assert np.allclose(nu, nu_chol, rtol=0, atol=1e-12)
        assert np.allclose(rtil, r_chol, rtol=0, atol=1e-12)

    def test_failed_schur_factor_takes_the_min_norm_solve(self, rng, monkeypatch):
        # the Schur complement reports a non-positive pivot: N is then singular, and
        # the dense Gram is not factored again
        st = _on_path(5, 3, True)
        Phi = _random_scaling(rng, st)
        gtil = rng.normal(size=st.nvar)
        r = rng.normal(size=st.ncon)
        nu_chol, r_chol = sdp._factored(_on_path(5, 3, False), Phi)(gtil, r)
        calls = _factor_calls(monkeypatch, fail=1)
        nu, rtil = sdp._factored(st, Phi)(gtil, r)
        assert calls == [((st.group2_start,) * 2, 1)]
        ref, r_ref = _min_norm(st, Phi, gtil, r)
        assert np.array_equal(nu, ref) and np.array_equal(rtil, r_ref)
        # N is not singular here, so the min-norm solve is the dense Cholesky's answer
        assert np.linalg.norm(nu - nu_chol) <= 1e-8 * np.linalg.norm(nu_chol)
        assert np.linalg.norm(rtil - r_chol) <= 1e-8 * np.linalg.norm(r_chol)

    def test_failed_outcome_factor_takes_the_min_norm_solve(self, rng, monkeypatch):
        st = _on_path(5, 3, True)
        Phi = _random_scaling(rng, st)
        gtil = rng.normal(size=st.nvar)
        nu_chol, r_chol = sdp._factored(_on_path(5, 3, False), Phi)(gtil)

        def not_pd(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(sdp.np.linalg, "cholesky", not_pd)
        calls = _factor_calls(monkeypatch)
        nu, rtil = sdp._factored(st, Phi)(gtil)
        assert calls == []
        ref, r_ref = _min_norm(st, Phi, gtil)
        assert np.array_equal(nu, ref) and np.array_equal(rtil, r_ref)
        assert np.linalg.norm(nu - nu_chol) <= 1e-8 * np.linalg.norm(nu_chol)
        assert np.linalg.norm(rtil - r_chol) <= 1e-8 * np.linalg.norm(r_chol)

    @pytest.mark.parametrize("d, m", [(2, 2), (3, 4), (5, 3)])
    def test_affine_projection_matches_dense(self, rng, d, m):
        # every affine step maps through apply_A, which must agree with the dense A
        st = sdp._structure(d, m, m)
        A = st.A3.reshape(st.ncon, st.nvar)
        k = rng.normal(size=st.nvar)
        assert np.allclose(st.apply_A(k), A @ k, rtol=0, atol=1e-12)

    def test_singular_gram_takes_the_min_norm_solve(self, monkeypatch):
        _assert_singular_takes_the_min_norm_solve(monkeypatch, _on_path(3, 2, False))

    def test_singular_schur_complement_takes_the_min_norm_solve(self, monkeypatch):
        # every D_x stays definite; without the pivot rule on the Schur complement
        # 11 of these 20 draws keep large null-space parts in nu
        _assert_singular_takes_the_min_norm_solve(monkeypatch, _on_path(5, 3, True))

    @pytest.mark.parametrize("d, m", [(2, 2), (3, 3), (5, 4), (6, 3)])
    def test_full_rank_solves_never_take_the_min_norm_solve(self, monkeypatch, d, m):
        # the fallback is an SVD of Atil, 953 x 4096 at d = m = 8: a singularity rule
        # that fired on full-rank solves of the benchmark's shapes would slow each one
        def no_lstsq(*args, **kwargs):
            raise AssertionError("min-norm fallback taken")

        assert sdp._structure(d, m, m).structured == (d >= 5)
        rng = np.random.default_rng(d * 10 + m)
        pv, state = Povm(tuple(random_povm(rng, d, m))), PureState(random_state(rng, d))
        monkeypatch.setattr(sdp.np.linalg, "lstsq", no_lstsq)
        res = solve_primal(pv, state, SolverConfig(tol=1e-6))
        assert not res.restored and -1e-12 <= res.gap <= 1e-6


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
        # the stacks equal the per-outcome sums of the multipliers, to the last bit
        n1, dd, s = st.group2_start, st.dd, st.s
        for x in range(m):
            assert np.array_equal(Y[x], np.einsum("a,aij->ij", nu[n1 + x * dd : n1 + (x + 1) * dd], st.B))
        for j in range(m - 1):
            assert np.array_equal(G[j], -np.einsum("t,tij->ij", nu[j * s : (j + 1) * s], st.T))

    @pytest.mark.parametrize("m, n, real, container", [
        pytest.param(3, 2, False, tuple, id="3-2-False"),
        pytest.param(2, 3, False, tuple, id="2-3-False"),
        pytest.param(3, 3, False, tuple, id="3-3-False"),
        pytest.param(3, 3, True, tuple, id="3-3-True"),
        pytest.param(3, 2, False, list, id="3-2-False-list"),
        pytest.param(3, 3, True, np.array, id="3-3-True-array"),
    ])
    def test_slacks_match_formula(self, rng, m, n, real, container):
        # real: real Y and G with a complex projector, as a hand-written certificate has them
        d = 3
        mats = [random_hermitian(rng, d) for _ in range(m + n)]
        mats = [M.real for M in mats] if real else mats
        cert = DualCertificate(container(mats[:m]), container(mats[m:]))
        proj = PureState(random_state_vector(rng, d)).projector()
        Z = cert.slacks(proj)
        assert Z.shape == (m, n, d, d)
        for x in range(m):
            for j in range(n):
                assert np.array_equal(Z[x, j], cert.Y[x] - cert.G[j] - (proj if x == j else 0.0))


def _rounded_primal(monkeypatch, povm, state):
    """(st, c, k, Q, proj) at the primal that a polished solve returns, with Q the
    face that ``_round_primal`` chose for it."""
    rounded = []
    round_primal = sdp._round_primal
    monkeypatch.setattr(sdp, "_round_primal",
                        lambda *args: rounded.append(round_primal(*args)) or rounded[-1])
    res = solve_primal(povm, state)
    [(k, value, Q)] = rounded
    assert value == res.value
    m = povm.num_outcomes
    st = sdp._problem_structure(povm, state)
    proj = state.projector()
    c = np.zeros((m, m, st.dd))
    c[range(m), range(m)] = st.coords(proj)
    return st, c.ravel(), k, Q, proj


def _reference_round_dual(st, Q, proj, tol):
    """The polish fit built row by row: P Z v = d_xj P proj v for each vector v
    spanning range(Q[x][j]), P the projector onto the face of outcome x."""
    d, n, dd, s = st.d, st.n, st.dd, st.s
    rows, rhs = [], []
    for blk, (Qb, P) in enumerate(zip(Q, st.P)):
        x, j = divmod(blk, n)
        w, V = np.linalg.eigh(Qb)
        for v in V[:, w > 0.5].T:
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
    return sdp._dual_certificate(st, Y, G, proj, tol)


# dense d = 3, structured d = 6, and two rank-deficient polish systems at d = 2
# (face-reduced eps = 0, and eps = 0.2)
_POLISH_CASES = [(3, 0.2), (6, 0.2), (2, 0.0), (2, 0.2)]


class TestDualPolish:
    @pytest.mark.parametrize("d, eps", _POLISH_CASES)
    def test_round_dual_matches_row_reference(self, monkeypatch, d, eps):
        tol = SolverConfig().tol
        st, c, _, Q, proj = _rounded_primal(monkeypatch, noisy_projective(d, eps),
                                            unbiased_state(d))
        assert st.structured == (d == 6) and st.reduced == (eps == 0.0)
        cert = sdp._round_dual(st, c, Q, proj, tol)
        ref = _reference_round_dual(st, Q, proj, tol)
        assert cert is not None and ref is not None
        # on the faces: off them the lift's entries near 1 / tol amplify rounding
        faces = st.P[:: st.n]
        got, want = (np.concatenate([faces @ np.stack(c.Y) @ faces, np.stack(c.G)])
                     for c in (cert, ref))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("d, eps", _POLISH_CASES)
    def test_rounded_face_is_the_populated_eigenspace(self, monkeypatch, d, eps):
        # the one face of the polish: the eigenvectors the last truncation kept are
        # those that the rounded K populates, by a relative 1e-7 rank rule
        st, _, k, Q, _ = _rounded_primal(monkeypatch, noisy_projective(d, eps),
                                         unbiased_state(d))
        w, V = np.linalg.eigh(st.mats(k))
        kept = w > np.maximum(w[:, -1:], 0.0) * 1e-7 + 1e-12
        populated = (V * kept[:, None, :]) @ V.conj().swapaxes(1, 2)
        assert np.max(np.abs(Q - populated)) <= 1e-9

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_rank_deficient_multipliers_are_min_norm(self, monkeypatch, eps):
        st, c, _, Q, proj = _rounded_primal(monkeypatch, noisy_projective(2, eps),
                                            unbiased_state(2))
        calls, factored = [], sdp._factored
        monkeypatch.setattr(sdp, "_factored", lambda st, Phi: (
            lambda g: calls.append((Phi, g)) or (np.zeros(st.ncon), g)))
        sdp._round_dual(st, c, Q, proj, SolverConfig().tol)
        [(Phi, gtil)] = calls
        assert np.linalg.matrix_rank(sdp._scaled_constraints(st, Phi)) < st.ncon
        nu, rtil = factored(st, Phi)(gtil)
        ref, r_ref = _min_norm(st, Phi, gtil)
        assert np.allclose(nu, ref, rtol=0, atol=1e-10)
        assert np.allclose(rtil, r_ref, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("draw", [12, 15, 19])
    def test_loose_tolerance_polish_tightens_the_bracket(self, draw):
        # while the fit was also refused at a least face slack below -1e-6, these
        # kept the barrier's gaps of 1.5e-4 to 1.6e-4
        pv, state = _random_problems(5, 20, (2, 5), (2, 5))[draw]
        res = solve_primal(pv, state, SolverConfig(tol=1e-3))
        assert -1e-12 <= res.gap <= 1e-4


_SOLVE_NP4_EPS0 = """
from qmrand.povm import noisy_projective, unbiased_state
from qmrand.sdp import solve_primal
print(repr(solve_primal(noisy_projective(4, 0.0), unbiased_state(4)).value))
"""


_NEWTON_STEPS_NP6 = """
from qmrand.povm import noisy_projective, unbiased_state
from qmrand.sdp import solve_primal
print(solve_primal(noisy_projective(6, 6e-7), unbiased_state(6)).iterations)
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

    @pytest.mark.parametrize("Y, G", [
        ([np.eye(3)] * 3, [np.zeros((2, 2))] * 3),
        ([np.eye(3), np.eye(3), np.eye(2)], [np.zeros((3, 3))] * 3),
        ([np.eye(3)] * 3, [np.zeros((3, 3)), np.zeros((2, 2)), np.zeros((3, 3))]),
    ])
    def test_mismatched_dimensions_rejected(self, Y, G):
        # refused on construction, before a check can broadcast Y against G
        with pytest.raises(ValidationError, match="dimension"):
            DualCertificate(Y, G)

    def test_blocks_keep_sequence_behaviour_and_are_read_only(self):
        cert = build_dual_certificate_noisy_projective(NoiseModel(3, 0.2))
        Y1, Y2, Y3 = cert.Y
        assert len(cert.Y) == len(cert.G) == 3 and cert.G.shape == (3, 3, 3)
        assert [Gj.shape for Gj in cert.G] == [(3, 3)] * 3
        assert np.array_equal(cert.Y[2], Y3)
        for stack in (cert.Y, cert.G, Y1):
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0] = 0.0

    def test_each_matrix_validated_once(self, monkeypatch):
        seen = []
        hermitian_part = linalg.hermitian_part

        def spy(S, *args, **kwargs):
            seen.append(S.size // S.shape[-1] ** 2)
            return hermitian_part(S, *args, **kwargs)

        monkeypatch.setattr(linalg, "hermitian_part", spy)
        DualCertificate([np.eye(2)] * 3, [np.zeros((2, 2))] * 2)
        assert sum(seen) == 5


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

    def test_searches_beyond_qudits_of_dimension_four(self):
        # the search has no dimension limit of its own: Theorem 2 holds in every d
        search = minimize_over_states(noisy_projective(5, 0.3), SolverConfig(multistarts=0))
        ref = pguess_star_noisy_projective(NoiseModel(5, 0.3)).pguess
        assert abs(search.value - ref) < 1e-9

    def test_dimension_cap(self):
        # the solver's limit is the search's, met on its first solve
        with pytest.raises(ValidationError, match="d <= 8"):
            minimize_over_states(noisy_projective(9, 0.3))

    @staticmethod
    def _failing_solves(monkeypatch, fails):
        """Make the loose search solves raise SolverError while fails(call) holds."""
        calls = []
        real = sdp.solve_primal

        def solve(povm, state, config=None, polish=True):
            if not polish:
                calls.append(state)
                if fails(len(calls)):
                    raise SolverError("injected failure")
            return real(povm, state, config, polish)

        monkeypatch.setattr(sdp, "solve_primal", solve)
        return calls

    def test_failed_starts_are_left_out(self, monkeypatch):
        # every state ties on the trivial POVM; the first two search solves
        # fail, which ends the first two of the three starts
        self._failing_solves(monkeypatch, lambda call: call <= 2)
        pv = Povm((np.eye(2) / 2, np.eye(2) / 2))
        search = minimize_over_states(pv, SolverConfig(multistarts=2))
        assert search.starts == 3
        assert not search.converged
        assert abs(search.value - 1.0) < 1e-6

    def test_all_starts_failing_raises(self, monkeypatch):
        calls = self._failing_solves(monkeypatch, lambda call: True)
        with pytest.raises(SolverError, match="no valid candidate"):
            minimize_over_states(noisy_projective(2, 0.3), SolverConfig(multistarts=2))
        assert len(calls) == 3  # one failed solve per start, then each start ends

    def test_records_one_per_start(self):
        search = minimize_over_states(noisy_projective(2, 0.3), SolverConfig(multistarts=2))
        assert len(search.records) == search.starts == 3
        assert search.value == search.solve.value
        for rec in search.records:
            assert not rec.failed
            assert rec.iterations >= 0 and rec.solves >= rec.iterations + 1
            assert rec.newton_steps >= rec.solves
            assert search.value <= rec.value + 1e-4
        assert min(rec.value for rec in search.records) <= search.value + 1e-5

    def test_records_of_failed_starts(self, monkeypatch):
        # the first two loose solves fail, ending the first two starts
        self._failing_solves(monkeypatch, lambda call: call <= 2)
        pv = Povm((np.eye(2) / 2, np.eye(2) / 2))
        records = minimize_over_states(pv, SolverConfig(multistarts=2)).records
        assert [rec.failed for rec in records] == [True, True, False]
        assert all(rec.iterations is None and rec.value is None and rec.solves == 0
                   for rec in records[:2])
        assert records[2].solves >= 1 and abs(records[2].value - 1.0) < 1e-6

    @pytest.mark.parametrize("which", ["qubit", "qutrit"])
    def test_envelope_gradient_matches_finite_differences(self, rng, which):
        pv = random_qubit_two_outcome(rng) if which == "qubit" else noisy_projective(3, 0.2)
        d = pv.dim
        x = rng.normal(size=2 * d)
        x /= np.linalg.norm(x)
        cfg = SolverConfig(tol=1e-5)
        value, grad, newton_steps = sdp._search_objective(x, pv, cfg)
        h = 1e-4
        fd = np.array([
            (sdp._search_objective(x + h * e, pv, cfg)[0] - sdp._search_objective(x - h * e, pv, cfg)[0]) / (2 * h)
            for e in np.eye(2 * d)
        ])
        assert 0.0 < value <= 1.0
        assert newton_steps > 0
        assert np.linalg.norm(grad) > 1e-3
        assert np.linalg.norm(grad - fd) <= 1e-2 * np.linalg.norm(grad)


class TestBfgs:
    @staticmethod
    def _rayleigh(A, calls):
        """x^T A x / x^T x and its gradient, recording each point in ``calls``.

        The quotient is scale-invariant like the search's objective, so its
        Hessian is singular along x at every point.
        """
        def fun(x):
            calls.append(x)
            f = x @ A @ x / (x @ x)
            return f, 2.0 * (A @ x - f * x) / (x @ x)
        return fun

    def test_rayleigh_quotient_reaches_least_eigenvalue(self, rng):
        A = random_hermitian(rng, 6).real
        fun = self._rayleigh(A, [])
        x, value, iterations = sdp._bfgs(fun, rng.normal(size=6), ftol=0.0)
        f, g = fun(x)
        assert value == f and value - np.linalg.eigvalsh(A)[0] <= 1e-9
        assert np.max(np.abs(g)) <= sdp._GTOL
        assert 0 < iterations < 200 * 6

    def test_stops_where_the_value_cannot_resolve_the_decrease(self, rng):
        A = random_hermitian(rng, 4).real
        x0 = rng.normal(size=4)
        loose_calls, tight_calls = [], []
        _, loose, _ = sdp._bfgs(self._rayleigh(A, loose_calls), x0, ftol=1e-6)
        _, tight, _ = sdp._bfgs(self._rayleigh(A, tight_calls), x0, ftol=0.0)
        assert loose - np.linalg.eigvalsh(A)[0] <= 1e-5
        assert tight <= loose and len(loose_calls) < len(tight_calls)

    def test_moves_to_the_last_armijo_point_without_curvature(self, rng):
        # on a linear function every trial passes Armijo and none the curvature
        # condition, so the step doubles through all the line search's trials
        a, x0 = rng.normal(size=4), rng.normal(size=4)
        x, value, iterations = sdp._bfgs(lambda x: (a @ x, a), x0, ftol=1e-9)
        alpha = min(1.0, 1.01 / np.linalg.norm(a)) * 2.0 ** (sdp._LINE_TRIALS - 1)
        assert iterations == 1
        assert np.allclose(x, x0 - alpha * a, rtol=1e-14, atol=0) and value == a @ x

    def test_search_matches_scipy_bfgs(self, monkeypatch):
        # scipy's BFGS, the search's optimizer before the in-house one, as an oracle
        from scipy.optimize import minimize

        rng = np.random.default_rng(2406)
        povms = [random_qubit_two_outcome(rng), random_qubit_two_outcome(rng),
                 Povm(tuple(random_povm(rng, 2, 3))), Povm(tuple(random_povm(rng, 2, 4))),
                 Povm(tuple(random_povm(rng, 3, 3))), noisy_projective(3, 0.2)]
        cfg = SolverConfig(multistarts=2)
        values = [minimize_over_states(pv, cfg).value for pv in povms]

        def scipy_bfgs(fun, x0, ftol):
            res = minimize(fun, x0, jac=True, method="BFGS")
            return res.x, float(res.fun), res.nit

        monkeypatch.setattr(sdp, "_bfgs", scipy_bfgs)
        for pv, value in zip(povms, values):
            assert value <= minimize_over_states(pv, cfg).value + 1e-6


class TestSolverConfig:
    def test_json_roundtrip(self):
        cfg = SolverConfig(tol=1e-5, max_iters=99, multistarts=4, seed=3)
        again = SolverConfig.from_json_dict(dataclasses.asdict(cfg))
        assert again == cfg

    def test_json_keys(self):
        keys = set(dataclasses.asdict(SolverConfig()))
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
        assert SolverConfig.from_json_dict(dataclasses.asdict(cfg)) == cfg
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
