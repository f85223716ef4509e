import numpy as np
import pytest

from qmrand.closed_form import pguess_star_noisy_projective, pguess_star_qubit_two_outcome
from qmrand.decompositions import (
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

from conftest import random_hermitian, random_qubit_two_outcome, random_state_vector


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
        res = solve_primal(PrimalProblem(noisy_projective(2, 0.0), unbiased_state(2)))
        assert res.restored
        # the guessing probability scales like sqrt(eta) around eps = 0
        assert abs(res.value - 0.5) < 1e-3

    def test_rejects_subpovm_count_mismatch(self):
        with pytest.raises(ValidationError):
            PrimalProblem(noisy_projective(2, 0.5), unbiased_state(2), num_subpovms=3)

    def test_scale_cap(self):
        with pytest.raises(ValidationError):
            solve_primal(PrimalProblem(noisy_projective(9, 0.5), unbiased_state(9)))

    @pytest.mark.parametrize("d, eps", [(6, 1e-6), (8, 0.5)])
    def test_large_noisy_projective_brackets_closed_form(self, d, eps):
        # eps = 1e-6: the re-projected iterate leaves the PSD cone after the
        # first barrier path; the next stage must restart from the centre
        pstar = pguess_star_noisy_projective(NoiseModel(d, eps)).pguess
        res = solve_primal(PrimalProblem(noisy_projective(d, eps), unbiased_state(d)))
        assert not res.restored
        assert res.value <= pstar + 1e-9 <= res.dual_value + 2e-9
        assert res.gap >= -1e-12

    @pytest.mark.parametrize("d", [2, 5])
    def test_zero_element_raises_solver_error(self, d):
        pv = Povm((np.eye(d), np.zeros((d, d))))
        with pytest.raises(SolverError, match="not positive definite"):
            solve_primal(PrimalProblem(pv, unbiased_state(d)))


def _random_scaling(rng, st):
    X = rng.normal(size=(st.nblocks, st.d, st.d)) + 1j * rng.normal(size=(st.nblocks, st.d, st.d))
    K = X @ X.conj().swapaxes(1, 2) + 1e-3 * np.eye(st.d)
    return sdp._scaling(st, st.coords_of_stack(K))


class TestNewtonSystem:
    @pytest.mark.parametrize("d", [5, 6])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_structured_multipliers_match_dense(self, rng, d, m):
        st = sdp._structure(d, m, m)
        Phi = _random_scaling(rng, st)
        gtil = rng.normal(size=st.nvar)
        nu_dense, r_dense = sdp._least_squares_multipliers(sdp._scaled_constraints(st, Phi), gtil)
        nu, rtil = sdp._structured_multipliers(st, Phi, gtil)
        assert np.linalg.norm(nu - nu_dense) <= 1e-10 * np.linalg.norm(nu_dense)
        assert np.linalg.norm(rtil - r_dense) <= 1e-10 * np.linalg.norm(r_dense)

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
        st = sdp._structure(d, m, m)
        A = st.A3.reshape(st.ncon, st.nvar)
        k = rng.normal(size=st.nvar)
        b = rng.normal(size=st.ncon)
        assert np.allclose(st.apply_A(k), A @ k, rtol=0, atol=1e-12)
        ref = k + A.T @ np.linalg.lstsq(A @ A.T, b - A @ k, rcond=None)[0]
        proj = st.project(k, b).reshape(st.nvar)
        assert np.allclose(proj, ref, rtol=0, atol=1e-12)
        assert np.allclose(A @ proj, b, rtol=0, atol=1e-12)


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
    st = sdp._structure(d, m, m)
    proj = state.projector()
    c = np.zeros((m, m, st.dd))
    c[range(m), range(m)] = st.coords(proj)
    k = st.coords_of_stack(res.decomposition.K.reshape(st.nblocks, d, d))
    return st, c.ravel(), k, proj


def _reference_round_dual(st, k, proj):
    """The polish fit built row by row: Z v = d_xj P v for each kept eigenvector v of K[x][j]."""
    d, n, dd = st.d, st.n, st.dd
    rows, rhs = [], []
    for blk, Kb in enumerate(st.mats(k)):
        x, j = divmod(blk, n)
        w, V = np.linalg.eigh(Kb)
        for v in V[:, w > max(w[-1], 0.0) * 1e-7 + 1e-12].T:
            # Y_x v from the group-2 rows of outcome x; -G_j v from the group-1 rows of j.
            row = np.zeros((d, st.ncon), dtype=complex)
            row[:, st.group2_start + x * dd : st.group2_start + (x + 1) * dd] = (st.B @ v).T
            if j < n - 1:
                row[:, j * (dd - 1) : (j + 1) * (dd - 1)] = (st.T @ v).T
            rows.append(row)
            rhs.append(proj @ v if x == j else np.zeros(d))
    A = np.concatenate([np.vstack([r.real, r.imag]) for r in rows])
    b = np.concatenate([np.concatenate([v.real, v.imag]) for v in rhs])
    Y, G = st.dual(np.linalg.lstsq(A, b, rcond=None)[0])
    return sdp._shift_to_dual_feasible(DualCertificate(tuple(Y), tuple(G)), proj, reject_below=-1e-6)


class TestDualPolish:
    # dense d = 3, structured d = 6, and two rank-deficient polish systems at d = 2
    # (restored eps = 0, and eps = 0.2)
    @pytest.mark.parametrize("d, eps", [(3, 0.2), (6, 0.2), (2, 0.0), (2, 0.2)])
    def test_round_dual_matches_row_reference(self, d, eps):
        st, c, k, proj = _rounded_primal(noisy_projective(d, eps), unbiased_state(d))
        assert st.structured == (d == 6)
        cert = sdp._round_dual(st, c, k, proj)
        ref = _reference_round_dual(st, k, proj)
        assert cert is not None and ref is not None
        # relative to the largest entry: the restored fit has entries near 1/sqrt(restore_eta)
        got, want = np.stack(cert.Y + cert.G), np.stack(ref.Y + ref.G)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_rank_deficient_multipliers_are_min_norm(self, monkeypatch, eps):
        st, c, k, proj = _rounded_primal(noisy_projective(2, eps), unbiased_state(2))
        calls = []
        monkeypatch.setattr(sdp, "_multipliers",
                            lambda st, Phi, g: calls.append((Phi, g)) or (np.zeros(st.ncon), g))
        sdp._round_dual(st, c, k, proj)
        [(Phi, gtil)] = calls
        Atil = sdp._scaled_constraints(st, Phi)
        assert np.linalg.matrix_rank(Atil) < st.ncon
        nu, rtil = sdp._least_squares_multipliers(Atil, gtil)
        ref = np.linalg.lstsq(Atil.T, -gtil, rcond=None)[0]
        assert np.allclose(nu, ref, rtol=0, atol=1e-10)
        assert np.allclose(rtil, gtil + Atil.T @ ref, rtol=0, atol=1e-10)


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
        assert keys == {"tol", "max_iters", "barrier_mu0", "restore_eta", "multistarts", "seed"}

    @pytest.mark.parametrize("name, value", [
        ("tol", 0), ("tol", -1.0), ("tol", float("nan")), ("tol", float("inf")), ("tol", "abc"),
        ("max_iters", 0), ("max_iters", 2.5), ("barrier_mu0", 0.0), ("restore_eta", -1e-9),
        ("multistarts", -1), ("multistarts", 2.0), ("seed", -1), ("seed", True),
        ("tol", 10**400), ("barrier_mu0", -float("inf")),
    ])
    def test_rejects_bad_fields(self, name, value):
        with pytest.raises(ValidationError, match=name):
            SolverConfig(**{name: value})

    def test_accepts_boundaries(self):
        cfg = SolverConfig(tol=1, max_iters=1, restore_eta=0.0, multistarts=0, seed=0)
        assert SolverConfig.from_json_dict(cfg.to_json_dict()) == cfg
        assert SolverConfig(seed=10**400, max_iters=10**400).seed == 10**400

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValidationError, match="JSON object"):
            SolverConfig.from_json_dict([1, 2])

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="'tolerance'"):
            SolverConfig.from_json_dict({"tolerance": 1e-3, "seed": 1})
        assert SolverConfig.from_json_dict({"multistarts": 2}) == SolverConfig(multistarts=2)
