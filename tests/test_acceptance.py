"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single PASS line on success (collected into the terminal
summary); a failed assertion marks the criterion as failed.  Criterion 8
audits every solver run performed by the earlier criteria, so the tests in
this module are meant to run in file order.
"""

import time

import numpy as np
import pytest

from qmrand.closed_form import pguess_star_noisy_projective, pguess_star_qubit_two_outcome
from qmrand.decompositions import (
    EPSILON_STAR,
    coarse_grain_eve_attack,
    coarse_grained_attack_value,
    joint_noise_decomposition,
    permutation_symmetrize,
    sqrt_decomposition_qudit,
    sqrt_guess_value,
    symmetric_family_value,
    verify_decomposition,
)
from qmrand.entropy import (
    PSecrConfig,
    conditional_min_entropy,
    conditional_vn_entropy,
    eve_ensemble_from_decomposition,
    hmax_bound_noisy_projective,
    p_secr,
    vn_bound_noisy_projective,
)
from qmrand.linalg import binary_entropy, von_neumann_entropy
from qmrand.povm import (
    NoiseModel,
    PureState,
    coarse_grain,
    halves_partition,
    noisy_projective,
    two_outcome_qubit,
    unbiased_state,
)
from qmrand.sdp import (
    SolverConfig,
    build_dual_certificate_noisy_projective,
    complementary_slackness_residual,
    minimize_over_states,
    solve_primal,
    verify_dual_certificate,
)

from conftest import record_acceptance

EPS_GRID = [round(0.05 * k, 2) for k in range(1, 20)]   # 0.05 ... 0.95
DIMS = [2, 3, 4, 5, 6]

SOLVER_RUNS = []


def solve_and_record(povm, state, config=None):
    res = solve_primal(povm, state, config)
    SOLVER_RUNS.append((povm, res))
    return res


def random_qubit_povm(rng):
    m1, m2 = rng.uniform(0.02, 0.98, size=2)
    G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    Q, R = np.linalg.qr(G)
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    return two_outcome_qubit(m1, m2, basis=U)


def test_criterion_1_theorem1_reproduction():
    rng = np.random.default_rng(11)
    cfg = SolverConfig(multistarts=2)
    start = time.perf_counter()
    worst_direct = worst_search = 0.0
    for _ in range(50):
        povm = random_qubit_povm(rng)
        report = pguess_star_qubit_two_outcome(povm)
        res = solve_and_record(povm, report.optimal_state)
        worst_direct = max(worst_direct, abs(res.value - report.pguess))
        search = minimize_over_states(povm, cfg)
        SOLVER_RUNS.append((povm, search.solve))
        worst_search = max(worst_search, abs(search.value - report.pguess))
    elapsed = time.perf_counter() - start
    assert worst_direct <= 1e-5, f"SDP vs closed form: {worst_direct:.2e}"
    assert worst_search <= 1e-4, f"state search vs closed form: {worst_search:.2e}"
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    record_acceptance(
        f"ACCEPTANCE 1 (Theorem 1 reproduction): PASS "
        f"[sdp {worst_direct:.1e}, search {worst_search:.1e}, {elapsed:.1f}s]"
    )


def test_criterion_2_theorem2_reproduction():
    worst_analytic = worst_sdp = 0.0
    for d in DIMS:
        for eps in EPS_GRID:
            noise = NoiseModel(d, eps)
            psi = unbiased_state(d)
            closed = noise.trace_sqrt_element() ** 2 / d
            sqrt_val = sqrt_decomposition_qudit(noise, psi).guess_value(psi)
            cert = build_dual_certificate_noisy_projective(noise)
            dual_val = cert.dual_value(noise.povm())
            worst_analytic = max(
                worst_analytic,
                abs(sqrt_val - closed),
                abs(dual_val - closed),
                abs(sqrt_val - dual_val),
            )
            if d <= 4:
                res = solve_and_record(noise.povm(), psi)
                worst_sdp = max(worst_sdp, abs(res.value - closed))
    assert worst_analytic <= 1e-9, f"analytic agreement: {worst_analytic:.2e}"
    assert worst_sdp <= 1e-5, f"SDP agreement: {worst_sdp:.2e}"
    spot = pguess_star_noisy_projective(NoiseModel(3, 0.2)).pguess
    assert abs(spot - 0.698272) <= 1e-5
    record_acceptance(
        f"ACCEPTANCE 2 (Theorem 2 reproduction): PASS "
        f"[analytic {worst_analytic:.1e}, sdp {worst_sdp:.1e}]"
    )


def test_criterion_3_dual_certificate_suite():
    worst_trace = worst_eig = worst_slack = 0.0
    for d in DIMS:
        for eps in EPS_GRID:
            noise = NoiseModel(d, eps)
            psi = unbiased_state(d)
            povm = noise.povm()
            cert = build_dual_certificate_noisy_projective(noise)
            check = verify_dual_certificate(cert, psi, povm, tol=1e-9, trace_tol=1e-10)
            assert check.feasible, (d, eps, check)
            worst_trace = max(worst_trace, check.max_trace_violation)
            worst_eig = max(worst_eig, -check.min_eig_slack)
            decomp = sqrt_decomposition_qudit(noise, psi)
            worst_slack = max(worst_slack, complementary_slackness_residual(decomp, cert, psi))
    assert worst_trace <= 1e-10
    assert worst_eig <= 1e-9
    assert worst_slack <= 1e-9
    record_acceptance(
        f"ACCEPTANCE 3 (dual certificate suite): PASS "
        f"[trace {worst_trace:.1e}, slack eig {worst_eig:.1e}, slackness {worst_slack:.1e}]"
    )


def test_criterion_4_lemma3_strictness():
    rng = np.random.default_rng(23)
    checked = 0
    for d in DIMS:
        for eps in EPS_GRID:
            noise = NoiseModel(d, eps)
            closed = noise.trace_sqrt_element() ** 2 / d
            scale = (np.sqrt(noise.A) - np.sqrt(eps)) / np.sqrt(d)
            for _ in range(100):
                v = rng.normal(size=d) + 1j * rng.normal(size=d)
                state = PureState(v / np.linalg.norm(v))
                amp2 = np.abs(state.amplitudes) ** 2
                value = sqrt_guess_value(noise, state)
                margin = value - closed
                deltas = (amp2 - 1.0 / d) * scale
                assert margin >= -1e-12
                assert abs(margin - np.sum(deltas**2)) <= 1e-12
                if np.max(np.abs(amp2 - 1.0 / d)) >= 1e-3:
                    assert margin >= 1e-12
                    checked += 1
    assert checked > 5000  # random states are essentially always biased
    record_acceptance(
        f"ACCEPTANCE 4 (Lemma 3 strictness): PASS [{checked} strictly-biased states]"
    )


def test_criterion_5_coarse_graining():
    noise = NoiseModel(4, 0.2)
    optimal = pguess_star_qubit_two_outcome(noisy_projective(2, 0.2)).pguess
    assert abs(optimal - 0.8) <= 1e-12
    psi = unbiased_state(4)
    decomp = sqrt_decomposition_qudit(noise, psi)
    eve_cg = coarse_grain_eve_attack(decomp, halves_partition(4))
    cg_value = eve_cg.guess_value(psi)
    # closed form 1/2 + (sqrt(0.2)/8)(2 sqrt(3.4) + 2 sqrt(0.2)) = 0.756155281...
    # (the criterion's quoted 0.756152 mis-evaluates its own formula)
    assert abs(cg_value - 0.7561552812808829) <= 1e-6
    cg_povm = coarse_grain(noise.povm(), halves_partition(4))
    assert verify_decomposition(eve_cg, cg_povm, 1e-9).passed
    res = solve_and_record(cg_povm, psi)
    assert abs(res.value - 0.8) <= 1e-5
    for eps in np.linspace(0.05, 0.95, 19):
        nm = NoiseModel(4, float(eps))
        opt = pguess_star_qubit_two_outcome(noisy_projective(2, float(eps))).pguess
        assert coarse_grained_attack_value(nm) < opt - 1e-9
    record_acceptance(
        f"ACCEPTANCE 5 (coarse-graining): PASS "
        f"[optimal {optimal:.6f}, eve coarse-grained {cg_value:.6f}, sdp {res.value:.6f}]"
    )


def test_criterion_6_joint_noise(tmp_path):
    worst_constraint = 0.0
    for eps in np.linspace(0.02, 0.98, 25):
        jd = joint_noise_decomposition(float(eps))
        report = jd.validate(1e-9)
        assert report.passed, (eps, report)
        worst_constraint = max(
            worst_constraint,
            report.weight_sum_violation,
            report.povm_completeness_violation,
            report.state_average_violation,
            report.povm_marginal_violation,
        )
        if eps >= EPSILON_STAR:
            assert abs(jd.guess_value() - 1.0) <= 1e-9
    # Fig. 3 CSV through the CLI
    from qmrand.cli import main

    out = tmp_path / "fig3.csv"
    assert main(["sweep", "--fig3", "--points", "101", "-o", str(out)]) == 0
    rows = [
        list(map(float, line.split(",")))
        for line in out.read_text().strip().splitlines()[1:]
    ]
    assert len(rows) == 101
    for delta, single, shared in rows:
        assert abs(single - 0.5 * (1 + np.sqrt(delta * (2 - delta)))) <= 1e-9
        if delta >= 0.5:
            assert shared == 1.0
        else:
            assert abs(shared - 0.5 * (1 + 2 * np.sqrt(delta * (1 - delta)))) <= 1e-9
        assert shared >= single - 1e-12
    record_acceptance(
        f"ACCEPTANCE 6 (joint noise): PASS [constraints {worst_constraint:.1e}, plateau at 1/2]"
    )


def test_criterion_7_entropy_suite():
    worst_vn = 0.0
    for d in DIMS:
        for eps in EPS_GRID:
            noise = NoiseModel(d, eps)
            psi = unbiased_state(d)
            ens = eve_ensemble_from_decomposition(psi, sqrt_decomposition_qudit(noise, psi))
            h = conditional_vn_entropy(ens)
            worst_vn = max(worst_vn, abs(h - vn_bound_noisy_projective(noise)))
            hmin = conditional_min_entropy(ens)
            hmax = np.log2(p_secr(ens, PSecrConfig(restarts=1, max_iters=40)).value)
            assert hmin <= h + 1e-9
            assert h <= hmax + 1e-9
    assert worst_vn <= 1e-9, f"vn bound agreement: {worst_vn:.2e}"
    worst_secr = 0.0
    for d in DIMS:
        for eps in (0.05, 0.25, 0.5, 0.75, 0.95):
            noise = NoiseModel(d, eps)
            psi = unbiased_state(d)
            ens = eve_ensemble_from_decomposition(psi, sqrt_decomposition_qudit(noise, psi))
            res = p_secr(ens, PSecrConfig(restarts=2, max_iters=80))
            assert res.converged, (d, eps, res)
            assert res.upper - res.lower <= 1e-6
            worst_secr = max(worst_secr, abs(res.value - noise.A))
            assert abs(np.log2(res.value) - hmax_bound_noisy_projective(noise)) <= 1e-6
    assert worst_secr <= 1e-6
    # four-curve CSV for the qubit case at 101 grid points
    from qmrand.cli import _entropy_csv

    rows = [
        list(map(float, line.split(",")))
        for line in _entropy_csv(2, 101).strip().splitlines()[1:]
    ]
    assert len(rows) == 101
    for eps, hmax_b, vn_b, state_vn, hmin_star in rows:
        nm = NoiseModel(2, eps)
        pstar = nm.trace_sqrt_element() ** 2 / 2
        assert abs(hmax_b - np.log2(2 - eps)) <= 1e-9
        assert abs(vn_b - binary_entropy(min(pstar, 1.0))) <= 1e-9
        rho = np.diag([(2 - eps) / 2, eps / 2])
        assert abs(state_vn - (1.0 - von_neumann_entropy(rho))) <= 1e-9
        assert abs(hmin_star + np.log2(pstar)) <= 1e-9
    record_acceptance(
        f"ACCEPTANCE 7 (entropy suite): PASS [vn {worst_vn:.1e}, p_secr {worst_secr:.1e}]"
    )


def test_criterion_8_property_suite():
    assert SOLVER_RUNS, "earlier criteria must populate solver runs"
    worst_duality = -np.inf
    for povm, res in SOLVER_RUNS:
        assert res.value <= res.dual_value + 1e-8
        worst_duality = max(worst_duality, res.value - res.dual_value)
        assert verify_decomposition(res.decomposition, povm, 1e-8).passed
    worst_sym = 0.0
    for d in (2, 3, 4, 5):
        for eps in (0.2, 0.7):
            noise = NoiseModel(d, eps)
            psi = unbiased_state(d)
            dec = sqrt_decomposition_qudit(noise, psi)
            sym = permutation_symmetrize(dec)
            worst_sym = max(worst_sym, abs(sym.guess_value(psi) - dec.guess_value(psi)))
    assert worst_sym <= 1e-10
    for d, eps in [(2, 0.3), (3, 0.7), (5, 0.45)]:
        noise = NoiseModel(d, eps)
        grid = np.linspace(0.0, eps / d**2, 1000)
        values = [symmetric_family_value(noise, float(h)) for h in grid]
        assert int(np.argmax(values)) == len(grid) - 1
        assert np.all(np.diff(values) > 0)
    record_acceptance(
        f"ACCEPTANCE 8 (property suite): PASS "
        f"[{len(SOLVER_RUNS)} solver runs, max primal-dual {worst_duality:.1e}, "
        f"symmetrization {worst_sym:.1e}]"
    )
