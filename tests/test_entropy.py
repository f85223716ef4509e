import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmrand.entropy
import qmrand.linalg
from qmrand.closed_form import pguess_star_noisy_projective
from qmrand.decompositions import (
    sqrt_decomposition_qudit,
    trivial_decomposition,
    uninformative_decomposition,
)
from qmrand.entropy import (
    EveEnsemble,
    PSecrConfig,
    conditional_min_entropy,
    conditional_vn_entropy,
    ensemble_guessing_probability,
    entropy_curve_point,
    eve_ensemble_from_decomposition,
    hmax_bound_noisy_projective,
    p_secr,
    state_side_comparison,
    vn_bound_noisy_projective,
)
from qmrand.linalg import (
    ValidationError,
    binary_entropy,
    fidelity,
    shannon_entropy,
    von_neumann_entropy,
)
from qmrand.povm import NoiseModel, noisy_projective, unbiased_state

from conftest import random_unitary


def sqrt_ensemble(d, eps):
    noise = NoiseModel(d, eps)
    psi = unbiased_state(d)
    return eve_ensemble_from_decomposition(psi, sqrt_decomposition_qudit(noise, psi)), noise


def plus_minus_ensemble():
    # commuting states whose average I/2 is degenerate: its eigenbasis need
    # not be the basis in which both states are diagonal
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    return EveEnsemble(
        np.array([0.5, 0.5]),
        (np.outer(plus, plus).astype(complex), np.outer(minus, minus).astype(complex)),
    )


def non_commuting_ensemble():
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return EveEnsemble(
        np.array([0.5, 0.5]),
        (np.diag([1.0, 0.0]).astype(complex), np.outer(v, v).astype(complex)),
    )


def fidelity_objective(ens, sigma):
    return sum(np.sqrt(p) * fidelity(r, sigma) for p, r in zip(ens.probs, ens.states)) ** 2


def random_density(rng, d):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return G @ G.conj().T / np.sum(np.abs(G) ** 2)


def random_ensemble(rng, d, ranks):
    """p ~ Dirichlet(1), rho_x = A A^dag / tr with A a d x r_x complex Ginibre matrix."""
    probs = rng.dirichlet(np.ones(len(ranks)))
    states = []
    for r in ranks:
        A = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        states.append(A @ A.conj().T / np.sum(np.abs(A) ** 2))
    return EveEnsemble(probs, tuple(states))


# (d, m, rank of every state) of the random non-commuting regression
# ensembles, drawn in this order from one stream: full rank first, then
# rank-deficient ones
RANDOM_SHAPES = [(2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3), (4, 3, 4), (6, 4, 6),
                 (3, 3, 1), (4, 3, 2), (4, 4, 1), (2, 3, 1), (5, 3, 2)]


def regression_ensembles():
    rng = np.random.default_rng(3)
    drawn = [random_ensemble(rng, d, [r] * m) for d, m, r in RANDOM_SHAPES]
    return drawn + [non_commuting_ensemble()]


class TestEnsembleConstruction:
    def test_diagonal_entries(self):
        ens, noise = sqrt_ensemble(3, 0.2)
        d, A, eps = 3, noise.A, 0.2
        big = (np.sqrt(A) + (d - 1) * np.sqrt(eps)) ** 2 / d**2
        small = (np.sqrt(A) - np.sqrt(eps)) ** 2 / d**2
        assert np.allclose(ens.probs, 1 / 3)
        for x in range(3):
            diag = np.diag(ens.states[x]).real
            assert abs(diag[x] - big) < 1e-12
            others = np.delete(diag, x)
            assert np.allclose(others, small, atol=1e-12)
            assert abs(diag.sum() - 1.0) < 1e-12

    def test_maximal_noise_limits(self):
        # at eps = 1 Eve guesses perfectly from the square-root splitting
        # (the trivial POVM is infinitely decomposable), while the
        # no-side-information splitting leaves her states identical
        ens, _ = sqrt_ensemble(3, 1.0)
        assert abs(ensemble_guessing_probability(ens) - 1.0) < 1e-12
        psi = unbiased_state(3)
        flat = eve_ensemble_from_decomposition(
            psi, uninformative_decomposition(noisy_projective(3, 1.0))
        )
        for x in range(1, 3):
            assert np.max(np.abs(flat.states[x] - flat.states[0])) < 1e-12
        assert np.max(np.abs(flat.states[0] - np.eye(3) / 3)) < 1e-12

    def test_no_side_information_dilation(self):
        # the one-sub-POVM splitting K[x][j] = M_x / n leaves Eve's
        # conditional states completely indistinguishable
        noise = NoiseModel(3, 0.3)
        psi = unbiased_state(3)
        ens = eve_ensemble_from_decomposition(psi, uninformative_decomposition(noise.povm()))
        for x in range(1, 3):
            assert np.max(np.abs(ens.states[x] - ens.states[0])) < 1e-12
        assert abs(conditional_vn_entropy(ens) - shannon_entropy(ens.probs)) < 1e-12

    def test_zero_probability_outcome_flagged(self):
        noise = NoiseModel(2, 0.0)
        basis_state = unbiased_state(2)
        from qmrand.povm import PureState

        e0 = PureState(np.array([1.0, 0.0], dtype=complex))
        ens = eve_ensemble_from_decomposition(e0, sqrt_decomposition_qudit(noise, e0))
        assert ens.probs[1] == 0.0 and ens.probs[0] == 1.0
        assert [p for p, _ in ens.defined()] == [1.0]
        assert abs(conditional_vn_entropy(ens) - 0.0) < 1e-12


class TestGuessingFromEnsemble:
    def test_sqrt_ensemble_matches_closed_form(self):
        for d, eps in [(2, 0.15), (3, 0.2), (4, 0.6)]:
            ens, noise = sqrt_ensemble(d, eps)
            ref = pguess_star_noisy_projective(noise).pguess
            assert abs(ensemble_guessing_probability(ens) - ref) < 1e-12

    def test_degenerate_average_orthogonal_states(self):
        ens = plus_minus_ensemble()
        assert abs(ensemble_guessing_probability(ens) - 1.0) < 1e-12
        res = p_secr(ens)
        assert res.converged
        assert res.value == res.lower == res.upper
        assert abs(res.value - 1.0) < 1e-12

    def test_non_commuting_raises(self):
        with pytest.raises(ValidationError):
            ensemble_guessing_probability(non_commuting_ensemble())

    def test_orthogonal_states_perfect(self):
        ens = EveEnsemble(
            np.array([0.4, 0.6]),
            (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        )
        assert abs(ensemble_guessing_probability(ens) - 1.0) < 1e-12
        assert abs(conditional_vn_entropy(ens)) < 1e-12


class TestConditionalVN:
    def test_identical_states_reduce_to_shannon(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        ens = EveEnsemble(np.array([0.25, 0.75]), (rho, rho))
        assert abs(conditional_vn_entropy(ens) - shannon_entropy([0.25, 0.75])) < 1e-12

    def test_qubit_value_is_binary_entropy(self):
        ens, noise = sqrt_ensemble(2, 0.15)
        pstar = pguess_star_noisy_projective(noise).pguess
        assert abs(conditional_vn_entropy(ens) - binary_entropy(pstar)) < 1e-12
        assert abs(conditional_vn_entropy(ens) - 0.789) < 1e-3

    def test_equals_vn_bound_everywhere(self):
        for d in (2, 3, 4, 5, 6):
            for eps in (0.05, 0.3, 0.7, 0.95):
                ens, noise = sqrt_ensemble(d, eps)
                assert abs(conditional_vn_entropy(ens) - vn_bound_noisy_projective(noise)) < 1e-9

    def test_dephasing_invariance(self):
        # conditional states are already diagonal: dephasing is a no-op
        ens, _ = sqrt_ensemble(3, 0.4)
        dephased = EveEnsemble(
            ens.probs, tuple(np.diag(np.diag(r)) for r in ens.states)
        )
        assert abs(conditional_vn_entropy(dephased) - conditional_vn_entropy(ens)) < 1e-12


class TestVnBound:
    def test_noiseless_is_log_d(self):
        for d in (2, 3, 5):
            assert abs(vn_bound_noisy_projective(NoiseModel(d, 0.0)) - np.log2(d)) < 1e-12

    def test_full_noise_zero(self):
        assert abs(vn_bound_noisy_projective(NoiseModel(4, 1.0))) < 1e-12

    def test_qubit_spot(self):
        assert abs(vn_bound_noisy_projective(NoiseModel(2, 0.15)) - 0.789) < 1e-3


class TestPSecr:
    def test_sqrt_ensemble_reaches_A(self):
        for d, eps in [(2, 0.15), (3, 0.2), (4, 0.5)]:
            ens, noise = sqrt_ensemble(d, eps)
            res = p_secr(ens, PSecrConfig(restarts=2, max_iters=60))
            assert res.converged
            assert abs(res.value - noise.A) < 1e-6
            assert abs(res.upper - noise.A) < 1e-9

    def test_single_state_ensemble(self):
        ens = EveEnsemble(np.array([1.0]), (np.diag([0.9, 0.1]).astype(complex),))
        res = p_secr(ens, PSecrConfig(restarts=2, max_iters=60))
        # a single state commutes with itself: the closed form is exact
        assert res.converged
        for bound in (res.value, res.lower, res.upper):
            assert abs(bound - 1.0) < 1e-12

    def test_sqrt_ensemble_exact_without_ascent(self, monkeypatch):
        def no_ascent(*args, **kwargs):
            raise AssertionError("the ascent ran on a commuting ensemble")

        monkeypatch.setattr(qmrand.entropy, "matrix_sqrt", no_ascent)
        monkeypatch.setattr(qmrand.entropy, "_fidelity_sum_and_dual", no_ascent)
        for d in (2, 3, 4, 5, 6):
            for eps in (0.0, 0.05, 0.5, 0.95, 1.0):
                ens, noise = sqrt_ensemble(d, eps)
                res = p_secr(ens)
                assert res.converged
                assert res.value == res.lower == res.upper
                assert abs(res.value - noise.A) < 1e-12

    def test_result_is_json_serializable(self):
        ens, _ = sqrt_ensemble(3, 0.2)
        ascent = PSecrConfig(restarts=1, max_iters=20)
        for res in (p_secr(ens), p_secr(non_commuting_ensemble(), ascent)):
            assert type(res.converged) is bool
            assert all(type(v) is float for v in (res.value, res.lower, res.upper))
            assert json.loads(json.dumps(dataclasses.asdict(res)))["value"] == res.value

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 5), st.booleans())
    def test_commuting_closed_form(self, seed, m, d, flat):
        # draw the joint table P[x, i] = p_x r_x(i) and rotate it by a random
        # unitary; a flat table (every column summing to 1/d) makes the
        # average state I/d
        rng = np.random.default_rng(seed)
        table = rng.exponential(size=(m, d))
        table /= d * table.sum(axis=0) if flat else table.sum()
        U = random_unitary(rng, d)
        probs = table.sum(axis=1)
        states = tuple((U * (row / px)) @ U.conj().T for row, px in zip(table, probs))
        ens = EveEnsemble(probs / probs.sum(), states)
        res = p_secr(ens)
        assert res.converged
        assert res.value == res.lower == res.upper
        for sigma in (np.eye(d) / d, ens.average_state(), random_density(rng, d)):
            assert res.value >= fidelity_objective(ens, sigma) - 1e-12
        w2 = np.sqrt(table).sum(axis=0) ** 2
        optimum = (U * (w2 / w2.sum())) @ U.conj().T
        assert abs(fidelity_objective(ens, optimum) - res.value) < 1e-9
        assert abs(ensemble_guessing_probability(ens) - table.max(axis=0).sum()) < 1e-12

    def test_qubit_hmax(self):
        ens, noise = sqrt_ensemble(2, 0.15)
        res = p_secr(ens)
        assert abs(res.value - 1.85) < 1e-9
        assert abs(res.hmax_bits - np.log2(1.85)) < 1e-9
        assert abs(res.hmax_bits - 0.887525) < 1e-6

    def test_ascent_from_random_start_climbs(self):
        # non-commuting pair: exercises the ascent
        ens = non_commuting_ensemble()
        res = p_secr(ens, PSecrConfig(restarts=4, max_iters=200))
        # the ascent must at least match the value at sigma = average state
        base = fidelity_objective(ens, ens.average_state())
        assert res.value >= base - 1e-9
        assert res.value <= res.upper + 1e-12

    def test_ascent_takes_each_square_root_once(self, monkeypatch):
        # rho_x never changes during the ascent, so neither may its square
        # root: one per state serves the fidelities, the gradient and the bound
        calls = []
        real = qmrand.linalg.matrix_sqrt

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(qmrand.linalg, "matrix_sqrt", counted)
        monkeypatch.setattr(qmrand.entropy, "matrix_sqrt", counted)
        ens = non_commuting_ensemble()
        res = p_secr(ens, PSecrConfig(restarts=2, max_iters=80))
        assert res.value > 0.0
        assert len(calls) == len(ens.states)


class TestNonCommutingPSecr:
    @pytest.mark.parametrize("index", range(len(RANDOM_SHAPES) + 1))
    def test_bracket_closes_on_regression_ensembles(self, index):
        ens = regression_ensembles()[index]
        res = p_secr(ens)
        assert res.converged
        assert res.upper - res.lower <= 1e-6
        d = ens.dim
        rng = np.random.default_rng(index)
        sigmas = [np.eye(d) / d, ens.average_state()] + [random_density(rng, d) for _ in range(3)]
        for sigma in sigmas:
            assert res.lower >= fidelity_objective(ens, sigma) - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 4),
        st.lists(st.integers(1, 4), min_size=2, max_size=4),
    )
    def test_bracket_closes_and_holds(self, seed, d, ranks):
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng, d, [min(r, d) for r in ranks])
        res = p_secr(ens)
        assert res.converged
        assert res.upper >= res.lower >= fidelity_objective(ens, random_density(rng, d)) - 1e-12

    @pytest.mark.parametrize("index", [0, 1, 9, 11])  # the qubit ensembles
    def test_bloch_grid_never_exceeds_upper(self, index):
        ens = regression_ensembles()[index]
        res = p_secr(ens)
        paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
        best = 0.0
        for r in np.linspace(0.0, 1.0, 9):
            for theta in np.linspace(0.0, np.pi, 13):
                for phi in np.linspace(0.0, 2 * np.pi, 24, endpoint=False):
                    n = r * np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
                    sigma = 0.5 * (np.eye(2) + sum(c * P for c, P in zip(n, paulis)))
                    best = max(best, fidelity_objective(ens, sigma))
        assert best <= res.upper
        assert best >= res.lower - 1e-2  # the grid is fine enough to mean something

    def test_early_stop_keeps_a_valid_bracket(self):
        ens = regression_ensembles()[5]
        full = p_secr(ens)
        capped, loose = p_secr(ens, PSecrConfig(max_iters=1)), p_secr(ens, PSecrConfig(tol=0.1))
        assert not capped.converged
        assert loose.converged and loose.upper - loose.lower <= 0.1
        for res in (capped, loose):
            # a stopped run is a prefix of the full one, so its bracket
            # contains the full bracket and with it the optimum
            assert res.lower <= full.lower and res.upper >= full.upper


class TestPSecrConfig:
    @pytest.mark.parametrize("field, value", [
        ("tol", 0.0), ("tol", -1e-6), ("tol", float("nan")), ("tol", float("inf")),
        ("tol", True), ("tol", "1e-6"), ("tol", None),
        ("max_iters", 0), ("max_iters", -3), ("max_iters", 2.5), ("max_iters", 10.0),
        ("max_iters", True), ("max_iters", "10"), ("max_iters", None),
    ])
    def test_invalid_field_raises(self, field, value):
        with pytest.raises(ValidationError, match=field):
            PSecrConfig(**{field: value})

    def test_valid_fields_construct(self):
        assert PSecrConfig(tol=np.float64(1e-3), max_iters=np.int64(5)).max_iters == 5
        # restarts and seed steer nothing but are still accepted
        assert PSecrConfig(restarts=2, max_iters=80, seed=0).restarts == 2


class TestHmaxBound:
    def test_endpoints(self):
        assert abs(hmax_bound_noisy_projective(NoiseModel(3, 0.0)) - np.log2(3)) < 1e-12
        assert abs(hmax_bound_noisy_projective(NoiseModel(3, 1.0))) < 1e-12

    def test_spot(self):
        assert abs(hmax_bound_noisy_projective(NoiseModel(2, 0.15)) - np.log2(1.85)) < 1e-12

    def test_matches_state_hmax(self):
        for d in (2, 4):
            for eps in (0.1, 0.6):
                noise = NoiseModel(d, eps)
                row = state_side_comparison(noise)
                assert abs(hmax_bound_noisy_projective(noise) - row["state_hmax_star"]) < 1e-12


class TestStateSide:
    def test_qubit_spot_values(self):
        noise = NoiseModel(2, 0.15)
        row = state_side_comparison(noise)
        s = -(0.925 * np.log2(0.925) + 0.075 * np.log2(0.075))
        assert abs(row["state_vn_star"] - (1.0 - s)) < 1e-12
        assert abs(row["state_hmax_star"] - (1.0 + np.log2(0.925))) < 1e-12
        assert abs(row["hmin_star"] + np.log2(0.5 * (1 + np.sqrt(0.15 * 1.85)))) < 1e-12

    def test_full_noise_all_zero(self):
        row = state_side_comparison(NoiseModel(3, 1.0))
        for v in row.values():
            assert abs(v) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 9, 12, 16])
    def test_full_noise_curve_never_negative_or_minus_zero(self, d):
        noise = NoiseModel(d, 1.0)
        for name, v in {**entropy_curve_point(noise), **state_side_comparison(noise)}.items():
            assert v >= 0.0 and math.copysign(1.0, v) == 1.0, (name, v)

    def test_perfect_guess_min_entropy_is_plus_zero(self):
        ens = EveEnsemble(np.array([1.0]), (np.diag([1.0, 0.0]).astype(complex),))
        h = conditional_min_entropy(ens)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_vn_bound_dominates_state_value(self):
        for d in (2, 3, 5):
            for eps in np.linspace(0.02, 0.98, 13):
                noise = NoiseModel(d, float(eps))
                row = state_side_comparison(noise)
                assert vn_bound_noisy_projective(noise) >= row["state_vn_star"] - 1e-12


class TestEntropyReportOrdering:
    def test_ordering_on_sqrt_ensembles(self):
        for d, eps in [(2, 0.3), (3, 0.5), (4, 0.8)]:
            ens, noise = sqrt_ensemble(d, eps)
            hmin, h_vn = conditional_min_entropy(ens), conditional_vn_entropy(ens)
            hmax = p_secr(ens, PSecrConfig(restarts=2, max_iters=60)).hmax_bits
            assert hmin <= h_vn + 1e-9
            assert h_vn <= hmax + 1e-9
            assert abs(hmax_bound_noisy_projective(noise) - hmax) < 1e-6

    def test_curve_point_keys(self):
        row = entropy_curve_point(NoiseModel(2, 0.15))
        assert set(row) == {"epsilon", "hmax_bound", "vn_bound", "state_vn_star", "hmin_star"}
        assert abs(row["hmax_bound"] - 0.887525) < 1e-6
