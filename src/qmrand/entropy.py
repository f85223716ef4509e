"""Conditional entropies of the eavesdropper's classical-quantum ensembles.

From a decomposition K[x][j] and an input state, Eve's side information is
the classical register j; her conditional states are diagonal in the
sub-POVM label basis.  This module computes the conditional min-, von
Neumann-, and max-entropies of those ensembles, the closed-form bounds for
the noisy projective measurement, and the state-side comparison quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompositions import Decomposition
from .linalg import (
    ValidationError,
    binary_entropy,
    check_bounds,
    matrix_sqrt,
    max_abs,
    min_entropy_bits,
    require_hermitian,
    shannon_entropy,
    von_neumann_entropy,
)
from .povm import NoiseModel, PureState


@dataclass(frozen=True)
class EveEnsemble:
    """Ensemble {p(x), rho_x} of Eve's normalized conditional states.

    Outcomes with p(x) = 0 are excluded from every entropy sum (the 0 log 0
    convention); their rho_x is still a normalized placeholder.
    """

    probs: np.ndarray
    states: tuple

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-10:
            raise ValidationError("ensemble probabilities must be a distribution")
        states = tuple(require_hermitian(r, 1e-9) for r in self.states)
        for x, r in enumerate(states):
            if abs(float(np.real(np.trace(r))) - 1.0) > 1e-9:
                raise ValidationError(f"conditional state {x} is not normalized")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    def defined(self):
        return [(float(p), r) for p, r in zip(self.probs, self.states) if p > 0.0]

    def average_state(self) -> np.ndarray:
        return sum(p * r for p, r in self.defined())


def eve_ensemble_from_decomposition(state: PureState, decomp: Decomposition) -> EveEnsemble:
    """Eve's conditional ensemble from the canonical dilation of a decomposition.

    p(x) = <phi| M_x |phi> and p(x) rho_x = sum_j <phi| K[x][j] |phi> |j><j|,
    so every conditional state is diagonal in the sub-POVM label basis.  An
    outcome with p(x) <= 1e-14 gets p(x) = 0 and the placeholder rho_x = I/n.
    """
    if state.dim != decomp.dim:
        raise ValidationError("state dimension does not match the decomposition")
    phi = state.amplitudes
    weights = np.einsum("i,xjik,k->xj", phi.conj(), decomp.K, phi).real
    weights = np.maximum(weights, 0.0)
    probs = weights.sum(axis=1)
    n = decomp.num_subpovms
    states = []
    for x in range(decomp.num_outcomes):
        if probs[x] <= 1e-14:
            probs[x] = 0.0
            states.append(np.eye(n) / n)
        else:
            states.append(np.diag(weights[x] / probs[x]).astype(complex))
    return EveEnsemble(probs / probs.sum(), tuple(states))


def _classical_table(ens: EveEnsemble) -> np.ndarray | None:
    """Joint table P[x, i] = p(x) <v_i| rho_x |v_i>, or None if the rho_x do not commute.

    {v_i} diagonalizes sum_x c_x p(x) rho_x with distinct c_x = 1 + frac(x phi),
    which separates joint eigenspaces that a degenerate average would merge.
    They count as commuting when every V^dag rho_x V is diagonal up to 1e-10.
    """
    pairs = ens.defined()
    if not pairs:
        raise ValidationError("ensemble has no populated outcomes")
    c = 1.0 + np.mod(np.arange(len(pairs)) * (np.sqrt(5.0) - 1.0) / 2.0, 1.0)
    _, V = np.linalg.eigh(sum(ck * p * r for ck, (p, r) in zip(c, pairs)))
    rotated = [V.conj().T @ r @ V for _, r in pairs]
    if any(max_abs(R - np.diag(np.diag(R))) > 1e-10 for R in rotated):
        return None
    return np.array([p * np.maximum(np.diag(R).real, 0.0) for (p, _), R in zip(pairs, rotated)])


def ensemble_guessing_probability(ens: EveEnsemble) -> float:
    """Optimal probability of guessing x from the conditional state.

    Exact for mutually commuting conditional states: measure in the common
    eigenbasis and pick the maximum-posterior outcome, sum_i max_x P[x, i].
    Every ensemble built from a decomposition is diagonal, hence commuting;
    other input raises ``ValidationError``.
    """
    table = _classical_table(ens)
    if table is None:
        raise ValidationError("guessing probability implemented for commuting ensembles only")
    return float(np.sum(table.max(axis=0)))


def conditional_min_entropy(ens: EveEnsemble) -> float:
    return min_entropy_bits(ensemble_guessing_probability(ens))


def conditional_vn_entropy(ens: EveEnsemble) -> float:
    """H(X|E) = H({p(x)}) + sum_x p(x) S(rho_x) - S(sum_x p(x) rho_x), in bits."""
    pairs = ens.defined()
    p = np.array([pr for pr, _ in pairs])
    h = shannon_entropy(p)
    h += sum(pr * von_neumann_entropy(r) for pr, r in pairs)
    h -= von_neumann_entropy(ens.average_state())
    return float(h)


# Lower bound of each checked PSecrConfig field and whether the bound itself is excluded.
_PSECR_BOUNDS = {"tol": (0, True), "max_iters": (1, False)}


@dataclass(frozen=True)
class PSecrConfig:
    """Stopping rule of the non-commuting ``p_secr`` ascent.

    The ascent stops once its bracket is at most ``tol`` wide, or after
    ``max_iters`` steps; ``linalg.check_bounds`` requires a finite float
    ``tol`` > 0 and an int ``max_iters`` >= 1.  ``restarts`` and ``seed`` do
    nothing (the ascent starts once, from I/d) and are accepted only so that
    existing callers still construct.
    """

    tol: float = 1e-6
    restarts: int = 8
    max_iters: int = 2000
    seed: int = 11

    def __post_init__(self):
        check_bounds(self, _PSECR_BOUNDS)


@dataclass(frozen=True)
class PSecrResult:
    """Bracket of the secrecy quantity behind the max-entropy (plain floats).

    Exact for commuting ensembles: ``value == lower == upper`` and
    ``converged``.  Otherwise ``value == lower`` is attained by an explicit
    sigma, ``upper`` is the least Alberti dual bound of the sigmas visited,
    and ``converged`` means the bracket closed within ``tol``.
    """

    value: float
    lower: float
    upper: float
    converged: bool

    @property
    def hmax_bits(self) -> float:
        return float(np.log2(self.value))


def _fidelity_sum_and_dual(roots, sigma: np.ndarray):
    """(f, f_eps, G) at sigma from the pairs (sqrt(p_x), sqrt(rho_x)), one eigh per state.

    With M_x = sqrt(rho_x) sigma sqrt(rho_x): f = sum_x sqrt(p_x) tr M_x^1/2
    (the eigenvalue cutoff of ``linalg.fidelity``), f_eps = sum_x sqrt(p_x)
    tr (M_x + eps)^1/2 and G = sum_x sqrt(p_x) sqrt(rho_x) (M_x + eps)^-1/2
    sqrt(rho_x), twice the gradient of f.  For every density sigma and eps > 0,
    f_eps lmax(G) bounds p_secr from above: Alberti's F(rho, s)^2 <= tr(rho Y)
    tr(s Y^-1) at Y_x = rho_x^-1/2 (M_x + eps)^1/2 rho_x^-1/2 on supp rho_x
    (and arbitrarily large on its kernel), summed over x and maximized over s.
    """
    eps = 1e-16
    f = f_eps = 0.0
    G = np.zeros_like(sigma)
    for sp, sr in roots:
        w, V = np.linalg.eigh(sr @ sigma @ sr)
        w = np.maximum(w, 0.0)
        f += sp * np.sum(np.sqrt(np.where(w > w[-1] * 1e-14, w, 0.0)))
        f_eps += sp * np.sum(np.sqrt(w + eps))
        W = sr @ V
        G += sp * (W / np.sqrt(w + eps)) @ W.conj().T
    return f, f_eps, G


def p_secr(ens: EveEnsemble, config: PSecrConfig | None = None) -> PSecrResult:
    """max over states sigma of (sum_x sqrt(p(x)) F(rho_x, sigma))^2.

    Commuting ensembles (every one built from a decomposition) give exactly
    sum_i (sum_x sqrt(P[x, i]))^2: dephasing sigma in the common eigenbasis
    cannot lower a fidelity, and Cauchy-Schwarz does the rest.  Otherwise
    (and only then does ``config`` apply) one ascent from I/d raises the lower
    bound f(sigma)^2.  In sigma = B B^dag with ||B||_F = 1, f = sum_x sqrt(p_x)
    ||sqrt(rho_x) B||_1 is convex and homogeneous in B with gradient G B, so
    the gradient step projected onto the sphere, B <- G B / ||G B||_F, i.e.
    sigma <- G sigma G / tr, never lowers f (up to rounding) and needs no
    step size.  Every sigma visited gives the upper bound f_eps lmax(G) of
    ``_fidelity_sum_and_dual``; the ascent stops once the best bracket is
    within ``tol`` (``converged``) or after ``max_iters`` steps.
    """
    table = _classical_table(ens)
    if table is not None:
        value = float(np.sum(np.sqrt(table).sum(axis=0) ** 2))
        return PSecrResult(value=value, lower=value, upper=value, converged=True)
    cfg = config or PSecrConfig()
    roots = [(np.sqrt(p), matrix_sqrt(r)) for p, r in ens.defined()]
    sigma = np.eye(ens.dim, dtype=complex) / ens.dim
    best, upper = 0.0, np.inf
    for _ in range(cfg.max_iters + 1):
        f, f_eps, G = _fidelity_sum_and_dual(roots, sigma)
        best, upper = max(best, f), min(upper, f_eps * np.linalg.eigvalsh(G)[-1])
        if upper - best**2 <= cfg.tol:
            break
        sigma = G @ sigma @ G
        sigma /= np.trace(sigma).real
    lower, upper = float(best**2), float(upper)
    return PSecrResult(value=lower, lower=lower, upper=upper, converged=upper - lower <= cfg.tol)


# ---------------------------------------------------------------------------
# Closed-form bounds for the noisy projective measurement
# ---------------------------------------------------------------------------


def _peaked_entropy(p: float, d: int) -> float:
    """H2(p) + (1 - p) log2(d - 1): the entropy of (p, (1 - p)/(d - 1) x (d - 1))."""
    return float(binary_entropy(p) + (1.0 - p) * np.log2(d - 1))


def vn_bound_noisy_projective(noise: NoiseModel) -> float:
    """H2(P*) + (1 - P*) log2(d - 1): the square-root dilation's H(X|E)."""
    return _peaked_entropy(noise.pguess_star, noise.d)


def hmax_bound_noisy_projective(noise: NoiseModel) -> float:
    """log2(d - (d-1) eps): the max-entropy of the square-root dilation."""
    return float(np.log2(noise.A))


def state_side_comparison(noise: NoiseModel) -> dict:
    """Entropy quantities of the analogous noisy pure state.

    The optimal min-entropies of the noisy state and the noisy measurement
    coincide; the von Neumann and max-entropy counterparts are
    log2 d - S(rho_psi) and log2 d + log2 lmax(rho_psi).  The depolarized
    unbiased state rho_psi has eigenvalues lmax = 1 - eps + eps/d once and
    eps/d with multiplicity d - 1, so S(rho_psi) = H2(lmax) + (1 - lmax) log2(d - 1).
    """
    d = noise.d
    lmax = 1.0 - noise.epsilon + noise.epsilon / d
    s_rho = _peaked_entropy(lmax, d)
    return {
        "hmin_star": min_entropy_bits(noise.pguess_star),
        "state_vn_star": max(0.0, float(np.log2(d) - s_rho)),
        "state_hmax_star": max(0.0, float(np.log2(d) + np.log2(lmax))),
    }


def entropy_curve_point(noise: NoiseModel) -> dict:
    """One row of the four-curve entropy figure for the given (d, eps)."""
    row = state_side_comparison(noise)
    return {
        "epsilon": noise.epsilon,
        "hmax_bound": hmax_bound_noisy_projective(noise),
        "vn_bound": vn_bound_noisy_projective(noise),
        "state_vn_star": row["state_vn_star"],
        "hmin_star": row["hmin_star"],
    }
