"""Closed-form optimal guessing probabilities and bounds.

Covers the two certified measurement classes (two-outcome qubit POVMs and
noisy projective measurements in any dimension), the eigenvalue-based upper
bound for two-outcome POVMs of arbitrary dimension, and the midpoint lower
bound.  The min-entropy is always ``-log2(pguess)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError, matrix_sqrt, max_abs, min_entropy_bits
from .povm import NoiseModel, Povm, PureState, unbiased_state

METHOD_THEOREM1 = "theorem1"
METHOD_THEOREM2 = "theorem2"
METHOD_COROLLARY1 = "corollary1-bound"
METHOD_SDP = "sdp"

_DETECT_TOL = 1e-9   # tolerance of every test in the noisy projective detection


@dataclass(frozen=True)
class GuessReport:
    """Guessing probability together with the min-entropy it certifies.

    ``method`` records how the value was obtained; ``corollary1-bound`` marks
    an upper bound on the optimal guessing probability rather than a certified
    optimum.  ``relabeled`` is set when outcome labels were swapped to meet
    the trace-ordering convention.
    """

    pguess: float
    hmin_bits: float
    method: str
    optimal_state: PureState
    relabeled: bool

    def __post_init__(self):
        if not 0.0 < self.pguess <= 1.0 + 1e-12:
            raise ValidationError(f"guessing probability out of range: {self.pguess}")
        if abs(self.hmin_bits + np.log2(self.pguess)) > 1e-12:
            raise ValidationError("hmin_bits must equal -log2(pguess)")


def _report(pguess: float, method: str, state: PureState, relabeled: bool) -> GuessReport:
    pguess = float(min(pguess, 1.0))
    return GuessReport(
        pguess=pguess,
        hmin_bits=min_entropy_bits(pguess),
        method=method,
        optimal_state=state,
        relabeled=relabeled,
    )


def _ordered_two_outcome(povm: Povm, key) -> tuple[np.ndarray, bool]:
    """Return (M1, relabeled) with outcome labels ordered so key(M1) <= key(M2)."""
    if povm.num_outcomes != 2:
        raise ValidationError(f"expected a two-outcome POVM, got {povm.num_outcomes} outcomes")
    M1, M2 = povm.elements
    if key(M1) > key(M2) + 1e-14:
        return M2, True
    return M1, False


def pguess_star_qubit_two_outcome(povm: Povm) -> GuessReport:
    """Optimal guessing probability of any two-outcome qubit POVM.

    ``1 - tr M1 + (tr sqrt(M1))^2 / 2`` with tr M1 <= tr M2 (labels swapped
    automatically if given in the other order).  The optimum is attained at
    any state unbiased to the shared eigenbasis of the elements.
    """
    if povm.dim != 2:
        raise ValidationError(f"qubit formula requires dim 2, got {povm.dim}")
    M1, relabeled = _ordered_two_outcome(povm, lambda E: float(np.real(np.trace(E))))
    tr1 = float(np.real(np.trace(M1)))
    trsqrt = float(np.real(np.trace(matrix_sqrt(M1))))
    value = 1.0 - tr1 + 0.5 * trsqrt**2
    _, V = np.linalg.eigh(M1)
    psi = PureState((V[:, 0] + V[:, 1]) / np.sqrt(2.0))
    return _report(value, METHOD_THEOREM1, psi, relabeled)


def pguess_star_noisy_projective(noise: NoiseModel) -> GuessReport:
    """Optimal guessing probability of the noisy projective measurement.

    ``(tr sqrt(M1))^2 / d = (sqrt(A) + (d-1) sqrt(eps))^2 / d^2``, attained at
    the unbiased state.
    """
    return _report(noise.pguess_star, METHOD_THEOREM2, unbiased_state(noise.d), False)


def two_outcome_upper_bound(povm: Povm) -> GuessReport:
    """Upper bound on the optimal guessing probability of a two-outcome POVM.

    ``1 - (sqrt(lmax(M1)) - sqrt(lmin(M1)))^2 / 2`` where the element with the
    smaller lmin + lmax is taken as M1.  This is a bound, not a certified
    optimum, except in dimension 2 where it coincides with the qubit formula.
    """

    def spread_key(E):
        w = np.linalg.eigvalsh(E)
        return float(w[0] + w[-1])

    M1, relabeled = _ordered_two_outcome(povm, spread_key)
    w, V = np.linalg.eigh(M1)
    lmin, lmax = float(w[0]), float(w[-1])
    value = 1.0 - 0.5 * (np.sqrt(lmax) - np.sqrt(max(lmin, 0.0))) ** 2
    psi = PureState((V[:, -1] + V[:, 0]) / np.sqrt(2.0))
    return _report(value, METHOD_COROLLARY1, psi, relabeled)


def midpoint_lower_bound(povm: Povm) -> float:
    """Guessing-probability lower bound 1 - (lmax(M1) - lmin(M1)) / 2.

    Valid for every input state via the midpoint decomposition; the spread of
    the two elements coincides, so no ordering is needed.
    """
    if povm.num_outcomes != 2:
        raise ValidationError(f"expected a two-outcome POVM, got {povm.num_outcomes} outcomes")
    w = np.linalg.eigvalsh(povm.elements[0])
    return float(1.0 - 0.5 * (w[-1] - w[0]))


def detect_noisy_projective(povm: Povm) -> tuple[NoiseModel, np.ndarray] | None:
    """Return (noise, U) if the POVM is a noisy projective measurement, else None.

    Matches M_x = (1 - eps)|v_x><v_x| + (eps/d) 1 in any orthonormal basis
    {v_x}, one basis vector per outcome.  The unitary U has U[:, x] = v_x, so
    M_x = U N_x U^dag with N_x = ``noise.povm().elements[x]``.
    """
    d = povm.dim
    if povm.num_outcomes != d:
        return None
    if max_abs(np.trace(povm.elements, axis1=1, axis2=2).real - 1.0) > _DETECT_TOL:
        return None
    # All elements share the spectrum {eps/d x (d-1), A/d}.
    w, V = np.linalg.eigh(povm.elements)
    eps_each = np.mean(w[:, :-1], axis=1) * d
    if np.any(eps_each < -_DETECT_TOL) or np.any(eps_each > 1.0 + _DETECT_TOL):
        return None
    eps = float(np.mean(np.clip(eps_each, 0.0, 1.0)))
    eye = np.eye(d)
    if eps > 1.0 - _DETECT_TOL:
        # Maximally mixed limit: every element must be 1/d; basis arbitrary.
        if max_abs(povm.elements - eye / d) <= _DETECT_TOL:
            return NoiseModel(d, 1.0), eye.astype(complex)
        return None
    tops = V[:, :, -1]   # row x is the top eigenvector v_x
    model = (1.0 - eps) * tops[:, :, None] * tops.conj()[:, None, :] + (eps / d) * eye
    if max_abs(povm.elements - model) > _DETECT_TOL:
        return None
    U = tops.T.copy()   # contiguous: U.sum(axis=1), the optimal state, rounds by layout
    if max_abs(U @ U.conj().T - eye) > _DETECT_TOL * d:
        return None
    return NoiseModel(d, eps), U


def pguess_star_certified(povm: Povm) -> GuessReport | None:
    """Closed-form optimum when the POVM belongs to a certified class.

    For a noisy projective measurement in the basis U the optimum is attained
    at U times the unbiased state.
    """
    if povm.dim == 2 and povm.num_outcomes == 2:
        return pguess_star_qubit_two_outcome(povm)
    found = detect_noisy_projective(povm)
    if found is None:
        return None
    noise, U = found
    psi = PureState(U.sum(axis=1) / np.sqrt(povm.dim))
    return _report(noise.pguess_star, METHOD_THEOREM2, psi, False)
