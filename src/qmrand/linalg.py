"""Dense complex Hermitian linear-algebra primitives.

Operators are plain complex ``numpy`` arrays.  Every public routine validates
its input (Hermiticity, positive semidefiniteness, trace) so that downstream
modules can assume well-formed operators.  All entropies are in bits: every
logarithm in this package is base two.

Default tolerances are centralized here.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import fields

import numpy as np

# Centralized default tolerances.
HERMITICITY_TOL = 1e-12
FEASIBILITY_TOL = 1e-9
EIG_CLAMP = 1e-10   # eigenvalues in [-EIG_CLAMP, 0) of a nominally PSD operator are round-off
MAX_DIM = 32

LOG2 = np.log(2.0)


class ValidationError(ValueError):
    """Structurally invalid input (wrong shape, violated invariant)."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class SolverError(RuntimeError):
    """Numerical solver failed to reach the requested accuracy."""


def check_bounds(config, bounds: dict) -> None:
    """Check the numeric fields of a config dataclass against a table.

    ``bounds`` maps a field name to (lower bound, whether the bound itself is
    excluded).  Each named field must be a number of its annotated kind, int
    or float, that is finite and above its bound, else ``ValidationError``.
    """
    kinds = {f.name: "int" if f.type in ("int", int) else "float" for f in fields(config)}
    for name, (low, strict) in bounds.items():
        value, kind = getattr(config, name), kinds[name]
        # Integer fields take ints of any size; float fields must fit a finite float.
        if (isinstance(value, bool)
                or not isinstance(value, numbers.Integral if kind == "int" else numbers.Real)
                or not (kind == "int" or abs(value) <= sys.float_info.max)
                or value < low or (strict and value == low)):
            raise ValidationError(f"{name} must be a finite {kind} "
                                  f"{'>' if strict else '>='} {low}, got {value!r}")


def as_operator(entries, dim: int | None = None) -> np.ndarray:
    """Coerce to a square complex matrix, checking shape, size limits and finiteness."""
    return _checked_operators(entries, 2, dim)


def require_hermitian_stack(entries, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """A sequence of square operators of one dimension, or a (k, d, d) array, as a new
    complex stack of Hermitian parts: each matrix gets the checks of ``as_operator``
    and ``require_hermitian`` once."""
    return hermitian_part(_checked_operators(entries, 3), tol)


def _checked_operators(entries, ndim: int, dim: int | None = None) -> np.ndarray:
    """``entries`` as a complex array of ``ndim`` axes, a matrix or a stack of them,
    each square, finite and of a supported dimension (``dim``, when given)."""
    try:
        H = np.asarray(entries, dtype=complex)
    except ValueError as exc:   # also a ragged sequence: matrices of different sizes
        raise ValidationError(f"operators must be square matrices of one dimension ({exc})") from None
    if H.ndim != ndim or H.shape[-1] != H.shape[-2]:
        stack = "" if ndim == 2 else ", one (k, d, d) stack"
        raise ValidationError(f"operator must be square{stack}, got shape {H.shape}")
    d = H.shape[-1]
    if d < 1:
        raise ValidationError("operator dimension must be >= 1")
    if d > MAX_DIM:
        raise ValidationError(f"dimension {d} exceeds supported maximum {MAX_DIM}")
    if dim is not None and d != dim:
        raise ValidationError(f"expected dimension {dim}, got {d}")
    if not np.isfinite(H).all():
        raise ValidationError("operator entries must be finite")
    return H


def hermitian_part(S: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    """The Hermitian part of a matrix or of a stack of them (the last two axes).

    Averaging with the adjoint removes round-off asymmetry; asymmetry beyond
    ``tol`` raises ``ValidationError``, which calls the input ``name``.
    """
    SH = S.conj().swapaxes(-1, -2)
    asym = max_abs(S - SH)
    if asym > tol:
        raise ValidationError(f"{name} is not Hermitian: asymmetry {asym:.3e} > {tol:.1e}")
    return 0.5 * (S + SH)


def require_hermitian(H, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate a square operator's Hermiticity within ``tol`` and return its Hermitian part."""
    return hermitian_part(as_operator(H), tol)


def is_psd(H) -> bool:
    """True iff the smallest eigenvalue of Hermitian ``H`` is >= -FEASIBILITY_TOL."""
    return float(np.linalg.eigvalsh(require_hermitian(H))[0]) >= -FEASIBILITY_TOL


def _clamped_psd_eigh(H) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs (w, V) of a nominally PSD Hermitian operator.

    Hermiticity is checked by ``require_hermitian``.  Eigenvalues in
    ``[-EIG_CLAMP, 0)`` are round-off and clamped to 0; anything below
    ``-EIG_CLAMP`` is a genuine negativity and raises ``DomainError``.
    """
    w, V = np.linalg.eigh(require_hermitian(H))
    if w[0] < -EIG_CLAMP:
        raise DomainError(f"operator is not PSD: min eigenvalue {w[0]:.3e} < -{EIG_CLAMP:.1e}")
    return np.maximum(w, 0.0), V


def matrix_sqrt(H) -> np.ndarray:
    """Principal square root of a PSD Hermitian operator."""
    w, V = _clamped_psd_eigh(H)
    S = (V * np.sqrt(w)) @ V.conj().T
    return 0.5 * (S + S.conj().T)


def fidelity(rho, sigma) -> float:
    """Quantum fidelity F(rho, sigma) = tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Both arguments must be PSD with trace at most 1 (+1e-9); the result is
    symmetric in its arguments and lies in [0, 1] for normalized states.
    """
    rho = require_hermitian(rho)
    sigma = require_hermitian(sigma, tol=1e-10)
    for op in (rho, sigma):
        if np.real(np.trace(op)) > 1.0 + 1e-9:
            raise DomainError("fidelity expects subnormalized states (trace <= 1)")
    sr = matrix_sqrt(rho)
    inner = sr @ sigma @ sr
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    if w[0] < -EIG_CLAMP:
        raise DomainError(f"fidelity inner operator not PSD: min eigenvalue {w[0]:.3e}")
    # Relative cutoff: eigenvalue noise of order machine epsilon would blow
    # up to sqrt(eps) under the square root.
    cutoff = max(w[-1], 0.0) * 1e-14
    w = np.where(w > cutoff, w, 0.0)
    return float(np.sum(np.sqrt(w)))


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy -tr(rho log2 rho) in bits, with 0 log 0 := 0."""
    rho = require_hermitian(rho, tol=1e-10)
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > 1e-9:
        raise ValidationError(f"entropy expects a unit-trace state, got trace {tr!r}")
    w, _ = _clamped_psd_eigh(rho)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)) / LOG2)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H2(x) in bits on [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-(x * np.log(x) + (1.0 - x) * np.log(1.0 - x)) / LOG2)


def min_entropy_bits(pguess: float) -> float:
    """-log2(pguess) in bits, exactly 0.0 (never -0 or negative) for pguess >= 1."""
    return 0.0 if pguess >= 1.0 else float(-np.log2(pguess))


def shannon_entropy(p) -> float:
    """Shannon entropy of a probability vector, in bits."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12):
        raise DomainError("probabilities must be non-negative")
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)) / LOG2)


def max_abs(A) -> float:
    """Max-norm (largest absolute entry)."""
    return float(np.max(np.abs(A))) if np.asarray(A).size else 0.0
