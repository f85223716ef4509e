"""States, POVMs, depolarizing noise, and coarse-graining.

Outcome indices are 0-based internally (the CLI reports them 1-based).
Value types are frozen dataclasses wrapping validated numpy arrays, so they
are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    FEASIBILITY_TOL,
    DomainError,
    ValidationError,
    as_operator,
    max_abs,
    require_hermitian,
    require_hermitian_stack,
)


@dataclass(frozen=True)
class PureState:
    """Unit vector in C^d with the global phase gauge fixed."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if not np.isfinite(amp).all():
            raise ValidationError("state amplitudes must be finite")
        # Fix the global phase: the first nonzero amplitude is real positive.
        nonzero = np.nonzero(np.abs(amp) > 1e-14)[0]
        if len(nonzero):
            amp = amp / (amp[nonzero[0]] / abs(amp[nonzero[0]]))
        norm2 = float(np.sum(np.abs(amp) ** 2))
        if abs(norm2 - 1.0) > 1e-10:
            raise ValidationError(f"state is not normalized: |amplitudes|^2 = {norm2!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class Povm:
    """Ordered POVM: >= 2 PSD elements summing to the identity.

    ``elements`` is one read-only complex (m, d, d) array, built from any
    sequence of square matrices of one dimension, each validated once.
    """

    elements: np.ndarray

    def __post_init__(self):
        elems = require_hermitian_stack(self.elements, tol=1e-9)
        if len(elems) < 2:
            raise ValidationError("a POVM needs at least 2 elements")
        not_psd = np.flatnonzero(np.linalg.eigvalsh(elems)[:, 0] < -FEASIBILITY_TOL)
        if not_psd.size:
            raise ValidationError(f"POVM element {not_psd[0]} is not PSD within {FEASIBILITY_TOL:.1e}")
        if max_abs(elems.sum(axis=0) - np.eye(elems.shape[1])) > FEASIBILITY_TOL:
            raise ValidationError("POVM elements do not sum to the identity")
        elems.setflags(write=False)
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def num_outcomes(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing-noise parameters for the noisy projective measurement.

    ``A = d - eps (d - 1)`` is d times the large eigenvalue of each element;
    ``delta = eps (2 - eps)`` is the Born-rule-equivalent single-device noise
    when the same eps is applied to both the state and the measurement.
    """

    d: int
    epsilon: float
    A: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        if self.d < 2:
            raise DomainError("noise model requires dimension d >= 2")
        if not 0.0 <= self.epsilon <= 1.0:
            raise DomainError(f"epsilon must be in [0, 1], got {self.epsilon}")
        object.__setattr__(self, "A", self.d - self.epsilon * (self.d - 1))
        object.__setattr__(self, "delta", self.epsilon * (2.0 - self.epsilon))

    def povm(self) -> Povm:
        """Rank-one computational-basis projectors mixed with white noise."""
        d, eps = self.d, self.epsilon
        eye = np.eye(d)
        return Povm(tuple((1.0 - eps) * np.outer(eye[x], eye[x]) + (eps / d) * eye for x in range(d)))

    def trace_sqrt_element(self) -> float:
        """tr sqrt(M_x) = (sqrt(A) + (d-1) sqrt(eps)) / sqrt(d), same for all x."""
        d = self.d
        return (np.sqrt(self.A) + (d - 1) * np.sqrt(self.epsilon)) / np.sqrt(d)

    @property
    def pguess_star(self) -> float:
        """P* = (tr sqrt(M_x))^2 / d, attained at the unbiased state; at most 1 despite rounding."""
        return min(float(self.trace_sqrt_element() ** 2 / self.d), 1.0)


def depolarize(op, epsilon: float) -> np.ndarray:
    """Depolarizing channel (1 - eps) op + (eps / d) tr(op) 1."""
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"epsilon must be in [0, 1], got {epsilon}")
    op = require_hermitian(op, tol=1e-9)
    d = op.shape[0]
    return (1.0 - epsilon) * op + (epsilon / d) * np.real(np.trace(op)) * np.eye(d)


def noisy_projective(d: int, epsilon: float) -> Povm:
    """Rank-one computational-basis projectors mixed with white noise."""
    return NoiseModel(d, epsilon).povm()


def unbiased_state(d: int) -> PureState:
    """The state (1, ..., 1)/sqrt(d), unbiased to the computational basis."""
    if d < 1:
        raise DomainError("dimension must be >= 1")
    return PureState(np.full(d, 1.0 / np.sqrt(d), dtype=complex))


def born_probabilities(state: PureState, povm: Povm) -> np.ndarray:
    """Outcome distribution p(x) = <phi| M_x |phi>."""
    if state.dim != povm.dim:
        raise ValidationError(f"state dim {state.dim} != POVM dim {povm.dim}")
    phi = state.amplitudes
    p = np.array([np.real(phi.conj() @ E @ phi) for E in povm.elements])
    if np.min(p) < -1e-12 or abs(np.sum(p) - 1.0) > 1e-10:
        raise ValidationError("Born probabilities failed sanity checks")
    return p


def validate_partition(partition, num_outcomes: int) -> list[list[int]]:
    """Check a list of index sets covers 0..num_outcomes-1 exactly once."""
    parts = [sorted(int(i) for i in part) for part in partition]
    if any(len(p) == 0 for p in parts):
        raise ValidationError("partition parts must be nonempty")
    flat = sorted(i for p in parts for i in p)
    if flat != list(range(num_outcomes)):
        raise ValidationError(
            f"partition must cover outcomes 0..{num_outcomes - 1} exactly once, got {flat}"
        )
    return parts


def coarse_grain(povm: Povm, partition) -> Povm:
    """Merge outcome groups: element a becomes sum of M_x over x in part a."""
    parts = validate_partition(partition, povm.num_outcomes)
    if len(parts) < 2:
        raise ValidationError("coarse-graining needs at least 2 parts")
    return Povm([povm.elements[part].sum(axis=0) for part in parts])


def half_dim(d: int) -> int:
    """d/2 for the even split of the coarse-grained study, which needs even d >= 4."""
    if d % 2 != 0 or d < 4:
        raise DomainError("the coarse-graining study requires even d >= 4")
    return d // 2


def halves_partition(d: int) -> list[list[int]]:
    """The first-half / second-half outcome split used in the coarse-grained study."""
    half = half_dim(d)
    return [list(range(half)), list(range(half, d))]


def two_outcome_qubit(m1: float, m2: float, basis: np.ndarray | None = None) -> Povm:
    """Two-outcome qubit POVM with M_1 = diag(m1, m2) in the given basis.

    Eigenvalues are sorted to m1 >= m2, and outcome labels are swapped when
    necessary so that tr M_1 <= tr M_2 (the convention the qubit closed form
    is stated for).
    """
    lo, hi = sorted((float(m1), float(m2)))
    if not 0.0 <= lo <= hi <= 1.0:
        raise DomainError(f"eigenvalues must lie in [0, 1], got {(m1, m2)}")
    M1 = np.diag([hi, lo]).astype(complex)
    if basis is not None:
        U = as_operator(basis, dim=2)
        if max_abs(U @ U.conj().T - np.eye(2)) > 1e-10:
            raise ValidationError("basis must be unitary")
        M1 = U @ M1 @ U.conj().T
    M2 = np.eye(2) - M1
    if hi + lo > 1.0 + 1e-14:
        M1, M2 = M2, M1
    return Povm((M1, M2))
