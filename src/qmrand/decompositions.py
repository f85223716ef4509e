"""Explicit adversarial decompositions of noisy measurements.

An eavesdropper splits the POVM {M_x} into subnormalized sub-POVMs
K[x][j] = p(j) N[x][j] with

    sum_x d K[x][j] proportional to the identity   for every j,
    sum_j K[x][j] = M_x                            for every x,

and guesses outcome j when sub-POVM j fires; her success probability at the
state |phi> is sum_j <phi| K[j][j] |phi>.  This module builds the square-root
decompositions (qubit and qudit), the Bloch-vector construction, permutation
symmetrization, the one-parameter symmetric family, coarse-graining attacks,
and the joint state-plus-measurement decompositions.

The qudit square-root decomposition holds as written at complex states, as
each sqrt(M_x) is diagonal.  Symmetrization and the symmetric family share
one orbit table: the orbits of simultaneous relabellings are the patterns of
equal indices in (x, j, i, i'), and each family coefficient names one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DomainError,
    ValidationError,
    hermitian_part,
    matrix_sqrt,
    max_abs,
)
from .povm import (
    NoiseModel,
    Povm,
    PureState,
    depolarize,
    half_dim,
    noisy_projective,
    unbiased_state,
    validate_partition,
)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class Decomposition:
    """Eve's subnormalized sub-POVMs K[x][j], stored as an (m, n, d, d) array."""

    K: np.ndarray

    def __post_init__(self):
        K = np.array(self.K, dtype=complex)   # a copy: the caller's array stays writable
        if K.ndim != 4 or K.shape[2] != K.shape[3]:
            raise ValidationError(f"decomposition array must be (m, n, d, d), got {K.shape}")
        K.setflags(write=False)
        object.__setattr__(self, "K", K)

    @property
    def num_outcomes(self) -> int:
        return self.K.shape[0]

    @property
    def num_subpovms(self) -> int:
        return self.K.shape[1]

    @property
    def dim(self) -> int:
        return self.K.shape[2]

    def guess_value(self, state: PureState) -> float:
        """Eve's guessing probability sum_j <phi| K[j][j] |phi>."""
        if self.num_outcomes != self.num_subpovms:
            raise ValidationError("guess value needs as many sub-POVMs as outcomes")
        if state.dim != self.dim:
            raise ValidationError("state dimension does not match decomposition")
        phi = state.amplitudes
        diag = np.einsum("i,jjik,k->", phi.conj(), self.K, phi)
        return float(np.real(diag))


@dataclass(frozen=True)
class DecompositionReport:
    """Maximum constraint violations of a decomposition against a POVM."""

    max_psd_violation: float
    max_proportionality_violation: float
    max_reconstruction_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.max_psd_violation <= self.tol
            and self.max_proportionality_violation <= self.tol
            and self.max_reconstruction_violation <= self.tol
        )


def verify_decomposition(decomp: Decomposition, povm: Povm, tol: float = 1e-9) -> DecompositionReport:
    """Check PSD-ness, identity proportionality, and POVM reconstruction."""
    if decomp.dim != povm.dim or decomp.num_outcomes != povm.num_outcomes:
        raise ValidationError("decomposition shape does not match the POVM")
    d, K = decomp.dim, decomp.K
    psd = max(0.0, -float(np.min(np.linalg.eigvalsh(hermitian_part(K, 1e-8)), initial=0.0)))
    S = K.sum(axis=0)
    prop = max_abs(S - (np.real(np.trace(S, axis1=1, axis2=2)) / d)[:, None, None] * np.eye(d))
    recon = max_abs(K.sum(axis=1) - povm.elements)
    return DecompositionReport(psd, prop, recon, tol)


def trivial_decomposition(povm: Povm) -> Decomposition:
    """K[x][j] = delta_xj M_x: Eve ignores the decomposition freedom.

    Valid only when every element is proportional to the identity; used as a
    negative control in tests.
    """
    m, d = povm.num_outcomes, povm.dim
    K = np.zeros((m, m, d, d), dtype=complex)
    K[range(m), range(m)] = povm.elements
    return Decomposition(K)


def uninformative_decomposition(povm: Povm) -> Decomposition:
    """K[x][j] = M_x / n: the no-side-information splitting (always valid)."""
    m = povm.num_outcomes
    return Decomposition(np.repeat(povm.elements[:, None] / m, m, axis=1))


# ---------------------------------------------------------------------------
# Square-root decompositions
# ---------------------------------------------------------------------------


def _ordered_qubit_elements(povm: Povm) -> tuple[np.ndarray, np.ndarray]:
    """(M_1, M_2) of a two-outcome qubit POVM with tr M_1 <= tr M_2 (+1e-12)."""
    if povm.dim != 2 or povm.num_outcomes != 2:
        raise ValidationError("qubit decompositions need a two-outcome qubit POVM")
    M1, M2 = povm.elements
    if np.real(np.trace(M1)) > np.real(np.trace(M2)) + 1e-12:
        raise ValidationError("outcome ordering must satisfy tr M_1 <= tr M_2")
    return M1, M2


def sqrt_decomposition_qubit(povm: Povm, state: PureState) -> Decomposition:
    """The four-element square-root splitting of a two-outcome qubit POVM.

    Requires tr M_1 <= tr M_2.  The guess value at |phi> is
    1 - 2 p(1) + 2 <phi| sqrt(M_1) |phi>^2.
    """
    M1, _ = _ordered_qubit_elements(povm)
    if state.dim != 2:
        raise ValidationError("state must be a qubit")
    P = state.projector()
    s1 = matrix_sqrt(M1)
    core = s1 @ P @ s1
    p1 = float(np.real(np.trace(M1 @ P)))
    p2 = 1.0 - p1
    eye = np.eye(2)
    K = np.empty((2, 2, 2, 2), dtype=complex)
    K[0, 0] = core
    K[1, 0] = p1 * eye - core
    K[0, 1] = M1 - core
    K[1, 1] = p2 * eye - M1 + core
    return Decomposition(K)


def sqrt_decomposition_qudit(noise: NoiseModel, state: PureState) -> Decomposition:
    """Square-root decomposition of the noisy projective measurement at any state.

    With amplitudes a, phi_x = sqrt(M_x) a and r_x = a - a_x e_x,

        K[x][x] = phi_x phi_x^+ + (eps/d) ((1 - |a_x|^2) (1 - |x><x|) - r_x r_x^+),
        K[x][j] = w w^+  with  w = sqrt(M_x) (a_j^* e_x - a_x^* e_j)   (j != x).

    The guess value at |phi> is sum_x <phi| sqrt(M_x) |phi>^2.
    """
    d, eps = noise.d, noise.epsilon
    if state.dim != d:
        raise ValidationError("state dimension does not match the noise model")
    a, eye = state.amplitudes, np.eye(d)
    outer = lambda v: v[..., :, None] * v[..., None, :].conj()
    # Row x holds the diagonal of sqrt(M_x): sqrt(A/d) on |x>, sqrt(eps/d) elsewhere.
    root = np.where(eye > 0.0, np.sqrt(noise.A / d), np.sqrt(eps / d))
    # Entry [x, j] is w, which is zero at j = x.
    K = outer(root[:, None] * (a.conj()[None, :, None] * eye[:, None] - a.conj()[:, None, None] * eye))
    phi, rest = root * a, a * (1.0 - eye)        # rows phi_x and r_x
    outside = (1.0 - eye)[:, :, None] * eye       # row x is 1 - |x><x|
    K[range(d), range(d)] = outer(phi) + (eps / d) * (
        (1.0 - np.abs(a) ** 2)[:, None, None] * outside - outer(rest))
    return Decomposition(K)


def sqrt_guess_value(noise: NoiseModel, state: PureState) -> float:
    """sum_x <phi| sqrt(M_x) |phi>^2 without building the decomposition."""
    amp = np.abs(state.amplitudes) ** 2
    d = noise.d
    overlaps = (np.sqrt(noise.A) * amp + np.sqrt(noise.epsilon) * (1.0 - amp)) / np.sqrt(d)
    return float(np.sum(overlaps**2))


# ---------------------------------------------------------------------------
# Bloch-vector construction (qubit)
# ---------------------------------------------------------------------------


def bloch_vector(op: np.ndarray) -> np.ndarray:
    """Bloch components (tr sigma_k rho) of a qubit operator."""
    return np.array([float(np.real(np.trace(s @ op))) for s in PAULI])


def operator_from_bloch(weight: float, r: np.ndarray) -> np.ndarray:
    """(weight/2) (1 + r . sigma)."""
    return 0.5 * weight * (np.eye(2, dtype=complex) + sum(r[k] * PAULI[k] for k in range(3)))


@dataclass(frozen=True)
class BlochWitness:
    """Bloch-vector data of the qubit decomposition built for a given state.

    ``a`` and ``b`` are the rank-one weights, ``z`` the eigenvalue gap of M_1,
    ``l`` the resultant length, and the unit vectors satisfy the triangle
    constraint a r_lambda1 - b r_mu1 = z r_1.  The guess value is
    1 - (a + b)/2 + l/2.
    """

    a: float
    b: float
    z: float
    l: float
    cos_theta: float
    r_lambda1: np.ndarray
    r_mu1: np.ndarray
    r_1: np.ndarray
    r_phi: np.ndarray
    tr_m1: float

    @property
    def guess_value(self) -> float:
        return 1.0 - 0.5 * (self.a + self.b) + 0.5 * self.l

    def weights(self) -> tuple[float, float, float, float]:
        """(lambda1, lambda2, mu1, mu2) of the two rank-one sub-POVM pairs."""
        lam1 = 0.5 * (self.tr_m1 + self.a - self.b)
        lam2 = lam1 - self.a
        mu1 = 1.0 - lam1
        mu2 = mu1 - self.b
        return lam1, lam2, mu1, mu2

    def to_decomposition(self) -> Decomposition:
        lam1, lam2, mu1, mu2 = self.weights()
        K = np.empty((2, 2, 2, 2), dtype=complex)
        K[0, 0] = operator_from_bloch(lam1, self.r_lambda1) + operator_from_bloch(lam2, -self.r_lambda1)
        K[1, 0] = operator_from_bloch(self.a, -self.r_lambda1)
        K[0, 1] = operator_from_bloch(self.b, -self.r_mu1)
        K[1, 1] = operator_from_bloch(mu1, self.r_mu1) + operator_from_bloch(mu2, -self.r_mu1)
        return Decomposition(K)


def bloch_decomposition_qubit(povm: Povm, state: PureState) -> BlochWitness:
    """Bloch-vector form of Eve's decomposition for a two-outcome qubit POVM.

    Undefined when the state coincides with the large eigenvector of M_1
    (cos theta = 1), where Eve trivially guesses perfectly.
    """
    M1, _ = _ordered_qubit_elements(povm)
    w, V = np.linalg.eigh(M1)   # ascending: w[1] = m1 >= w[0] = m2
    m1, m2 = float(w[1]), float(w[0])
    z = m1 - m2
    T = m1 + m2
    r1 = bloch_vector(np.outer(V[:, 1], V[:, 1].conj()))
    rphi = bloch_vector(state.projector())
    cos_theta = float(np.clip(np.dot(r1, rphi), -1.0, 1.0))
    if z > 1e-14 and cos_theta > 1.0 - 1e-12:
        raise DomainError("state equals the POVM eigenvector: Eve guesses perfectly")
    if T < 1e-14:
        return BlochWitness(0.0, 0.0, z, 0.0, cos_theta, rphi, rphi, r1, rphi, tr_m1=T)
    ratio = np.sqrt((T**2 - z**2) / (T**2 - (z * cos_theta) ** 2))
    a = 0.5 * (T + z * cos_theta * ratio)
    b = 0.5 * (T - z * cos_theta * ratio)
    l = float(np.sqrt(max(2.0 * (a**2 + b**2) - z**2, 0.0)))
    r_lam = (l * rphi + z * r1) / (2.0 * a) if a > 1e-14 else rphi.copy()
    r_mu = (l * rphi - z * r1) / (2.0 * b) if b > 1e-14 else rphi.copy()
    return BlochWitness(a, b, z, l, cos_theta, r_lam, r_mu, r1, rphi, tr_m1=T)


# ---------------------------------------------------------------------------
# Permutation symmetrization and the symmetric family
# ---------------------------------------------------------------------------

# A representative index (x, j, i, i') of K[x][j][i, i'] for each orbit under
# simultaneous relabellings, blocks x = j first; the transposed index
# (x, j, i', i) carries the same coefficient.
_REPRESENTATIVES = {
    "tau": (0, 0, 0, 0), "gamma": (0, 0, 0, 1), "alpha": (0, 0, 1, 1), "beta": (0, 0, 1, 2),
    "f": (0, 1, 0, 0), "g": (0, 1, 0, 1), "h": (0, 1, 1, 1), "s": (0, 1, 0, 2),
    "t": (0, 1, 1, 2), "a": (0, 1, 2, 2), "b": (0, 1, 2, 3),
}


def _pattern(index):
    """Bitmask (< 64) of which of the six pairs of (x, j, i, i') hold equal values."""
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    return sum((index[p] == index[q]) << k for k, (p, q) in enumerate(pairs))


def _orbits(d: int) -> np.ndarray:
    """The equality pattern of each index of a (d, d, d, d) array: its orbit.

    Simultaneous relabellings of outcomes and basis move an index exactly
    within its pattern, so there are 15 orbits when d >= 4.
    """
    return _pattern(np.indices((d,) * 4))


def permutation_symmetrize(decomp: Decomposition) -> Decomposition:
    """Average K over all d! simultaneous relabelings of outcomes and basis.

    The group average of an entry is the mean of K over the entry's orbit
    (the Reynolds operator), so no permutation is enumerated and any d works.
    Valid for permutation-covariant POVMs such as the noisy projective
    measurement, with the guess value at the unbiased state unchanged.
    """
    d = decomp.dim
    if decomp.num_outcomes != d or decomp.num_subpovms != d:
        raise ValidationError("symmetrization expects a d x d decomposition in dimension d")
    orbit = np.unique(_orbits(d).ravel(), return_inverse=True)[1]
    K = decomp.K.ravel()
    mean = (np.bincount(orbit, K.real) + 1j * np.bincount(orbit, K.imag)) / np.bincount(orbit)
    return Decomposition(mean[orbit].reshape(decomp.K.shape))


def symmetric_coefficients(decomp: Decomposition, tol: float = 1e-10) -> dict:
    """Extract the canonical coefficients of a permutation-symmetric decomposition.

    Returns {tau, gamma, alpha, beta, f, g, h, s, t, a, b}, each read at its
    orbit's representative index; an entry whose representative needs more
    than d values is None.  Raises if the decomposition is not the real
    symmetric decomposition these coefficients rebuild.
    """
    d = decomp.dim
    coeff = {key: float(np.real(decomp.K[rep])) if max(rep) < d else None
             for key, rep in _REPRESENTATIVES.items()}
    err = max_abs(symmetric_decomposition_from_coefficients(d, coeff).K - decomp.K)
    if err > tol:
        raise ValidationError(f"decomposition is not permutation-symmetric: deviation {err:.3e}")
    return coeff


def symmetric_decomposition_from_coefficients(d: int, coeff: dict) -> Decomposition:
    """Build the canonical permutation-symmetric decomposition from coefficients.

    Each orbit takes the coefficient of its representative; a missing or None
    coefficient is zero.
    """
    values = np.zeros(64)
    for key, (x, j, i, k) in _REPRESENTATIVES.items():
        if coeff.get(key) is not None:
            values[_pattern((x, j, i, k))] = values[_pattern((x, j, k, i))] = float(coeff[key])
    return Decomposition(values[_orbits(d)])


def _family_h(noise: NoiseModel, h: float) -> float:
    """h clipped to [0, eps/d^2]; DomainError more than 1e-15 outside it."""
    top = noise.epsilon / noise.d**2
    if not -1e-15 <= h <= top + 1e-15:
        raise DomainError(f"h must lie in [0, eps/d^2] = [0, {top}], got {h}")
    return min(max(h, 0.0), top)


def symmetric_family_value(noise: NoiseModel, h: float) -> float:
    """Guess value at the unbiased state of the canonical symmetric family.

    1 - (d-1) (sqrt(h + (1-eps)/d) - sqrt(h))^2 for 0 <= h <= eps/d^2;
    maximized at the right endpoint, where it equals the closed-form optimum.
    """
    d, eps = noise.d, noise.epsilon
    h = _family_h(noise, h)
    return float(1.0 - (d - 1) * (np.sqrt(h + (1.0 - eps) / d) - np.sqrt(h)) ** 2)


def symmetric_family_decomposition(noise: NoiseModel, h: float) -> Decomposition:
    """The canonical symmetric decomposition realizing symmetric_family_value.

    Its coefficients beta, s, t, a and b are zero.
    """
    d, eps = noise.d, noise.epsilon
    h = _family_h(noise, h)
    f = h + (1.0 - eps) / d
    # gamma = +sqrt(fh) (and g = -gamma) is the root that raises the guess
    # value; it matches the square-root decomposition at the optimum.
    g = -np.sqrt(f * h)
    coeff = {
        "tau": 1.0 / d - (d - 1) * h,
        "gamma": -g,
        "alpha": eps / d - h,
        "f": f,
        "g": g,
        "h": h,
    }
    return symmetric_decomposition_from_coefficients(d, coeff)


# ---------------------------------------------------------------------------
# Coarse-graining: Eve's inflated attack vs her coarse-grained attack
# ---------------------------------------------------------------------------


def block_uniform_state(d: int, alpha1: float, alpha2: float) -> PureState:
    """State [alpha1 |u>, alpha2 |u>] with |u> unbiased on each half."""
    half = half_dim(d)
    u = np.full(half, 1.0 / np.sqrt(half))
    return PureState(np.concatenate([alpha1 * u, alpha2 * u]).astype(complex))


def inflate_qubit_decomposition(noise: NoiseModel, qubit_decomp: Decomposition) -> Decomposition:
    """Inflate a qubit decomposition blockwise to the coarse-grained POVM.

    Each entry F_ab of a block K[x][j] becomes the block F_ab 1 of size d/2.
    If ``qubit_decomp`` decomposes the qubit noisy projective measurement at
    the same eps, built for the state (alpha1, alpha2), the result decomposes
    the half-split coarse-graining of the d-dimensional noisy projective
    measurement, with the qubit guess value preserved at the block-uniform
    state (alpha1, alpha2).
    """
    if qubit_decomp.dim != 2 or qubit_decomp.num_outcomes != 2 or qubit_decomp.num_subpovms != 2:
        raise ValidationError("expected a 2x2 qubit decomposition")
    return Decomposition(np.kron(qubit_decomp.K, np.eye(half_dim(noise.d))))


def coarse_grain_eve_attack(decomp: Decomposition, partition) -> Decomposition:
    """Coarse-grain Eve's decomposition the same way Alice merges outcomes.

    K_hat[a][b] = sum over x in part a, j in part b of K[x][j]; decomposes the
    coarse-grained POVM but is strictly suboptimal for it away from eps in
    {0, 1}.
    """
    if decomp.num_outcomes != decomp.num_subpovms:
        raise ValidationError("coarse-graining expects a square decomposition")
    parts = validate_partition(partition, decomp.num_outcomes)
    nparts = len(parts)
    d = decomp.dim
    K = np.zeros((nparts, nparts, d, d), dtype=complex)
    for a, Sa in enumerate(parts):
        for b, Sb in enumerate(parts):
            for x in Sa:
                for j in Sb:
                    K[a, b] += decomp.K[x, j]
    return Decomposition(K)


def coarse_grained_attack_value(noise: NoiseModel) -> float:
    """Closed-form guess value of the half-split coarse-grained attack at psi.

    1/2 + (sqrt(eps) / 2d) (2 sqrt(A) + sqrt(eps) (d - 2)), for even d >= 4.
    """
    d, eps = noise.d, noise.epsilon
    half_dim(d)
    return float(0.5 + np.sqrt(eps) / (2 * d) * (2 * np.sqrt(noise.A) + np.sqrt(eps) * (d - 2)))


# ---------------------------------------------------------------------------
# Joint state-and-measurement decompositions (qubit)
# ---------------------------------------------------------------------------

EPSILON_STAR = 1.0 - 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class JointDecomposition:
    """Eve's simultaneous splitting of a noisy state and a noisy measurement.

    ``weights[i, j, lam]`` is the joint distribution p(i, j, lambda);
    ``states[i, lam]`` are normalized pure states; ``povms[x, j, lam]`` are
    normalized POVM elements.  ``target_rho`` and ``target_povm`` are the
    state and measurement the decomposition reproduces: the state always
    carries the full noise eps, while for eps above the perfect-guessing
    threshold the measurement marginal stays at the threshold noise
    (``measurement_epsilon``), the surplus being carried by the state side.
    """

    weights: np.ndarray
    states: np.ndarray
    povms: np.ndarray
    target_rho: np.ndarray
    target_povm: Povm
    epsilon: float
    measurement_epsilon: float

    def guess_value(self) -> float:
        """sum_{i,j,lam} p(i,j,lam) max_x <phi_{i,lam}| N[x,j,lam] |phi_{i,lam}>."""
        total = 0.0
        ni, nj, nlam = self.weights.shape
        for i in range(ni):
            for j in range(nj):
                for lam in range(nlam):
                    w = self.weights[i, j, lam]
                    if w <= 0.0:
                        continue
                    phi = self.states[i, lam]
                    best = max(
                        float(np.real(phi.conj() @ self.povms[x, j, lam] @ phi))
                        for x in range(self.povms.shape[0])
                    )
                    total += w * best
        return total

    def validate(self, tol: float = 1e-9) -> "JointReport":
        d = self.states.shape[-1]
        eye = np.eye(d)
        weight_violation = abs(float(self.weights.sum()) - 1.0)
        weight_negativity = max(0.0, -float(self.weights.min()))
        norm_violation = max(
            abs(float(np.linalg.norm(self.states[i, lam])) - 1.0)
            for i in range(self.states.shape[0])
            for lam in range(self.states.shape[1])
        )
        completeness = 0.0
        psd = 0.0
        for j in range(self.povms.shape[1]):
            for lam in range(self.povms.shape[2]):
                total = self.povms[:, j, lam].sum(axis=0)
                completeness = max(completeness, max_abs(total - eye))
                for x in range(self.povms.shape[0]):
                    w = np.linalg.eigvalsh(self.povms[x, j, lam])
                    psd = max(psd, max(0.0, -float(w[0])))
        state_avg = np.einsum(
            "ijl,ila,ilb->ab", self.weights, self.states, self.states.conj()
        )
        state_violation = max_abs(state_avg - self.target_rho)
        marg = np.einsum("ijl,xjlab->xab", self.weights, self.povms)
        marg_violation = max_abs(marg - self.target_povm.elements)
        return JointReport(
            weight_violation,
            weight_negativity,
            norm_violation,
            psd,
            completeness,
            state_violation,
            marg_violation,
            tol,
        )


@dataclass(frozen=True)
class JointReport:
    weight_sum_violation: float
    weight_negativity: float
    state_norm_violation: float
    povm_psd_violation: float
    povm_completeness_violation: float
    state_average_violation: float
    povm_marginal_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return all(
            v <= self.tol
            for v in (
                self.weight_sum_violation,
                self.weight_negativity,
                self.state_norm_violation,
                self.povm_psd_violation,
                self.povm_completeness_violation,
                self.state_average_violation,
                self.povm_marginal_violation,
            )
        )


def joint_noise_decomposition(epsilon: float) -> JointDecomposition:
    """Eve's explicit attack when the qubit state and measurement share noise.

    Below the threshold eps* = 1 - 1/sqrt(2) a single-lambda decomposition
    aligned with sqrt(rho_psi) is returned; above it, the threshold attack is
    randomized over a hidden variable with its mirror image so the state
    marginal reproduces rho_psi at the requested eps while Eve keeps perfect
    guessing.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    psi = unbiased_state(2).amplitudes
    proj_psi = np.outer(psi, psi)
    rho_target = depolarize(proj_psi, epsilon)
    eye = np.eye(2)
    if epsilon <= EPSILON_STAR:
        mpovm = noisy_projective(2, epsilon)
        sqrt_rho = matrix_sqrt(rho_target)
        states = np.empty((2, 1, 2), dtype=complex)
        povms = np.empty((2, 2, 1, 2, 2), dtype=complex)
        for i in range(2):
            states[i, 0] = np.sqrt(2.0) * sqrt_rho @ eye[i]
        for j in range(2):
            sj = matrix_sqrt(mpovm.elements[j])
            align = 2.0 * sj @ proj_psi @ sj
            for x in range(2):
                povms[x, j, 0] = align if x == j else eye - align
        weights = np.zeros((2, 2, 1))
        weights[0, 0, 0] = weights[1, 1, 0] = 0.5
        return JointDecomposition(
            weights, states, povms, rho_target, mpovm, epsilon, epsilon
        )
    # Above threshold: randomize the eps* attack with its mirror image.
    estar = EPSILON_STAR
    mpovm = noisy_projective(2, estar)
    psi_perp = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    coeff = np.sqrt(2.0 - estar) - np.sqrt(estar)
    spread = np.sqrt(2.0 * estar)
    states = np.empty((2, 2, 2), dtype=complex)
    for i in range(2):
        states[i, 0] = (coeff * psi + spread * eye[i]) / np.sqrt(2.0)
        sign = 1.0 if i == 0 else -1.0
        states[i, 1] = (sign * coeff * psi_perp + spread * eye[i]) / np.sqrt(2.0)
    povms = np.empty((2, 2, 2, 2, 2), dtype=complex)
    for j in range(2):
        for lam in range(2):
            proj = np.outer(states[j, lam], states[j, lam].conj())
            for x in range(2):
                povms[x, j, lam] = proj if x == j else eye - proj
    p_lam1 = 0.5 * (np.sqrt(2.0) * (1.0 - epsilon) + 1.0)
    weights = np.zeros((2, 2, 2))
    for i in range(2):
        weights[i, i, 0] = 0.5 * p_lam1
        weights[i, i, 1] = 0.5 * (1.0 - p_lam1)
    return JointDecomposition(weights, states, povms, rho_target, mpovm, epsilon, estar)
