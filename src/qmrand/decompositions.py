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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DomainError,
    ValidationError,
    matrix_sqrt,
    max_abs,
)
from .povm import (
    NoiseModel,
    Povm,
    PureState,
    coarse_grain,
    depolarize,
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
    """Eve's subnormalized sub-POVMs K[x][j], stored as an (m, n, d, d) array.

    ``realifying_phases`` records the diagonal phase gauge applied to the
    input state before a qudit construction (None when no gauge was needed).
    """

    K: np.ndarray
    realifying_phases: np.ndarray | None = None

    def __post_init__(self):
        K = np.asarray(self.K, dtype=complex)
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

    def sub_probabilities(self) -> np.ndarray:
        """p(j) = (1/d) sum_x tr K[x][j]."""
        return np.real(np.einsum("xjii->j", self.K)) / self.dim

    def reconstructed_povm(self) -> np.ndarray:
        """M_x = sum_j K[x][j], as an (m, d, d) array."""
        return self.K.sum(axis=1)

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
    KH = K.conj().swapaxes(-1, -2)
    asym = max_abs(K - KH)
    if asym > 1e-8:
        raise ValidationError(f"matrix is not Hermitian: asymmetry {asym:.3e} > 1.0e-08")
    psd = max(0.0, -float(np.min(np.linalg.eigvalsh(0.5 * (K + KH)), initial=0.0)))
    S = K.sum(axis=0)
    prop = max_abs(S - (np.real(np.trace(S, axis1=1, axis2=2)) / d)[:, None, None] * np.eye(d))
    recon = max_abs(K.sum(axis=1) - np.stack(povm.elements))
    return DecompositionReport(psd, prop, recon, tol)


def trivial_decomposition(povm: Povm) -> Decomposition:
    """K[x][j] = delta_xj M_x: Eve ignores the decomposition freedom.

    Valid only when every element is proportional to the identity; used as a
    negative control in tests.
    """
    m, d = povm.num_outcomes, povm.dim
    K = np.zeros((m, m, d, d), dtype=complex)
    for x, Mx in enumerate(povm.elements):
        K[x, x] = Mx
    return Decomposition(K)


def uninformative_decomposition(povm: Povm) -> Decomposition:
    """K[x][j] = M_x / n: the no-side-information splitting (always valid)."""
    m, d = povm.num_outcomes, povm.dim
    K = np.empty((m, m, d, d), dtype=complex)
    for x, Mx in enumerate(povm.elements):
        K[x, :] = Mx / m
    return Decomposition(K)


# ---------------------------------------------------------------------------
# Square-root decompositions
# ---------------------------------------------------------------------------


def sqrt_decomposition_qubit(povm: Povm, state: PureState) -> Decomposition:
    """The four-element square-root splitting of a two-outcome qubit POVM.

    Requires tr M_1 <= tr M_2.  The guess value at |phi> is
    1 - 2 p(1) + 2 <phi| sqrt(M_1) |phi>^2.
    """
    if povm.dim != 2 or povm.num_outcomes != 2:
        raise ValidationError("square-root qubit decomposition needs a two-outcome qubit POVM")
    if state.dim != 2:
        raise ValidationError("state must be a qubit")
    M1, M2 = povm.elements
    if np.real(np.trace(M1)) > np.real(np.trace(M2)) + 1e-12:
        raise ValidationError("outcome ordering must satisfy tr M_1 <= tr M_2")
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


def _realify(state: PureState) -> tuple[np.ndarray, np.ndarray | None]:
    """Component phases making the amplitudes real non-negative, if needed."""
    amp = state.amplitudes
    if state.is_real() and np.min(amp.real) >= -1e-15:
        return np.abs(amp), None
    phases = np.where(np.abs(amp) > 1e-14, np.exp(1j * np.angle(amp)), 1.0)
    return np.abs(amp), phases


def sqrt_decomposition_qudit(noise: NoiseModel, state: PureState) -> Decomposition:
    """Square-root decomposition of the noisy projective measurement.

    Generalizes the qubit construction: K[x][x] is built from sqrt(M_x)|phi>
    plus an isotropic remainder on the complement of x, K[x][j] is rank one.
    The guess value at |phi> is sum_x <phi| sqrt(M_x) |phi>^2.  Complex states
    are realified with a diagonal phase gauge (which commutes with the POVM)
    and the result is rotated back, so it is valid for the input state.
    """
    d, eps = noise.d, noise.epsilon
    if state.dim != d:
        raise ValidationError("state dimension does not match the noise model")
    amp, phases = _realify(state)
    sqrtA_d = np.sqrt(noise.A / d)
    sqrt_eps_d = np.sqrt(eps / d)
    eye = np.eye(d)
    K = np.zeros((d, d, d, d), dtype=complex)
    for x in range(d):
        ex = eye[x]
        # sqrt(M_x) acts as sqrt(A/d) on |x> and sqrt(eps/d) on its complement.
        phi_x = sqrt_eps_d * amp + (sqrtA_d - sqrt_eps_d) * amp[x] * ex
        c_not_x = 1.0 - amp[x] ** 2
        Kxx = np.outer(phi_x, phi_x)
        if c_not_x > 1e-15 and eps > 0.0:
            rest = amp - amp[x] * ex
            one_not_x = eye - np.outer(ex, ex)
            Kxx = Kxx + (eps / d) * (c_not_x * one_not_x - np.outer(rest, rest))
        K[x, x] = Kxx
        for j in range(d):
            if j == x:
                continue
            v = amp[j] * ex - amp[x] * eye[j]
            phi_xj = sqrt_eps_d * v + (sqrtA_d - sqrt_eps_d) * v[x] * ex
            K[x, j] = np.outer(phi_xj, phi_xj)
    if phases is not None:
        U = np.diag(phases)
        K = np.einsum("ab,xjbc,cd->xjad", U, K, U.conj().T)
    return Decomposition(K, realifying_phases=phases)


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
    h: float
    r_lambda1: np.ndarray
    r_mu1: np.ndarray
    r_1: np.ndarray
    r_phi: np.ndarray
    tr_m1: float = field(default=0.0)

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
    if povm.dim != 2 or povm.num_outcomes != 2:
        raise ValidationError("Bloch decomposition needs a two-outcome qubit POVM")
    M1, M2 = povm.elements
    if np.real(np.trace(M1)) > np.real(np.trace(M2)) + 1e-12:
        raise ValidationError("outcome ordering must satisfy tr M_1 <= tr M_2")
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
        return BlochWitness(0.0, 0.0, z, 0.0, cos_theta, 0.0, rphi, rphi, r1, rphi, tr_m1=T)
    ratio = np.sqrt((T**2 - z**2) / (T**2 - (z * cos_theta) ** 2))
    a = 0.5 * (T + z * cos_theta * ratio)
    b = 0.5 * (T - z * cos_theta * ratio)
    l = float(np.sqrt(max(2.0 * (a**2 + b**2) - z**2, 0.0)))
    r_lam = (l * rphi + z * r1) / (2.0 * a) if a > 1e-14 else rphi.copy()
    r_mu = (l * rphi - z * r1) / (2.0 * b) if b > 1e-14 else rphi.copy()
    h = float(a * np.dot(r_lam, rphi))
    return BlochWitness(a, b, z, l, cos_theta, h, r_lam, r_mu, r1, rphi, tr_m1=T)


# ---------------------------------------------------------------------------
# Permutation symmetrization and the symmetric family
# ---------------------------------------------------------------------------

MAX_SYMMETRIZE_DIM = 6


def permutation_symmetrize(decomp: Decomposition) -> Decomposition:
    """Average K over all d! simultaneous relabelings of outcomes and basis.

    Exact enumeration (deterministic summation order); valid for
    permutation-covariant POVMs such as the noisy projective measurement and
    unchanged guess value at the unbiased state.
    """
    d = decomp.dim
    if decomp.num_outcomes != d or decomp.num_subpovms != d:
        raise ValidationError("symmetrization expects a d x d decomposition in dimension d")
    if d > MAX_SYMMETRIZE_DIM:
        raise DomainError(f"symmetrization enumerates d! permutations; d <= {MAX_SYMMETRIZE_DIM} only")
    acc = np.zeros_like(decomp.K)
    count = 0
    for perm in itertools.permutations(range(d)):
        p = np.array(perm)
        # (Pi^T K_{s(x), s(j)} Pi)[i, i'] = K[s(x), s(j), s(i), s(i')]
        acc += decomp.K[p][:, p][:, :, p][:, :, :, p]
        count += 1
    return Decomposition(acc / count)


def symmetric_coefficients(decomp: Decomposition, tol: float = 1e-10) -> dict:
    """Extract the canonical coefficients of a permutation-symmetric decomposition.

    Returns {tau, gamma, alpha, beta, f, g, h, s, t, a, b}; entries whose
    index pattern needs more dimensions than available are None.  Raises if
    the decomposition does not actually have the symmetric structure.
    """
    d = decomp.dim
    K = decomp.K
    coeff = {
        "tau": K[0, 0, 0, 0],
        "gamma": K[0, 0, 0, 1] if d >= 2 else None,
        "alpha": K[0, 0, 1, 1] if d >= 2 else None,
        "beta": K[0, 0, 1, 2] if d >= 3 else None,
        "f": K[0, 1, 0, 0],
        "g": K[0, 1, 0, 1],
        "h": K[0, 1, 1, 1],
        "s": K[0, 1, 0, 2] if d >= 3 else None,
        "t": K[0, 1, 1, 2] if d >= 3 else None,
        "a": K[0, 1, 2, 2] if d >= 3 else None,
        "b": K[0, 1, 2, 3] if d >= 4 else None,
    }
    for key, val in coeff.items():
        if val is None:
            continue
        if abs(np.imag(val)) > tol:
            raise ValidationError(f"coefficient {key} is not real: {val}")
        coeff[key] = float(np.real(val))
    rebuilt = symmetric_decomposition_from_coefficients(d, coeff)
    err = max_abs(rebuilt.K - K)
    if err > tol:
        raise ValidationError(f"decomposition is not permutation-symmetric: deviation {err:.3e}")
    return coeff


def symmetric_decomposition_from_coefficients(d: int, coeff: dict) -> Decomposition:
    """Build the canonical permutation-symmetric decomposition from coefficients."""
    get = lambda key: 0.0 if coeff.get(key) is None else float(coeff[key])
    K = np.zeros((d, d, d, d), dtype=complex)
    for x in range(d):
        block = np.full((d, d), get("beta"), dtype=complex)
        np.fill_diagonal(block, get("alpha"))
        block[x, :] = get("gamma")
        block[:, x] = get("gamma")
        block[x, x] = get("tau")
        K[x, x] = block
        for j in range(d):
            if j == x:
                continue
            blk = np.full((d, d), get("b"), dtype=complex)
            np.fill_diagonal(blk, get("a"))
            blk[x, :] = get("s")
            blk[:, x] = get("s")
            blk[j, :] = get("t")
            blk[:, j] = get("t")
            blk[x, x] = get("f")
            blk[j, j] = get("h")
            blk[x, j] = get("g")
            blk[j, x] = get("g")
            K[x, j] = blk
    return Decomposition(K)


def symmetric_family_value(noise: NoiseModel, h: float) -> float:
    """Guess value at the unbiased state of the canonical symmetric family.

    1 - (d-1) (sqrt(h + (1-eps)/d) - sqrt(h))^2 for 0 <= h <= eps/d^2;
    maximized at the right endpoint, where it equals the closed-form optimum.
    """
    d, eps = noise.d, noise.epsilon
    if not -1e-15 <= h <= eps / d**2 + 1e-15:
        raise DomainError(f"h must lie in [0, eps/d^2] = [0, {eps / d**2}], got {h}")
    h = min(max(h, 0.0), eps / d**2)
    return float(1.0 - (d - 1) * (np.sqrt(h + (1.0 - eps) / d) - np.sqrt(h)) ** 2)


def symmetric_family_decomposition(noise: NoiseModel, h: float) -> Decomposition:
    """The canonical symmetric decomposition realizing symmetric_family_value."""
    d, eps = noise.d, noise.epsilon
    if not -1e-15 <= h <= eps / d**2 + 1e-15:
        raise DomainError(f"h must lie in [0, eps/d^2], got {h}")
    h = min(max(h, 0.0), eps / d**2)
    f = h + (1.0 - eps) / d
    # gamma = +sqrt(fh) (and g = -gamma) is the root that raises the guess
    # value; it matches the square-root decomposition at the optimum.
    g = -np.sqrt(f * h)
    coeff = {
        "tau": 1.0 / d - (d - 1) * h,
        "gamma": -g,
        "alpha": eps / d - h,
        "beta": 0.0,
        "f": f,
        "g": g,
        "h": h,
        "s": 0.0,
        "t": 0.0,
        "a": 0.0,
        "b": 0.0,
    }
    return symmetric_decomposition_from_coefficients(d, coeff)


# ---------------------------------------------------------------------------
# Coarse-graining: Eve's inflated attack vs her coarse-grained attack
# ---------------------------------------------------------------------------


def inflate_block(F: np.ndarray, half: int) -> np.ndarray:
    """The inflation map C: entry F_ab becomes the block F_ab * identity."""
    return np.kron(np.asarray(F, dtype=complex), np.eye(half))


def block_uniform_state(d: int, alpha1: float, alpha2: float) -> PureState:
    """State [alpha1 |u>, alpha2 |u>] with |u> unbiased on each half."""
    if d % 2 != 0 or d < 4:
        raise DomainError("block-uniform state requires even d >= 4")
    half = d // 2
    u = np.full(half, 1.0 / np.sqrt(half))
    return PureState(np.concatenate([alpha1 * u, alpha2 * u]).astype(complex))


def inflate_qubit_decomposition(
    noise: NoiseModel, qubit_decomp: Decomposition, weights: tuple[float, float]
) -> Decomposition:
    """Inflate a qubit decomposition blockwise to the coarse-grained POVM.

    ``qubit_decomp`` must decompose the qubit noisy projective measurement at
    the same eps, built for the state (alpha1, alpha2) given in ``weights``.
    The result decomposes the half-split coarse-graining of the d-dimensional
    noisy projective measurement, with the qubit guess value preserved on
    block-uniform states.
    """
    d = noise.d
    if d % 2 != 0 or d < 4:
        raise DomainError("inflation requires even d >= 4")
    if qubit_decomp.dim != 2 or qubit_decomp.num_outcomes != 2 or qubit_decomp.num_subpovms != 2:
        raise ValidationError("expected a 2x2 qubit decomposition")
    a1, a2 = weights
    if abs(a1**2 + a2**2 - 1.0) > 1e-10:
        raise ValidationError("weights must satisfy alpha1^2 + alpha2^2 = 1")
    half = d // 2
    K = np.empty((2, 2, d, d), dtype=complex)
    for x in range(2):
        for j in range(2):
            K[x, j] = inflate_block(qubit_decomp.K[x, j], half)
    return Decomposition(K)


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

    1/2 + (sqrt(eps) / 2d) (2 sqrt(A) + sqrt(eps) (d - 2)).
    """
    d, eps = noise.d, noise.epsilon
    if d % 2 != 0 or d < 4:
        raise DomainError("the coarse-grained study requires even d >= 4")
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
        marg_violation = 0.0
        for x, Mx in enumerate(self.target_povm.elements):
            marg = np.einsum("ijl,jlab->ab", self.weights, self.povms[x])
            marg_violation = max(marg_violation, max_abs(marg - Mx))
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


def shared_noise_guess_value(epsilon: float) -> float:
    """Closed-form guess value of the joint decomposition.

    (1 + 2 (1 - eps) sqrt(eps (2 - eps))) / 2 below the threshold, 1 above.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    if epsilon >= EPSILON_STAR:
        return 1.0
    return float(0.5 * (1.0 + 2.0 * (1.0 - epsilon) * np.sqrt(epsilon * (2.0 - epsilon))))


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
