"""Guessing-probability SDP: primal solver, dual certificates, state search.

The primal problem, for a POVM {M_x} with m outcomes and a pure state |phi>,
maximizes sum_j <phi| K[j][j] |phi> over PSD matrices K[x][j] subject to

    sum_x d K[x][j] = 1 sum_x tr K[x][j]   (each sub-POVM sums to c_j 1),
    sum_j K[x][j] = M_x.

It is solved with a self-contained log-barrier interior-point method: Newton
steps on the equality-constrained barrier subproblem, posed as a least-squares
problem in the scaled space of the block-diagonal barrier Hessian.  The
equality multipliers at the final central point yield a feasible dual
certificate (Y_x, G_j) whose objective upper-bounds the optimum, so every
reported gap is certified rather than assumed.

``solve_primal`` runs as named stages: restore a rank-deficient POVM with
``restore_eta`` of white noise; build the constraint data ``b``, ``c`` and
the start ``k0``; follow the barrier path (``_barrier_path``: centring by
``_newton_center``, affine repair, ``_extract_certificate``, and a further
push while the certified gap is too large); polish (``_round_primal`` onto
the optimal face, then ``_round_dual`` to exact complementarity: the Newton
step's multiplier solve, weighted by projectors onto the primal's range); and
verify the decomposition against the gap gate.  The dual slack
Y_x - G_j - d_xj P_phi is formed only by ``DualCertificate.slacks``, and
multipliers become (Y, G) only through ``_Structure.dual``.

Both least-squares solves go through ``_multipliers``.  The constraint rows
touch block (x, j) only through the identity rows of outcome x and the
traceless rows of sub-POVM j.  From m n d^2 = 400 real variables on
(d = 5, m = 4 and up) the normal matrix is therefore assembled
blockwise and the outcome blocks are eliminated first, which leaves a Schur
complement of size (n-1)(d^2-1) to factor (Fujisawa, Kojima and Nakata 1997;
SDPT3).  Below that size Python call overhead dominates and the scaled
constraint matrix is formed densely.  The affine projection onto the
constraints uses the closed form of A A^T.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import minimize as scipy_minimize

from .decompositions import Decomposition, verify_decomposition
from .linalg import (
    DomainError,
    SolverError,
    ValidationError,
    max_abs,
    require_hermitian,
)
from .povm import NoiseModel, Povm, PureState, depolarize, unbiased_state

MAX_SDP_DIM = 8
MAX_SDP_OUTCOMES = 8

_MU_GROWTH = 60.0
_NEWTON_TOL = 1e-10          # squared-decrement/2 at the final barrier stage
_NEWTON_TOL_PATH = 1e-5      # loose centering while t still grows
_MAX_INNER = 60
_ARMIJO = 0.25

# Lower bound of each SolverConfig field and whether the bound itself is excluded.
_CONFIG_BOUNDS = {"tol": (0, True), "max_iters": (1, False), "barrier_mu0": (0, True),
                  "restore_eta": (0, False), "multistarts": (0, False), "seed": (0, False)}


@dataclass(frozen=True)
class SolverConfig:
    """Tunables of the interior-point solver and the state search.

    Every field is checked on construction: a finite number of the annotated
    kind (int or float) above its lower bound, else ``ValidationError``.
    """

    tol: float = 1e-6
    max_iters: int = 200
    barrier_mu0: float = 1.0
    restore_eta: float = 1e-8
    multistarts: int = 32
    seed: int = 7

    def __post_init__(self):
        for f in fields(self):
            value, (low, strict) = getattr(self, f.name), _CONFIG_BOUNDS[f.name]
            integral = f.type in ("int", int)
            # Integer fields take ints of any size; float fields must fit a finite float.
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral if integral else numbers.Real)
                    or not (integral or abs(value) <= sys.float_info.max)
                    or value < low or (strict and value == low)):
                raise ValidationError(f"{f.name} must be a finite {f.type} "
                                      f"{'>' if strict else '>='} {low}, got {value!r}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolverConfig":
        if not isinstance(data, dict):
            raise ValidationError("solver config must be a JSON object")
        unknown = sorted(map(repr, set(data) - {f.name for f in fields(cls)}))
        if unknown:
            raise ValidationError(f"unknown solver config key(s): {', '.join(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class PrimalProblem:
    povm: Povm
    state: PureState
    num_subpovms: int | None = None

    def __post_init__(self):
        if self.state.dim != self.povm.dim:
            raise ValidationError("state and POVM dimensions differ")
        n = self.num_subpovms if self.num_subpovms is not None else self.povm.num_outcomes
        if n != self.povm.num_outcomes:
            raise ValidationError(
                "the solver fixes the number of sub-POVMs equal to the number of outcomes"
            )
        object.__setattr__(self, "num_subpovms", n)


@dataclass(frozen=True)
class DualCertificate:
    """Dual variables {Y_x}, {G_j} with tr G_j = 0 and Y_x >= d_xj P_phi + G_j."""

    Y: tuple
    G: tuple

    def __post_init__(self):
        object.__setattr__(self, "Y", tuple(require_hermitian(M, 1e-8) for M in self.Y))
        object.__setattr__(self, "G", tuple(require_hermitian(M, 1e-8) for M in self.G))

    def dual_value(self, povm: Povm) -> float:
        return float(sum(np.real(np.trace(Y @ M)) for Y, M in zip(self.Y, povm.elements)))

    def slacks(self, proj: np.ndarray) -> np.ndarray:
        """The slacks Z[x, j] = Y_x - G_j - d_xj proj as an (m, n, d, d) stack.

        The certificate is feasible at the state with projector ``proj`` when
        every slack is PSD and every G_j is traceless.  The constructor stores
        Y and G as complex matrices, so the stack can take a complex ``proj``.
        """
        Z = np.stack(self.Y)[:, None] - np.stack(self.G)[None, :]
        diag = np.arange(min(len(self.Y), len(self.G)))
        Z[diag, diag] -= proj
        return Z


@dataclass(frozen=True)
class DualCheck:
    dual_value: float
    feasible: bool
    min_eig_slack: float
    max_trace_violation: float


@dataclass(frozen=True)
class SolveResult:
    value: float
    decomposition: Decomposition
    dual_value: float | None
    gap: float | None
    iterations: int
    feasibility_residual: float
    restored: bool = False
    certificate: DualCertificate | None = None


# ---------------------------------------------------------------------------
# Problem structure (cached per (d, m, n))
# ---------------------------------------------------------------------------


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d x d Hermitian matrices under tr(AB)."""
    B = np.zeros((d * d, d, d), dtype=complex)
    k = 0
    for i in range(d):
        B[k, i, i] = 1.0
        k += 1
    inv = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            B[k, i, j] = inv
            B[k, j, i] = inv
            k += 1
            B[k, i, j] = -1j * inv
            B[k, j, i] = 1j * inv
            k += 1
    return B


def traceless_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the traceless Hermitian subspace (d^2 - 1).

    The d - 1 diagonal elements are the generalized Gell-Mann matrices; the
    off-diagonal ones are those of ``hermitian_basis``.
    """
    out = hermitian_basis(d)[1:]
    for r in range(1, d):
        v = np.zeros(d)
        v[:r] = 1.0
        v[r] = -r
        out[r - 1] = np.diag(v / np.sqrt(r * (r + 1)))
    return out


class _Structure:
    """Constraint data for a given (d, m, n).

    Block (x, j) of the variable holds the coordinates of K[x][j] in the
    Hermitian basis ``B``.  The constraint rows come in two groups:

    * group 1, for j < n-1 and each traceless basis element t: the traceless
      part of sum_x K[x][j] vanishes (the j = n-1 family is implied by group
      2 and dropped to keep full row rank);
    * group 2, for each x and basis element a: sum_j K[x][j] = M_x.

    So A touches block (x, j) only through the rows ``tau`` of sub-POVM j
    and the identity rows of outcome x; ``apply_A``/``apply_AT`` use that
    instead of a dense matrix.
    """

    def __init__(self, d: int, m: int, n: int):
        self.d, self.m, self.n = d, m, n
        dd = d * d
        self.dd = dd
        self.nblocks = m * n
        self.nvar = m * n * dd
        self.B = hermitian_basis(d)
        self.Ubig = self.B.reshape(dd, dd).T.copy()   # column a = vec(B_a)
        self.T = traceless_basis(d)
        self.tau = np.einsum("aij,tji->ta", self.B, self.T).real  # (dd-1, dd)
        self.group2_start = (n - 1) * (dd - 1)
        self.ncon = self.group2_start + m * dd
        self.eye_coords = self.coords(np.eye(d))
        # Multiplier solve, dense -> blockwise (ms, one BLAS thread): nvar 256
        # (d = m = 4) 0.37 -> 0.87, 324 (d = 6, m = 3) 0.79 -> 1.02, 400
        # (d = 5, m = 4) 1.47 -> 1.07, 625 (d = m = 5) 3.13 -> 1.34.
        self.structured = self.nvar >= 400

    @cached_property
    def A3(self) -> np.ndarray:
        """Dense constraint matrix as (ncon, nblocks, dd), for the dense path."""
        eye = np.eye(self.ncon)
        return np.stack([self.apply_AT(row) for row in eye])

    def apply_A(self, v: np.ndarray) -> np.ndarray:
        """A v for v of any shape holding nvar entries."""
        v = v.reshape(self.m, self.n, self.dd)
        g1 = v[:, : self.n - 1].sum(axis=0) @ self.tau.T
        return np.concatenate([g1.ravel(), v.sum(axis=1).ravel()])

    def apply_AT(self, nu: np.ndarray) -> np.ndarray:
        """A^T nu as (nblocks, dd)."""
        m, n, dd = self.m, self.n, self.dd
        out = np.repeat(nu[self.group2_start :].reshape(m, 1, dd), n, axis=1)
        out[:, : n - 1] += nu[: self.group2_start].reshape(n - 1, dd - 1) @ self.tau
        return out.reshape(self.nblocks, dd)

    def project(self, k: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Euclidean projection of k onto the affine space {A k = b}."""
        return k.reshape(self.nblocks, self.dd) + self.apply_AT(self._solve_AAT(b - self.apply_A(k)))

    def _solve_AAT(self, r: np.ndarray) -> np.ndarray:
        """(A A^T)^-1 r in closed form.

        A A^T is m I on group 1 (tau has orthonormal rows), n I on group 2
        and tau in every (sub-POVM j, outcome x) block, so with
        s1 = sum_j y1_j and s2 = sum_x y2_x the system collapses to two
        small equations.
        """
        m, n, dd, n1 = self.m, self.n, self.dd, self.group2_start
        r1 = r[:n1].reshape(n - 1, dd - 1)
        r2 = r[n1:].reshape(m, dd)
        R2 = r2.sum(axis=0)
        s1 = (n * r1.sum(axis=0) - (n - 1) * (self.tau @ R2)) / m
        s2 = (R2 - m * (self.tau.T @ s1)) / n
        y1 = (r1 - self.tau @ s2) / m
        y2 = (r2 - self.tau.T @ s1) / n
        return np.concatenate([y1.ravel(), y2.ravel()])

    def dual(self, nu: np.ndarray) -> tuple[list, list]:
        """Dual matrices (Y, G) of multipliers ``nu`` in constraint-row layout.

        ``mats(apply_AT(nu))[x n + j]`` is Y_x - G_j: the group-2 rows of
        outcome x give Y_x and the group-1 rows of sub-POVM j give -G_j, with
        G_{n-1} = 0 because that family of rows is dropped.
        """
        n1, dd = self.group2_start, self.dd
        Y = [np.einsum("a,aij->ij", nu[n1 + x * dd : n1 + (x + 1) * dd], self.B)
             for x in range(self.m)]
        G = [-np.einsum("t,tij->ij", nu[j * (dd - 1) : (j + 1) * (dd - 1)], self.T)
             for j in range(self.n - 1)] + [np.zeros((self.d, self.d), dtype=complex)]
        return Y, G

    def coords(self, M: np.ndarray) -> np.ndarray:
        return np.einsum("aij,ji->a", self.B, M).real

    def mats(self, k: np.ndarray) -> np.ndarray:
        """Coordinates (nblocks, dd) -> stacked matrices (nblocks, d, d)."""
        return (k @ self.B.reshape(self.dd, self.dd)).reshape(-1, self.d, self.d)

    def coords_of_stack(self, S: np.ndarray) -> np.ndarray:
        flat = S.swapaxes(1, 2).reshape(-1, self.dd)
        return (flat @ self.B.reshape(self.dd, self.dd).T).real


@cache
def _structure(d: int, m: int, n: int) -> _Structure:
    return _Structure(d, m, n)


# ---------------------------------------------------------------------------
# Interior-point solver
# ---------------------------------------------------------------------------


def _chol_logdet(K: np.ndarray) -> float | None:
    """Sum of log det over stacked blocks, or None if any block is not PD."""
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return None
    diags = np.einsum("bii->bi", L).real
    if np.any(diags <= 0.0):
        return None
    return 2.0 * float(np.sum(np.log(diags)))


def _sandwich(st: _Structure, L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """coords(X) -> coords(L X R) per block, as (nblocks, dd, dd): Re(U^H (L kron R^T) U)."""
    T = (L[:, :, None, :, None] * R.swapaxes(1, 2)[:, None, :, None, :]).reshape(
        st.nblocks, st.dd, st.dd
    )
    return np.real(st.Ubig.conj().T @ T @ st.Ubig)


def _scaling(st: _Structure, k: np.ndarray) -> np.ndarray:
    """Phi: coords(X) -> coords(R X R) per block, R = K^(1/2), as (nblocks, dd, dd)."""
    w, V = np.linalg.eigh(st.mats(k))
    w = np.maximum(w, 1e-300)
    R = (V * np.sqrt(w)[:, None, :]) @ V.conj().swapaxes(1, 2)
    return _sandwich(st, R, R)


def _least_squares_multipliers(Atil: np.ndarray, gtil: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve min_nu ||Atil^T nu + gtil|| and return (nu, residual).

    Corrected seminormal equations (Cholesky plus one refinement sweep), or the
    minimum-norm solution when the Gram matrix is singular, as for the polish.
    """
    rhs = Atil @ gtil
    try:
        fac = cho_factor(Atil @ Atil.T, lower=True, check_finite=False)
        nu = cho_solve(fac, -rhs, check_finite=False)
        rtil = gtil + Atil.T @ nu
        nu = nu - cho_solve(fac, Atil @ rtil, check_finite=False)
    except np.linalg.LinAlgError:
        nu = np.linalg.lstsq(Atil.T, -gtil, rcond=None)[0]
    rtil = gtil + Atil.T @ nu
    return nu, rtil


def _scaled_constraints(st: _Structure, Phi: np.ndarray) -> np.ndarray:
    """The dense scaled constraint matrix Atil = A Phi, (ncon, nvar)."""
    return np.matmul(st.A3.transpose(1, 0, 2), Phi).transpose(1, 0, 2).reshape(st.ncon, st.nvar)


def _structured_multipliers(
    st: _Structure, Phi: np.ndarray, gtil: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_least_squares_multipliers(A Phi, gtil)`` without forming A Phi.

    The normal matrix A H A^T, H = blockdiag(Phi_b^2), has the outcome blocks
    D_x = sum_j H_xj on its group-2 diagonal, tau C_j tau^T (C_j = sum_x H_xj)
    on its group-1 diagonal and tau H_xj between sub-POVM j and outcome x.
    The D_x are eliminated by Cholesky, D_x = L_x L_x^T, which leaves the
    Schur complement S = blockdiag(tau C_j tau^T) - sum_x W_x^T W_x with
    W_x = L_x^-1 [H_xj tau^T]_j to factor.  Falls back to the dense solve
    when a factor loses definiteness.
    """
    m, n, dd, n1 = st.m, st.n, st.dd, st.group2_start
    tau = st.tau
    H = (Phi @ Phi).reshape(m, n, dd, dd)
    try:
        L = np.linalg.cholesky(H.sum(axis=1))
        HtauT = (H[:, : n - 1] @ tau.T).transpose(0, 2, 1, 3).reshape(m, dd, n1)
        W = np.stack([solve_triangular(L[x], HtauT[x], lower=True, check_finite=False)
                      for x in range(m)])
        Wf = W.reshape(m * dd, n1)
        S = -(Wf.T @ Wf)
        P = tau @ H[:, : n - 1].sum(axis=0) @ tau.T
        for j in range(n - 1):
            S[j * (dd - 1) : (j + 1) * (dd - 1), j * (dd - 1) : (j + 1) * (dd - 1)] += P[j]
        fac = cho_factor(S, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return _least_squares_multipliers(_scaled_constraints(st, Phi), gtil)

    def solve_normal(r: np.ndarray) -> np.ndarray:
        y = np.stack([solve_triangular(L[x], r[n1 + x * dd : n1 + (x + 1) * dd], lower=True,
                                       check_finite=False) for x in range(m)])
        nu1 = cho_solve(fac, r[:n1] - Wf.T @ y.ravel(), check_finite=False)
        y = y - W @ nu1
        nu2 = [solve_triangular(L[x], y[x], lower=True, trans="T", check_finite=False)
               for x in range(m)]
        return np.concatenate([nu1, *nu2])

    def phi_apply(v: np.ndarray) -> np.ndarray:
        return (Phi @ v.reshape(st.nblocks, dd, 1)).reshape(st.nvar)

    nu = solve_normal(-st.apply_A(phi_apply(gtil)))
    rtil = gtil + phi_apply(st.apply_AT(nu))
    nu = nu - solve_normal(st.apply_A(phi_apply(rtil)))
    rtil = gtil + phi_apply(st.apply_AT(nu))
    return nu, rtil


def _multipliers(st: _Structure, Phi: np.ndarray, gtil: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min_nu ||Phi A^T nu + gtil|| as (nu, residual), blockwise when ``st.structured``."""
    if st.structured:
        return _structured_multipliers(st, Phi, gtil)
    return _least_squares_multipliers(_scaled_constraints(st, Phi), gtil)


def _shift_to_dual_feasible(
    cert: DualCertificate, proj: np.ndarray, reject_below: float = -np.inf
) -> DualCertificate | None:
    """Make ``cert`` dual feasible by adding the smallest uniform shift to every Y_x.

    Returns None when the most negative slack eigenvalue is below
    ``reject_below``.
    """
    min_slack = float(np.min(np.linalg.eigvalsh(cert.slacks(proj))))
    if min_slack < reject_below:
        return None
    if min_slack < 0.0:
        shift = (-min_slack + 1e-15) * np.eye(proj.shape[0])
        cert = DualCertificate(tuple(Yx + shift for Yx in cert.Y), cert.G)
    return cert


def _newton_center(
    st: _Structure, c: np.ndarray, t: float, k: np.ndarray, iters: int, newton_tol: float,
    max_iters: int,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Center at barrier weight t, starting from k.  Returns (k, iters, multipliers).

    The Newton system is solved in the scaled space where the barrier
    Hessian is the square of Phi^-1, Phi being conjugation by K^(1/2):
    there the step is a plain least-squares solve, which stays accurate
    even when K approaches the boundary along the central path.  ``iters``
    counts Newton steps across the whole path; more than ``max_iters``
    raises ``SolverError``.
    """
    nblocks, dd = st.nblocks, st.dd
    cblocks = c.reshape(nblocks, dd)
    nu = np.zeros(st.ncon)
    for _ in range(_MAX_INNER):
        Phi = _scaling(st, k)
        # Scaled gradient: Phi g = -t Phi c - svec(identity).
        gtil = -t * (Phi @ cblocks[:, :, None])[:, :, 0] - st.eye_coords[None, :]
        gtil = gtil.reshape(st.nvar)
        nu, rtil = _multipliers(st, Phi, gtil)
        delta = -(Phi @ rtil.reshape(nblocks, dd)[:, :, None])[:, :, 0]
        lam2 = float(np.dot(rtil, rtil))
        if lam2 / 2.0 <= newton_tol:
            break
        if lam2 <= 0.25:
            # Quadratic-convergence region: take the full Newton step.
            # (The Armijo decrease is far below the float resolution of
            # the barrier value at large t, so testing it would stall.)
            alpha = 1.0
            while alpha > 1e-8 and _chol_logdet(st.mats(k + alpha * delta)) is None:
                alpha *= 0.5
            if alpha <= 1e-8:
                break
        else:
            # Damped phase: positive definiteness then Armijo backtracking.
            logdet0 = _chol_logdet(st.mats(k))
            if logdet0 is None:
                raise SolverError(f"Newton iterate is not positive definite (t={t:.3e})")
            phi0 = -t * float(np.dot(c, k.reshape(st.nvar))) - logdet0
            slope = -lam2
            alpha = 1.0
            for _ in range(60):
                trial = k + alpha * delta
                logdet = _chol_logdet(st.mats(trial))
                if logdet is not None:
                    phi = -t * float(np.dot(c, trial.reshape(st.nvar))) - logdet
                    if phi <= phi0 + _ARMIJO * alpha * slope:
                        break
                alpha *= 0.5
            else:
                break  # no progress possible at this scale
        k = k + alpha * delta
        iters += 1
        if iters > max_iters:
            raise SolverError(
                f"interior-point iteration cap {max_iters} exceeded "
                f"(t={t:.3e}, newton decrement^2={lam2:.3e})"
            )
    return k, iters, nu


def _extract_certificate(
    st: _Structure, t: float, nu: np.ndarray, proj: np.ndarray
) -> DualCertificate:
    """The dual certificate of the multipliers at barrier weight t.

    At the central point -t c - svec(K^-1) + A^T nu = 0, so nu / t are dual
    multipliers; the uniform shift repairs what inexact centring leaves.
    """
    Y, G = st.dual(nu)
    return _shift_to_dual_feasible(
        DualCertificate(tuple(Yx / t for Yx in Y), tuple(Gj / t for Gj in G)), proj
    )


def _barrier_path(
    st: _Structure, povm: Povm, b: np.ndarray, c: np.ndarray, k0: np.ndarray,
    proj: np.ndarray, cfg: SolverConfig,
) -> tuple[np.ndarray, DualCertificate, float, float, int]:
    """Follow the central path from k0 until the certified gap is at most cfg.tol.

    Each attempt grows t geometrically up to t_final, re-projects the last
    centre onto A k = b and extracts a certificate; while the certified gap
    is too large, t_final grows fivefold (four attempts in all).  Returns
    (k, cert, value, dual_value, iterations).
    """
    t_final = st.m * st.n * st.d / (0.25 * cfg.tol)
    t, k, iters = cfg.barrier_mu0, k0, 0
    for _ in range(4):
        while True:
            final_stage = t >= t_final
            tol_inner = _NEWTON_TOL if final_stage else _NEWTON_TOL_PATH
            k, iters, nu = _newton_center(st, c, t, k, iters, tol_inner, cfg.max_iters)
            if final_stage:
                break
            t = min(t * _MU_GROWTH, t_final)
        # Re-project onto the affine constraint manifold (undo solve drift),
        # then restore strict positivity if the projection grazed the
        # boundary (mixing with the feasible start keeps A k = b exactly).
        k_feas = st.project(k, b)
        theta = 1e-9
        inside = _chol_logdet(st.mats(k_feas)) is not None
        while not inside and theta < 1e-2:
            k_feas = (1.0 - theta) * k_feas + theta * k0
            theta *= 10.0
            inside = _chol_logdet(st.mats(k_feas)) is not None
        cert = _extract_certificate(st, t, nu, proj)
        value = float(np.dot(c, k_feas.reshape(st.nvar)))
        dual_value = cert.dual_value(povm)
        if dual_value - value <= cfg.tol:
            break
        t_final *= 5.0  # certified gap too large: push the barrier further
        # The next stage starts from the repaired point, which clears the
        # drift, unless it is still outside the PSD cone: then from the
        # (positive definite) centre.
        if inside:
            k = k_feas
    return k_feas, cert, value, dual_value, iters


def _round_primal(
    st: _Structure, b: np.ndarray, c: np.ndarray, k: np.ndarray, value: float, gap: float,
    slacks: np.ndarray,
) -> tuple[np.ndarray, float] | None:
    """Round the center onto the optimal face identified by the dual slacks.

    The optimal K[x][j] lives in the near-kernel of the dual slack Z[x][j]
    (eigenvalues below sqrt(gap), relative).  Alternating projections
    between the affine constraint space and the blockwise rank-r PSD cone
    (r from the slack spectrum) converge to that face; the result is
    returned as (k, value) only if it verifies and does not lower the value.
    """
    d = st.d
    tau = max(np.sqrt(max(gap, 0.0)), 1e-9)
    w = np.linalg.eigvalsh(slacks).reshape(st.nblocks, d)
    ranks = d - np.sum(w < tau * np.maximum(1.0, w[:, -1:]), axis=1)
    drop = np.arange(d) < ranks[:, None]   # the rank(Z) smallest eigenvalues of each block
    kv = k
    for _ in range(400):
        w, V = np.linalg.eigh(st.mats(kv))
        w[drop] = 0.0
        w = np.maximum(w, 0.0)
        kv = st.coords_of_stack((V * w[:, None, :]) @ V.conj().swapaxes(1, 2))
        resid = max_abs(st.apply_A(kv) - b)
        kv = st.project(kv, b)
        if resid <= 1e-13:
            break
    feas = max_abs(st.apply_A(kv) - b)
    min_eig = float(np.min(np.linalg.eigvalsh(st.mats(kv))))
    value_new = float(np.dot(c, kv.reshape(st.nvar)))
    if feas > 1e-11 or min_eig < -1e-11 or value_new < value:
        return None
    return kv, value_new


def _round_dual(
    st: _Structure, c: np.ndarray, k: np.ndarray, proj: np.ndarray
) -> DualCertificate | None:
    """Fit (Y, G) to exact complementarity against the rounded primal k.

    Minimises sum ||Z[x][j] v||^2 over the populated eigenvectors v of K[x][j];
    with Q the projector onto them that is ||Phi (A^T nu - c)||^2, Phi the root
    of X -> (X Q + Q X)/2, so it is the Newton step's multiplier solve.  A
    uniform shift restores feasibility; None when the fit is too far off.
    """
    w, V = np.linalg.eigh(st.mats(k))
    kept = w > np.maximum(w[:, -1:], 0.0) * 1e-7 + 1e-12
    Q = (V * kept[:, None, :]) @ V.conj().swapaxes(1, 2)
    # Phi X = (1 - sqrt 2) Q X Q + (Q X + X Q)/sqrt 2; coords keeps the Hermitian part,
    # so the matrices of X -> Q X and X -> X Q agree.
    Phi = (1.0 - np.sqrt(2.0)) * _sandwich(st, Q, Q) + np.sqrt(2.0) * _sandwich(
        st, Q, np.broadcast_to(np.eye(st.d), Q.shape))
    gtil = -(Phi @ c.reshape(st.nblocks, st.dd, 1)).reshape(st.nvar)
    Y, G = st.dual(_multipliers(st, Phi, gtil)[0])
    return _shift_to_dual_feasible(DualCertificate(tuple(Y), tuple(G)), proj, reject_below=-1e-6)


def solve_primal(
    problem: PrimalProblem, config: SolverConfig | None = None, polish: bool = True
) -> SolveResult:
    """Solve the guessing-probability SDP at a fixed state.

    Returns a feasible decomposition whose objective is within the certified
    gap of the optimum, together with an independently verified dual
    certificate.  Rank-deficient POVMs are mixed with ``restore_eta`` of white
    noise to create a strict interior; the result is flagged ``restored``.
    With ``polish`` (the default) the barrier solution is rounded onto the
    optimal face identified by the dual certificate, which usually shrinks
    the certified gap by several orders of magnitude.
    """
    cfg = config or SolverConfig()
    povm, state = problem.povm, problem.state
    d, m = povm.dim, povm.num_outcomes
    n = problem.num_subpovms
    if d > MAX_SDP_DIM or m > MAX_SDP_OUTCOMES:
        raise ValidationError(f"solver supports d <= {MAX_SDP_DIM}, outcomes <= {MAX_SDP_OUTCOMES}")

    # Restore: mix a rank-deficient POVM with white noise.
    elements = [np.asarray(E) for E in povm.elements]
    restored = min(float(np.linalg.eigvalsh(E)[0]) for E in elements) < 10.0 * cfg.restore_eta
    if restored:
        elements = [depolarize(E, cfg.restore_eta) for E in elements]

    # Constraint data A k = b, objective c.k and the strictly feasible start
    # K[x][j] = M_x / n.
    st = _structure(d, m, n)
    coords = np.stack([st.coords(E) for E in elements])
    b = np.concatenate([np.zeros(st.group2_start), coords.ravel()])
    proj = state.projector()
    c = np.zeros((m, n, st.dd))
    diag = np.arange(min(m, n))
    c[diag, diag] = st.coords(proj)
    c = c.ravel()
    k0 = np.repeat(coords[:, None] / n, n, axis=1).reshape(st.nblocks, st.dd)

    k, cert, value, dual_value, iters = _barrier_path(st, povm, b, c, k0, proj, cfg)

    # Polish: keep the fitted dual only if it tightens the certified bracket.
    if polish:
        rounded = _round_primal(st, b, c, k, value, dual_value - value, cert.slacks(proj))
        if rounded is not None:
            k, value = rounded
            better = _round_dual(st, c, k, proj)
            if better is not None:
                dual_new = better.dual_value(povm)
                if value - 1e-12 <= dual_new <= dual_value:
                    cert, dual_value = better, dual_new

    # Verify the decomposition and gate on the certified gap.
    gap = dual_value - value
    decomposition = Decomposition(st.mats(k).reshape(m, n, d, d))
    report = verify_decomposition(decomposition, povm, tol=1e-8)
    feas = max(report.max_proportionality_violation, report.max_reconstruction_violation,
               report.max_psd_violation)
    if gap > 20.0 * cfg.tol:
        raise SolverError(
            f"certified duality gap {gap:.3e} above tolerance {cfg.tol:.1e} "
            f"(feasibility residual {feas:.3e})"
        )
    return SolveResult(
        value=value,
        decomposition=decomposition,
        dual_value=dual_value,
        gap=gap,
        iterations=iters,
        feasibility_residual=feas,
        restored=restored,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# Analytic dual certificate for the noisy projective measurement
# ---------------------------------------------------------------------------


def build_dual_certificate_noisy_projective(noise: NoiseModel) -> DualCertificate:
    """The closed-form dual certificate at the unbiased state.

    Feasible for 0 < eps < 1 and any d >= 2 (the d - 2 terms vanish for
    qubits), with objective equal to the closed-form optimum
    (tr sqrt(M_1))^2 / d.
    """
    d, eps = noise.d, noise.epsilon
    if not 0.0 < eps < 1.0:
        raise DomainError("the analytic dual certificate requires 0 < eps < 1")
    A = noise.A
    trsqrt = noise.trace_sqrt_element()
    eye = np.eye(d)
    psi = unbiased_state(d).amplitudes
    proj_psi = np.outer(psi, psi)
    alpha = (d - 1) / d - (d - 1) / d**2 * trsqrt * np.sqrt(d / eps)
    beta = (d - 1) / d - (d - 2) / d**2 * trsqrt * np.sqrt(d / eps)
    gamma = trsqrt / (d * np.sqrt(d)) * np.sqrt((d - 1) / eps) * (
        (np.sqrt(A) - np.sqrt(eps)) / (np.sqrt(A) + np.sqrt(eps))
    )
    sqrt_eps_d = np.sqrt(eps / d)
    sqrtA_d = np.sqrt(A / d)
    Y, G = [], []
    for x in range(d):
        ex = eye[x]
        one_not_x = eye - np.outer(ex, ex)
        psi_not_x = (psi - psi[x] * ex)
        psi_not_x = psi_not_x / np.linalg.norm(psi_not_x)
        Tx = -gamma * (np.outer(ex, psi_not_x) + np.outer(psi_not_x, ex))
        inv_sqrt_Mx = np.sqrt(d / A) * np.outer(ex, ex) + np.sqrt(d / eps) * one_not_x
        Y.append(trsqrt / d**2 * inv_sqrt_Mx + Tx)
        sqrt_Mx_psi = sqrt_eps_d * psi + (sqrtA_d - sqrt_eps_d) * psi[x] * ex
        G.append(
            Tx
            - (d - 1) / d * proj_psi
            - alpha * (one_not_x - np.outer(psi_not_x, psi_not_x))
            + beta * (eye - d * np.outer(sqrt_Mx_psi, sqrt_Mx_psi))
        )
    return DualCertificate(tuple(Y), tuple(G))


def verify_dual_certificate(
    cert: DualCertificate,
    state: PureState,
    povm: Povm,
    tol: float = 1e-9,
    trace_tol: float = 1e-10,
) -> DualCheck:
    """Check tr G_j = 0 and PSD-ness of every slack Y_x - d_xj P_phi - G_j.

    A feasible certificate makes its dual value a valid upper bound on the
    guessing probability at the given state.  Slacks asymmetric beyond 1e-8
    raise ``ValidationError``; the rest are checked on their Hermitian part.
    """
    if (any(Y.shape[0] != povm.dim for Y in cert.Y) or len(cert.Y) != povm.num_outcomes
            or state.dim != povm.dim):
        raise ValidationError("certificate shape does not match the POVM")
    Z = cert.slacks(state.projector())
    ZH = Z.conj().swapaxes(-1, -2)
    asym = float(np.max(np.abs(Z - ZH)))
    if asym > 1e-8:
        raise ValidationError(f"dual slack is not Hermitian: asymmetry {asym:.3e} > 1.0e-08")
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (Z + ZH))))
    max_trace = max(abs(float(np.real(np.trace(Gj)))) for Gj in cert.G)
    feasible = (min_eig >= -tol) and (max_trace <= trace_tol)
    return DualCheck(cert.dual_value(povm), feasible, min_eig, float(max_trace))


def complementary_slackness_residual(
    decomp: Decomposition, cert: DualCertificate, state: PureState
) -> float:
    """max over (x, j) of the max-norm of K[x][j] (Y_x - d_xj P_phi - G_j)."""
    if (decomp.dim != cert.Y[0].shape[0] or decomp.num_outcomes != len(cert.Y)
            or decomp.num_subpovms != len(cert.G)):
        raise ValidationError("decomposition and certificate shapes differ")
    if state.dim != decomp.dim:
        raise ValidationError("state dimension mismatch")
    return max_abs(decomp.K @ cert.slacks(state.projector()))


# ---------------------------------------------------------------------------
# Minimization over input states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateSearch:
    """Best state found by the multistart search and its certified value."""

    state: PureState
    value: float
    solve: SolveResult
    starts: int
    converged: bool
    ties: tuple = field(default_factory=tuple)


def _state_from_params(x: np.ndarray, d: int) -> tuple[np.ndarray, PureState]:
    """The unnormalized vector v = x[:d] + i x[d:] and its normalized state."""
    v = x[:d] + 1j * x[d:]
    norm = np.linalg.norm(v)
    if norm < 1e-8:
        raise SolverError("state search reached the zero vector")
    return v, PureState(v / norm)


def _search_objective(x: np.ndarray, povm: Povm, config: SolverConfig) -> tuple[float, np.ndarray]:
    """Loose guessing probability at v = x[:d] + i x[d:] and its exact gradient in x.

    The value f = <v|S|v> / |v|^2, with S = sum_j K[j][j] of the returned
    decomposition, is a maximum over a feasible set that does not depend on
    the state, so by the envelope (Danskin) theorem its gradient with respect
    to v is 2 (S v - f v) / |v|^2 and costs nothing beyond the solve.
    """
    v, state = _state_from_params(x, povm.dim)
    res = solve_primal(PrimalProblem(povm, state), config, polish=False)
    S = np.einsum("jjab->ab", res.decomposition.K)
    grad = 2.0 * (S @ v - res.value * v) / np.vdot(v, v).real
    return res.value, np.concatenate([grad.real, grad.imag])


def minimize_over_states(
    povm: Povm,
    config: SolverConfig | None = None,
    value_tol: float = 1e-4,
    report_ties: bool = False,
) -> StateSearch:
    """Minimize the guessing probability over pure input states.

    Deterministic multistart (eigenbasis-unbiased and uniform states plus
    seeded random ones), each refined by BFGS on the real embedding
    x -> v = x[:d] + i x[d:] of the unnormalized state.  Every step costs one
    loose, unpolished solve, which also yields the exact gradient: the
    smoothed value is a maximum over a feasible set that does not depend on
    the state, so the envelope theorem applies (see ``_search_objective``).
    A start whose solve fails ends there and is left out.  The returned value
    is re-solved at full precision at the best state; the result is flagged
    not converged when only a single start reached it.
    """
    cfg = config or SolverConfig()
    d = povm.dim
    if d > 4:
        raise ValidationError("state search supports d <= 4 at the default budget")
    rng = np.random.default_rng(cfg.seed)
    search_cfg = replace(cfg, tol=max(cfg.tol, 1e-5))

    # States unbiased to the eigenbases of the first two elements, and the
    # uniform state, each kept once.
    seen: list[np.ndarray] = []
    for u in [np.linalg.eigh(E)[1].sum(axis=1) / np.sqrt(d) for E in povm.elements[:2]] + [
        np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    ]:
        if not any(abs(abs(np.vdot(u, v)) - 1.0) < 1e-12 for v in seen):
            seen.append(u)
    starts = [np.concatenate([u.real, u.imag]) for u in seen]
    for _ in range(cfg.multistarts):
        v = rng.normal(size=2 * d)
        starts.append(v / np.linalg.norm(v))

    results = []
    for x0 in starts:
        try:
            res = scipy_minimize(_search_objective, x0, (povm, search_cfg), jac=True, method="BFGS")
            results.append((float(res.fun), _state_from_params(res.x, d)[1]))
        except SolverError:
            continue
    if not results:
        raise SolverError("state search produced no valid candidate")
    results.sort(key=lambda item: item[0])
    best_value, best_state = results[0]
    final = solve_primal(PrimalProblem(povm, best_state), cfg)
    near = [st for val, st in results if val <= best_value + value_tol]
    ties = tuple(st for val, st in results if val <= best_value + 1e-6) if report_ties else ()
    return StateSearch(
        state=best_state,
        value=final.value,
        solve=final,
        starts=len(starts),
        converged=len(near) >= 2,
        ties=ties,
    )
