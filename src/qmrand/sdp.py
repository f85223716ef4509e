"""Guessing-probability SDP: primal solver, dual certificates, state search.

The primal problem, for a POVM {M_x} with m outcomes and a pure state |phi>,
maximizes sum_j <phi| K[j][j] |phi> over PSD matrices K[x][j] subject to

    sum_x d K[x][j] = 1 sum_x tr K[x][j]   (each sub-POVM sums to c_j 1),
    sum_j K[x][j] = M_x.

It is solved with a self-contained log-barrier interior-point method: Newton
steps on the equality-constrained barrier subproblem, posed as a least-squares
problem in the scaled space of the block-diagonal barrier Hessian.  The
equality multipliers yield a feasible dual certificate (Y_x, G_j) whose
objective upper-bounds the optimum, so every reported gap is certified.

``solve_primal`` runs as named stages:

1. facial reduction: 0 <= K[x][j] <= M_x, so every block lies in the face of
   matrices supported on range(M_x) (``_face_bases``; Borwein and Wolkowicz
   1981, Drusvyatskiy and Wolkowicz 2017).  On the faces the problem has a
   strict interior and the optimum of the POVM as given;
2. build the constraint data ``b``, ``c`` and the start ``k0``;
3. follow the barrier path (``_barrier_path``: centring by ``_newton_center``,
   one least-norm step back onto A k = b in the barrier's metric, and the
   certificate of the multipliers);
4. polish: ``_round_primal`` truncates each block to the rank of the optimal
   face and returns to A k = b by Gauss-Newton steps, then ``_round_dual``
   fits the dual to exact complementarity;
5. verify the decomposition to 1e-8, the certificate to 1e-9 against the
   POVM as given, and the gap.

The slack Y_x - G_j - d_xj P_phi is formed only by ``DualCertificate.slacks``,
multipliers become (Y, G) only through ``_Structure.dual``, and (Y, G) become
a certificate only through ``_dual_certificate``.  Every affine step (Newton
step, drift correction, face rounding, dual polish) is one least-squares
solve, ``_multipliers``, differing only in the scaling Phi, the gradient and
the primal residual.  From m n d^2 = 256 real variables on the normal matrix
is assembled blockwise and the outcome blocks are eliminated first, leaving a
Schur complement of size (n-1)(d^2-1) (Fujisawa, Kojima and Nakata 1997;
SDPT3), with the per-outcome solves batched over the outcomes; below that,
Python call overhead dominates and A Phi is formed densely.  Each block's
scaling Phi is one real matrix product (``_sandwich``).  The line search
reads the step's exact effect on log det K from the eigenvalues of the scaled
step, so it factors nothing and never forms a barrier value.  The final
centring stage stops at the float floor of the Newton decrement, so the step
count does not depend on how the kernels round.

scipy is imported inside the functions that use it, so that the closed-form
and entropy paths, which never solve an SDP, do not pay its import time.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, cached_property

import numpy as np

from .decompositions import Decomposition, verify_decomposition
from .linalg import (
    DomainError,
    SolverError,
    ValidationError,
    max_abs,
    require_hermitian,
)
from .povm import NoiseModel, Povm, PureState, unbiased_state

MAX_SDP_DIM = 8
MAX_SDP_OUTCOMES = 8

_MU0 = 1.0                   # barrier weight of the first centring stage
_MU_GROWTH = 60.0
_NEWTON_TOL = 1e-10          # squared-decrement/2 at the final barrier stage
_NEWTON_TOL_PATH = 1e-5      # loose centering while t still grows
_NEWTON_FLOOR = 1e-6         # below this squared decrement a final step must cut it 4x
_MAX_INNER = 60
_ARMIJO = 0.25
_ROUND_STEPS = 8             # Gauss-Newton steps of the face rounding

# Lower bound of each SolverConfig field and whether the bound itself is excluded.
_CONFIG_BOUNDS = {"tol": (0, True), "max_iters": (1, False), "multistarts": (0, False),
                  "seed": (0, False)}


@dataclass(frozen=True)
class SolverConfig:
    """Tunables of the interior-point solver and the state search.

    Every field is checked on construction: a finite number of the annotated
    kind (int or float) above its lower bound, else ``ValidationError``.
    """

    tol: float = 1e-6
    max_iters: int = 200
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

    def __post_init__(self):
        if self.state.dim != self.povm.dim:
            raise ValidationError("state and POVM dimensions differ")


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
    restored: bool = False   # solved on the faces of rank-deficient elements
    certificate: DualCertificate | None = None


# ---------------------------------------------------------------------------
# Problem structure (cached per (d, m, n))
# ---------------------------------------------------------------------------


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d x d Hermitian matrices under tr(AB): the diagonal
    units, then for each i < j in row order the real and imaginary pair."""
    B = np.zeros((d * d, d, d), dtype=complex)
    B[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    i, j = np.triu_indices(d, 1)
    k = d + 2 * np.arange(len(i))
    B[k, i, j] = B[k, j, i] = 1.0 / np.sqrt(2.0)
    B[k + 1, i, j], B[k + 1, j, i] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
    return B


def traceless_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the traceless Hermitian subspace (d^2 - 1).

    The d - 1 diagonal elements are the generalized Gell-Mann matrices; the
    off-diagonal ones are those of ``hermitian_basis``.
    """
    out = hermitian_basis(d)[1:]
    for r in range(1, d):
        out[r - 1] = np.diag(np.r_[np.ones(r), -r, np.zeros(d - r - 1)] / np.sqrt(r * (r + 1)))
    return out


class _Structure:
    """Constraint data for a given (d, m, n) and the faces of the POVM.

    Block (x, j) holds the coordinates of K[x][j] in the Hermitian basis
    ``B``, on the face of outcome x with projector P_x.  ``bases`` gives each
    outcome's eigenvectors with range(M_x) in the last r_x columns; without
    it every P_x is the identity and ``reduced`` is False.  The rows:

    * group 1, for j < n-1 and each matrix in ``T``: the traceless part of
      sum_x K[x][j] vanishes (the j = n-1 family is implied by group 2).  On
      reduced faces ``T`` is an orthonormal basis of the traceless rows the
      faces still see, (P_x T P_x)_x; on projective faces the off-diagonal
      rows vanish, and keeping them would make the normal matrix singular;
    * group 2, for each x and basis element a: sum_j K[x][j] = M_x.  Off a
      reduced face these rows meet only directions the scaling removes, so
      the normal matrix takes ``reg``, the identity there (zero multipliers).

    A touches block (x, j) only through the rows ``tau`` of sub-POVM j and
    the identity rows of outcome x; ``apply_A``/``apply_AT`` use that.
    """

    def __init__(self, d: int, m: int, n: int, bases: list | None = None):
        self.d, self.m, self.n = d, m, n
        self.dd = dd = d * d
        self.nblocks = m * n
        self.nvar = m * n * dd
        self.B = hermitian_basis(d)
        self.T = traceless_basis(d)
        self.tau = np.einsum("aij,tji->ta", self.B, self.T).real  # (s, dd)
        self.reduced = bases is not None
        if self.reduced:
            self.bases = bases
            faces = np.stack([V[:, d - r:] @ V[:, d - r:].conj().T for V, r in bases])
            self.P = np.repeat(faces, n, axis=0)   # face projector of each block
            self.Pi = np.eye(d) - self.P
            self.S = _sandwich(self, self.P, self.P)   # coords(X) -> coords(P X P)
            self.reg = np.eye(dd) - self.S[::n]
            _, sig, Vt = np.linalg.svd((self.S[::n] @ self.tau.T).reshape(m * dd, dd - 1),
                                       full_matrices=False)
            keep = sig > 1e-8 * sig[0]   # a row the faces see only to rounding is dropped
            rows = Vt[keep] / sig[keep, None]
            self.T, self.tau = np.einsum("st,tij->sij", rows, self.T), rows @ self.tau
        else:
            self.P = np.broadcast_to(np.eye(d), (self.nblocks, d, d))
            self.bases, self.Pi, self.S, self.reg = (), 0.0, np.eye(dd), 0.0
        self.s = len(self.T)   # group-1 rows per sub-POVM
        self.group2_start = (n - 1) * self.s
        self.ncon = self.group2_start + m * dd
        self.eye_coords = self.coords_of_stack(self.P)   # coords of each face's identity
        # Multiplier solve, dense -> blockwise (ms, best of 3, one BLAS thread, 2 vCPUs):
        # nvar 16 (d = m = 2) 0.05 -> 0.15, 81 (d = m = 3) 0.11 -> 0.19, 225
        # (d = 5, m = 3) 0.67 -> 0.65, 256 (d = m = 4) 0.62 -> 0.57, 324 (d = 6,
        # m = 3) 1.06 -> 0.61, 400 (d = 5, m = 4) 1.16 -> 0.55, 625 (d = m = 5) 3.27 -> 0.70.
        self.structured = self.nvar >= 256

    @cached_property
    def A3(self) -> np.ndarray:
        """Dense constraint matrix as (ncon, nblocks, dd), for the dense path."""
        eye = np.eye(self.ncon)
        return np.stack([self.apply_AT(row) for row in eye])

    @cached_property
    def gram_reg(self) -> np.ndarray | float:
        """``reg`` on the group-2 diagonal of the dense path's (ncon, ncon) Gram matrix."""
        from scipy.linalg import block_diag

        n1 = self.group2_start
        return block_diag(np.zeros((n1, n1)), *self.reg) if self.reduced else 0.0

    def apply_A(self, v: np.ndarray) -> np.ndarray:
        """A v for v of any shape holding nvar entries."""
        v = v.reshape(self.m, self.n, self.dd)
        g1 = v[:, : self.n - 1].sum(axis=0) @ self.tau.T
        return np.concatenate([g1.ravel(), v.sum(axis=1).ravel()])

    def apply_AT(self, nu: np.ndarray) -> np.ndarray:
        """A^T nu as (nblocks, dd)."""
        m, n, dd = self.m, self.n, self.dd
        out = np.repeat(nu[self.group2_start :].reshape(m, 1, dd), n, axis=1)
        out[:, : n - 1] += nu[: self.group2_start].reshape(n - 1, self.s) @ self.tau
        return out.reshape(self.nblocks, dd)

    def dual(self, nu: np.ndarray) -> tuple[list, list]:
        """Dual matrices (Y, G) of multipliers ``nu`` in constraint-row layout.

        ``mats(apply_AT(nu))[x n + j]`` is Y_x - G_j: the group-2 rows of
        outcome x give Y_x and the group-1 rows of sub-POVM j give -G_j, with
        G_{n-1} = 0 because that family of rows is dropped.
        """
        n1, dd, s = self.group2_start, self.dd, self.s
        Y = [np.einsum("a,aij->ij", nu[n1 + x * dd : n1 + (x + 1) * dd], self.B)
             for x in range(self.m)]
        G = [-np.einsum("t,tij->ij", nu[j * s : (j + 1) * s], self.T)
             for j in range(self.n - 1)] + [np.zeros((self.d, self.d), dtype=complex)]
        return Y, G

    def on_faces(self, Z: np.ndarray) -> np.ndarray:
        """P Z P + (I - P) per block: what the faces see of a slack stack, 1 off them."""
        if not self.reduced:
            return Z
        P = self.P.reshape(Z.shape)
        return P @ Z @ P + self.Pi.reshape(Z.shape)

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


def _face_bases(povm: Povm) -> list | None:
    """(V, r) per element: eigenvectors with range(M_x) in the last r columns, or None
    when every element has full rank.  Eigenvalues up to 1e-12 of the largest are rounding."""
    bases = [(V, int(np.sum(w > 1e-12 * max(w[-1], 0.0))))
             for w, V in map(np.linalg.eigh, povm.elements)]
    return None if all(r == povm.dim for _, r in bases) else bases


# ---------------------------------------------------------------------------
# Interior-point solver
# ---------------------------------------------------------------------------


@cache
def _real_sandwich_tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per d: the Hermitian basis split into its real parts, and the gather of two real forms.

    ``U[i, c, k, a]`` is part c (0 real, 1 imaginary) of B_a[i, k], returned as
    (2d, d dd) and as (d, 2d, dd).  A pair (L, R) of d x d complex matrices,
    read as 4 d^2 floats, gathers with ``index`` and ``sign`` into the real
    form of L with rows and columns ordered (i, c) and that of R^T = conj(R)
    with rows and columns ordered (c, k): [[Re, -Im], [Im, Re]] in both.
    """
    dd = d * d
    B = hermitian_basis(d)
    U = np.ascontiguousarray(np.stack([B.real, B.imag]).transpose(2, 0, 3, 1))
    i, c, k, c2 = np.meshgrid(*map(np.arange, (d, 2, d, 2)), indexing="ij")
    # Entry ((i, c), (k, c2)) reads the real part of entry (i, k) if c == c2, else its
    # imaginary part: float 2 (i d + k) + (c != c2) of L, 2 d^2 further on of R.
    at = 2 * (i * d + k) + (c != c2)
    # Rows and columns (i, c) for L; (c, k) for conj(R), whose imaginary part flips sign.
    index = [at, (2 * dd + at).transpose(1, 0, 3, 2)]
    sign = [np.where(c < c2, -1.0, 1.0), np.where(c > c2, -1.0, 1.0).transpose(1, 0, 3, 2)]
    index, sign = (np.stack([a.reshape(2 * d, 2 * d) for a in pair]) for pair in (index, sign))
    tables = U.reshape(2 * d, d * dd), U.reshape(d, 2 * d, dd), index, sign
    for table in tables:
        table.flags.writeable = False   # shared by every caller through the cache
    return tables


def _sandwich(st: _Structure, L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """coords(X) -> coords(L X R) per block for Hermitian L, R, as (nblocks, dd, dd).

    The matrix is Re(U^H (L kron R^T) U) = Re(X^H Y) with X = (L kron 1) U and
    Y = (1 kron R^T) U, U the basis as columns.  Each factor is formed by one
    real product from ``_real_sandwich_tables``, with its real and imaginary
    parts stacked as rows, so the sandwich is one real (dd x 2dd x dd) product
    per block: a quarter of the flops of the two complex dd^3 products.
    """
    nb, d, dd = st.nblocks, st.d, st.dd
    Ux, Uy, index, sign = _real_sandwich_tables(d)
    pair = np.empty((nb, 2, d, d), dtype=complex)
    pair[:, 0], pair[:, 1] = L, R
    real = pair.reshape(nb, 2 * dd).view(float)[:, index] * sign
    X = (real[:, 0] @ Ux).reshape(nb, 2 * dd, dd)
    Y = (real[:, 1, None] @ Uy).reshape(nb, 2 * dd, dd)
    return X.swapaxes(1, 2) @ Y


def _scaling(st: _Structure, k: np.ndarray) -> np.ndarray:
    """Phi: coords(X) -> coords(R X R) per block, as (nblocks, dd, dd).

    R = (K + I - P)^(1/2) - (I - P) is the root of K on its face and zero off
    it, so Phi maps every direction into the faces.  Phi is symmetric, and
    ``_sandwich`` forms it as one real product per block.  An iterate that is
    not positive definite on its faces raises ``SolverError``.
    """
    w, V = np.linalg.eigh(st.mats(k) + st.Pi)
    if w.min() <= 0.0:
        raise SolverError(f"iterate is not positive definite (least eigenvalue {w.min():.3e})")
    R = (V * np.sqrt(w)[:, None, :]) @ V.conj().swapaxes(1, 2) - st.Pi
    return _sandwich(st, R, R)


def _least_squares_multipliers(Atil: np.ndarray, gtil: np.ndarray, r: np.ndarray | float = 0.0,
                               reg: np.ndarray | float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Solve min_nu ||Atil^T nu + gtil|| and return (nu, residual).

    With a primal residual ``r``, rtil = gtil + Atil^T nu also meets
    Atil rtil = -r, so the step -Phi rtil adds r to A k.  Corrected seminormal
    equations (Cholesky plus one refinement sweep) on Atil Atil^T + ``reg``,
    or the minimum-norm solution when that is singular: the Cholesky fails or
    its smallest squared pivot is below 1e-12 of its largest (a Cholesky that
    passes on a matrix singular up to rounding keeps large null-space parts).
    """
    from scipy.linalg import cho_factor, cho_solve

    rhs = Atil @ gtil + r
    try:
        fac = cho_factor(Atil @ Atil.T + reg, lower=True, check_finite=False)
        root = fac[0].diagonal()   # square roots of the pivots
        if root.min() < 1e-6 * root.max():
            raise np.linalg.LinAlgError("Gram matrix singular up to rounding")
        nu = cho_solve(fac, -rhs, check_finite=False)
        rtil = gtil + Atil.T @ nu
        nu = nu - cho_solve(fac, Atil @ rtil + r, check_finite=False)
    except np.linalg.LinAlgError:
        # The least-norm z with Atil z = r is the part of -rtil that meets r.
        z = np.linalg.lstsq(Atil, r, rcond=None)[0] if np.any(r) else 0.0
        nu = np.linalg.lstsq(Atil.T, -(gtil + z), rcond=None)[0]
    rtil = gtil + Atil.T @ nu
    return nu, rtil


def _scaled_constraints(st: _Structure, Phi: np.ndarray) -> np.ndarray:
    """The dense scaled constraint matrix Atil = A Phi, (ncon, nvar)."""
    return np.matmul(st.A3.transpose(1, 0, 2), Phi).transpose(1, 0, 2).reshape(st.ncon, st.nvar)


def _structured_multipliers(st: _Structure, Phi: np.ndarray, gtil: np.ndarray,
                            r: np.ndarray | float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """``_least_squares_multipliers(A Phi, gtil, r)`` without forming A Phi.

    The normal matrix A H A^T, H = blockdiag(Phi_b^2), has the outcome blocks
    D_x = sum_j H_xj on its group-2 diagonal, tau C_j tau^T (C_j = sum_x H_xj)
    on its group-1 diagonal and tau H_xj between sub-POVM j and outcome x.
    The D_x are eliminated by Cholesky, D_x = L_x L_x^T, which leaves the
    Schur complement S = blockdiag(tau C_j tau^T) - sum_x W_x^T W_x with
    W_x = L_x^-1 [H_xj tau^T]_j to factor.  H_xj maps into the face of x, so
    tau H_xj is the faces' row; D_x takes ``reg`` off the face.  Every
    per-outcome operation is one batched product over the (m, dd, dd) stack
    of the inverses L_x^-1, not a loop of triangular solves.  Falls back to
    the dense solve when a factor loses definiteness.
    """
    from scipy.linalg import cho_factor, cho_solve

    m, n, dd, n1, s = st.m, st.n, st.dd, st.group2_start, st.s
    tau = st.tau
    H = (Phi @ Phi).reshape(m, n, dd, dd)
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(H.sum(axis=1) + st.reg))
        tauH = tau @ H[:, : n - 1]   # (m, n-1, s, dd): the rows tau H_xj, H_xj symmetric
        W = Linv @ tauH.reshape(m, n1, dd).swapaxes(1, 2)
        Wf = W.reshape(m * dd, n1)
        S = -(Wf.T @ Wf)
        diag = np.arange(n - 1)
        S.reshape(n - 1, s, n - 1, s)[diag, :, diag] += tauH.sum(axis=0) @ tau.T
        fac = cho_factor(S, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return _least_squares_multipliers(_scaled_constraints(st, Phi), gtil, r, st.gram_reg)

    def solve_normal(r: np.ndarray) -> np.ndarray:
        y = (Linv @ r[n1:].reshape(m, dd, 1))[:, :, 0]
        nu1 = cho_solve(fac, r[:n1] - Wf.T @ y.ravel(), check_finite=False)
        nu2 = Linv.swapaxes(1, 2) @ (y - W @ nu1)[:, :, None]
        return np.concatenate([nu1, nu2.ravel()])

    def phi_apply(v: np.ndarray) -> np.ndarray:
        return (Phi @ v.reshape(st.nblocks, dd, 1)).reshape(st.nvar)

    nu = solve_normal(-(st.apply_A(phi_apply(gtil)) + r))
    rtil = gtil + phi_apply(st.apply_AT(nu))
    nu = nu - solve_normal(st.apply_A(phi_apply(rtil)) + r)
    rtil = gtil + phi_apply(st.apply_AT(nu))
    return nu, rtil


def _multipliers(st: _Structure, Phi: np.ndarray, gtil: np.ndarray,
                 r: np.ndarray | float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """min_nu ||Phi A^T nu + gtil|| as (nu, residual), blockwise when ``st.structured``.

    With gtil = 0, -Phi rtil is the step s with A s = r of least norm ||Phi^-1 s||.
    """
    if st.structured:
        return _structured_multipliers(st, Phi, gtil, r)
    return _least_squares_multipliers(_scaled_constraints(st, Phi), gtil, r, st.gram_reg)


def _dual_certificate(
    st: _Structure, Y: list, G: list, proj: np.ndarray, tol: float,
    reject_below: float = -np.inf,
) -> DualCertificate | None:
    """The dual certificate of (Y, G): shifted to feasibility on the faces, then lifted.

    The least uniform shift of every Y_x on its face makes the face slacks
    P_x Z[x][j] P_x PSD; None when their least eigenvalue is below
    ``reject_below``.  On a reduced face the lift Y_x += delta P_x +
    lam_x (I - P_x) makes the whole slack PSD: delta = tol / 2d makes its face
    block A definite, and lam_x is twice the largest eigenvalue of
    C^H A^-1 C - D over j (C, D: the cross and off-face blocks), which keeps
    an eigenvalue margin near delta / 2.  As tr M_x (I - P_x) = 0, the dual
    value rises by at most delta d = tol / 2, while |Y| grows like 1 / delta.
    """
    cert = DualCertificate(tuple(Y), tuple(G))
    min_slack = float(np.min(np.linalg.eigvalsh(st.on_faces(cert.slacks(proj)))))
    if min_slack < reject_below:
        return None
    shift = -min_slack + 1e-15 if min_slack < 0.0 else 0.0
    delta = tol / (2.0 * st.d) if st.reduced else 0.0
    Y = [Yx + (shift + delta) * P for Yx, P in zip(cert.Y, st.P[:: st.n])]
    for x, (V, r) in enumerate(st.bases):
        if r < st.d:
            Z = Y[x] - np.stack(cert.G)
            Z[x] -= proj
            Vf, Vo = V[:, st.d - r :], V[:, : st.d - r]
            A, C = Vf.conj().T @ Z @ Vf, Vf.conj().T @ Z @ Vo
            deficit = C.conj().swapaxes(1, 2) @ np.linalg.solve(A, C) - Vo.conj().T @ Z @ Vo
            lam = np.max(np.linalg.eigvalsh(0.5 * (deficit + deficit.conj().swapaxes(1, 2))))
            Yx = Y[x] + (2.0 * max(lam, 0.0) + delta) * st.Pi[x * st.n]
            Y[x] = 0.5 * (Yx + Yx.conj().T)   # at |Y| ~ 1e9 rounding asymmetry passes 1e-8
    return DualCertificate(tuple(Y), cert.G)


def _newton_center(
    st: _Structure, c: np.ndarray, t: float, k: np.ndarray, iters: int, final: bool,
    max_iters: int,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Center at barrier weight t, starting from k.  Returns (k, iters, multipliers).

    In the scaled space where the barrier Hessian is the square of Phi^-1
    (``_scaling``) the step is a plain least-squares solve, which stays
    accurate as K approaches the boundary.  On the faces K + alpha Delta =
    R (1 - alpha X) R with X = mats(rtil), so for the eigenvalues mu of X
    (|mu| <= sqrt(lam2)) the step stays definite while alpha max mu < 1 and
    moves the barrier by -alpha (lam2 + sum mu) - sum log(1 - alpha mu)
    (Nesterov and Nemirovski 1994; Boyd and Vandenberghe 2004, 9.6): the
    log det part exactly, the linear part as the Newton model's slope, since
    late in the path t c.Delta is neither exact nor resolvable beside t c.k.
    alpha halves from 1 until that passes Armijo.  The path stages stop at
    lam2 / 2 <= ``_NEWTON_TOL_PATH``, the ``final`` one at ``_NEWTON_TOL`` or
    at the float floor of the decrement: in the quadratic region a step
    squares lam2, so once lam2 < ``_NEWTON_FLOOR`` falls by less than 4x the
    steps move only rounding.  ``iters`` counts Newton steps across the whole
    path; more than ``max_iters``, or a step the line search cannot shorten
    into the cone, raises ``SolverError``.
    """
    nblocks, dd = st.nblocks, st.dd
    cblocks = c.reshape(nblocks, dd)
    newton_tol = _NEWTON_TOL if final else _NEWTON_TOL_PATH
    nu, lam2_prev = np.zeros(st.ncon), np.inf
    for _ in range(_MAX_INNER):
        Phi = _scaling(st, k)
        # Scaled gradient: Phi g = -t Phi c - coords(P), the identity of each face.
        gtil = -t * (Phi @ cblocks[:, :, None])[:, :, 0] - st.eye_coords
        gtil = gtil.reshape(st.nvar)
        nu, rtil = _multipliers(st, Phi, gtil)
        lam2 = float(np.dot(rtil, rtil))
        if lam2 / 2.0 <= newton_tol or (final and _NEWTON_FLOOR > lam2 > lam2_prev / 4.0):
            break
        lam2_prev = lam2
        # eigvalsh fails on a non-finite matrix, and no step length mends such a step.
        mu = (np.linalg.eigvalsh(st.mats(rtil.reshape(nblocks, dd))) if np.isfinite(lam2)
              else np.array([np.nan]))
        # Armijo on the barrier's change, its curvature terms -a mu - log(1 - a mu) >= 0
        # summed apart from the slope.  60 halvings suffice up to lam2 near 1e36.
        alpha = 1.0
        for _ in range(60):
            if alpha * mu.max() < 1.0 and (np.sum(-alpha * mu - np.log1p(-alpha * mu))
                                           <= (1.0 - _ARMIJO) * alpha * lam2):
                break
            alpha *= 0.5
        else:
            raise SolverError(f"line search found no step into the cone (t={t:.3e}, "
                              f"newton decrement^2={lam2:.3e})")
        k = k - alpha * (Phi @ rtil.reshape(nblocks, dd, 1))[:, :, 0]
        iters += 1
        if iters > max_iters:
            raise SolverError(f"interior-point iteration cap {max_iters} exceeded "
                              f"(t={t:.3e}, newton decrement^2={lam2:.3e})")
    return k, iters, nu


def _barrier_path(
    st: _Structure, povm: Povm, b: np.ndarray, c: np.ndarray, k0: np.ndarray,
    proj: np.ndarray, cfg: SolverConfig,
) -> tuple[np.ndarray, DualCertificate, float, float, int]:
    """Follow the central path from k0 to t_final, then correct the drift off A k = b.

    t grows geometrically until the gap bound m n d / t is a quarter of
    cfg.tol.  Rounding leaves the last centre slightly off A k = b; the
    correction is the least-norm step s onto it in the barrier's metric
    (``_multipliers`` with gtil = 0), which keeps K definite while
    ||Phi^-1 s|| < 1 (the Dikin ellipsoid).  Returns (k, cert, value,
    dual_value, iterations).
    """
    t_final = st.m * st.n * st.d / (0.25 * cfg.tol)
    t, k, iters = _MU0, k0, 0
    while True:
        final_stage = t >= t_final
        k, iters, nu = _newton_center(st, c, t, k, iters, final_stage, cfg.max_iters)
        if final_stage:
            break
        t = min(t * _MU_GROWTH, t_final)
    Phi = _scaling(st, k)
    rtil = _multipliers(st, Phi, np.zeros(st.nvar), b - st.apply_A(k))[1]
    k = k - (Phi @ rtil.reshape(st.nblocks, st.dd, 1))[:, :, 0]
    # At the central point -t c - svec(K^-1) + A^T nu = 0 on the faces, so nu / t
    # are dual multipliers.
    Y, G = st.dual(nu)
    cert = _dual_certificate(st, [Yx / t for Yx in Y], [Gj / t for Gj in G], proj, cfg.tol)
    return k, cert, float(np.dot(c, k.reshape(st.nvar))), cert.dual_value(povm), iters


def _round_primal(
    st: _Structure, b: np.ndarray, c: np.ndarray, k: np.ndarray, value: float, gap: float,
    slacks: np.ndarray,
) -> tuple[np.ndarray, float] | None:
    """Round the center onto the optimal face identified by the dual slacks.

    The optimal K[x][j] lives in the near-kernel of the slack Z[x][j]
    (eigenvalues below sqrt(gap), relative), so each block is truncated to
    rank d - rank(Z[x][j]); ``slacks`` are those the faces see, whose
    eigenvalue 1 off a face drops the eigenvalue -1 of K - (I - P).
    Gauss-Newton on that fixed-rank set restores A k = b (Absil, Mahony and
    Sepulchre 2008, ch. 8): each step is ``_multipliers`` with Phi the
    projection X -> P X P - Q X Q onto the tangent space, Q projecting onto
    each block's dropped eigenvectors on its face, and a truncation follows.
    (k, value) is returned only if it verifies and does not lower the value.
    """
    d = st.d
    tau = max(np.sqrt(max(gap, 0.0)), 1e-9)
    w = np.linalg.eigvalsh(slacks).reshape(st.nblocks, d)
    ranks = d - np.sum(w < tau * np.maximum(1.0, w[:, -1:]), axis=1)
    drop = np.arange(d) < ranks[:, None]   # the rank(Z) smallest eigenvalues of each block
    kv = k
    for step in range(_ROUND_STEPS + 1):   # each step is followed by a truncation
        w, V = np.linalg.eigh(st.mats(kv) - st.Pi)
        on_face = drop & (w > -0.5)
        w[drop] = 0.0
        kv = st.coords_of_stack((V * np.maximum(w, 0.0)[:, None, :]) @ V.conj().swapaxes(1, 2))
        r = b - st.apply_A(kv)
        if max_abs(r) <= 1e-13 or step == _ROUND_STEPS:
            break
        Vq = V * on_face[:, None, :]
        Q = Vq @ Vq.conj().swapaxes(1, 2)
        Phi = st.S - _sandwich(st, Q, Q)
        rtil = _multipliers(st, Phi, np.zeros(st.nvar), r)[1]
        kv = kv - (Phi @ rtil.reshape(st.nblocks, st.dd, 1))[:, :, 0]
    feas = max_abs(r)
    min_eig = float(np.min(np.linalg.eigvalsh(st.mats(kv))))
    value_new = float(np.dot(c, kv.reshape(st.nvar)))
    if feas > 1e-11 or min_eig < -1e-11 or value_new < value:
        return None
    return kv, value_new


def _round_dual(
    st: _Structure, c: np.ndarray, k: np.ndarray, proj: np.ndarray, tol: float
) -> DualCertificate | None:
    """Fit (Y, G) to exact complementarity against the rounded primal k.

    Minimises sum ||P Z[x][j] v||^2 over the populated eigenvectors v of
    K[x][j], P the face projector; with Q the projector onto them that is
    ||Phi (A^T nu - c)||^2, Phi the root of X -> (P X Q + Q X P)/2, so it is
    the Newton step's multiplier solve.  ``_dual_certificate`` shifts and
    lifts the fit; None when it is too far off.
    """
    w, V = np.linalg.eigh(st.mats(k))
    kept = w > np.maximum(w[:, -1:], 0.0) * 1e-7 + 1e-12
    Q = (V * kept[:, None, :]) @ V.conj().swapaxes(1, 2)
    # Phi X = (1 - sqrt 2) Q X Q + (Q X P + P X Q)/sqrt 2; coords keeps the Hermitian
    # part, so the matrices of X -> Q X P and X -> P X Q agree.
    Phi = (1.0 - np.sqrt(2.0)) * _sandwich(st, Q, Q) + np.sqrt(2.0) * _sandwich(st, Q, st.P)
    gtil = -(Phi @ c.reshape(st.nblocks, st.dd, 1)).reshape(st.nvar)
    Y, G = st.dual(_multipliers(st, Phi, gtil)[0])
    return _dual_certificate(st, Y, G, proj, tol, reject_below=-1e-6)


def solve_primal(
    problem: PrimalProblem, config: SolverConfig | None = None, polish: bool = True
) -> SolveResult:
    """Solve the guessing-probability SDP at a fixed state.

    Returns a feasible decomposition whose objective is within the certified
    gap of the optimum, together with a dual certificate; raises
    ``SolverError`` when the decomposition fails its 1e-8 check, the
    certificate its 1e-9 check against the POVM as given, or when the gap
    exceeds 20 tol or is below -1e-12 max(1, |value|).  A rank-deficient
    element is solved on its face, exactly; the result is then flagged
    ``restored``.  With ``polish`` (the default) the barrier solution is
    rounded onto the optimal face, which usually shrinks the gap by orders
    of magnitude.
    """
    cfg = config or SolverConfig()
    povm, state = problem.povm, problem.state
    d, m = povm.dim, povm.num_outcomes
    n = m   # one sub-POVM per outcome
    if d > MAX_SDP_DIM or m > MAX_SDP_OUTCOMES:
        raise ValidationError(f"solver supports d <= {MAX_SDP_DIM}, outcomes <= {MAX_SDP_OUTCOMES}")

    # Facial reduction, then the constraint data A k = b, objective c.k and
    # the start K[x][j] = M_x / n, strictly feasible on the faces.
    bases = _face_bases(povm)
    st = _structure(d, m, n) if bases is None else _Structure(d, m, n, bases)
    elements = st.P[::n] @ np.stack(povm.elements) @ st.P[::n] if st.reduced else povm.elements
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
        rounded = _round_primal(st, b, c, k, value, dual_value - value,
                                st.on_faces(cert.slacks(proj)))
        if rounded is not None:
            k, value = rounded
            better = _round_dual(st, c, k, proj, cfg.tol)
            if better is not None:
                dual_new = better.dual_value(povm)
                if value - 1e-12 <= dual_new <= dual_value:
                    cert, dual_value = better, dual_new

    # Verify the decomposition and the certificate, and gate on the certified gap.
    gap = dual_value - value
    decomposition = Decomposition(st.mats(k).reshape(m, n, d, d))
    report = verify_decomposition(decomposition, povm, tol=1e-8)
    feas = max(report.max_proportionality_violation, report.max_reconstruction_violation,
               report.max_psd_violation)
    if not report.passed:
        raise SolverError(f"decomposition violates its constraints by {feas:.3e} (above 1e-8)")
    check = verify_dual_certificate(cert, state, povm)
    if not check.feasible:
        raise SolverError(f"dual certificate fails its check: least slack eigenvalue "
                          f"{check.min_eig_slack:.3e}, trace {check.max_trace_violation:.1e}")
    if gap < -1e-12 * max(1.0, abs(value)):
        raise SolverError(f"value {value!r} above the certified dual value {dual_value!r}")
    if gap > 20.0 * cfg.tol:
        raise SolverError(f"certified duality gap {gap:.3e} above tolerance {cfg.tol:.1e} "
                          f"(feasibility residual {feas:.3e})")
    return SolveResult(value, decomposition, dual_value, gap, iters, feas, st.reduced, cert)


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
    gamma = (trsqrt / (d * np.sqrt(d)) * np.sqrt((d - 1) / eps)
             * ((np.sqrt(A) - np.sqrt(eps)) / (np.sqrt(A) + np.sqrt(eps))))
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


def verify_dual_certificate(cert: DualCertificate, state: PureState, povm: Povm,
                            tol: float = 1e-9, trace_tol: float = 1e-10) -> DualCheck:
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


def complementary_slackness_residual(decomp: Decomposition, cert: DualCertificate,
                                     state: PureState) -> float:
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


def minimize_over_states(povm: Povm, config: SolverConfig | None = None,
                         value_tol: float = 1e-4, report_ties: bool = False) -> StateSearch:
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
    from scipy.optimize import minimize

    cfg = config or SolverConfig()
    d = povm.dim
    if d > 4:
        raise ValidationError("state search supports d <= 4 at the default budget")
    rng = np.random.default_rng(cfg.seed)
    search_cfg = replace(cfg, tol=max(cfg.tol, 1e-5))

    # States unbiased to the eigenbases of the first two elements, and the
    # uniform state, each kept once.
    seen: list[np.ndarray] = []
    for u in ([np.linalg.eigh(E)[1].sum(axis=1) / np.sqrt(d) for E in povm.elements[:2]]
              + [np.full(d, 1.0 / np.sqrt(d), dtype=complex)]):
        if not any(abs(abs(np.vdot(u, v)) - 1.0) < 1e-12 for v in seen):
            seen.append(u)
    starts = [np.concatenate([u.real, u.imag]) for u in seen]
    starts += [v / np.linalg.norm(v) for v in rng.normal(size=(cfg.multistarts, 2 * d))]

    results = []
    for x0 in starts:
        try:
            res = minimize(_search_objective, x0, (povm, search_cfg), jac=True, method="BFGS")
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
    return StateSearch(best_state, final.value, final, len(starts), len(near) >= 2, ties)
