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
3. follow the barrier path (``_barrier_path``: one loop of Newton steps that
   raises t whenever a stage is centred, one least-norm step back onto
   A k = b in the barrier's metric, and the certificate of the multipliers);
4. polish, with one face and one accept rule: ``_round_primal`` truncates
   each block to the rank of the optimal face and returns to A k = b by
   Gauss-Newton steps, ``_round_dual`` fits the dual to exact
   complementarity on that same face, and the fit is kept only if it
   tightens the bracket [value, dual value];
5. verify the decomposition to 1e-8, the certificate to 1e-9 against the
   POVM as given, and the gap.

Invariants: the slack Y_x - G_j - d_xj P_phi is formed only by ``_slacks``,
multipliers become (Y, G) only through ``_Structure.dual``, and (Y, G) become
a certificate only through ``_dual_certificate``.  Every affine step (Newton
step, drift correction, face rounding, dual polish) is one least-squares
solve through ``_factored``, the one entry to the Newton system; its Schur
path follows Fujisawa, Kojima and Nakata (1997) and SDPT3.  No step length or
stop rule reads a non-finite Newton decrement.

A real POVM at a real state (every imaginary part exactly zero, the state
read after ``PureState``'s phase gauge) is solved on the real-symmetric half
of the Hermitian basis, d(d+1)/2 coordinates per block instead of d^2
(``_Structure``; Gatermann and Parrilo 2004, "Symmetry groups, semidefinite
programs, and sums of squares").  Nothing selects this path but the input
(``_problem_structure``).

The solver needs numpy alone.  Each normal matrix is factored by
``np.linalg.cholesky`` and its factor inverted by 2x2 block recursion
(``_lower_inverse``), so a solve is two matrix-vector products with the
inverse factor.  No path imports scipy, so a cold solve or state search does
not pay scipy's import time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cache, cached_property, partial

import numpy as np

from .decompositions import Decomposition, verify_decomposition
from .linalg import (
    DomainError,
    SolverError,
    ValidationError,
    check_bounds,
    hermitian_part,
    max_abs,
    require_hermitian_stack,
)
from .povm import NoiseModel, Povm, PureState, unbiased_state

MAX_SDP_DIM = 8
MAX_SDP_OUTCOMES = 8

_MU0 = 1.0                   # barrier weight of the first centring stage
_MU_GROWTH = 60.0
_NEWTON_TOL = 1e-10          # squared-decrement/2 at the final barrier stage
_NEWTON_TOL_PATH = 1e-5      # loose centering while t still grows
_ROUND_STEPS = 8             # Gauss-Newton steps of the face rounding

# Lower bound of each SolverConfig field and whether the bound itself is excluded.
_CONFIG_BOUNDS = {"tol": (0, True), "max_iters": (1, False), "multistarts": (0, False),
                  "seed": (0, False)}


@dataclass(frozen=True)
class SolverConfig:
    """Tunables of the interior-point solver and the state search.

    Every field is checked on construction by ``linalg.check_bounds``.
    """

    tol: float = 1e-6
    max_iters: int = 200
    multistarts: int = 32
    seed: int = 7

    def __post_init__(self):
        check_bounds(self, _CONFIG_BOUNDS)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolverConfig":
        if not isinstance(data, dict):
            raise ValidationError("solver config must be a JSON object")
        unknown = sorted(map(repr, set(data) - {f.name for f in fields(cls)}))
        if unknown:
            raise ValidationError(f"unknown solver config key(s): {', '.join(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class DualCertificate:
    """Dual variables {Y_x}, {G_j} with tr G_j = 0 and Y_x >= d_xj P_phi + G_j.

    ``Y`` and ``G`` are read-only complex (m, d, d) and (n, d, d) arrays of one
    dimension d, built from any sequences of square matrices, each validated once.
    """

    Y: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        Y, G = require_hermitian_stack(self.Y, 1e-8), require_hermitian_stack(self.G, 1e-8)
        if Y.shape[1:] != G.shape[1:]:
            raise ValidationError(f"certificate dimensions differ: Y {Y.shape[1]}, G {G.shape[1]}")
        for name, stack in (("Y", Y), ("G", G)):
            stack.setflags(write=False)
            object.__setattr__(self, name, stack)

    def dual_value(self, povm: Povm) -> float:
        return float(sum(np.real(np.trace(Y @ M)) for Y, M in zip(self.Y, povm.elements)))

    def slacks(self, proj: np.ndarray) -> np.ndarray:
        """The slacks Z[x, j] = Y_x - G_j - d_xj proj as an (m, n, d, d) stack.

        The certificate is feasible at the state with projector ``proj`` when
        every slack is PSD and every G_j is traceless.
        """
        return _slacks(self.Y, self.G, proj)


def _slacks(Y: np.ndarray, G: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Z[x, j] = Y_x - G_j - d_xj proj, complex, for stacks Y and G, real or complex."""
    Z = np.subtract(Y[:, None], G[None, :], dtype=complex)
    diag = np.arange(min(len(Y), len(G)))
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
    dual_value: float
    gap: float
    iterations: int
    feasibility_residual: float
    restored: bool   # solved on the faces of rank-deficient elements
    certificate: DualCertificate


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

    With ``real`` (a real POVM at a real state), ``B`` and ``T`` keep only
    the real-symmetric elements, those that complex conjugation fixes: the
    diagonal units or the Gell-Mann diagonals, and the symmetric member of
    each off-diagonal pair, d(d+1)/2 per block instead of d^2 (``dd`` counts
    them).  Conjugation maps such a problem to itself, and so its barrier
    centre, which is unique, to itself: the centre is real.  Split into
    real-symmetric and imaginary-antisymmetric coordinates, the Newton system
    at a real iterate decouples (conjugation preserves A, c and the barrier
    Hessian), and the second part has a zero right-hand side, so each Newton
    step of the full basis is the step of this one, with real faces, real
    scalings and real multipliers.  A real (Y, G) whose slacks are PSD as
    real symmetric matrices is a Hermitian certificate as it stands.

    A touches block (x, j) only through the rows ``tau`` of sub-POVM j and
    the identity rows of outcome x; ``apply_A``/``apply_AT`` use that.
    """

    def __init__(self, d: int, m: int, n: int, bases: list | None = None, real: bool = False):
        self.d, self.m, self.n, self.real = d, m, n, real
        self.B, self.T = hermitian_basis(d), traceless_basis(d)
        if real:   # the diagonals and the first, symmetric member of each off-diagonal pair
            sym = np.r_[np.arange(d), d + 2 * np.arange(d * (d - 1) // 2)]
            self.B, self.T = self.B[sym].real.copy(), self.T[sym[1:] - 1].real.copy()
        self.dd = dd = len(self.B)
        self.nblocks = m * n
        self.nvar = m * n * dd
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
        # Multiplier solve per call, dense -> blockwise, by the Hermitian count m n d^2
        # (microseconds, best of 30 runs, one BLAS thread, 2 vCPUs): 16 (d = m = 2)
        # 28 -> 99, 81 (d = m = 3) 57 -> 122, 225 (d = 5, m = 3) 327 -> 293, 256
        # (d = m = 4) 265 -> 195, 324 (d = 6, m = 3) 862 -> 491, 400 (d = 5, m = 4)
        # 846 -> 354, 625 (d = m = 5) 2605 -> 495.  Near the switch the shape decides:
        # 225 at d = 3, m = 5 reads 186 -> 181 and 256 at d = 2, m = 8 reads 130 -> 153.
        # The rule reads the shape, not nvar, so a real problem takes the path of its
        # Hermitian twin: with the real nvar of 160, d = m = 4 went dense, and
        # noisy_projective(4, 1e-8) at the unbiased state and 7 real Gaussian states
        # (default_rng(104)) verified at tol 1e-6 in 2 of 8 cases instead of 7.
        self.structured = m * n * d * d >= 256

    @cached_property
    def A3(self) -> np.ndarray:
        """Dense constraint matrix as (ncon, nblocks, dd), for the dense path."""
        eye = np.eye(self.ncon)
        return np.stack([self.apply_AT(row) for row in eye])

    @cached_property
    def gram_reg(self) -> np.ndarray | float:
        """``reg`` on the group-2 diagonal of the dense path's (ncon, ncon) Gram matrix."""
        if not self.reduced:
            return 0.0
        n1, outcome = self.group2_start, np.arange(self.m)
        out = np.zeros((self.ncon, self.ncon))
        out[n1:, n1:].reshape(self.m, self.dd, self.m, self.dd)[outcome, :, outcome] = self.reg
        return out

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

    def dual(self, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dual stacks (Y, G), (m, d, d) and (n, d, d), of multipliers ``nu`` in
        constraint-row layout.

        ``mats(apply_AT(nu))[x n + j]`` is Y_x - G_j: the group-2 rows of
        outcome x give Y_x and the group-1 rows of sub-POVM j give -G_j, with
        G_{n-1} = 0 because that family of rows is dropped.
        """
        n1 = self.group2_start
        Y = np.einsum("xa,aij->xij", nu[n1:].reshape(self.m, self.dd), self.B)
        G = np.zeros((self.n, self.d, self.d), dtype=self.T.dtype)
        G[:-1] = -np.einsum("jt,tik->jik", nu[:n1].reshape(self.n - 1, self.s), self.T)
        return Y, G

    def on_faces(self, Z: np.ndarray) -> np.ndarray:
        """P Z P + (I - P) per block: what the faces see of a slack stack, 1 off them."""
        if not self.reduced:
            return Z
        P = self.P.reshape(Z.shape)
        return P @ Z @ P + self.Pi.reshape(Z.shape)

    def coords(self, M: np.ndarray) -> np.ndarray:
        """Coordinates of a matrix, (dd,), or of a stack of them, (k, dd)."""
        return np.einsum("aij,...ji->...a", self.B, M).real

    def mats(self, k: np.ndarray) -> np.ndarray:
        """Coordinates (nblocks, dd) -> stacked matrices (nblocks, d, d)."""
        d = self.d
        return (k @ self.B.reshape(self.dd, d * d)).reshape(-1, d, d)

    def coords_of_stack(self, S: np.ndarray) -> np.ndarray:
        d = self.d
        flat = S.swapaxes(1, 2).reshape(-1, d * d)
        return (flat @ self.B.reshape(self.dd, d * d).T).real


@cache
def _structure(d: int, m: int, n: int, real: bool = False) -> _Structure:
    return _Structure(d, m, n, real=real)


def _face_bases(povm: Povm, real: bool = False) -> list | None:
    """(V, r) per element: eigenvectors with range(M_x) in the last r columns, or None
    when every element has full rank.  Eigenvalues up to 1e-12 of the largest are
    rounding.  With ``real`` the elements' real parts are decomposed, so V is real."""
    w, V = np.linalg.eigh(povm.elements.real if real else povm.elements)
    ranks = np.sum(w > 1e-12 * np.maximum(w[:, -1:], 0.0), axis=1)
    return None if np.all(ranks == povm.dim) else list(zip(V, ranks.tolist()))


def _problem_structure(povm: Povm, state: PureState) -> _Structure:
    """The structure ``solve_primal`` solves (povm, state) on: one sub-POVM per outcome,
    real when every element and the gauge-fixed state amplitudes have imaginary parts
    that are exactly zero, reduced to the faces of rank-deficient elements, and shared
    through the ``_structure`` cache otherwise."""
    d, m = povm.dim, povm.num_outcomes
    real = not (np.any(povm.elements.imag) or np.any(state.amplitudes.imag))
    bases = _face_bases(povm, real)
    return _structure(d, m, m, real) if bases is None else _Structure(d, m, m, bases, real)


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

    On a real structure L, R and every B_a are real symmetric, and the entry
    tr(B_a L B_b R) is vec(L B_a) . vec(B_b R): two real products with the
    stacked basis, then one (dd x d^2 x dd) product per block.  Being real,
    such a sandwich keeps the real-symmetric coordinates among themselves,
    which is why the real structure's Newton system is that of the full
    basis restricted to them.
    """
    nb, d, dd = st.nblocks, st.d, st.dd
    if st.real:
        rows = st.B.reshape(dd * d, d)   # B_a stacked by rows
        LB = (rows @ L).reshape(nb, dd, d, d).swapaxes(2, 3).reshape(nb, dd, d * d)
        return LB @ (rows @ R).reshape(nb, dd, d * d).swapaxes(1, 2)
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


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """The inverse of lower-triangular ``L``, or of each of a stack of them.

    2x2 block recursion: X11 and X22 invert the diagonal blocks and
    X21 = -X22 L21 X11, with ``np.linalg.inv`` at leaves of at most 64 rows.
    This is a stable triangular inversion (Du Croz and Higham 1992; Higham
    2002, 14.2), and on the 245-row Schur complement of a real d = 8, m = 8
    solve it takes a quarter of the time of one ``np.linalg.inv``.  The leaf
    inverse pivots, so the strict upper triangle holds rounding, not exact
    zeros; a solve does not read it as structure.
    """
    n = L.shape[-1]
    if n <= 64:
        return np.linalg.inv(L)
    h = n // 2
    X11, X22 = _lower_inverse(L[..., :h, :h]), _lower_inverse(L[..., h:, h:])
    X = np.zeros_like(L)
    X[..., :h, :h], X[..., h:, h:] = X11, X22
    X[..., h:, :h] = -X22 @ (L[..., h:, :h] @ X11)
    return X


def _cholesky_lower(S: np.ndarray) -> np.ndarray:
    """The inverse Linv of the lower Cholesky factor of symmetric ``S``: S^-1 = Linv^T Linv.

    ``LinAlgError`` means S is singular up to rounding: a pivot is not
    positive (``np.linalg.cholesky`` raises), or the least pivot root is below
    1e-6 of the largest (a factor that passes on such a matrix keeps large
    null-space parts).  A solve is then ``Linv.T @ (Linv @ r)``: two products,
    as numpy has no triangular solve.
    """
    L = np.linalg.cholesky(S)
    root = L.diagonal()   # square roots of the pivots
    if root.min() < 1e-6 * root.max():
        raise np.linalg.LinAlgError("normal matrix singular up to rounding")
    return _lower_inverse(L)


def _scaled_constraints(st: _Structure, Phi: np.ndarray) -> np.ndarray:
    """The dense scaled constraint matrix Atil = A Phi, (ncon, nvar)."""
    return np.matmul(st.A3.transpose(1, 0, 2), Phi).transpose(1, 0, 2).reshape(st.ncon, st.nvar)


def _schur_solver(st: _Structure, Phi: np.ndarray) -> tuple:
    """(Atil, Atil^T, N^-1) as functions for Atil = A Phi, by block elimination of N = Atil Atil^T.

    N = A H A^T, H = blockdiag(Phi_b^2), has the outcome blocks
    D_x = sum_j H_xj on its group-2 diagonal, tau C_j tau^T (C_j = sum_x H_xj)
    on its group-1 diagonal and tau H_xj between sub-POVM j and outcome x.
    The D_x are eliminated by Cholesky, D_x = L_x L_x^T, which leaves the
    Schur complement S = blockdiag(tau C_j tau^T) - sum_x W_x^T W_x with
    W_x = L_x^-1 [H_xj tau^T]_j to factor.  H_xj maps into the face of x, so
    tau H_xj is the faces' row; D_x takes ``reg`` off the face.  Every
    per-outcome operation is one batched product over the (m, dd, dd) stack
    of the inverses L_x^-1, not a loop of triangular solves.  N is definite
    exactly when every D_x and S are, so a failed factor raises
    ``LinAlgError``.  S is held to ``_cholesky_lower``'s rule, the D_x only to
    positive pivots: a D_x can be far worse conditioned than N (least pivot
    root 1e-8 of the largest on noisy_projective(6, 1e-6)) while the
    elimination is sound.
    """
    m, n, dd, n1, s = st.m, st.n, st.dd, st.group2_start, st.s
    tau = st.tau
    H = (Phi @ Phi).reshape(m, n, dd, dd)
    Linv = _lower_inverse(np.linalg.cholesky(H.sum(axis=1) + st.reg))
    tauH = tau @ H[:, : n - 1]   # (m, n-1, s, dd): the rows tau H_xj, H_xj symmetric
    W = Linv @ tauH.reshape(m, n1, dd).swapaxes(1, 2)
    Wf = W.reshape(m * dd, n1)
    S = -(Wf.T @ Wf)
    diag = np.arange(n - 1)
    S.reshape(n - 1, s, n - 1, s)[diag, :, diag] += tauH.sum(axis=0) @ tau.T
    Linv_S = _cholesky_lower(S)

    def solve(r: np.ndarray) -> np.ndarray:
        y = (Linv @ r[n1:].reshape(m, dd, 1))[:, :, 0]
        nu1 = Linv_S.T @ (Linv_S @ (r[:n1] - Wf.T @ y.ravel()))
        nu2 = Linv.swapaxes(1, 2) @ (y - W @ nu1)[:, :, None]
        return np.concatenate([nu1, nu2.ravel()])

    def phi_apply(v: np.ndarray) -> np.ndarray:
        return (Phi @ v.reshape(st.nblocks, dd, 1)).reshape(st.nvar)

    return (lambda v: st.apply_A(phi_apply(v))), (lambda nu: phi_apply(st.apply_AT(nu))), solve


def _factored(st: _Structure, Phi: np.ndarray):
    """Factor the normal matrix of Atil = A Phi once; return its solve(gtil, r=0.0) -> (nu, rtil).

    The solve minimises ||Atil^T nu + gtil|| and returns nu and the residual
    rtil = gtil + Atil^T nu.  With a primal residual ``r``, rtil also meets
    Atil rtil = -r, so the step -Phi rtil adds r to A k; with gtil = 0 it is
    the step s with A s = r of least norm ||Phi^-1 s||.

    N = Atil Atil^T is factored densely as the Gram matrix plus ``gram_reg``,
    or from ``st.structured`` on by block elimination (``_schur_solver``),
    and the solve is the corrected seminormal sweep on that factor
    (``_seminormal``).  When N is singular up to rounding
    (``_cholesky_lower``), the solve returns the minimum-norm nu instead.
    A solve serves every gradient and residual at this Phi.
    """
    try:
        if st.structured:
            fwd, back, solve = _schur_solver(st, Phi)
        else:
            Atil = _scaled_constraints(st, Phi)
            Linv = _cholesky_lower(Atil @ Atil.T + st.gram_reg)
            fwd, back = Atil.__matmul__, Atil.T.__matmul__

            def solve(rhs: np.ndarray) -> np.ndarray:
                return Linv.T @ (Linv @ rhs)
    except np.linalg.LinAlgError:
        Atil = _scaled_constraints(st, Phi)

        def min_norm(gtil: np.ndarray, r: np.ndarray | float = 0.0) -> tuple:
            # The least-norm z with Atil z = r is the part of -rtil that meets r.
            z = np.linalg.lstsq(Atil, r, rcond=None)[0] if np.any(r) else 0.0
            nu = np.linalg.lstsq(Atil.T, -(gtil + z), rcond=None)[0]
            return nu, gtil + Atil.T @ nu

        return min_norm
    return partial(_seminormal, fwd, back, solve)


def _seminormal(fwd, back, solve, gtil: np.ndarray,
                r: np.ndarray | float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """One sweep of the corrected seminormal equations (Bjorck 1987): a solve with the
    factor of N = Atil Atil^T and one refinement, for (nu, rtil = gtil + Atil^T nu)."""
    nu = solve(-(fwd(gtil) + r))
    nu = nu - solve(fwd(gtil + back(nu)) + r)
    return nu, gtil + back(nu)


def _dual_certificate(st: _Structure, Y: np.ndarray, G: np.ndarray, proj: np.ndarray,
                      tol: float) -> DualCertificate:
    """The dual certificate of (Y, G): shifted to feasibility on the faces, then lifted.

    The least uniform shift of every Y_x on its face makes the face slacks
    P_x Z[x][j] P_x PSD, however far off they are: whether the result is
    worth keeping is the caller's bracket to decide.  On a reduced face the
    lift Y_x += delta P_x + lam_x (I - P_x) makes the whole slack PSD:
    delta = tol / 2d makes its face block A definite, and lam_x is twice the
    largest eigenvalue of C^H A^-1 C - D over j (C, D: the cross and
    off-face blocks), which keeps an eigenvalue margin near delta / 2.  As
    tr M_x (I - P_x) = 0, the dual value rises by at most delta d = tol / 2,
    while |Y| grows like 1 / delta.  Y and G are the stacks of ``_Structure.dual``,
    Hermitian as built.
    """
    min_slack = float(np.min(np.linalg.eigvalsh(st.on_faces(_slacks(Y, G, proj)))))
    shift = -min_slack + 1e-15 if min_slack < 0.0 else 0.0
    delta = tol / (2.0 * st.d) if st.reduced else 0.0
    Y = Y + (shift + delta) * st.P[:: st.n]
    for x, (V, r) in enumerate(st.bases):
        if r < st.d:
            Z = _slacks(Y, G, proj)[x]
            Vf, Vo = V[:, st.d - r :], V[:, : st.d - r]
            A, C = Vf.conj().T @ Z @ Vf, Vf.conj().T @ Z @ Vo
            deficit = C.conj().swapaxes(1, 2) @ np.linalg.solve(A, C) - Vo.conj().T @ Z @ Vo
            lam = np.max(np.linalg.eigvalsh(0.5 * (deficit + deficit.conj().swapaxes(1, 2))))
            Yx = Y[x] + (2.0 * max(lam, 0.0) + delta) * st.Pi[x * st.n]
            Y[x] = 0.5 * (Yx + Yx.conj().T)   # at |Y| ~ 1e9 rounding asymmetry passes 1e-8
    return DualCertificate(Y, G)


def _step_length(X: np.ndarray, lam2: float) -> float:
    """The step length that minimises the barrier along a Newton step.

    For the eigenvalues mu of the scaled step X = mats(rtil), whose squares
    sum to lam2, the barrier moves by phi(a) = -a (lam2 + sum mu) -
    sum log(1 - a mu) (see ``_barrier_path``), with phi'(0) = -lam2 and
    phi''(0) = lam2.  From lam2 < 1/16 the full step a = 1 is taken without
    forming mu: every |mu| < 1/4, so it stays inside the cone, and the stage
    stop rule relies on it.  Otherwise a is the minimiser of phi on
    (0, 0.9 / max mu]: the cap itself when phi'(cap) <= 0, else found by
    damped Newton on phi, which is self-concordant (Nesterov and Nemirovski
    1994).  Each iterate a -= delta / (1 + |delta| sqrt phi''),
    delta = phi' / phi'', stays inside the cone and lowers phi; the first one
    from a = 0 is 1 / (1 + sqrt lam2), and the search stops once
    |phi'| <= lam2 / 100, a hundredth of its slope at 0.  mu is finite:
    ``_barrier_path`` raises on a non-finite lam2 first.
    """
    if lam2 < 1.0 / 16.0:
        return 1.0
    mu = np.linalg.eigvalsh(X).ravel()
    top = mu.max()
    cap = 0.9 / top if top > 0.0 else np.inf
    slope = lam2 + mu.sum()
    if top > 0.0 and np.sum(mu / (1.0 - cap * mu)) <= slope:   # phi'(cap) <= 0
        return cap
    alpha = 1.0 / (1.0 + np.sqrt(lam2))
    # The test draws take at most 24 iterates; one cut short still has phi < 0.
    for _ in range(50):
        q = mu / (1.0 - alpha * mu)
        grad = q.sum() - slope
        if abs(grad) <= 0.01 * lam2:
            break
        curvature = float(q @ q)
        delta = grad / curvature
        alpha = min(alpha - delta / (1.0 + abs(delta) * np.sqrt(curvature)), cap)
    return alpha


def _barrier_path(
    st: _Structure, povm: Povm, b: np.ndarray, c: np.ndarray, k0: np.ndarray,
    proj: np.ndarray, cfg: SolverConfig,
) -> tuple[np.ndarray, DualCertificate, float, float, int]:
    """Follow the central path from k0 to t_final, then correct the drift off A k = b.

    One loop of Newton steps on t c.k - log det K over A k = b.  In the scaled
    space where the barrier Hessian is the square of Phi^-1 (``_scaling``) the
    step is a plain least-squares solve, which stays accurate as K approaches
    the boundary.  On the faces K + alpha Delta = R (1 - alpha X) R with
    X = mats(rtil), so for the eigenvalues mu of X (|mu| <= sqrt(lam2)) the
    step stays definite while alpha max mu < 1 and moves the barrier by
    -alpha (lam2 + sum mu) - sum log(1 - alpha mu): the log det part exactly,
    the linear part as the Newton model's slope, since late in the path
    t c.Delta is neither exact nor resolvable beside t c.k.  alpha minimises
    that change (``_step_length``), and is 1 from lam2 < 1/16.

    A stage stops at lam2 / 2 <= ``_NEWTON_TOL_PATH``, or ``_NEWTON_TOL``
    once t = t_final, or when a step from lam2 < 1/16 cut lam2 by less than
    4x.  The barrier is self-concordant (Nesterov and Nemirovski 1994; Boyd
    and Vandenberghe 2004, 9.6), so from lam < 1/4 a full step leaves
    lam2+ <= lam2^2 / (1 - lam)^4 < lam2 / 5: a smaller cut means the steps
    move only rounding.  Then t grows by ``_MU_GROWTH`` up to t_final, where
    the gap bound m n d / t is a quarter of cfg.tol.  A non-finite lam2 raises
    ``SolverError`` before the stop rule reads it, since no step length mends
    such a step and no stop rule may take it for rounding; so does a step
    beyond cfg.max_iters.

    Each Phi is factored once (``_factored``): the next stage and the drift
    correction reuse the factored system, and it is dropped before the step,
    so one factorization's arrays are alive at a time.  A solve with
    polish=False thus factors iterations + 1 times.

    Rounding leaves the last centre slightly off A k = b; the correction is
    the least-norm step s onto it in the barrier's metric (gtil = 0), which
    keeps K definite while ||Phi^-1 s|| < 1 (the Dikin ellipsoid).  Returns
    (k, cert, value, dual_value, iterations).
    """
    nblocks, dd = st.nblocks, st.dd
    cblocks = c.reshape(nblocks, dd, 1)
    t_final = st.m * st.n * st.d / (0.25 * cfg.tol)
    t, k, iters, lam2_prev = _MU0, k0, 0, np.inf
    Phi = _scaling(st, k)
    system = _factored(st, Phi)
    while True:
        # Scaled gradient: Phi g = -t Phi c - coords(P), the identity of each face.
        gtil = (-t * (Phi @ cblocks)[:, :, 0] - st.eye_coords).reshape(st.nvar)
        nu, rtil = system(gtil)
        lam2 = float(np.dot(rtil, rtil))
        if not np.isfinite(lam2):
            raise SolverError(f"line search found no step into the cone "
                              f"(newton decrement^2={lam2:.3e})")
        final = t >= t_final
        if (lam2 / 2.0 <= (_NEWTON_TOL if final else _NEWTON_TOL_PATH)
                or (lam2_prev < 1.0 / 16.0 and lam2 > lam2_prev / 4.0)):
            if final:
                break
            t, lam2_prev = min(t * _MU_GROWTH, t_final), np.inf
            continue
        lam2_prev = lam2
        system = None   # the next Phi's factor is formed after the step
        alpha = _step_length(st.mats(rtil.reshape(nblocks, dd)), lam2)
        k = k - alpha * (Phi @ rtil.reshape(nblocks, dd, 1))[:, :, 0]
        iters += 1
        if iters > cfg.max_iters:
            raise SolverError(f"interior-point iteration cap {cfg.max_iters} exceeded "
                              f"(t={t:.3e}, newton decrement^2={lam2:.3e})")
        Phi = _scaling(st, k)
        system = _factored(st, Phi)
    rtil = system(np.zeros(st.nvar), b - st.apply_A(k))[1]
    k = k - (Phi @ rtil.reshape(nblocks, dd, 1))[:, :, 0]
    # At the central point -t c - svec(K^-1) + A^T nu = 0 on the faces, so nu / t
    # are dual multipliers.
    Y, G = st.dual(nu)
    cert = _dual_certificate(st, Y / t, G / t, proj, cfg.tol)
    return k, cert, float(np.dot(c, k.reshape(st.nvar))), cert.dual_value(povm), iters


def _round_primal(
    st: _Structure, b: np.ndarray, c: np.ndarray, k: np.ndarray, value: float, gap: float,
    slacks: np.ndarray,
) -> tuple[np.ndarray, float, np.ndarray] | None:
    """Round the center onto the optimal face identified by the dual slacks.

    The optimal K[x][j] lives in the near-kernel of the slack Z[x][j]
    (eigenvalues below sqrt(gap), relative), so each block is truncated to
    rank d - rank(Z[x][j]); ``slacks`` are those the faces see, whose
    eigenvalue 1 off a face drops the eigenvalue -1 of K - (I - P).
    Gauss-Newton on that fixed-rank set restores A k = b (Absil, Mahony and
    Sepulchre 2008, ch. 8): each step is one ``_factored`` solve with Phi the
    projection X -> P X P - D X D onto the tangent space, D projecting onto
    each block's dropped eigenvectors on its face, and a truncation follows.
    This is the polish's one choice of face: (k, value, Q) is returned, Q
    projecting each block onto the eigenvectors its last truncation kept,
    only if k verifies and does not lower the value.
    """
    d = st.d
    tau = max(np.sqrt(max(gap, 0.0)), 1e-9)
    w = np.linalg.eigvalsh(slacks).reshape(st.nblocks, d)
    ranks = d - np.sum(w < tau * np.maximum(1.0, w[:, -1:]), axis=1)
    drop = np.arange(d) < ranks[:, None]   # the rank(Z) smallest eigenvalues of each block
    kv = k
    for step in range(_ROUND_STEPS + 1):   # each step is followed by a truncation
        w, V = np.linalg.eigh(st.mats(kv) - st.Pi)
        on_face = w > -0.5
        w[drop] = 0.0
        kv = st.coords_of_stack((V * np.maximum(w, 0.0)[:, None, :]) @ V.conj().swapaxes(1, 2))
        r = b - st.apply_A(kv)
        if max_abs(r) <= 1e-13 or step == _ROUND_STEPS:
            break
        Vd = V * (drop & on_face)[:, None, :]
        D = Vd @ Vd.conj().swapaxes(1, 2)
        Phi = st.S - _sandwich(st, D, D)
        rtil = _factored(st, Phi)(np.zeros(st.nvar), r)[1]
        kv = kv - (Phi @ rtil.reshape(st.nblocks, st.dd, 1))[:, :, 0]
    feas = max_abs(r)
    min_eig = float(np.min(np.linalg.eigvalsh(st.mats(kv))))
    value_new = float(np.dot(c, kv.reshape(st.nvar)))
    if feas > 1e-11 or min_eig < -1e-11 or value_new < value:
        return None
    Vk = V * (~drop & on_face)[:, None, :]
    return kv, value_new, Vk @ Vk.conj().swapaxes(1, 2)


def _round_dual(
    st: _Structure, c: np.ndarray, Q: np.ndarray, proj: np.ndarray, tol: float
) -> DualCertificate:
    """Fit (Y, G) to exact complementarity on the face that ``_round_primal`` chose.

    Minimises sum ||P Z[x][j] v||^2 over the vectors v in the range of Q,
    the projectors onto the populated eigenvectors of the rounded K[x][j],
    and P the face projector; that is ||Phi (A^T nu - c)||^2, Phi the root
    of X -> (P X Q + Q X P)/2, so it is the Newton step's multiplier solve.
    ``_dual_certificate`` shifts and lifts the fit, whatever its quality:
    ``solve_primal``'s bracket is the one rule that accepts it.
    """
    # Phi X = (1 - sqrt 2) Q X Q + (Q X P + P X Q)/sqrt 2; coords keeps the Hermitian
    # part, so the matrices of X -> Q X P and X -> P X Q agree.
    Phi = (1.0 - np.sqrt(2.0)) * _sandwich(st, Q, Q) + np.sqrt(2.0) * _sandwich(st, Q, st.P)
    gtil = -(Phi @ c.reshape(st.nblocks, st.dd, 1)).reshape(st.nvar)
    Y, G = st.dual(_factored(st, Phi)(gtil)[0])
    return _dual_certificate(st, Y, G, proj, tol)


def solve_primal(
    povm: Povm, state: PureState, config: SolverConfig | None = None, polish: bool = True
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
    if state.dim != povm.dim:
        raise ValidationError("state and POVM dimensions differ")
    d, m = povm.dim, povm.num_outcomes
    if d > MAX_SDP_DIM or m > MAX_SDP_OUTCOMES:
        raise ValidationError(f"solver supports d <= {MAX_SDP_DIM}, outcomes <= {MAX_SDP_OUTCOMES}")

    # Facial reduction and the real flag, then the constraint data A k = b,
    # objective c.k and the start K[x][j] = M_x / n, strictly feasible on the faces.
    st = _problem_structure(povm, state)
    n = st.n
    elements = st.P[::n] @ povm.elements @ st.P[::n] if st.reduced else povm.elements
    coords = st.coords(elements)
    b = np.concatenate([np.zeros(st.group2_start), coords.ravel()])
    proj = state.projector()
    c = np.zeros((m, n, st.dd))
    diag = np.arange(min(m, n))
    c[diag, diag] = st.coords(proj)
    c = c.ravel()
    k0 = np.repeat(coords[:, None] / n, n, axis=1).reshape(st.nblocks, st.dd)

    k, cert, value, dual_value, iters = _barrier_path(st, povm, b, c, k0, proj, cfg)

    # Polish: one face, from the rounding, and one accept rule, the bracket: the
    # fitted dual is kept only if it tightens the certified bracket.
    if polish:
        rounded = _round_primal(st, b, c, k, value, dual_value - value,
                                st.on_faces(cert.slacks(proj)))
        if rounded is not None:
            k, value, Q = rounded
            better = _round_dual(st, c, Q, proj, cfg.tol)
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
    Y, G = np.empty((2, d, d, d), dtype=complex)
    for x in range(d):
        ex = eye[x]
        one_not_x = eye - np.outer(ex, ex)
        psi_not_x = (psi - psi[x] * ex)
        psi_not_x = psi_not_x / np.linalg.norm(psi_not_x)
        Tx = -gamma * (np.outer(ex, psi_not_x) + np.outer(psi_not_x, ex))
        inv_sqrt_Mx = np.sqrt(d / A) * np.outer(ex, ex) + np.sqrt(d / eps) * one_not_x
        Y[x] = trsqrt / d**2 * inv_sqrt_Mx + Tx
        sqrt_Mx_psi = sqrt_eps_d * psi + (sqrtA_d - sqrt_eps_d) * psi[x] * ex
        G[x] = (Tx
                - (d - 1) / d * proj_psi
                - alpha * (one_not_x - np.outer(psi_not_x, psi_not_x))
                + beta * (eye - d * np.outer(sqrt_Mx_psi, sqrt_Mx_psi)))
    return DualCertificate(Y, G)


def verify_dual_certificate(cert: DualCertificate, state: PureState, povm: Povm,
                            tol: float = 1e-9, trace_tol: float = 1e-10) -> DualCheck:
    """Check tr G_j = 0 and PSD-ness of every slack Y_x - d_xj P_phi - G_j.

    A feasible certificate makes its dual value a valid upper bound on the
    guessing probability at the given state.  Slacks asymmetric beyond 1e-8
    raise ``ValidationError``; the rest are checked on their Hermitian part.
    """
    if cert.Y.shape != povm.elements.shape or state.dim != povm.dim:
        raise ValidationError("certificate shape does not match the POVM")
    Z = hermitian_part(cert.slacks(state.projector()), 1e-8, "dual slack")
    min_eig = float(np.min(np.linalg.eigvalsh(Z)))
    max_trace = max_abs(np.trace(cert.G, axis1=1, axis2=2).real)
    feasible = (min_eig >= -tol) and (max_trace <= trace_tol)
    return DualCheck(cert.dual_value(povm), feasible, min_eig, max_trace)


def complementary_slackness_residual(decomp: Decomposition, cert: DualCertificate,
                                     state: PureState) -> float:
    """max over (x, j) of the max-norm of K[x][j] (Y_x - d_xj P_phi - G_j)."""
    if decomp.K.shape != cert.Y.shape[:1] + cert.G.shape:   # (m, n, d, d)
        raise ValidationError("decomposition and certificate shapes differ")
    if state.dim != decomp.dim:
        raise ValidationError("state dimension mismatch")
    return max_abs(decomp.K @ cert.slacks(state.projector()))


# ---------------------------------------------------------------------------
# Minimization over input states
# ---------------------------------------------------------------------------


_GTOL = 1e-5                 # BFGS stops at |gradient|_inf <= _GTOL (scipy's gtol)
_WOLFE = (1e-4, 0.9)         # Armijo and curvature constants of the BFGS line search
_LINE_TRIALS = 40            # trial steps per BFGS line search


@dataclass(frozen=True)
class StartRecord:
    """What one start of the state search did.

    The ``solves`` loose solves that returned took ``newton_steps`` Newton
    steps in all.  A failed start, ended by a ``SolverError``, has no
    ``iterations`` and no ``value``.
    """

    iterations: int | None
    solves: int
    newton_steps: int
    value: float | None
    failed: bool


@dataclass(frozen=True)
class StateSearch:
    """Best state found by the multistart search and its certified value."""

    state: PureState
    solve: SolveResult
    converged: bool
    records: tuple[StartRecord, ...]

    @property
    def value(self) -> float:
        return self.solve.value

    @property
    def starts(self) -> int:
        """The starts tried, failed ones included: one record each."""
        return len(self.records)


def _state_from_params(x: np.ndarray, d: int) -> tuple[np.ndarray, PureState]:
    """The unnormalized vector v = x[:d] + i x[d:] and its normalized state."""
    v = x[:d] + 1j * x[d:]
    norm = np.linalg.norm(v)
    if norm < 1e-8:
        raise SolverError("state search reached the zero vector")
    return v, PureState(v / norm)


def _search_objective(x: np.ndarray, povm: Povm,
                      config: SolverConfig) -> tuple[float, np.ndarray, int]:
    """Loose guessing probability at v = x[:d] + i x[d:], its exact gradient in x
    and the Newton steps of the solve.

    The value f = <v|S|v> / |v|^2, with S = sum_j K[j][j] of the returned
    decomposition, is a maximum over a feasible set that does not depend on
    the state, so by the envelope (Danskin) theorem its gradient with respect
    to v is 2 (S v - f v) / |v|^2 and costs nothing beyond the solve.
    """
    v, state = _state_from_params(x, povm.dim)
    res = solve_primal(povm, state, config, polish=False)
    S = np.einsum("jjab->ab", res.decomposition.K)
    grad = 2.0 * (S @ v - res.value * v) / np.vdot(v, v).real
    return res.value, np.concatenate([grad.real, grad.imag]), res.iterations


def _bfgs(fun, x0: np.ndarray, ftol: float) -> tuple[np.ndarray, float, int]:
    """Minimize ``fun(x) -> (value, gradient)`` by BFGS from x0 and H0 = I.

    The inverse-Hessian update is that of Nocedal and Wright (2006, ch. 6),
    skipped when y.s <= 0.  The line search is the weak-Wolfe bisection of
    Lewis and Overton (2013): a trial a accepts once f(x + a p) <= f + c1 a g.p
    (Armijo) and g(x + a p).p >= c2 g.p (weak curvature); an Armijo failure
    caps a, a curvature failure floors it, and a doubles until it is capped,
    then bisects.  Every trial is one call of ``fun``, which returns the
    gradient with the value.  The first trial is min(1, 1.01 / |g|), later
    ones are 1.

    Stops at |g|_inf <= ``_GTOL``, or before a trial whose predicted
    decrease -a g.p is at most ``ftol``, which the value cannot resolve, or
    after ``_LINE_TRIALS`` trials of one line search, or after 200 len(x0)
    iterations.  A line search that stops moves to its last Armijo point, if
    any.  Returns (x, value, iterations).
    """
    c1, c2 = _WOLFE
    x, (f, g) = x0, fun(x0)
    H = np.eye(x0.size)
    max_iters = 200 * x0.size
    for it in range(max_iters):
        if max_abs(g) <= _GTOL:
            return x, f, it
        p = -(H @ g)
        slope = float(g @ p)
        lo, hi, alpha = 0.0, np.inf, 1.0 if it else min(1.0, 1.01 / np.linalg.norm(g))
        step, wolfe = None, False   # the last trial that passed Armijo
        for _ in range(_LINE_TRIALS):
            if -alpha * slope <= ftol:
                break
            x_new = x + alpha * p
            f_new, g_new = fun(x_new)
            if f_new > f + c1 * alpha * slope:
                hi = alpha
            else:
                step, wolfe = (x_new, f_new, g_new), g_new @ p >= c2 * slope
                if wolfe:
                    break
                lo = alpha
            alpha = 2.0 * alpha if hi == np.inf else 0.5 * (lo + hi)
        if step is None:
            return x, f, it
        x_new, f, g_new = step
        s, y = x_new - x, g_new - g
        x, g = x_new, g_new
        if not wolfe:
            return x, f, it + 1
        ys = float(y @ s)
        if ys > 0.0:
            Hy = H @ y
            H = H + ((1.0 + (y @ Hy) / ys) * np.outer(s, s) - np.outer(Hy, s) - np.outer(s, Hy)) / ys
    return x, f, max_iters


def minimize_over_states(povm: Povm, config: SolverConfig | None = None) -> StateSearch:
    """Minimize the guessing probability over pure input states.

    Deterministic multistart (eigenbasis-unbiased and uniform states plus
    seeded random ones), each refined by BFGS (``_bfgs``) on the real
    embedding x -> v = x[:d] + i x[d:] of the unnormalized state.  Every
    trial step costs one loose, unpolished solve, which also yields the exact
    gradient: the smoothed value is a maximum over a feasible set that does
    not depend on the state, so the envelope theorem applies (see
    ``_search_objective``).

    The line search accepts on Armijo (c1 = 1e-4) and the weak curvature
    condition (c2 = 0.9): it doubles the step until the curvature condition
    holds and then bisects the bracket, at most 40 trials, the first trial of
    a start being min(1, 1.01 / |g|) and every later one 1.  A start stops at
    |g|_inf <= 1e-5, when a trial's predicted decrease -a g.p falls to a tenth
    of the loose solves' tolerance, which their values cannot resolve, or
    after 200 * 2d iterations.

    A start whose solve fails ends there and is left out.  The returned value
    is re-solved at full precision at the best state; the result is flagged
    not converged when only a single start came within 1e-4 of it.
    ``records`` holds one ``StartRecord`` per start, in start order.  The
    search's one dimension limit is ``solve_primal``'s, whose
    ``ValidationError`` the first solve raises.
    """
    cfg = config or SolverConfig()
    d = povm.dim
    rng = np.random.default_rng(cfg.seed)
    search_cfg = replace(cfg, tol=max(cfg.tol, 1e-5))

    # States unbiased to the eigenbases of the first two elements, and the
    # uniform state, each kept once.
    seen: list[np.ndarray] = []
    for u in [*np.linalg.eigh(povm.elements[:2])[1].sum(axis=2) / np.sqrt(d),
              np.full(d, 1.0 / np.sqrt(d), dtype=complex)]:
        if not any(abs(abs(np.vdot(u, v)) - 1.0) < 1e-12 for v in seen):
            seen.append(u)
    starts = [np.concatenate([u.real, u.imag]) for u in seen]
    starts += [v / np.linalg.norm(v) for v in rng.normal(size=(cfg.multistarts, 2 * d))]

    steps: list[int] = []   # Newton steps of each loose solve of the current start

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad, newton_steps = _search_objective(x, povm, search_cfg)
        steps.append(newton_steps)
        return value, grad

    results, records = [], []
    for x0 in starts:
        steps.clear()
        try:
            x, value, iterations = _bfgs(objective, x0, search_cfg.tol / 10.0)
        except SolverError:
            records.append(StartRecord(None, len(steps), sum(steps), None, True))
            continue
        records.append(StartRecord(iterations, len(steps), sum(steps), value, False))
        results.append((value, _state_from_params(x, d)[1]))
    if not results:
        raise SolverError("state search produced no valid candidate")
    results.sort(key=lambda item: item[0])
    best_value, best_state = results[0]
    final = solve_primal(povm, best_state, cfg)
    near = sum(val <= best_value + 1e-4 for val, _ in results)
    return StateSearch(best_state, final, near >= 2, tuple(records))
