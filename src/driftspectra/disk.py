"""Drift Laplacian on 2-D geodesic disks with metric dt^2 + J^2 dtheta^2.

The diffusion part is discretized in conservative flux form on a
cell-centered polar grid (no node at the origin): radial fluxes use face
averages of J, the inner face at t=0 carries zero flux because J vanishes
there, and the Dirichlet condition at t=r0 enters through an antisymmetric
ghost value.  The drift's centered differences run over the same faces;
the ghost behind the first ring is the antipodal cell (t0, theta+pi).

Every five-point system of the 2-D layer is assembled and factored by one
recipe: the operator and the weighted Rayleigh pencil of `bounds`, solved
here, and the `w_u`/`G` systems of `bounds`, pinned in place (the pinned
cell's row and column are the identity's).  Per grid and process,
`_grid` caches the grid's full stencil (five-point, periodic in theta,
with the antipodal couplings of ring 0) as one sorted ring-major CSR
pattern, its elimination order `grid_order` (SuperLU's minimum degree,
`MMD_AT_PLUS_A`, on the stencil numbered from the wall inward) and the
pattern in that order.  Assembly writes face values into every slot of
the pattern, an absent coupling or a cancelled entry as a stored zero,
with no sort or sum of duplicates; `in_grid_order` gathers the data into
the grid's order, masking out the stored zeros, for `splu` with
`SUPERLU_OPTIONS`: natural column order, no relaxed supernodes and
one-column panels (SuperLU's defaults store relaxed zeros on five-point
grids and factor slower).  A disk without radial drift has
no antipodal couplings, and minimum degree on its own pattern leaves more
fill: the grid's order cuts the L+U nonzeros from 270,428 to 214,160 at
96 x 64 and from 1.52M to 1.09M at 192 x 128, and the factor time from
about 105 to 61 ms; a swirled kappa = 0.3 disk keeps its 217,214 at
96 x 64, against 286,551 ring-major with SuperLU's defaults (Demmel,
Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 20, 1999;
X. S. Li, ACM TOMS 31, 2005).

One inverse iteration, `principal_eigenpair_2d`, gives every principal
pair: of the operator (S = A, M = I) and of the weighted Rayleigh pencils
K v = lambda M v of `bounds` (M the lumped mass, 0 at a ball's origin
node).  One LU factor of S advances right and left vectors, for a
two-sided eigenvalue accurate to the product of their errors and the
adjoint pair at no extra factorization.  Every pencil stops on the steps
of its vectors (at max 1), which are their relative residuals without
the roundoff floor of a product with S, so the test depends on neither
the disk's size nor its grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu

from .errors import ConvergenceError, NonPrincipalModeError, SolverError
from .geometry import ModelBall

DEFAULT_NT = 192
DEFAULT_NTHETA = 128
DEFAULT_TOL = 1e-6
MAXITER = 400  # iteration budget of `principal_eigenpair_2d`
SUPERLU_OPTIONS = {"permc_spec": "NATURAL", "relax": 1, "panel_size": 1}


@dataclass(frozen=True)
class PolarGrid:
    """Cell-centered polar grid: radii (j+1/2) dt, angles 2 pi l / n_theta."""

    n_t: int
    n_theta: int
    r0: float

    def __post_init__(self):
        if self.n_t < 4 or self.n_theta < 8:
            raise ValueError("grid too coarse: need n_t >= 4 and n_theta >= 8")
        if self.n_theta % 2 != 0:
            raise ValueError("n_theta must be even (antipodal ghost across the origin)")
        if self.r0 <= 0:
            raise ValueError("radius must be positive")

    @property
    def dt(self) -> float:
        return self.r0 / self.n_t

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n_theta

    def radii(self) -> np.ndarray:
        return (np.arange(self.n_t) + 0.5) * self.dt

    def angles(self) -> np.ndarray:
        return np.arange(self.n_theta) * self.dtheta

    def mesh(self):
        return np.meshgrid(self.radii(), self.angles(), indexing="ij")

    def sample(self, f) -> np.ndarray:
        """Cell-centre values of f(t, theta); zeros when f is None."""
        T, TH = self.mesh()
        return np.zeros_like(T) if f is None else np.asarray(f(T, TH), dtype=float) * np.ones_like(T)

    @property
    def size(self) -> int:
        return self.n_t * self.n_theta


@dataclass(eq=False)
class DiskProblem:
    """Metric coefficient and drift components sampled at cell centers.

    The vector field is V = Vt * d/dt + Vtheta * d/dtheta, so its pairing
    with a gradient is Vt u_t + Vtheta u_theta and the radial component
    h1 = g(V, d/dt) equals Vt.
    """

    grid: PolarGrid
    J: np.ndarray
    Vt: np.ndarray
    Vtheta: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n_t, self.grid.n_theta)
        self.J = np.asarray(self.J, dtype=float)
        self.Vt = np.asarray(self.Vt, dtype=float)
        self.Vtheta = np.asarray(self.Vtheta, dtype=float)
        for name, arr in (("J", self.J), ("Vt", self.Vt), ("Vtheta", self.Vtheta)):
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite everywhere")
        if np.any(self.J <= 0.0):
            raise ValueError("metric coefficient J must be positive everywhere")
        # J/t at t = 0 from the first three rings (exact for J/t quadratic in t)
        ratio = self.J[:3, :] / self.grid.radii()[:3, None]
        at0 = 1.875 * ratio[0] - 1.25 * ratio[1] + 0.375 * ratio[2]
        if np.any(np.abs(at0 - 1.0) > 0.05):
            raise ValueError(
                "J does not behave like t near the origin (J/t at t = 0 off by more than 5%)"
            )

    def with_drift(self, Vt=None, Vtheta=None) -> "DiskProblem":
        zero = np.zeros_like(self.J)
        return DiskProblem(self.grid, self.J,
                           zero if Vt is None else Vt,
                           zero if Vtheta is None else Vtheta)


@dataclass(eq=False)
class EigenPair2D:
    """Principal eigenvalue with its right (omega) and left vectors.

    As `principal_eigenpair_2d` guarantees: both vectors are strictly
    positive with max 1, `residual` and `left_residual` (the last steps
    max|v_k - v_(k-1)| of the right and left vectors) are below the solve's
    tolerance, and lam > 0.  Callers rely on this and do not test it again.
    """

    lam: float
    omega: np.ndarray
    residual: float
    iterations: int
    left: np.ndarray
    left_residual: float
    restarts: int = 0


def volumes(p: DiskProblem) -> np.ndarray:
    return (p.J * p.grid.dt * p.grid.dtheta).ravel()


def _outer_face_value(field: np.ndarray) -> np.ndarray:
    """Linear extrapolation of a cell field to the boundary face."""
    val = 1.5 * field[-1, :] - 0.5 * field[-2, :]
    return np.maximum(val, 0.5 * np.minimum(field[-1, :], field[-2, :]))


def _sides(radial: np.ndarray, angular: np.ndarray) -> list:
    """Interior faces in two families: radial (j, j+1), angular (l, l+1) with wrap.

    Each family is (fa, fb): its cell field on the sides a and b of its faces.
    """
    return [(radial[:-1, :], radial[1:, :]), (angular, np.roll(angular, -1, axis=1))]


def _stiffness(p: DiskProblem, cellweight, dirichlet: bool) -> tuple:
    """Face weights (radial, angular) and diagonal of the weighted stiffness.

    A cell's diagonal adds its outward, inward, right, left and wall weights
    in that order, the order of the face-by-face sum in the tests' oracle.
    """
    dt, dth = p.grid.dt, p.grid.dtheta
    W = np.ones_like(p.J) if cellweight is None else np.asarray(cellweight, dtype=float)
    (rfa, rfb), (afa, afb) = _sides(W * p.J, W / p.J)
    wr, wa = 0.5 * (rfa + rfb) * dth / dt, 0.5 * (afa + afb) * dt / dth
    diag = np.zeros_like(p.J)
    diag[:-1, :] += wr
    diag[1:, :] += wr
    diag += wa
    diag += np.roll(wa, 1, axis=1)
    if dirichlet:
        diag[-1, :] += 2.0 * _outer_face_value(W * p.J) * dth / dt
    return wr, wa, diag


def _drift_fluxes(p: DiskProblem, cellweight, mean: bool = False) -> list:
    """Per face family, the cell drift flux W J g(V, n) times half the face
    length on the sides (a, b) of its faces, or their sum with `mean`."""
    W = np.asarray(cellweight, dtype=float)
    sides = zip(_sides(W * p.Vt * p.J, W * p.Vtheta * p.J), (p.grid.dtheta, p.grid.dt))
    if mean:
        return [0.5 * (fa + fb) * h for (fa, fb), h in sides]
    return [(0.5 * fa * h, 0.5 * fb * h) for (fa, fb), h in sides]


def face_forms(p: DiskProblem, cellweight, v) -> list:
    """(w, c, d) per face family (`_sides`), d = v_a - v_b: int W |grad v|^2 dM =
    sum w d^2 (natural walls) and int W g(V, grad v) dM = -sum c d (no term on
    boundary faces: the weight vanishes at the wall and J at the origin)."""
    V = np.reshape(v, p.J.shape)
    return [(w, c, va - vb) for w, c, (va, vb) in zip(_stiffness(p, cellweight, False)[:2],
                                                      _drift_fluxes(p, cellweight, mean=True),
                                                      _sides(V, V))]


def _on_stencil(p: DiskProblem, diag, radial, angular, antipodal=None) -> sp.csr_matrix:
    """CSR matrix on the grid's stencil pattern (`_grid`) from its entry values:
    nothing is sorted or summed.  `radial` and `angular` give their faces'
    (a, b) and (b, a) values; every slot is stored, so no `antipodal` stores
    zero couplings.  The matrix owns its index arrays."""
    n_theta = p.grid.n_theta
    indptr, indices, take = _grid(p.grid.n_t, n_theta)[:3]
    parts = [diag, *radial, *angular, np.zeros(n_theta) if antipodal is None else antipodal]
    data = np.concatenate([x.ravel() for x in parts])[take]
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(p.grid.size,) * 2)


def weighted_stiffness(p: DiskProblem, cellweight=None, dirichlet: bool = True) -> sp.csr_matrix:
    """Symmetric form matrix of int W |grad u|^2 dM on cell values.

    With `dirichlet` the outer boundary face contributes the half-cell term
    from u=0 on the face; without it the form has natural (no-flux) walls,
    annihilates constants and is only positive semidefinite.
    """
    wr, wa, diag = _stiffness(p, cellweight, dirichlet)
    return _on_stencil(p, diag, (-wr, -wr), (-wa, -wa))


def drift_load(p: DiskProblem, cellweight) -> np.ndarray:
    """Linear functional phi -> int W g(V, grad phi) dM on cell values.

    Assembled from the same interior faces as the weighted stiffness, so it
    annihilates constants exactly.
    """
    cr, ca = _drift_fluxes(p, cellweight, mean=True)
    load = np.zeros_like(p.J)
    load[1:, :] += cr
    load[:-1, :] -= cr
    load += np.roll(ca, 1, axis=1)
    load -= ca
    return load.ravel()


def advection_matrix(p: DiskProblem, cellweight) -> sp.csr_matrix:
    """Matrix of (G, phi) -> int G W g(V, grad phi) dM with face-averaged G."""
    (ra, rb), (aa, ab) = _drift_fluxes(p, cellweight)
    diag = np.zeros_like(p.J)
    diag[1:, :] += rb
    diag[:-1, :] -= ra
    diag += np.roll(ab, 1, axis=1)
    diag -= aa
    return _on_stencil(p, diag, (-rb, ra), (-ab, aa))


def _drift_entries(p: DiskProblem) -> tuple:
    """Drift action u -> Vt u_t + Vtheta u_theta: diagonal, radial, angular, antipodal.

    Centered differences on the faces of `_sides`: a face (a, b) gives a
    its forward and b its backward neighbour.  Two ghosts remain: the
    antipodal cell behind the first ring, and the Dirichlet-antisymmetric
    value -u past the last ring (the diagonal -cr at the wall).
    """
    cr = p.Vt / (2.0 * p.grid.dt)
    (ra, rb), (aa, ab) = _sides(cr, p.Vtheta / (2.0 * p.grid.dtheta))
    diag = np.zeros_like(cr)
    diag[-1, :] = -cr[-1, :]
    return diag, (ra, -rb), (aa, -ab), -cr[0, :]


def assemble_operator(p: DiskProblem) -> sp.csr_matrix:
    """Matrix of -Delta_V = -Delta_0 + (drift action) with Dirichlet wall:
    entry for entry diag(1/vol) K plus the drift's `_drift_entries`."""
    wr, wa, K = _stiffness(p, None, True)
    inv_vol = 1.0 / volumes(p).reshape(p.J.shape)
    diag, (ra, rb), (aa, ab), across = _drift_entries(p)
    (va, vb), (ua, ub) = _sides(inv_vol, inv_vol)
    return _on_stencil(p, inv_vol * K + diag, (va * -wr + ra, vb * -wr + rb),
                       (ua * -wa + aa, ub * -wa + ab), across)


@lru_cache(maxsize=8)
def _grid(n_t: int, n_theta: int) -> tuple:
    """The grid's full stencil: (indptr, indices, take, order, ptr, rows, gather).

    The stencil couples each cell with its radial and (periodic) angular
    neighbours and each first-ring cell with its antipodal cell, so it
    holds the pattern of every matrix assembled on the grid.  (indptr,
    indices) is its sorted ring-major CSR pattern; a matrix's data is its
    entry values at `take`, the entries listed as the diagonal, the radial
    faces (a, b) and (b, a), the angular faces (a, b) and (b, a) (`_sides`),
    then the antipodal couplings (l, l + n_theta/2) of ring 0.  `order` is
    `grid_order`: SuperLU's `MMD_AT_PLUS_A` on the pattern numbered from the
    wall inward, from a no-fill incomplete factor of a diagonally dominant
    matrix on it (whose column order is the one `splu` would use).  (ptr,
    rows) is the pattern in that order as sorted CSC, whose data is the CSR
    data at `gather`.  Cached per grid; the arrays are read-only, and all
    but `order` are int32.
    """
    n = n_t * n_theta
    idx = np.arange(n, dtype=np.int32).reshape(n_t, n_theta)
    (ra, rb), (aa, ab) = _sides(idx, idx)
    rows = np.concatenate([x.ravel() for x in (idx, ra, rb, aa, ab, idx[0, :])])
    cols = np.concatenate([x.ravel() for x in (idx, rb, ra, ab, aa,
                                               np.roll(idx[0, :], n_theta // 2))])
    ring = sp.csr_matrix((np.arange(rows.size), (rows, cols)), shape=(n, n))
    wall_first = (n - 1 - rows, n - 1 - cols)
    ilu = spilu(sp.csc_matrix((np.where(rows == cols, rows.size, -1.0), wall_first), shape=(n, n)),
                drop_tol=np.inf, fill_factor=1, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
    order = n - 1 - np.argsort(ilu.perm_c)
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n)
    grid = sp.csc_matrix((np.arange(rows.size), (np.repeat(rank, np.diff(ring.indptr)),
                                                  rank[ring.indices])), shape=(n, n))
    arrays = [x.astype(np.int32) for x in (ring.indptr, ring.indices, ring.data,
                                           grid.indptr, grid.indices, grid.data)]
    arrays.insert(3, order)
    for x in arrays:
        x.setflags(write=False)
    return tuple(arrays)


def grid_order(n_t: int, n_theta: int) -> np.ndarray:
    """Ring-major indices, in elimination order, of the grid's full stencil (`_grid`)."""
    return _grid(n_t, n_theta)[3]


def in_grid_order(mat: sp.spmatrix, shape):
    """(order, P mat P^T in CSC) for the module's factorization recipe.

    order[i] is the ring-major index of the i-th cell to eliminate: the
    `grid_order` of `shape` or, without a shape, the natural order (no fill
    for a ball's tridiagonal K).  With a shape, mat must be CSR on the
    grid's stencil pattern, as assembled: one gather puts its data in the
    grid's order, and its stored zeros are masked out of the cached
    pattern, whose read-only index arrays the result shares when nothing
    is masked.
    """
    if shape is None:
        return np.arange(mat.shape[0]), sp.csc_matrix(mat)
    indptr, indices, _, order, ptr, rows, gather = _grid(*shape)
    if mat.format != "csr" or not (np.array_equal(mat.indptr, indptr)
                                   and np.array_equal(mat.indices, indices)):
        raise ValueError(f"matrix is not CSR on the stencil of grid {shape[0]}x{shape[1]}")
    data = mat.data[gather]
    keep = data != 0.0
    if keep.all():
        return order, sp.csc_matrix((data, rows, ptr), shape=mat.shape)
    ptr = np.concatenate(([0], np.cumsum(keep)))[ptr]
    return order, sp.csc_matrix((data[keep], rows[keep], ptr), shape=mat.shape)


def operator_action(A: sp.spmatrix, shape):
    def act(u):
        return (A @ np.asarray(u, dtype=float).ravel()).reshape(shape)

    return act


def _context(shape, n, it=None, residual=None, left_residual=None) -> str:
    """Where an inverse iteration failed: grid or size, iteration, steps of v and y."""
    text = f"grid {shape[0]}x{shape[1]}" if shape is not None else f"n = {n}"
    if it is not None:
        text += f", iteration {it}, step {residual:.2e} (right) and {left_residual:.2e} (left)"
    return text


def pencil_quotient(S: sp.spmatrix, mass, v, y=None) -> float:
    """y^T S v / y^T M v, M = diag(mass), y = v unless given, S in CSR or CSC.

    Summed in long double: both sums cancel when lam is small.  The long
    double copy of S shares S's index arrays.
    """
    v = np.asarray(v, dtype=np.longdouble).ravel()
    y = v if y is None else np.asarray(y, dtype=np.longdouble).ravel()
    denom = y @ (mass * v)
    if not denom > 0.0:
        raise ValueError("trial has zero weighted norm")
    S = type(S)((S.data.astype(np.longdouble), S.indices, S.indptr), shape=S.shape, copy=False)
    return float((y @ (S @ v)) / denom)


def _unit(x: np.ndarray) -> np.ndarray:
    """x scaled to max 1 with its largest-magnitude entry made positive."""
    return x / x[np.argmax(np.abs(x))]


def principal_eigenpair_2d(op: sp.spmatrix, *, tol: float = DEFAULT_TOL, shape=None,
                           mass=None) -> EigenPair2D:
    """Positive ground pair of S v = lam M v, with its left vector, by inverse iteration.

    S is `op`, M the diagonal `mass` (None: the unit mass, M = I; never
    inverted, so it may vanish).  One LU factorization of S, in
    `in_grid_order`, advances v <- S^-1 (M v) and y <- S^-T (M y) from
    v = y = 1, each scaled to max 1 (a symmetric pencil has y = v and
    iterates v alone), and stops when the steps max|v_k - v_(k-1)| and
    max|y_k - y_(k-1)| are below `tol`, within `MAXITER` iterations.  With mu_k
    the reciprocal of the scaling, S v_k - mu_k M v_k = mu_k M (v_(k-1) - v_k)
    exactly, so the step bounds the residual relative to mu_k max(M) without
    a product with S, whose roundoff floor is about eps ||S|| / (lam max M)
    (I. C. F. Ipsen, SIAM Rev. 39, 1997); v_k is off by about
    step lam / (lam_2 - lam).  lam = y^T S v / y^T M v is formed once, after
    the loop, in long double (`pencil_quotient`).  A last iterate that needed
    a sign fix is no positive pair.  This is the one check of a pair: each
    one returned has `omega` and `left` strictly positive with max 1, both
    steps below `tol` and lam > 0, in the original numbering.
    """
    n = op.shape[0]
    order, op = in_grid_order(op, shape)
    try:
        lu = splu(op, **SUPERLU_OPTIONS)
    except RuntimeError as exc:
        raise SolverError(f"factorization failed ({_context(shape, n)}): {exc}") from exc
    symmetric = mass is not None and (op != op.T).nnz == 0  # M = I: the disk's A is not
    mass = None if mass is None else np.asarray(mass, dtype=float)[order]
    v = y = np.ones(n)
    restarts = 0
    residual = left_residual = np.inf
    best = np.inf
    stalled = 0

    def context(it):
        return _context(shape, n, it, residual, left_residual)

    for it in range(1, MAXITER + 1):
        v_old, y_old, v = v, y, lu.solve(v if mass is None else mass * v)
        size = np.abs(v)
        top = np.argmax(size)
        if size[top] == 0.0 or not np.isfinite(size[top]):
            raise SolverError(f"inverse iteration broke down ({context(it)})")
        v = v / v[top]
        y = v if symmetric else _unit(lu.solve(y if mass is None else mass * y, trans="T"))
        flipped = np.any(v <= 0.0) or np.any(y <= 0.0)
        if flipped:
            restarts += 1
            if restarts > 25:
                raise NonPrincipalModeError(
                    "iterates keep leaving the positive cone; the matrix may be shifted past "
                    f"its principal eigenvalue or the grid is too coarse ({context(it)})"
                )
            v = np.abs(v)
            y = v if symmetric else np.abs(y)
        residual = float(np.max(np.abs(v - v_old)))
        left_residual = residual if symmetric else float(np.max(np.abs(y - y_old)))
        worst = max(residual, left_residual)
        if worst < tol and it >= 3:
            break
        if worst < 0.95 * best:
            best = worst
            stalled = 0
        else:
            stalled += 1
            if stalled >= 12:
                if restarts > 3:
                    raise NonPrincipalModeError(
                        "iteration keeps leaving the positive cone without converging: "
                        "matrix shifted past its principal eigenvalue, or grid too coarse "
                        f"({context(it)})"
                    )
                # roundoff floor of the triangular solves
                raise ConvergenceError(
                    f"steps stagnated above tol={tol:.1e} (roundoff floor; {context(it)})"
                )
    else:
        raise ConvergenceError(
            f"inverse iteration did not reach tol={tol:.1e} in {MAXITER} iterations "
            f"({context(MAXITER)})"
        )
    if flipped:  # the small step was between sign-fixed iterates, not of a positive pair
        raise NonPrincipalModeError(f"converged mode has nonpositive components ({context(it)})")
    lam = pencil_quotient(op, 1.0 if mass is None else mass, v, y)
    if lam <= 0.0:
        raise SolverError(f"principal eigenvalue came out nonpositive: {lam} ({context(it)})")
    back = np.argsort(order)
    v, y = v[back], y[back]
    if shape is not None:
        v, y = v.reshape(shape), y.reshape(shape)
    return EigenPair2D(lam=lam, omega=v, residual=residual, iterations=it,
                       left=y, left_residual=left_residual, restarts=restarts)


def adjoint_principal(op: sp.spmatrix, tol: float = DEFAULT_TOL,
                      shape=None) -> EigenPair2D:
    """Principal pair of the transposed operator: the left pair of `op`.

    The pair of `principal_eigenpair_2d` with its vectors swapped, so it
    carries the same guarantees: both vectors strictly positive with max 1,
    both steps below `tol`, lam > 0.  This solves `op` afresh; a caller
    that already holds its pair from `solve_principal` has the same left
    vector in `pair.left`.
    """
    pair = principal_eigenpair_2d(op, tol=tol, shape=shape)
    return EigenPair2D(lam=pair.lam, omega=pair.left, residual=pair.left_residual,
                       iterations=pair.iterations, left=pair.omega,
                       left_residual=pair.residual, restarts=pair.restarts)


def solve_principal(problem: DiskProblem, tol: float = DEFAULT_TOL):
    """Assemble the operator and return (eigenpair, matrix)."""
    A = assemble_operator(problem)
    pair = principal_eigenpair_2d(A, tol=tol, shape=(problem.grid.n_t, problem.grid.n_theta))
    return pair, A


def build_model_disk(ball: ModelBall, perturbation=None, drift_angular=None,
                     n_t: int | None = None, n_theta: int | None = None) -> DiskProblem:
    """Disk problem J = rho (1 + perturbation), Vt = h.

    Only m=2 balls discretize to a polar disk; the perturbation must keep
    J positive and J ~ t near the origin.  Unset grid sizes take the
    DEFAULT_NT x DEFAULT_NTHETA defaults.
    """
    if ball.m != 2:
        raise ValueError("disk problems require a 2-dimensional ball")
    grid = PolarGrid(n_t=DEFAULT_NT if n_t is None else n_t,
                     n_theta=DEFAULT_NTHETA if n_theta is None else n_theta, r0=ball.r0)
    J = grid.sample(lambda t, th: ball.rho.eval(t)[0]) * (1.0 + grid.sample(perturbation))
    Vt = grid.sample(lambda t, th: ball.drift.h(t))
    return DiskProblem(grid=grid, J=J, Vt=Vt, Vtheta=grid.sample(drift_angular))


def divergence_field(p: DiskProblem) -> np.ndarray:
    """div(V) = d_t Vt + Vt d_t(log J) + (1/J) d_theta(J Vtheta) on the grid.

    The product J*Vt is kinked through the origin even for smooth fields
    (J ~ |s| along a diameter), so the two factors are differenced
    separately: Vt gets the sign-flipped antipodal ghost behind the first
    ring (the radial unit vector reverses through the origin), J is
    differenced one-sidedly there; the last ring is one-sided second order.
    """
    dt, dth = p.grid.dt, p.grid.dtheta
    dVt, dJ = np.empty_like(p.Vt), np.empty_like(p.J)
    for df, f in ((dVt, p.Vt), (dJ, p.J)):
        df[1:-1, :] = (f[2:, :] - f[:-2, :]) / (2.0 * dt)
        df[-1, :] = (3.0 * f[-1, :] - 4.0 * f[-2, :] + f[-3, :]) / (2.0 * dt)
    dVt[0, :] = (p.Vt[1, :] + np.roll(p.Vt[0, :], p.grid.n_theta // 2)) / (2.0 * dt)
    dJ[0, :] = (-3.0 * p.J[0, :] + 4.0 * p.J[1, :] - p.J[2, :]) / (2.0 * dt)

    G = p.J * p.Vtheta
    dG = (np.roll(G, -1, axis=1) - np.roll(G, 1, axis=1)) / (2.0 * dth)
    return dVt + p.Vt * dJ / p.J + dG / p.J


def angular_std(omega: np.ndarray) -> float:
    """Largest per-ring angular standard deviation, relative to the peak."""
    return float(np.max(np.std(omega, axis=1)) / np.max(np.abs(omega)))
