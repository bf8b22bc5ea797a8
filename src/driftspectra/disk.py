"""Drift Laplacian on 2-D geodesic disks with metric dt^2 + J^2 dtheta^2.

The diffusion part is discretized in conservative flux form on a
cell-centered polar grid (no node at the origin): radial fluxes use face
averages of J, the inner face at t=0 carries zero flux because J vanishes
there, and the Dirichlet condition at t=r0 enters through an antisymmetric
ghost value.  First derivatives for the drift use centered differences;
the ghost behind the first ring is the antipodal cell (t0, theta+pi).

Every five-point system of the 2-D layer is factored by one recipe: the
eigen solves here, and in `bounds` the pinned `w_u`/`G` solves and the
weighted Rayleigh stiffness.  The cells are numbered from the wall inward
(`wall_first`), and SuperLU runs with `SUPERLU_OPTIONS`:
* minimum degree on the pattern of A^T + A (`MMD_AT_PLUS_A`), which suits
  the nearly symmetric pattern better than the default COLAMD.  Minimum
  degree breaks ties by the numbering, and the wall-first numbering
  leaves less fill than the ring-major one;
* no relaxed supernodes and one-column panels (`relax`, `panel_size`).
  SuperLU's defaults are sized for large dense supernodes; on five-point
  grids they store relaxed zeros and factor slower.
On a swirled kappa = 0.3 disk the L+U nonzeros of the eigen factor are
286,551 ring-major with SuperLU's defaults, 232,158 wall-first and 217,214
with the recipe at 96 x 64, and 1.60M against 1.10M at 192 x 128, where
the factor time falls from about 160 to 80 ms on a 2-CPU Xeon (Demmel,
Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 20, 1999;
X. S. Li, ACM TOMS 31, 2005).  The recipe moves results only by roundoff:
eigenvalues keep 12 digits, and the Barta bracket ends, which divide by
the eigenvector, move by about 1e-9 relative.

The principal pair of the nonsymmetric operator is computed by shifted
inverse power iteration on one sparse LU factorization per operator.
Left (adjoint) and right vectors are iterated together with the same
factors, which gives a two-sided eigenvalue estimate accurate to the
square of the residual; the left vector is kept, so the adjoint pair
costs no second factorization.  Residuals are relative to |lambda|
(vectors scaled to max 1), so the stopping test does not depend on the
size of the disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, NonPrincipalModeError, SolverError
from .geometry import ModelBall

DEFAULT_NT = 192
DEFAULT_NTHETA = 128
DEFAULT_TOL = 1e-6
SUPERLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "relax": 1, "panel_size": 1}


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

    Both vectors are positive with max 1; `residual` and `left_residual`
    are relative to |lam|.
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


def _indices(p: DiskProblem) -> np.ndarray:
    return np.arange(p.grid.size).reshape(p.grid.n_t, p.grid.n_theta)


def _outer_face_value(field: np.ndarray) -> np.ndarray:
    """Linear extrapolation of a cell field to the boundary face."""
    val = 1.5 * field[-1, :] - 0.5 * field[-2, :]
    return np.maximum(val, 0.5 * np.minimum(field[-1, :], field[-2, :]))


def _faces(p: DiskProblem, radial: np.ndarray, angular: np.ndarray) -> list:
    """Interior faces in two families: radial (j, j+1), angular (l, l+1) with wrap.

    Each family is (a, b, fa, fb): the indices of the cells on either side
    of its faces and the values there of its cell field, `radial` or
    `angular`.
    """
    idx = _indices(p)
    return [(idx[:-1, :].ravel(), idx[1:, :].ravel(), radial[:-1, :].ravel(), radial[1:, :].ravel()),
            (idx.ravel(), np.roll(idx, -1, axis=1).ravel(),
             angular.ravel(), np.roll(angular, -1, axis=1).ravel())]


def stiffness_faces(p: DiskProblem, cellweight=None) -> list:
    """(a, b, w) per face family, with int W |grad u|^2 dM = sum w (u_a - u_b)^2.

    This is the form with natural (no-flux) walls.
    """
    dt, dth = p.grid.dt, p.grid.dtheta
    W = np.ones_like(p.J) if cellweight is None else np.asarray(cellweight, dtype=float)
    (ra, rb, rfa, rfb), (aa, ab, afa, afb) = _faces(p, W * p.J, W / p.J)
    return [(ra, rb, 0.5 * (rfa + rfb) * dth / dt), (aa, ab, 0.5 * (afa + afb) * dt / dth)]


def _drift_fluxes(p: DiskProblem, cellweight):
    """Face families of the cell drift flux W J g(V, n), each with its face length."""
    W = np.asarray(cellweight, dtype=float)
    return zip(_faces(p, W * p.Vt * p.J, W * p.Vtheta * p.J), (p.grid.dtheta, p.grid.dt))


def drift_faces(p: DiskProblem, cellweight) -> list:
    """(a, b, c) per face family, with int W g(V, grad phi) dM = sum c (phi_b - phi_a).

    Boundary faces carry no term: the weight vanishes at the Dirichlet wall
    and J vanishes at the origin.
    """
    return [(a, b, 0.5 * (fa + fb) * h) for (a, b, fa, fb), h in _drift_fluxes(p, cellweight)]


def weighted_stiffness(p: DiskProblem, cellweight=None, dirichlet: bool = True) -> sp.csr_matrix:
    """Symmetric form matrix of int W |grad u|^2 dM on cell values.

    With `dirichlet` the outer boundary face contributes the half-cell term
    from u=0 on the face; without it the form has natural (no-flux) walls,
    annihilates constants and is only positive semidefinite.
    """
    rows, cols, vals = [], [], []
    for a, b, w in stiffness_faces(p, cellweight):
        rows += [a, b, a, b]
        cols += [a, b, b, a]
        vals += [w, w, -w, -w]
    if dirichlet:
        W = np.ones_like(p.J) if cellweight is None else np.asarray(cellweight, dtype=float)
        wall = _indices(p)[-1, :]
        rows.append(wall)
        cols.append(wall)
        vals.append(2.0 * _outer_face_value(W * p.J) * p.grid.dtheta / p.grid.dt)
    n = p.grid.size
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def drift_load(p: DiskProblem, cellweight) -> np.ndarray:
    """Linear functional phi -> int W g(V, grad phi) dM on cell values.

    Assembled from the same interior faces as the weighted stiffness, so it
    annihilates constants exactly.
    """
    load = np.zeros(p.grid.size)
    for a, b, c in drift_faces(p, cellweight):
        np.add.at(load, b, c)
        np.add.at(load, a, -c)
    return load


def advection_matrix(p: DiskProblem, cellweight) -> sp.csr_matrix:
    """Matrix of (G, phi) -> int G W g(V, grad phi) dM with face-averaged G."""
    rows, cols, vals = [], [], []
    for (a, b, fa, fb), h in _drift_fluxes(p, cellweight):
        qa, qb = 0.5 * fa * h, 0.5 * fb * h
        rows += [b, b, a, a]
        cols += [a, b, a, b]
        vals += [qa, qb, -qa, -qb]
    n = p.grid.size
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def drift_matrix(p: DiskProblem) -> sp.csr_matrix:
    """Pointwise drift action u -> Vt u_t + Vtheta u_theta.

    Centered differences; ghosts are the antipodal cell behind the first
    ring and the Dirichlet-antisymmetric value past the last ring.
    """
    dt, dth = p.grid.dt, p.grid.dtheta
    idx = _indices(p)
    antip = np.roll(idx[0, :], p.grid.n_theta // 2)
    cr = p.Vt / (2.0 * dt)
    # interior rings
    a = idx[1:-1, :].ravel()
    rows = [a, a]
    cols = [idx[2:, :].ravel(), idx[:-2, :].ravel()]
    vals = [cr[1:-1, :].ravel(), -cr[1:-1, :].ravel()]
    # first ring: backward neighbor is the antipodal cell
    a = idx[0, :]
    rows += [a, a]
    cols += [idx[1, :], antip]
    vals += [cr[0, :], -cr[0, :]]
    # last ring: ghost u_N = -u_{N-1}
    a = idx[-1, :]
    rows += [a, a]
    cols += [idx[-1, :], idx[-2, :]]
    vals += [-cr[-1, :], -cr[-1, :]]

    ca = p.Vtheta / (2.0 * dth)
    a = idx.ravel()
    rows += [a, a]
    cols += [np.roll(idx, -1, axis=1).ravel(), np.roll(idx, 1, axis=1).ravel()]
    vals += [ca.ravel(), -ca.ravel()]

    rows = np.concatenate([np.asarray(r).ravel() for r in rows])
    cols = np.concatenate([np.asarray(c).ravel() for c in cols])
    vals = np.concatenate([np.asarray(v).ravel() for v in vals])
    return sp.coo_matrix((vals, (rows, cols)), shape=(p.grid.size, p.grid.size)).tocsr()


def assemble_operator(p: DiskProblem) -> sp.csr_matrix:
    """Matrix of -Delta_V = -Delta_0 + (drift action) with Dirichlet wall."""
    K = weighted_stiffness(p, None, dirichlet=True)
    inv_vol = 1.0 / volumes(p)
    A = sp.diags(inv_vol) @ K + drift_matrix(p)
    return A.tocsr()


def wall_first(mat: sp.spmatrix, drop: int | None = None):
    """(order, P mat P^T in CSC) with the cells numbered from the wall inward.

    order[i] is the ring-major index of the i-th wall-first cell; cell
    `drop`, if given, is left out of both.
    """
    order = np.arange(mat.shape[0] - 1, -1, -1)
    if drop is not None:
        order = order[order != drop]
    return order, sp.csc_matrix(mat)[:, order][order, :].tocsc()


def operator_action(A: sp.spmatrix, shape):
    def act(u):
        return (A @ np.asarray(u, dtype=float).ravel()).reshape(shape)

    return act


def _context(shape, n, shift, it=None, residual=None, left_residual=None) -> str:
    """Where an inverse iteration failed: grid (or size), shift, iteration, residuals."""
    text = f"grid {shape[0]}x{shape[1]}" if shape is not None else f"n = {n}"
    text += f", shift {shift}"
    if it is not None:
        text += (f", iteration {it}, relative residuals {residual:.2e} (right) "
                 f"and {left_residual:.2e} (left)")
    return text


def principal_eigenpair_2d(op: sp.spmatrix, shift_guess: float = 0.0,
                           tol: float = DEFAULT_TOL, maxiter: int = 400,
                           shape=None) -> EigenPair2D:
    """Positive ground pair, with its left vector, by shifted inverse iteration.

    Right and left vectors are advanced with the same LU factorization of
    A - shift I (transposed solves for the left one), both in the wall-first
    numbering of the module's factorization recipe; the pair is returned in
    the ring-major one.  The reported eigenvalue is the two-sided quotient
    y^T A x / y^T x, accurate to O(residual^2).  Both residuals are relative,
    max|A x - lam x| / |lam| with max|x| = 1 and likewise for y against A^T,
    and the iteration stops when both are below `tol`.
    """
    n = op.shape[0]
    order, op = wall_first(op)
    mat = op if shift_guess == 0.0 else op - shift_guess * sp.identity(n, format="csc")
    try:
        lu = splu(mat, **SUPERLU_OPTIONS)
    except RuntimeError as exc:
        raise SolverError(
            f"factorization failed ({_context(shape, n, shift_guess)}): {exc}") from exc
    op_t = op.T
    v = np.ones(n)
    y = np.ones(n)
    restarts = 0
    lam = shift_guess
    residual = left_residual = np.inf
    best = np.inf
    stalled = 0

    def context(it):
        return _context(shape, n, shift_guess, it, residual, left_residual)

    for it in range(1, maxiter + 1):
        v = lu.solve(v)
        y = lu.solve(y, trans="T")
        vmax = np.max(np.abs(v))
        if vmax == 0.0 or not np.isfinite(vmax):
            raise SolverError(f"inverse iteration broke down ({context(it)})")
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        if y[np.argmax(np.abs(y))] < 0:
            y = -y
        v /= np.max(np.abs(v))
        y /= np.max(np.abs(y))
        if np.any(v <= 0.0) or np.any(y <= 0.0):
            restarts += 1
            if restarts > 25:
                raise NonPrincipalModeError(
                    "iterates keep leaving the positive cone; the shift may exceed "
                    f"the principal eigenvalue or the grid is too coarse ({context(it)})"
                )
            v = np.abs(v)
            y = np.abs(y)
        Av = op @ v
        lam = float(y @ Av) / float(y @ v)
        scale = max(abs(lam), np.finfo(float).tiny)
        residual = float(np.max(np.abs(Av - lam * v))) / scale
        left_residual = float(np.max(np.abs(op_t @ y - lam * y))) / scale
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
                        "shift above the principal eigenvalue, or grid too coarse "
                        f"({context(it)})"
                    )
                # roundoff floor of the triangular solves
                raise ConvergenceError(
                    f"residual stagnated above tol={tol:.1e} (roundoff floor; {context(it)})"
                )
    else:
        raise ConvergenceError(
            f"inverse iteration did not reach tol={tol:.1e} in {maxiter} iterations "
            f"({context(maxiter)})"
        )
    if np.any(v <= 0.0):
        raise NonPrincipalModeError(f"converged mode has nonpositive components ({context(it)})")
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

    One factorization serves both sides.  The left vector must be positive
    and satisfy A^T y = lam y to `tol` at the shared eigenvalue.  This
    solves `op` afresh; a caller that already holds its pair from
    `solve_principal` has the same left vector in `pair.left`.
    """
    pair = principal_eigenpair_2d(op, 0.0, tol=tol, shape=shape)
    context = _context(shape, op.shape[0], 0.0, pair.iterations, pair.residual,
                       pair.left_residual)
    if np.any(pair.left <= 0.0):
        raise NonPrincipalModeError(f"left principal vector has nonpositive components ({context})")
    if pair.left_residual > tol:
        raise SolverError(f"transpose spectrum mismatch at lambda = {pair.lam!r} ({context})")
    return EigenPair2D(lam=pair.lam, omega=pair.left, residual=pair.left_residual,
                       iterations=pair.iterations, left=pair.omega,
                       left_residual=pair.residual, restarts=pair.restarts)


def solve_principal(problem: DiskProblem, tol: float = DEFAULT_TOL):
    """Assemble the operator and return (eigenpair, matrix)."""
    A = assemble_operator(problem)
    pair = principal_eigenpair_2d(A, 0.0, tol=tol,
                                  shape=(problem.grid.n_t, problem.grid.n_theta))
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


def radial_derivative(field: np.ndarray, dt: float, ghost=None, dirichlet: bool = False):
    """d/dt of a cell field by second-order differences, centered inside.

    The first ring is differenced against `ghost`, the values behind the
    origin (the antipodal cells), or one-sidedly when there is none; the
    last ring against the Dirichlet-antisymmetric ghost -field[-1] with
    `dirichlet`, else one-sidedly.
    """
    out = np.empty_like(field)
    out[1:-1, :] = (field[2:, :] - field[:-2, :]) / (2.0 * dt)
    if ghost is None:
        out[0, :] = (-3.0 * field[0, :] + 4.0 * field[1, :] - field[2, :]) / (2.0 * dt)
    else:
        out[0, :] = (field[1, :] - ghost) / (2.0 * dt)
    if dirichlet:
        out[-1, :] = (-field[-1, :] - field[-2, :]) / (2.0 * dt)
    else:
        out[-1, :] = (3.0 * field[-1, :] - 4.0 * field[-2, :] + field[-3, :]) / (2.0 * dt)
    return out


def divergence_field(p: DiskProblem) -> np.ndarray:
    """div(V) = d_t Vt + Vt d_t(log J) + (1/J) d_theta(J Vtheta) on the grid.

    The product J*Vt is kinked through the origin even for smooth fields
    (J ~ |s| along a diameter), so the two factors are differenced
    separately: Vt gets the sign-flipped antipodal ghost behind the first
    ring (the radial unit vector reverses through the origin), J is
    differenced one-sidedly there; the last ring is one-sided second order.
    """
    dt, dth = p.grid.dt, p.grid.dtheta
    dVt = radial_derivative(p.Vt, dt, ghost=-np.roll(p.Vt[0, :], p.grid.n_theta // 2))
    dJ = radial_derivative(p.J, dt)

    G = p.J * p.Vtheta
    dG = (np.roll(G, -1, axis=1) - np.roll(G, 1, axis=1)) / (2.0 * dth)
    return dVt + p.Vt * dJ / p.J + dG / p.J


def angular_std(omega: np.ndarray) -> float:
    """Largest per-ring angular standard deviation, relative to the peak."""
    return float(np.max(np.std(omega, axis=1)) / np.max(np.abs(omega)))
