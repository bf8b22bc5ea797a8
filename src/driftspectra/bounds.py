"""Computable two-sided and variational bounds on the principal eigenvalue.

Three devices, all evaluated against the same discrete operator so the
bound statements hold at matrix level:

* the pointwise bracket inf <= lambda* <= sup of (-Delta_V u)/u over
  positive trials (the one-cell ring next to the Dirichlet wall is left
  out of the extremal scan and that exclusion is reported),
* the weighted Rayleigh quotient for gradient drifts,
* the integral min-max functional L(u,u) - inf_v Q_u(v) with its two
  auxiliary degenerate elliptic solves (the potential w_u and the steady
  density G), which collapses to a closed form for radial drifts.

Its optimal trial is omega sqrt(G), and G = omega*/omega with omega* the
adjoint eigenfunction (Donsker & Varadhan, PNAS 72, 1975): on the grid
sqrt(omega left / vol) from the eigen solve, O(h^2) from `solve_G_V`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .disk import (SUPERLU_OPTIONS, DiskProblem, advection_matrix, assemble_operator,
                   drift_load, face_forms, in_grid_order, pencil_quotient,
                   principal_eigenpair_2d, volumes, weighted_stiffness)
from .errors import IrreducibilityError, SolverError
from .geometry import ModelBall, weight_p
from .quadrature import cumulative_trapezoid_from_origin

GAUGE_BALL_FRACTION = 0.25
CONE_QUARTER = 0.75
CONE_RATIO_LIMIT = 1e6
# last step of the Rayleigh minimizer (max 1): puts it within about 1e-9
RAYLEIGH_TOL = 1e-9
# largest relative residual a potential (w_u) solve may leave
POTENTIAL_RESIDUAL_TOL = 1e-6


@dataclass(eq=False)
class BartaBracket:
    """Two-sided pointwise bound; the true discrete eigenvalue lies inside.

    The cells where the extrema fall are not reported: ratios tie up to
    roundoff, so roundoff would pick them (on the README `bounds` disk the
    ratio spreads by 1.1e-8, relative, inside ring 0, against 4.2e-9
    between the minima of the two lowest rings).
    """

    lower: float
    upper: float
    excluded_rings: int


@dataclass(eq=False)
class HollandReport:
    """Value of the integral min-max functional at one trial."""

    L_value: float
    Q_min: float
    bound: float
    w_u: np.ndarray
    fast_path: bool = False


def barta_bracket(op_eval, u) -> BartaBracket:
    """inf and sup of (-Delta_V u)/u over interior cells of a positive trial.

    `op_eval` maps trial samples to (-Delta_V u) samples (typically the
    assembled matrix action).  The outermost ring is dropped from the
    extremal scan to suppress the one-sided boundary stencil; the exclusion
    is part of the result.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("Barta trials must be strictly positive on the interior")
    ratio = np.asarray(op_eval(u), dtype=float) / u
    core = ratio[:-1, :]
    return BartaBracket(lower=float(np.min(core)), upper=float(np.max(core)), excluded_rings=1)


# -- weighted Rayleigh quotient --------------------------------------------

def _forms(target, f, n_t: int):
    """Stiffness matrix and lumped mass of the weighted Dirichlet quotient.

    On a ball: nodes i=0..n_t on [0, r0] with the Dirichlet node n_t
    eliminated; the origin has a natural condition because the weight
    vanishes there.  On a disk: the cells of its grid (`n_t` is unused).
    """
    if not isinstance(target, ModelBall):
        w = np.exp(-target.grid.sample(f))
        return weighted_stiffness(target, w, dirichlet=True), w.ravel() * volumes(target)
    r0 = target.r0
    nodes = np.linspace(0.0, r0, n_t + 1)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    dx = nodes[1] - nodes[0]
    fm = np.asarray(f(mids), dtype=float)
    fn = np.asarray(f(nodes), dtype=float)
    w_mid = weight_p(target, mids) * np.exp(-fm)
    w_node = weight_p(target, nodes) * np.exp(-fn)
    n = n_t  # unknowns 0..n_t-1
    main = w_mid[:n] / dx
    main[1:] += w_mid[: n - 1] / dx
    off = -w_mid[: n - 1] / dx
    K = sp.diags([off, main, off], offsets=(-1, 0, 1), format="csc")
    mass = w_node[:n] * dx
    mass[0] *= 0.5
    return K, mass


def rayleigh_quotient(target, f, u) -> float:
    """Weighted Dirichlet quotient of a trial with zero boundary trace.

    Ball trials are node samples on the uniform grid over [0, r0] with the
    last sample at the boundary, where they must vanish.  The quotient is
    the eigen engine's (`disk.pencil_quotient`, summed in long double), so
    the minimizer of `rayleigh_minimize` gives back its lambda_f.
    """
    u = np.asarray(u, dtype=float)
    if isinstance(target, ModelBall):
        if abs(u[-1]) > 1e-10 * np.max(np.abs(u)):
            raise ValueError("ball trials must vanish at the boundary node")
        u = u[:-1]
    K, mass = _forms(target, f, u.shape[0])
    return pencil_quotient(K, mass, u)


def rayleigh_minimize(target, f, n_t: int = 512):
    """Discrete minimum of the weighted quotient: the ground pair of K v = lambda M v.

    Returns (lambda_f, minimizer samples normalized to max 1; for a ball on
    the uniform node grid including both endpoints).  The symmetric pencil
    of `_forms` (weighted stiffness K, lumped mass M, 0 at a ball's origin
    node) goes to `disk.principal_eigenpair_2d`, whose step test
    (`RAYLEIGH_TOL`) and long-double quotient keep about 12 digits of
    lambda_f even when it is small against the pencil's largest
    eigenvalue.  A ball's tridiagonal K is factored in natural order.
    """
    ball = isinstance(target, ModelBall)
    K, mass = _forms(target, f, n_t)
    pair = principal_eigenpair_2d(K, tol=RAYLEIGH_TOL, shape=None if ball else target.J.shape,
                                  mass=mass)
    return pair.lam, np.append(pair.omega, 0.0) if ball else pair.omega


# -- auxiliary degenerate elliptic solves -----------------------------------

def _gauge_vector(problem: DiskProblem) -> np.ndarray:
    T, _ = problem.grid.mesh()
    mask = (T < GAUGE_BALL_FRACTION * problem.grid.r0).ravel()
    vol = volumes(problem)
    gauge = np.where(mask, vol, 0.0)
    return gauge / gauge.sum()


def _pinned_context(shape, k: int) -> str:
    """The grid and the pinned cell k as (ring j, angle l), for error messages."""
    return f"grid {shape[0]}x{shape[1]}, pinned cell (j, l) = {divmod(k, shape[1])}"


def _pinned_solve(A: sp.csr_matrix, shape, k: int, rhs: np.ndarray,
                  pinned: float) -> np.ndarray:
    """Solution of A x = rhs with x_k = `pinned` at the cell k.

    A has a one-dimensional null space whose vector is nonzero at k, and
    its columns add up to zero (1^T A = 0: each face adds and subtracts the
    same flux), so for a right-hand side with 1^T rhs = 0 any one equation
    is the negative sum of the others.  Equation k becomes x_k = `pinned` in
    place (row and column k of a copy of A are the identity's, and `pinned`
    times column k moves to the right-hand side), so the n x n matrix stays
    on the stencil of `shape` and is factored by the `disk` module's recipe.
    """
    x = np.zeros(A.shape[0])
    x[k] = pinned
    b = rhs - A @ x
    b[k] = pinned
    M = A.copy()
    row = slice(M.indptr[k], M.indptr[k + 1])
    M.data[M.indices == k] = 0.0
    M.data[row] = np.where(M.indices[row] == k, 1.0, 0.0)
    order, M = in_grid_order(M, shape)
    try:
        lu = splu(M, **SUPERLU_OPTIONS)
    except RuntimeError as exc:
        raise SolverError(
            f"degenerate elliptic solve failed ({_pinned_context(shape, k)}): {exc}") from exc
    x[order] = lu.solve(b[order])
    return x


def solve_w_u(problem: DiskProblem, u):
    """Minimizer of Q_u(v) = int u^2 (|grad v|^2 - g(V, grad v)) dM.

    Solves the flux-form Euler-Lagrange system div(u^2 (2 grad w - V)) = 0
    with natural walls.  Its null space is the constants: w is pinned to 0
    at the cell of largest u^2, the rest is factored (`_pinned_solve`),
    and the additive constant is then fixed by zero mean over the interior
    ball t < r0/4.  Returns (w, relative residual); a residual above
    `POTENTIAL_RESIDUAL_TOL` is a `SolverError`.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("weight u must be positive on the interior")
    W = (u * u).reshape(problem.J.shape)
    K = weighted_stiffness(problem, W, dirichlet=False)
    b = drift_load(problem, W)
    k = int(np.argmax(W))
    w = _pinned_solve(2.0 * K, problem.J.shape, k, b, 0.0)
    w -= _gauge_vector(problem) @ w
    scale = max(float(np.max(np.abs(b))), 1e-300)
    residual = float(np.max(np.abs(2.0 * K @ w - b))) / scale
    if residual > POTENTIAL_RESIDUAL_TOL:
        raise SolverError(f"potential solve residual {residual:.2e} too large "
                          f"({_pinned_context(problem.J.shape, k)})")
    return w.reshape(problem.J.shape), residual


def q_functional(problem: DiskProblem, u, v) -> float:
    """Q_u(v) = int u^2 (|grad v|^2 - g(V, grad v)) dM on the grid.

    Summed face by face in difference form, sum w (v_a - v_b)^2 +
    sum c (v_a - v_b), so constants give exactly zero.
    """
    u = np.asarray(u, dtype=float)
    W = (u * u).reshape(problem.J.shape)
    total = 0.0
    for w, c, d in face_forms(problem, W, np.asarray(v, dtype=float)):
        w, c, d = w.ravel(), c.ravel(), d.ravel()
        total += float(w @ (d * d) + c @ d)
    return total


def solve_G_V(problem: DiskProblem, omega):
    """Positive steady density G solving div(omega^2 (grad G + G V)) = 0.

    G spans the null space of the system: it is pinned to 1 at the cell of
    largest omega^2, the rest is factored (`_pinned_solve`), and G is then
    scaled to volume mean one.  A nonpositive solution means the discrete
    chain lost irreducibility (grid or drift pathology).  Returns
    (G, residual).
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise ValueError("omega must be positive on the interior")
    W = (omega * omega).reshape(problem.J.shape)
    A = weighted_stiffness(problem, W, dirichlet=False)
    A.data += advection_matrix(problem, W).data  # on the stencil; scipy's + drops zeros
    vol = volumes(problem)
    G = _pinned_solve(A, problem.J.shape, int(np.argmax(W)), np.zeros(problem.grid.size), 1.0)
    G /= (vol / vol.sum()) @ G
    scale = float(np.max(np.abs(A.data))) * float(np.max(np.abs(G)))
    residual = float(np.max(np.abs(A @ G))) / max(scale, 1e-300)
    if np.any(G <= 0.0):
        raise IrreducibilityError(
            f"steady density has nonpositive entries (min {G.min():.3e})"
        )
    return G.reshape(problem.J.shape), residual


def _cone_check(problem: DiskProblem, u: np.ndarray):
    if np.any(u <= 0.0):
        raise ValueError("trial must be positive on the interior")
    T, _ = problem.grid.mesh()
    outer = T >= CONE_QUARTER * problem.grid.r0
    ratio = u[outer] / (problem.grid.r0 - T[outer])
    if np.min(ratio) <= 0.0 or np.max(ratio) / np.min(ratio) > CONE_RATIO_LIMIT:
        raise ValueError(
            "trial violates the boundary-decay cone: u/(r0-t) must stay "
            "within fixed positive bounds on the outer quarter"
        )


def holland_bound(problem: DiskProblem, u, A: sp.spmatrix | None = None) -> HollandReport:
    """One-sided variational bound L(u,u) - inf_v Q_u(v) >= lambda*.

    Trials are validated against the discrete boundary-decay cone and
    L2-normalized internally.  L(u,u) = int (|grad u|^2 + u g(V, grad u)) dM
    is the operator pairing (vol u)^T A u, with `A` assembled here unless
    given.  When the drift has no angular component the infimum has the
    closed form -1/4 int u^2 Vt^2 dM with potential 1/2 int_0^t Vt, and the
    elliptic solve is skipped.
    """
    u = np.asarray(u, dtype=float).reshape(problem.J.shape)
    _cone_check(problem, u)
    if A is None:
        A = assemble_operator(problem)
    vol = volumes(problem)
    nrm = float(np.sqrt((u.ravel() ** 2 * vol).sum()))
    un = u / nrm
    uv = un.ravel()
    L_val = float((vol * uv) @ (A @ uv))
    if np.all(problem.Vtheta == 0.0):
        q_min = float(-(0.25 * (un ** 2) * problem.Vt ** 2 * problem.J).sum()
                      * problem.grid.dt * problem.grid.dtheta)
        w = 0.5 * cumulative_trapezoid_from_origin(problem.Vt, problem.grid.radii())
        return HollandReport(L_value=L_val, Q_min=q_min, bound=L_val - q_min,
                             w_u=w, fast_path=True)
    w, _ = solve_w_u(problem, un)
    q_min = q_functional(problem, un, w)
    return HollandReport(L_value=L_val, Q_min=q_min, bound=L_val - q_min,
                         w_u=w, fast_path=False)
