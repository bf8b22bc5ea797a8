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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .disk import (SUPERLU_OPTIONS, DiskProblem, advection_matrix, assemble_operator,
                   drift_faces, drift_load, stiffness_faces, volumes, wall_first,
                   weighted_stiffness)
from .errors import ConvergenceError, IrreducibilityError, SolverError
from .geometry import ModelBall, weight_p
from .quadrature import cumulative_trapezoid_from_origin

GAUGE_BALL_FRACTION = 0.25
CONE_QUARTER = 0.75
CONE_RATIO_LIMIT = 1e6


@dataclass(eq=False)
class BartaBracket:
    """Two-sided pointwise bound; the true discrete eigenvalue lies inside.

    Where ratios tie up to roundoff, roundoff picks the reported cells: on
    the README `bounds` disk the ratio spreads by 1.1e-8 (relative) inside
    ring 0, against 4.2e-9 between the minima of the two lowest rings.
    """

    lower: float
    upper: float
    argmin_point: tuple
    argmax_point: tuple
    excluded_rings: int


@dataclass(eq=False)
class HollandReport:
    """Value of the integral min-max functional at one trial."""

    L_value: float
    Q_min: float
    bound: float
    w_u: np.ndarray
    G: np.ndarray | None = None
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
    imin = np.unravel_index(np.argmin(core), core.shape)
    imax = np.unravel_index(np.argmax(core), core.shape)
    return BartaBracket(lower=float(core[imin]), upper=float(core[imax]),
                        argmin_point=tuple(int(x) for x in imin),
                        argmax_point=tuple(int(x) for x in imax),
                        excluded_rings=1)


# -- weighted Rayleigh quotient --------------------------------------------

def _forms(target, f, n_t: int):
    """Stiffness matrix and lumped mass of the weighted Dirichlet quotient.

    On a ball: nodes i=0..n_t on [0, r0] with the Dirichlet node n_t
    eliminated; the origin has a natural condition because the weight
    vanishes there.  On a disk: the cells of its grid (`n_t` is unused).
    """
    if not isinstance(target, ModelBall):
        w = np.exp(-_field_on_grid(target, f))
        return weighted_stiffness(target, w, dirichlet=True).tocsc(), w.ravel() * volumes(target)
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
    last sample at the boundary, where they must vanish.
    """
    u = np.asarray(u, dtype=float)
    if isinstance(target, ModelBall):
        if abs(u[-1]) > 1e-10 * np.max(np.abs(u)):
            raise ValueError("ball trials must vanish at the boundary node")
        u = u[:-1]
    K, mass = _forms(target, f, u.shape[0])
    uv = u.ravel()
    denom = float(uv @ (mass * uv))
    if denom <= 0.0:
        raise ValueError("trial has zero weighted norm")
    return float(uv @ (K @ uv)) / denom


def rayleigh_minimize(target, f, n_t: int = 512):
    """Discrete minimum of the weighted quotient by inverse power iteration.

    Returns (lambda_f, minimizer samples).  The minimizer is normalized to
    max 1; for a ball the samples live on the uniform node grid including
    both endpoints.  K is factored by the recipe of the `disk` module.
    """
    ball = isinstance(target, ModelBall)
    K, mass = _forms(target, f, n_t)
    order, K = wall_first(K)
    mass = mass[order]
    # inverse iteration for K v = lambda M v with the lumped (diagonal) mass
    lu = splu(K, **SUPERLU_OPTIONS)
    v = np.ones(K.shape[0])
    lam_old = np.inf
    for _ in range(400):
        v = lu.solve(mass * v)
        v /= np.max(np.abs(v))
        lam = float(v @ (K @ v)) / float(v @ (mass * v))
        if abs(lam - lam_old) < 1e-12 * max(1.0, abs(lam)):
            break
        lam_old = lam
    else:
        raise ConvergenceError(f"Rayleigh minimization stalled ({'ball' if ball else 'disk'})")
    v = v[np.argsort(order)]
    if ball:
        full = np.concatenate([v, [0.0]])
        return lam, full / np.max(np.abs(full))
    return lam, v.reshape(target.grid.n_t, target.grid.n_theta)


def _field_on_grid(problem: DiskProblem, f) -> np.ndarray:
    if callable(f):
        return problem.grid.sample(f)
    arr = np.asarray(f, dtype=float)
    if arr.shape != problem.J.shape:
        raise ValueError("field samples must match the grid")
    return arr


# -- auxiliary degenerate elliptic solves -----------------------------------

def _gauge_vector(problem: DiskProblem) -> np.ndarray:
    T, _ = problem.grid.mesh()
    mask = (T < GAUGE_BALL_FRACTION * problem.grid.r0).ravel()
    vol = volumes(problem)
    gauge = np.where(mask, vol, 0.0)
    return gauge / gauge.sum()


def _pinned_solve(A: sp.spmatrix, weight: np.ndarray, rhs: np.ndarray,
                  pinned: float) -> np.ndarray:
    """Solution of A x = rhs with x_k = `pinned` at the cell k = argmax(weight).

    A has a one-dimensional null space whose vector is nonzero at k, and
    its columns add up to zero (1^T A = 0: each face adds and subtracts the
    same flux), so for a right-hand side with 1^T rhs = 0 any one equation
    is the negative sum of the others.  Row and column k are dropped,
    column k moves to the right-hand side, and the (n-1) x (n-1) matrix is
    factored by the recipe of the `disk` module.
    """
    n = A.shape[0]
    k = int(np.argmax(weight))
    A = sp.csc_matrix(A)
    order, M = wall_first(A, drop=k)
    b = rhs[order] - pinned * A[:, k].toarray().ravel()[order]
    try:
        lu = splu(M, **SUPERLU_OPTIONS)
    except RuntimeError as exc:
        raise SolverError(f"degenerate elliptic solve failed: {exc}") from exc
    x = np.full(n, float(pinned))
    x[order] = lu.solve(b)
    return x


def solve_w_u(problem: DiskProblem, u, tol: float = 1e-8):
    """Minimizer of Q_u(v) = int u^2 (|grad v|^2 - g(V, grad v)) dM.

    Solves the flux-form Euler-Lagrange system div(u^2 (2 grad w - V)) = 0
    with natural walls.  Its null space is the constants: w is pinned to 0
    at the cell of largest u^2, the rest is factored (`_pinned_solve`),
    and the additive constant is then fixed by zero mean over the interior
    ball t < r0/4.  Returns (w, relative residual).
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("weight u must be positive on the interior")
    W = (u * u).reshape(problem.J.shape)
    K = weighted_stiffness(problem, W, dirichlet=False)
    b = drift_load(problem, W)
    w = _pinned_solve(2.0 * K, W.ravel(), b, 0.0)
    w -= _gauge_vector(problem) @ w
    scale = max(float(np.max(np.abs(b))), 1e-300)
    residual = float(np.max(np.abs(2.0 * K @ w - b))) / scale
    if residual > max(tol, 1e-6):
        raise SolverError(f"potential solve residual {residual:.2e} too large")
    return w.reshape(problem.J.shape), residual


def q_functional(problem: DiskProblem, u, v) -> float:
    """Q_u(v) = int u^2 (|grad v|^2 - g(V, grad v)) dM on the grid.

    Summed face by face in difference form, sum w (v_a - v_b)^2 +
    sum c (v_a - v_b), so constants give exactly zero.
    """
    u = np.asarray(u, dtype=float)
    W = (u * u).reshape(problem.J.shape)
    vv = np.asarray(v, dtype=float).ravel()
    total = 0.0
    for (a, b, w), (_, _, c) in zip(stiffness_faces(problem, W), drift_faces(problem, W)):
        d = vv[a] - vv[b]
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
    A = weighted_stiffness(problem, W, dirichlet=False) + advection_matrix(problem, W)
    vol = volumes(problem)
    G = _pinned_solve(A, W.ravel(), np.zeros(problem.grid.size), 1.0)
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


def l_form(problem: DiskProblem, u, A: sp.spmatrix | None = None) -> float:
    """L(u,u) = int (|grad u|^2 + u g(V, grad u)) dM via the operator pairing."""
    if A is None:
        A = assemble_operator(problem)
    uv = np.asarray(u, dtype=float).ravel()
    vol = volumes(problem)
    return float((vol * uv) @ (A @ uv))


def holland_bound(problem: DiskProblem, u, tol: float = 1e-8,
                  A: sp.spmatrix | None = None) -> HollandReport:
    """One-sided variational bound L(u,u) - inf_v Q_u(v) >= lambda*.

    Trials are validated against the discrete boundary-decay cone and
    L2-normalized internally.  When the drift has no angular component the
    infimum has the closed form -1/4 int u^2 Vt^2 dM with potential
    1/2 int_0^t Vt, and the elliptic solve is skipped.
    """
    u = np.asarray(u, dtype=float).reshape(problem.J.shape)
    _cone_check(problem, u)
    vol = volumes(problem)
    nrm = float(np.sqrt((u.ravel() ** 2 * vol).sum()))
    un = u / nrm
    L_val = l_form(problem, un, A=A)
    if np.all(problem.Vtheta == 0.0):
        q_min = float(-(0.25 * (un ** 2) * problem.Vt ** 2 * problem.J).sum()
                      * problem.grid.dt * problem.grid.dtheta)
        radii = problem.grid.radii()
        w = 0.5 * np.column_stack([
            cumulative_trapezoid_from_origin(problem.Vt[:, l], radii)
            for l in range(problem.grid.n_theta)
        ])
        return HollandReport(L_value=L_val, Q_min=q_min, bound=L_val - q_min,
                             w_u=w, fast_path=True)
    w, _ = solve_w_u(problem, un, tol=tol)
    q_min = q_functional(problem, un, w)
    return HollandReport(L_value=L_val, Q_min=q_min, bound=L_val - q_min,
                         w_u=w, fast_path=False)
