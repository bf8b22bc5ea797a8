"""Radial eigenproblems on model balls and full-spectrum assembly.

For sphere level k the separated equation is

    a'' + ((m-1) rho'/rho - h) a' + (lam - nu_k / rho^2) a = 0,
    a(r0) = 0,  a ~ t^alpha(k) at the origin,

with nu_k = k(k+m-2) and alpha the nonnegative indicial root.  Shooting
integrates the regularized unknown b = a / t^alpha, whose equation is free
of the nu/t^2 potential, on an RK4 step grid with a stability-limited
geometric startup, one per (r0, n_t, startup ratio) whatever the curvature,
drift or level.  A sweep starts on the regular solution's series
b = 1 + c t^2 at the grid's first point, builds the 2x2 matrices of all
RK4 steps at once and takes their prefix products by a log-depth scan; it
returns b(r0), the sign changes of b on (0, r0] and the node samples.  By
Sturm oscillation the count is the number of level-k eigenvalues below
lam.  One routine, `_count_brackets`, isolates every eigenvalue inside
the one window lam h_max^2 <= 1 the step grid resolves: it doubles a probe
with too few zeros, then bisects on the count until count(lo) = i - 1 and
count(hi) = i.  The one estimate is the level's Ritz values theta_1 <= ...
<= theta_5 over five trials; each drift is a gradient, so by min-max theta_i
lies above lam_i.  The first probe for n eigenvalues is theta_n, capped at
the window edge 1/h_max^2, and a safeguarded Newton iteration refines each
eigenvalue i in its bracket from theta_i, with the step from the variational
identity d a(r0)/d lam = int p a^2 / (p(r0) a'(r0)); every sweep's count
also shrinks the bracket.  A lone eigenvalue starts at the probe and reuses
its sweep, so it takes two.  The result is the last Newton update with the
last sweep's mode.  Ritz matrices, Newton step and mode norm all integrate
with the path's one Simpson weight vector.  The same sweep, from the same
start, integrates the Riccati flow of `compare.riccati_uniqueness`.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EigenvalueWindowError, SolverError
from .geometry import ModelBall, weight_p
from .quadrature import simpson_weights

DEFAULT_GRID = 512
DEFAULT_TOL = 1e-8
SUBSTEPS = 2  # RK4 steps per node interval of the regular part of a step grid
# On 600 balls at levels k <= 2 (m in {2, 3, 4}, |kappa| <= 1, r0 in [0.5, 1.5],
# h = c1 t + c2 t^2) the least Ritz value of j < RITZ_TRIALS trials lies at most
# 1.2e-2 (2 trials), 3.1e-4 (3), 3.7e-6 (4), 8.2e-8 (5) and 2.2e-8 (6) above
# lambda.  From five trials one Newton step nearly always meets the 1e-13 stop:
# a principal pair took two sweeps on 591 (4 trials), 599 (5) and 600 (6) of 600
# other balls, and a sixth trial costs more than the one sweep it saved.  Value
# i starts Newton for lambda_i too: theta_2 lay 1e-9 to 1.3e-2 above lambda_2.
RITZ_TRIALS = 5
# Simpson and RK4 error put the unraised theta_1 up to 3.0e-11 below the discrete
# lambda on those balls; raised by the margin it stays above, so its count is 1.
RITZ_MARGIN = 1e-9


def __getattr__(name):
    # `brentq` is scipy.optimize.brentq, imported on lookup so that this module
    # loads no scipy.  No solver calls it; it exists for the benchmark tracer,
    # which wraps it, and a later benchmark change can drop hook and alias.
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def sphere_eigenvalue(k: int, m: int):
    """Eigenvalue nu_k = k(k+m-2) of the (m-1)-sphere and its multiplicity."""
    if k < 0 or m < 2:
        raise ValueError("need k >= 0 and m >= 2")
    nu = float(k * (k + m - 2))
    mult = math.comb(k + m - 2, k)
    if k >= 1:
        mult += math.comb(k + m - 3, k - 1)
    return nu, mult


def frobenius_exponent(nu: float, m: int) -> float:
    """Nonnegative root of alpha(alpha + m - 2) = nu; equals k when nu = nu_k."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    return 0.5 * (-(m - 2) + math.sqrt((m - 2) ** 2 + 4.0 * nu))


@dataclass(frozen=True, eq=False)
class RadialMode:
    """One eigenpair of the separated radial problem, L2_p-normalized; read-only."""

    nu: float
    k: int
    i: int
    lam: float
    t: np.ndarray
    a: np.ndarray
    a_prime: np.ndarray


@dataclass(eq=False)
class SpectrumEntry:
    lam: float
    k: int
    i: int
    multiplicity: int


@dataclass(eq=False)
class SpectrumTable:
    entries: list
    lambda_cutoff: float


@functools.lru_cache(maxsize=8)
def _step_grid(r0: float, n_t: int, c_stab: float):
    """Nodes, start, steps, RK4 stage abscissae, indices of the steps that end
    on a node and largest step of the grid on (0, r0]; read-only, as every
    path of the key shares them.  With h_int = r0 / (n_t SUBSTEPS), a scalar
    loop builds the geometric startup from 1e-6 r0 in steps of
    min(c_stab t, h_int); past the first node with c_stab t >= h_int, every
    node interval is SUBSTEPS steps of h_int, built by array operations that
    give the loop's floats."""
    nodes = np.linspace(0.0, r0, n_t + 1)
    h_int = r0 / n_t / SUBSTEPS
    # the startup ends at node j0 - 1, the first with c_stab * t >= h_int
    j0 = 1 + int(np.searchsorted(c_stab * nodes[:-1], h_int))
    t_start = t = float(1e-6 * r0)  # where the regular solution's series starts
    ts, node_steps = [t], []
    for target in nodes[1:j0].tolist():
        while t < target - 1e-14 * r0:
            s = min(c_stab * t, h_int, target - t)
            if target - (t + s) < 0.2 * s:
                s = target - t
            t += s
            ts.append(t)
        ts[-1] = t = target
        node_steps.append(len(ts) - 2)
    # regular part: from each node on, h_int is added SUBSTEPS times in
    # the loop's order and the last step is snapped to the next node by
    # the loop's rule; rounding moves no snap while n_t SUBSTEPS^2 << 1e15
    left, right = nodes[j0 - 1:-1], nodes[j0:, None]
    ends = np.cumsum(np.column_stack((left, np.full((left.size, SUBSTEPS), h_int))),
                     axis=1)[:, 1:]
    ts = np.concatenate((ts, np.where(right - ends < 0.2 * h_int, right, ends).ravel()))
    node_steps = np.concatenate(
        (node_steps, node_steps[-1] + SUBSTEPS * np.arange(1, left.size + 1)))
    steps = np.diff(ts)
    x = np.concatenate((ts[:-1], ts[:-1] + 0.5 * steps, ts[1:]))
    nodes.flags.writeable = steps.flags.writeable = x.flags.writeable = False
    node_steps.flags.writeable = False
    return nodes, t_start, steps, x, node_steps, float(steps.max())


def _level_grid(ball: ModelBall, n_t: int, alpha: float):
    """The `_step_grid` of a level: c_stab = min(0.2, 1/(2 alpha + m))."""
    return _step_grid(float(ball.r0), int(n_t), min(0.2, 1.0 / (2.0 * alpha + ball.m)))


def window_edge(ball: ModelBall, n_t: int = DEFAULT_GRID) -> float:
    """1/h_max^2, the largest lambda whose level-0 zeros `_RadialPath.count`
    resolves on (ball, n_t), read off the shared grid without a path."""
    return 1.0 / _level_grid(ball, n_t, 0.0)[-1] ** 2


class _RadialPath:
    """Step grid on (0, r0] with the coefficients of

        b'' + P(t) b' + (Q(t) + lam) b = 0

    tabulated at the RK4 stage points of the level's `_level_grid`.  All
    stage points go through the coefficients in one pass: for sphere level
    k, P and Q are those of b = a / t^alpha; `coefs` replaces them by other
    (P, Q) callables, as the Riccati flow does.  They do not depend on
    lambda, so one path serves every sweep that isolates or refines.  It
    keeps its last sweep and its Ritz values."""

    def __init__(self, ball: ModelBall, k: int, n_t: int = DEFAULT_GRID, coefs=None):
        self.ball = ball
        self.k = int(k)
        self.n_t = int(n_t)
        m, r0 = ball.m, ball.r0
        self.nu, _ = sphere_eigenvalue(k, m)
        self.alpha = frobenius_exponent(self.nu, m)
        (self.nodes, self.t_start, self.steps, x, self.node_steps,
         self.h_max) = _level_grid(ball, self.n_t, self.alpha)
        P, Q = self._coefs(x) if coefs is None else (np.asarray(f(x), dtype=float) for f in coefs)
        self.P_stages, self.Q_stages = P.reshape(3, -1), Q.reshape(3, -1)
        self.p_nodes = weight_p(ball, self.nodes)
        # every radial integral int f p dt is weights @ f, composite Simpson on the nodes
        self.weights = simpson_weights(self.n_t, r0 / self.n_t) * self.p_nodes
        self._last = None, None, None  # lam of the last sweep, its start and what it returned

    def _coefs(self, t):
        """P and Q of the level's regular unknown b = a / t^alpha at the points t."""
        rho, rho1, _ = self.ball.rho.eval(t)
        h = np.asarray(self.ball.drift.h(t), dtype=float)
        # (t rho' - rho)/(t rho) and (rho - t)(rho + t)/(t^2 rho^2) are analytic
        # at 0; formed as quotients they stay in the double range for every r0
        t_rho = t * rho
        c1r_over_t = (self.ball.m - 1) * ((t * rho1 - rho) / t_rho) / t
        S = ((rho - t) / t_rho) * ((rho + t) / t_rho)
        P = (2.0 * self.alpha + self.ball.m - 1.0) / t + t * c1r_over_t - h
        Q = self.alpha * (c1r_over_t - h / t) + self.nu * S
        return P, Q

    # -- integration ------------------------------------------------------

    def integrate(self, lam: float, samples: bool = False):
        """One RK4 sweep of the level's regular solution from the path's first
        point t_s, where it starts on its series b = 1 + c t_s^2, b' = 2 c t_s
        with c = -(Q(t_s) + lam) / (2 (2 alpha + m)); node 0 holds its values
        (1, 0) at t = 0.  (b, b') = (1, 0) at t_s would excite the second
        solution, log t at m = 2, k = 0, and bias lam by a few 1e-12 on every
        grid.  Returns b(r0), the number of sign changes of b along the path
        and, with `samples`, the arrays (b, b') at the nodes, else None.  A
        repeat of the last call's lam reuses its sweep.
        """
        if self._last[0] != lam:
            c = -float(self.Q_stages[0, 0] + lam) / (2.0 * (2.0 * self.alpha + self.ball.m))
            y = 1.0 + c * self.t_start ** 2, 2.0 * c * self.t_start
            self._last = lam, y, self._sweep(lam, *y)
        _, (y1, y2), (end, changes, b, M) = self._last
        if not samples:
            return end, changes, None
        j = self.node_steps
        return end, changes, (np.concatenate(([1.0], b[j])),
                              np.concatenate(([0.0], M[1, 0, j] * y1 + M[1, 1, j] * y2)))

    def _sweep(self, lam: float, y1: float, y2: float):
        """The kernel of `integrate`.  Every RK4 step of the linear system is a
        2x2 matrix; all of them are built at once from the stage arrays and
        their inclusive prefix products M are taken by a log-depth
        (Hillis-Steele) scan.  Returns b(r0), its sign changes, b and M."""
        with np.errstate(over="ignore", invalid="ignore"):  # overflow ends in a non-finite b(r0)
            s, h = self.steps, 0.5 * self.steps
            P0, P1, P2 = self.P_stages
            q0, q1, q2 = self.Q_stages + lam
            # the RK4 stages (a_j, b_j) of (b', b'') from both columns e1, e2 of
            # the identity at once: M[:, c, j] is the image of e_c over step j
            e1, e2 = np.eye(2)[:, :, None]
            b1 = -P0 * e2 - q0 * e1
            a2, u1 = e2 + h * b1, e1 + h * e2
            b2 = -P1 * a2 - q1 * u1
            a3, u1 = e2 + h * b2, e1 + h * a2
            b3 = -P1 * a3 - q1 * u1
            a4, u1 = e2 + s * b3, e1 + s * a3
            b4 = -P2 * a4 - q2 * u1
            M = np.stack([e1 + s * (e2 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0,
                          e2 + s * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0])
            n, d = s.size, 1
            while d < n:
                later, earlier = M[:, :, d:], M[:, :, :-d]
                M[:, :, d:] = later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]
                d *= 2
            b = M[0, 0] * y1 + M[0, 1] * y2
        end = float(b[-1])
        # inf and nan never turn finite again, so one check at the end suffices
        if not math.isfinite(end):
            raise SolverError(f"radial integration overflowed at lambda={lam:.12g} on level "
                              f"k={self.k} (n_t={self.n_t}); step size too large")
        neg = b < 0.0
        changes = int(np.count_nonzero(neg[1:] != neg[:-1])) + int(neg[0] != (y1 < 0.0))
        return end, changes, b, M

    def count(self, lam: float) -> int:
        """Sign changes of b(.; lam) on (0, r0].

        By Sturm oscillation this is the number of level-k eigenvalues below
        lam, provided the step resolves the oscillation: lam * h^2 <= 1 keeps
        more than six steps per period.
        """
        if lam * self.h_max ** 2 > 1.0:
            raise EigenvalueWindowError(
                f"lambda={lam:.6g} is too large for the radial step {self.h_max:.3g} "
                f"(n_t={self.n_t}) to resolve the zeros of level k={self.k}"
            )
        return self.integrate(lam)[1]

    def to_eigenfunction(self, b: np.ndarray, bp: np.ndarray):
        """Recover a = (t/r0)^alpha b and a' on the node grid, both scaled by the
        power of two that brings max |a| into [0.5, 1): large balls and high
        levels stay in range."""
        x, al = self.nodes / self.ball.r0, self.alpha
        a, ap = b, bp
        if al != 0.0:   # alpha = k is an integer
            a = x ** al * b
            ap = x ** al * bp + al / self.ball.r0 * x ** (al - 1.0) * b
        e = math.frexp(float(np.max(np.abs(a))))[1]
        return np.ldexp(a, -e), np.ldexp(ap, -e)

    ritz = functools.cached_property(lambda self: _rayleigh_estimate(self))  # formed once


def _count_brackets(path: _RadialPath, n: int, probes: dict) -> list:
    """Brackets [lo, hi] with count(lo) = i - 1 and count(hi) = i, i = 1..n.

    Starts from the counts `probes` (lambda: count) already taken.  The drift
    Laplacian is positive, so count(0) = 0.  While the largest probe counts
    fewer than n zeros it is doubled, up to the window lam * h_max^2 <= 1
    where `path.count` stops, so a probe below the eigenvalues costs sweeps,
    not the bracket.  Then each index is bisected on the count from the
    tightest bracket seen so far, as every probe is kept.  Counts that are
    not monotone leave no such bracket, and then no mode is returned.
    """
    probes = {0.0: 0, **probes}
    hi = max(probes)
    if not hi > 0.0:
        raise ValueError("the largest probe must be positive")
    while probes[hi] < n:
        try:
            probes[2.0 * hi] = path.count(2.0 * hi)
        except EigenvalueWindowError as exc:
            raise EigenvalueWindowError(
                f"only {probes[hi]} of the {n} eigenvalues requested of level k={path.k} lie "
                f"below lambda={hi:.6g}, the last the radial step (n_t={path.n_t}) resolves"
            ) from exc
        hi *= 2.0
    brackets = []
    for i in range(1, n + 1):
        lo = max(lam for lam, c in probes.items() if c < i)
        hi = min(lam for lam, c in probes.items() if c >= i)
        while probes[lo] != i - 1 or probes[hi] != i:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                raise SolverError(
                    f"Sturm count cannot isolate eigenvalue i={i} of level k={path.k} "
                    f"in the lambda-bracket [{lo:.12g}, {hi:.12g}]"
                )
            c = probes[mid] = path.count(mid)
            if c < i:
                lo = mid
            else:
                hi = mid
        brackets.append((lo, hi))
    return brackets


def _rayleigh_estimate(path: _RadialPath) -> np.ndarray:
    """Ritz values theta_1 <= ... <= theta_RITZ_TRIALS of the quotient
    int p (a'^2 + nu a^2 / rho^2) / int p a^2 over the trials
    a = x^alpha cos(pi x / 2) x^(2j), j < RITZ_TRIALS, x = t / r0, on the
    path's nodes, each raised by the relative RITZ_MARGIN.

    Every radial drift h = H' is a gradient, so the level's operator is
    self-adjoint in L2_p, and by min-max theta_i lies above its i-th
    eigenvalue.  The Gram matrices K and M are Simpson sums; the roots of
    det(K - lam M) = 0 come from the Cholesky factor of M.  All values are
    nan where K or M is not finite or M is not positive definite.
    """
    r0, al = path.ball.r0, path.alpha
    x = path.nodes[1:] / r0   # p(0) = 0 drops the origin, where the trials' formulas are 0/0
    w = path.weights[1:]
    c, s = np.cos(0.5 * math.pi * x), np.sin(0.5 * math.pi * x)
    powers = al + 2.0 * np.arange(RITZ_TRIALS)[:, None]
    with np.errstate(all="ignore"):
        xp = x ** powers
        u, up = xp * c, xp * (powers / x * c - 0.5 * math.pi * s) / r0
        pot = path.nu / path.ball.rho.eval(path.nodes[1:])[0] ** 2
        K = (up * w) @ up.T + (u * (w * pot)) @ u.T
        M = (u * w) @ u.T
    if not (np.all(np.isfinite(K)) and np.all(np.isfinite(M))):
        return np.full(RITZ_TRIALS, math.nan)
    try:
        inv_l = np.linalg.inv(np.linalg.cholesky(M))
    except np.linalg.LinAlgError:
        return np.full(RITZ_TRIALS, math.nan)
    return np.linalg.eigvalsh(inv_l @ K @ inv_l.T) * (1.0 + RITZ_MARGIN)


def _refine(path: _RadialPath, lo: float, hi: float, i: int, maxiter: int = 100):
    """Eigenvalue i of the path's level in its count bracket, and its (a, a').

    Safeguarded Newton (rtsafe) from the Ritz value theta_i, or the
    midpoint if i > RITZ_TRIALS or theta_i is nan or not in (lo, hi]; a
    start at the probe of `solve_radial_modes` reuses its sweep while it is
    the path's last, and from theta_1 one more sweep meets the stop.  Each
    sweep's Sturm count tells the side of the root, so it also shrinks
    [lo, hi]; a step that leaves the bracket or is not below half the step
    before last is replaced by bisection.  Once the step or the bracket is
    below the relative xtol = 1e-13 hi, the last Newton update is returned
    (lambda itself if it leaves the bracket) with the mode of the last sweep.
    """
    bracket = (lo, hi)
    xtol = 1e-13 * hi
    lam = path.ritz[i - 1] if i <= RITZ_TRIALS else math.nan
    if not lo < lam <= hi:
        lam = 0.5 * (lo + hi)
    step = step_old = hi - lo
    for _ in range(maxiter):
        _, changes, (b, bp) = path.integrate(lam, samples=True)
        a, ap = path.to_eigenfunction(b, bp)
        lo, hi = (lo, lam) if changes >= i else (lam, hi)
        # Newton step from d a(r0)/d lam = int p a^2 / (p(r0) a'(r0))
        delta = float(-a[-1] * path.p_nodes[-1] * ap[-1] / (path.weights @ (a * a)))
        inside = lo < lam + delta < hi
        if abs(delta) < xtol or hi - lo < xtol:
            return (lam + delta if inside else lam), a, ap
        if inside and 2.0 * abs(delta) <= abs(step_old):
            step_old, step, lam = step, delta, lam + delta
        else:
            step_old, step = step, 0.5 * (hi - lo)
            lam = lo + step
    raise ConvergenceError(
        f"Newton iteration for eigenvalue i={i} of level k={path.k} (n_t={path.n_t}) "
        f"did not converge in {maxiter} sweeps on the lambda-bracket "
        f"[{bracket[0]:.12g}, {bracket[1]:.12g}]; last iterate {lam:.12g}"
    )


def _build_mode(path: _RadialPath, lo: float, hi: float, i: int, tol: float) -> RadialMode:
    lam, a, ap = _refine(path, lo, hi, i)
    norm = math.sqrt(path.weights @ (a * a))
    if norm <= 0.0:
        raise SolverError(f"degenerate eigenfunction norm for i={i} of level k={path.k}")
    a, ap, t = a / norm, ap / norm, path.nodes.copy()
    a.flags.writeable = ap.flags.writeable = t.flags.writeable = False  # modes are shared
    resid = abs(a[-1]) / np.max(np.abs(a))
    if resid > tol:
        raise ConvergenceError(
            f"boundary residual {resid:.2e} exceeds tol {tol:.2e} for lambda={lam:.9g} "
            f"(i={i} of level k={path.k}, n_t={path.n_t})"
        )
    return RadialMode(nu=path.nu, k=path.k, i=i, lam=float(lam),
                      t=t, a=a, a_prime=ap)


def solve_radial_modes(ball: ModelBall, k: int, count: int, tol: float = DEFAULT_TOL,
                       n_t: int = DEFAULT_GRID):
    """First `count` eigenpairs of the level-k radial problem.

    The first probe is the Ritz value theta_min(count, RITZ_TRIALS), capped
    at the window edge 1/h_max^2, or the edge where that value is nan or not
    positive; each eigenvalue is then isolated by its Sturm count, so the
    i-th mode is the i-th by construction.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    path = _RadialPath(ball, k, n_t=n_t)
    edge = 1.0 / path.h_max ** 2
    probe = path.ritz[min(count, RITZ_TRIALS) - 1]
    probe = min(probe, edge) if probe > 0.0 else edge
    brackets = _count_brackets(path, count, {probe: path.count(probe)})
    return [_build_mode(path, lo, hi, i, tol) for i, (lo, hi) in enumerate(brackets, start=1)]


_PRINCIPAL = weakref.WeakKeyDictionary()  # ball -> {(tol, n_t): its ground mode}


def principal_eigenpair(ball: ModelBall, tol: float = DEFAULT_TOL,
                        n_t: int = DEFAULT_GRID) -> RadialMode:
    """Ground mode (k=0, i=1) with the positivity/monotonicity profile asserted.

    Memoized by ball identity, tol and n_t for the ball's lifetime (a mode
    holds no reference to its ball): later calls share the read-only mode.
    A failed solve stores nothing.
    """
    mode = _PRINCIPAL.get(ball, {}).get((tol, n_t))
    if mode is not None:
        return mode
    mode = solve_radial_modes(ball, 0, 1, tol=tol, n_t=n_t)[0]
    a, ap = mode.a, mode.a_prime
    sup = np.max(np.abs(a))
    if np.any(a[:-1] <= 0.0):
        raise SolverError("principal eigenfunction is not positive on [0, r0)")
    if np.any(ap[1:] > 1e-8 * sup / ball.r0):
        raise SolverError("principal eigenfunction is not decreasing on (0, r0)")
    if ap[-1] >= 0.0:
        raise SolverError("principal eigenfunction has nonnegative slope at r0")
    if abs(ap[0]) > 1e-10 * sup / ball.r0:
        raise SolverError("principal eigenfunction has nonzero slope at 0")
    _PRINCIPAL.setdefault(ball, {})[tol, n_t] = mode
    return mode


def assemble_spectrum(ball: ModelBall, lambda_cutoff: float, tol: float = DEFAULT_TOL,
                      n_t: int = DEFAULT_GRID) -> SpectrumTable:
    """All model-space eigenvalues up to the cutoff with sphere multiplicities.

    The Sturm count at the cutoff gives the number of level-k eigenvalues
    below it.  The first eigenvalue of level k is nondecreasing in k, so
    the k loop stops at the first level with none; a level-0 count of zero
    means the cutoff does not exceed the principal eigenvalue.  The ground
    pair comes from the `principal_eigenpair` memo, so it is solved once.
    """
    if not math.isfinite(lambda_cutoff):
        raise ValueError(f"cutoff must be finite, got {lambda_cutoff}")
    entries = []
    k = 0
    while True:
        path = _RadialPath(ball, k, n_t=n_t)
        n = path.count(lambda_cutoff)
        if n == 0 and k == 0:
            principal = principal_eigenpair(ball, tol=tol, n_t=n_t)
            raise ValueError(
                f"cutoff {lambda_cutoff:.6g} does not exceed the principal eigenvalue "
                f"{principal.lam:.6g}"
            )
        if n == 0:
            break
        _, mult = sphere_eigenvalue(k, ball.m)
        for i, (lo, hi) in enumerate(_count_brackets(path, n, {lambda_cutoff: n}), start=1):
            mode = (principal_eigenpair(ball, tol=tol, n_t=n_t) if k == 0 and i == 1
                    else _build_mode(path, lo, hi, i, tol))
            entries.append(SpectrumEntry(lam=mode.lam, k=k, i=i, multiplicity=mult))
        k += 1
        if k > 1000:
            raise SolverError("spectrum assembly failed to terminate in k")
    entries.sort(key=lambda e: (e.lam, e.k, e.i))
    return SpectrumTable(entries=entries, lambda_cutoff=float(lambda_cutoff))


def _samples_of(obj):
    if isinstance(obj, RadialMode):
        return obj.t, obj.a
    t, v = obj
    return np.asarray(t, dtype=float), np.asarray(v, dtype=float)


def weighted_inner_product(a, b, ball: ModelBall) -> float:
    """L2_p pairing int a b p dt by composite Simpson on the shared grid."""
    ta, va = _samples_of(a)
    tb, vb = _samples_of(b)
    if ta.shape != tb.shape or not np.array_equal(ta, tb):
        raise ValueError("samples must share one uniform grid")
    return float(simpson_weights(ta.size - 1, ta[1] - ta[0]) @ (va * vb * weight_p(ball, ta)))
