"""Radial eigenproblems on model balls and full-spectrum assembly.

For sphere level k the separated equation is

    a'' + ((m-1) rho'/rho - h) a' + (lam - nu_k / rho^2) a = 0,
    a(r0) = 0,  a ~ t^alpha(k) at the origin,

with nu_k = k(k+m-2) and alpha the nonnegative indicial root.  Shooting
integrates the regularized unknown b = a / t^alpha, whose equation is free
of the nu/t^2 potential, on one RK4 step grid with a stability-limited
geometric startup for every k.  A sweep builds the 2x2 matrices of all RK4
steps at once and takes their prefix products by a log-depth scan; it
returns b(r0), the sign changes of b on (0, r0] and the node samples.  By
Sturm oscillation the count is the number of level-k eigenvalues below
lam, so the i-th eigenvalue is isolated by bisecting on the count until
count(lo) = i - 1 and count(hi) = i.  A safeguarded Newton iteration in
that bracket refines it, with the step from the variational identity
d a(r0)/d lam = int p a^2 / (p(r0) a'(r0)); every sweep's count also
shrinks the bracket.  The same sweep integrates the Riccati flow of
`compare.riccati_uniqueness`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EigenvalueWindowError, SolverError
from .geometry import ModelBall, weight_p
from .quadrature import composite_simpson

DEFAULT_GRID = 512
DEFAULT_TOL = 1e-8
SUBSTEPS = 2  # RK4 steps per node interval of the regular part of a step grid


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


@dataclass(eq=False)
class RadialMode:
    """One eigenpair of the separated radial problem, L2_p-normalized."""

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


class _RadialPath:
    """Step grid on (0, r0] with the coefficients of

        b'' + P(t) b' + (Q(t) + lam) b = 0

    tabulated at the RK4 stage points.  With h_int = r0 / (n_t SUBSTEPS), a
    scalar loop builds the geometric startup from 1e-6 r0 in steps of
    min(c_stab t, h_int); past the first node with c_stab t >= h_int, every
    node interval is SUBSTEPS steps of h_int, built by array operations
    that give the loop's floats.  All stage points go through the
    coefficients in one pass: for sphere level k, P and Q are those of
    b = a / t^alpha; `coefs` replaces them by other (P, Q) callables, as the
    Riccati flow does.  The coefficients do not depend on lambda, so one
    path serves every shoot of the isolate/refine loop.
    """

    def __init__(self, ball: ModelBall, k: int, n_t: int = DEFAULT_GRID, coefs=None):
        self.ball = ball
        self.k = int(k)
        self.n_t = int(n_t)
        m, r0 = ball.m, ball.r0
        self.nu, _ = sphere_eigenvalue(k, m)
        self.alpha = frobenius_exponent(self.nu, m)
        self.dt = r0 / n_t
        self.nodes = np.linspace(0.0, r0, n_t + 1)
        h_int = self.dt / SUBSTEPS
        c_stab = min(0.2, 1.0 / (2.0 * self.alpha + m))

        # the startup ends at node j0 - 1, the first with c_stab * t >= h_int
        j0 = 1 + int(np.searchsorted(c_stab * self.nodes[:-1], h_int))
        self.t_start = t = float(1e-6 * r0)  # where (b, b') = (1, 0) is the regular start
        ts, node_steps = [t], []
        for target in self.nodes[1:j0].tolist():
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
        left, right = self.nodes[j0 - 1:-1], self.nodes[j0:, None]
        ends = np.cumsum(np.column_stack((left, np.full((left.size, SUBSTEPS), h_int))),
                         axis=1)[:, 1:]
        ts = np.concatenate((ts, np.where(right - ends < 0.2 * h_int, right, ends).ravel()))
        self.node_steps = np.concatenate(
            (node_steps, node_steps[-1] + SUBSTEPS * np.arange(1, left.size + 1)))
        self.steps = steps = np.diff(ts)
        x = np.concatenate((ts[:-1], ts[:-1] + 0.5 * steps, ts[1:]))  # the RK4 stage abscissae
        P, Q = self._coefs(x) if coefs is None else (np.asarray(f(x), dtype=float) for f in coefs)
        self.P_stages, self.Q_stages = P.reshape(3, -1), Q.reshape(3, -1)
        self.h_max = float(steps.max())
        self.p_nodes = weight_p(ball, self.nodes)

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

    def integrate(self, lam: float, y1: float = 1.0, y2: float = 0.0,
                  samples: bool = False):
        """One RK4 sweep from the path's first point, where (b, b') = (y1, y2).

        Every RK4 step of the linear system is a 2x2 matrix; all of them are
        built at once from the stage arrays and their inclusive prefix
        products are taken by a log-depth (Hillis-Steele) scan.  Returns
        b(r0), the number of sign changes of b along the path and, with
        `samples`, the arrays (b, b') at the nodes (node 0 holds the start
        values), else None.
        """
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
        if not samples:
            return end, changes, None
        j = self.node_steps
        return end, changes, (np.concatenate(([y1], b[j])),
                              np.concatenate(([y2], M[1, 0, j] * y1 + M[1, 1, j] * y2)))

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


def _euclid_estimate(path: _RadialPath, i: float) -> float:
    """Flat-ball eigenvalue (j / r0)^2 with McMahon's estimate
    j = (i + nu/2 - 1/4) pi of the i-th zero of J_nu, nu = k + (m - 2)/2."""
    nu = path.k + 0.5 * (path.ball.m - 2)
    return (math.pi * (i + 0.5 * nu - 0.25) / path.ball.r0) ** 2


def _count_brackets(path: _RadialPath, n: int, hi: float, c_hi: int) -> list:
    """Brackets [lo, hi] with count(lo) = i - 1 and count(hi) = i, i = 1..n.

    Bisects on the Sturm count inside [0, hi], where count(hi) = c_hi >= n.
    The drift Laplacian is positive, so count(0) = 0.  Every probe is kept,
    so each index starts from the tightest bracket seen so far.  Counts that
    are not monotone leave no such bracket, and then no mode is returned.
    """
    probes = {0.0: 0, hi: c_hi}
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


def _isolate(path: _RadialPath, n: int, max_lambda: float | None = None) -> list:
    """Count brackets of the first n level-k eigenvalues.

    An upper end with at least n zeros is found by doubling from the
    Euclidean estimate, up to `max_lambda`.
    """
    k = path.k
    if max_lambda is None:
        max_lambda = 60.0 * max(1.0, _euclid_estimate(path, n + 2))
    hi = min(_euclid_estimate(path, n + 0.5), max_lambda)
    c_hi = path.count(hi)
    while c_hi < n:
        if hi >= max_lambda:
            raise EigenvalueWindowError(
                f"only {c_hi} eigenvalues of level k={k} lie below {max_lambda:.6g}; "
                f"{n} requested"
            )
        hi = min(2.0 * hi, max_lambda)
        c_hi = path.count(hi)
    return _count_brackets(path, n, hi, c_hi)


def _refine(path: _RadialPath, lo: float, hi: float, i: int, maxiter: int = 100):
    """Eigenvalue i of the path's level in its count bracket, and its (a, a').

    Safeguarded Newton (rtsafe): each sweep's Sturm count tells the side of
    the root, so it also shrinks [lo, hi]; a step that leaves the bracket or
    is not below half the step before last is replaced by bisection.  Once
    the step or the bracket is below the relative xtol = 1e-13 hi, a sweep at
    the Newton point, if that moves lambda inside the bracket, is the last.
    """
    bracket = (lo, hi)
    xtol = 1e-13 * hi
    lam = _euclid_estimate(path, i)
    if not lo < lam < hi:
        lam = 0.5 * (lo + hi)
    step = step_old = hi - lo
    last = False
    for _ in range(maxiter):
        _, changes, (b, bp) = path.integrate(lam, samples=True)
        a, ap = path.to_eigenfunction(b, bp)
        if last:
            return lam, a, ap
        lo, hi = (lo, lam) if changes >= i else (lam, hi)
        # Newton step from d a(r0)/d lam = int p a^2 / (p(r0) a'(r0))
        delta = float(-a[-1] * path.p_nodes[-1] * ap[-1]
                      / composite_simpson(path.p_nodes * a * a, path.dt))
        inside = lo < lam + delta < hi
        last = abs(delta) < xtol or hi - lo < xtol
        if last and (not inside or lam + delta == lam):
            return lam, a, ap
        if inside and (last or 2.0 * abs(delta) <= abs(step_old)):
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
    norm = math.sqrt(composite_simpson(path.p_nodes * a * a, path.dt))
    if norm <= 0.0:
        raise SolverError(f"degenerate eigenfunction norm for i={i} of level k={path.k}")
    a, ap = a / norm, ap / norm
    resid = abs(a[-1]) / np.max(np.abs(a))
    if resid > tol:
        raise ConvergenceError(
            f"boundary residual {resid:.2e} exceeds tol {tol:.2e} for lambda={lam:.9g} "
            f"(i={i} of level k={path.k}, n_t={path.n_t})"
        )
    return RadialMode(nu=path.nu, k=path.k, i=i, lam=float(lam),
                      t=path.nodes.copy(), a=a, a_prime=ap)


def solve_radial_modes(ball: ModelBall, k: int, count: int, tol: float = DEFAULT_TOL,
                       n_t: int = DEFAULT_GRID, max_lambda: float | None = None):
    """First `count` eigenpairs of the level-k radial problem.

    An upper end with at least `count` zeros is found by doubling up to
    `max_lambda`; each eigenvalue is then isolated by its Sturm count, so
    the i-th mode is the i-th by construction.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    path = _RadialPath(ball, k, n_t=n_t)
    return [_build_mode(path, lo, hi, i, tol)
            for i, (lo, hi) in enumerate(_isolate(path, count, max_lambda), start=1)]


def principal_eigenpair(ball: ModelBall, tol: float = DEFAULT_TOL,
                        n_t: int = DEFAULT_GRID) -> RadialMode:
    """Ground mode (k=0, i=1) with the positivity/monotonicity profile asserted."""
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
    return mode


def assemble_spectrum(ball: ModelBall, lambda_cutoff: float, tol: float = DEFAULT_TOL,
                      n_t: int = DEFAULT_GRID) -> SpectrumTable:
    """All model-space eigenvalues up to the cutoff with sphere multiplicities.

    The Sturm count at the cutoff gives the number of level-k eigenvalues
    below it.  The first eigenvalue of level k is nondecreasing in k, so
    the k loop stops at the first level with none; a level-0 count of zero
    means the cutoff does not exceed the principal eigenvalue.
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
        for i, (lo, hi) in enumerate(_count_brackets(path, n, lambda_cutoff, n), start=1):
            mode = _build_mode(path, lo, hi, i, tol)
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
    dx = ta[1] - ta[0]
    return composite_simpson(va * vb * weight_p(ball, ta), dx)
