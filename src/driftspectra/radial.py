"""Radial eigenproblems on model balls and full-spectrum assembly.

For sphere level k the separated equation is

    a'' + ((m-1) rho'/rho - h) a' + (lam - nu_k / rho^2) a = 0,
    a(r0) = 0,  a ~ t^alpha(k) at the origin,

with nu_k = k(k+m-2) and alpha the nonnegative indicial root.  Shooting
integrates the regularized unknown b = a / t^alpha, whose equation is free
of the nu/t^2 potential, so a single RK4 sweep with a stability-limited
geometric startup handles every k.  Eigenvalues are isolated by scanning
the boundary value b(r0; lam) for sign changes and refined by an in-house
Brent iteration plus one Newton polish from the variational identity.
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
    norm: float = 1.0

    @property
    def samples(self) -> np.ndarray:
        return np.column_stack([self.t, self.a])

    def interior_sign_changes(self) -> int:
        vals = self.a[1:-1]
        signs = np.sign(vals[np.abs(vals) > 1e-9 * np.max(np.abs(self.a))])
        if signs.size == 0:
            return 0
        return int(np.count_nonzero(np.diff(signs) != 0))


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

    def to_csv(self) -> str:
        lines = ["lambda,k,i,multiplicity"]
        for e in self.entries:
            lines.append(f"{e.lam:.12g},{e.k},{e.i},{e.multiplicity}")
        return "\n".join(lines) + "\n"


class _RadialPath:
    """Precomputed step sequence and ODE coefficients for one (ball, k, grid).

    The coefficients do not depend on lambda, so one path serves the whole
    scan/refine loop.  P multiplies b', Q0 adds to lambda in the b equation

        b'' + P(t) b' + (Q0(t) + lam) b = 0.
    """

    def __init__(self, ball: ModelBall, k: int, n_t: int = DEFAULT_GRID,
                 substeps: int = 2, eps_frac: float = 1e-6):
        self.ball = ball
        self.k = int(k)
        self.n_t = int(n_t)
        m, r0 = ball.m, ball.r0
        self.nu, _ = sphere_eigenvalue(k, m)
        self.alpha = frobenius_exponent(self.nu, m)
        self.dt = r0 / n_t
        self.nodes = np.linspace(0.0, r0, n_t + 1)
        h_int = self.dt / substeps
        c_stab = min(0.2, 1.0 / (2.0 * self.alpha + m))

        ts = [eps_frac * r0]
        node_steps = np.full(n_t, -1, dtype=int)
        t = ts[0]
        for j in range(1, n_t + 1):
            target = self.nodes[j]
            while t < target - 1e-14 * r0:
                s = min(c_stab * t, h_int, target - t)
                if target - (t + s) < 0.2 * s:
                    s = target - t
                t += s
                ts.append(t)
            ts[-1] = target
            t = target
            node_steps[j - 1] = len(ts) - 2
        ts = np.asarray(ts)
        self.node_steps = node_steps
        self.steps = np.diff(ts)
        t0 = ts[:-1]
        tm = t0 + 0.5 * self.steps
        t1 = ts[1:]
        self.stage_P = tuple(self._coef_P(x) for x in (t0, tm, t1))
        self.stage_Q = tuple(self._coef_Q(x) for x in (t0, tm, t1))
        # python-float copies for the scalar fast path
        self.s_list = self.steps.tolist()
        self.P_lists = tuple(arr.tolist() for arr in self.stage_P)
        self.Q_lists = tuple(arr.tolist() for arr in self.stage_Q)
        self.p_nodes = weight_p(ball, self.nodes)

    def _warp_parts(self, t):
        rho, rho1, _ = self.ball.rho.eval(t)
        rho = np.asarray(rho, dtype=float)
        rho1 = np.asarray(rho1, dtype=float)
        # (t rho' - rho)/(t rho) and (rho - t)(rho + t)/(t^2 rho^2) are analytic at 0
        num = t * rho1 - rho
        c1r_over_t = (self.ball.m - 1) * num / (t * t * rho)
        S = (rho - t) * (rho + t) / (t * t * rho * rho)
        return c1r_over_t, S

    def _coef_P(self, t):
        c1r_over_t, _ = self._warp_parts(t)
        h = np.asarray(self.ball.drift.h(t), dtype=float)
        return (2.0 * self.alpha + self.ball.m - 1.0) / t + t * c1r_over_t - h

    def _coef_Q(self, t):
        c1r_over_t, S = self._warp_parts(t)
        h = np.asarray(self.ball.drift.h(t), dtype=float)
        return self.alpha * (c1r_over_t - h / t) + self.nu * S

    # -- integration ------------------------------------------------------

    def shoot(self, lam: float) -> float:
        """Boundary value b(r0; lam) for a scalar lambda."""
        y1, y2 = 1.0, 0.0
        s = self.s_list
        P0, P1, P2 = self.P_lists
        Q0, Q1, Q2 = self.Q_lists
        for i in range(len(s)):
            si = s[i]
            q0 = Q0[i] + lam
            q1 = Q1[i] + lam
            q2 = Q2[i] + lam
            a1 = y2
            b1 = -P0[i] * y2 - q0 * y1
            u1 = y1 + 0.5 * si * a1
            u2 = y2 + 0.5 * si * b1
            a2 = u2
            b2 = -P1[i] * u2 - q1 * u1
            u1 = y1 + 0.5 * si * a2
            u2 = y2 + 0.5 * si * b2
            a3 = u2
            b3 = -P1[i] * u2 - q1 * u1
            u1 = y1 + si * a3
            u2 = y2 + si * b3
            a4 = u2
            b4 = -P2[i] * u2 - q2 * u1
            y1 += si * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
            y2 += si * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
            if math.isnan(y1) or math.isinf(y1):
                raise SolverError("radial integration overflowed; step size too large")
        return y1

    def shoot_batch(self, lams: np.ndarray) -> np.ndarray:
        lams = np.asarray(lams, dtype=float)
        y1 = np.ones_like(lams)
        y2 = np.zeros_like(lams)
        s = self.steps
        P0, P1, P2 = self.stage_P
        Q0, Q1, Q2 = self.stage_Q
        for i in range(s.shape[0]):
            si = s[i]
            q0 = Q0[i] + lams
            q1 = Q1[i] + lams
            q2 = Q2[i] + lams
            a1 = y2
            b1 = -P0[i] * y2 - q0 * y1
            u1 = y1 + 0.5 * si * a1
            u2 = y2 + 0.5 * si * b1
            a2 = u2
            b2 = -P1[i] * u2 - q1 * u1
            u1 = y1 + 0.5 * si * a2
            u2 = y2 + 0.5 * si * b2
            a3 = u2
            b3 = -P1[i] * u2 - q1 * u1
            u1 = y1 + si * a3
            u2 = y2 + si * b3
            a4 = u2
            b4 = -P2[i] * u2 - q2 * u1
            y1 = y1 + si * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
            y2 = y2 + si * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
        return y1

    def shoot_samples(self, lam: float):
        """Full sweep returning (b, b') at the output nodes, including t=0."""
        n = self.n_t
        b = np.empty(n + 1)
        bp = np.empty(n + 1)
        b[0], bp[0] = 1.0, 0.0
        y1, y2 = 1.0, 0.0
        s = self.s_list
        P0, P1, P2 = self.P_lists
        Q0, Q1, Q2 = self.Q_lists
        flags = np.full(len(s), -1, dtype=int)
        flags[self.node_steps] = np.arange(1, n + 1)
        flag_list = flags.tolist()
        for i in range(len(s)):
            si = s[i]
            q0 = Q0[i] + lam
            q1 = Q1[i] + lam
            q2 = Q2[i] + lam
            a1 = y2
            b1 = -P0[i] * y2 - q0 * y1
            u1 = y1 + 0.5 * si * a1
            u2 = y2 + 0.5 * si * b1
            a2 = u2
            b2 = -P1[i] * u2 - q1 * u1
            u1 = y1 + 0.5 * si * a2
            u2 = y2 + 0.5 * si * b2
            a3 = u2
            b3 = -P1[i] * u2 - q1 * u1
            u1 = y1 + si * a3
            u2 = y2 + si * b3
            a4 = u2
            b4 = -P2[i] * u2 - q2 * u1
            y1 += si * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
            y2 += si * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
            j = flag_list[i]
            if j >= 0:
                b[j] = y1
                bp[j] = y2
        return b, bp

    def to_eigenfunction(self, b: np.ndarray, bp: np.ndarray):
        """Recover a = t^alpha b and a' on the node grid."""
        t = self.nodes
        al = self.alpha
        if al == 0.0:
            return b.copy(), bp.copy()
        ta = np.zeros_like(t)
        ta[1:] = t[1:] ** al
        a = ta * b
        ap = np.empty_like(a)
        ap[1:] = al * t[1:] ** (al - 1.0) * b[1:] + ta[1:] * bp[1:]
        ap[0] = b[0] if al == 1.0 else 0.0
        return a, ap


def _euclid_estimate(k: int, i: int, r0: float) -> float:
    return (math.pi * (i + 0.5 * k) / r0) ** 2


def _scan_brackets(path: _RadialPath, lam_stop, count_stop, max_lambda=None,
                   step_scale: float = 1.0):
    """Walk lambda upward, collecting sign-change brackets of b(r0; lam).

    Stops after `count_stop` brackets or when the ladder passes `lam_stop`.
    Raises EigenvalueWindowError if the window is exhausted first.
    `step_scale` > 1 refines the ladder (used after a zero-count mismatch).
    """
    k, r0 = path.k, path.ball.r0
    if max_lambda is None:
        base = max(_euclid_estimate(k, (count_stop or 1) + 2, r0), lam_stop or 0.0)
        max_lambda = 60.0 * max(1.0, base)
    brackets = []
    lam_prev = 0.0
    f_prev = path.shoot(lam_prev)
    i_next = 1
    while True:
        gap = max(_euclid_estimate(k, i_next + 1, r0) - _euclid_estimate(k, i_next, r0),
                  _euclid_estimate(0, 1, r0))
        step = gap / (4.0 * step_scale)
        ladder = lam_prev + step * np.arange(1, 17)
        f_vals = path.shoot_batch(ladder)
        for lam_c, f_c in zip(ladder, f_vals):
            if lam_c > max_lambda:
                if count_stop is None:
                    return brackets
                raise EigenvalueWindowError(
                    f"no further sign change of a(r0; lambda) for k={k} in "
                    f"[0, {max_lambda:.6g}] after {len(brackets)} roots"
                )
            if f_prev == 0.0:
                f_prev = -f_c if f_c != 0.0 else 1.0
            if f_c != 0.0 and np.sign(f_c) != np.sign(f_prev):
                brackets.append((float(lam_prev), float(lam_c)))
                i_next += 1
            lam_prev, f_prev = float(lam_c), float(f_c)
            if count_stop is not None and len(brackets) >= count_stop:
                return brackets
            if lam_stop is not None and lam_prev > lam_stop and count_stop is None:
                return brackets


@dataclass(frozen=True)
class BrentInfo:
    """Diagnostics of one `brentq` call."""

    root: float
    iterations: int
    function_calls: int
    converged: bool = True


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 8.881784197001252e-16,
           maxiter: int = 100, full_output: bool = False):
    """Root of f in the sign-changing bracket [a, b] by Brent's method.

    A step-for-step port of the classic routine behind
    `scipy.optimize.brentq` (inverse quadratic extrapolation guarded by
    bisection; Brent 1973, ch. 4), so it takes the same iterates and the
    same number of function calls.  Raises ValueError for a bracket without
    a sign change and ConvergenceError after `maxiter` steps.  With
    `full_output` the result is `(root, BrentInfo)`.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    calls, steps = 2, 0

    def done(x):
        return (x, BrentInfo(x, steps, calls)) if full_output else x

    if fpre == 0.0:
        return done(xpre)
    if fcur == 0.0:
        return done(xcur)
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"f(a) and f(b) must have different signs on [{a:.9g}, {b:.9g}]")
    xblk = fblk = spre = scur = 0.0
    for steps in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return done(xcur)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        calls += 1
    raise ConvergenceError(
        f"Brent iteration did not converge in {maxiter} steps on the lambda-bracket "
        f"[{a:.12g}, {b:.12g}]; last iterate {xcur:.12g}"
    )


def _refine_bracket(path: _RadialPath, lo, hi):
    root = brentq(path.shoot, lo, hi, xtol=1e-13 * max(1.0, hi), rtol=1e-15,
                  maxiter=200)
    return float(root)


def _build_mode(path: _RadialPath, lam: float, i: int, tol: float) -> RadialMode:
    ball = path.ball
    b, bp = path.shoot_samples(lam)
    a, ap = path.to_eigenfunction(b, bp)
    # one Newton polish: d a(r0)/d lam = int p a^2 / (p(r0) a'(r0))
    p_r0 = float(path.p_nodes[-1])
    denom = composite_simpson(path.p_nodes * a * a, path.dt)
    if denom > 0.0 and ap[-1] != 0.0:
        delta = -a[-1] * p_r0 * ap[-1] / denom
        if abs(delta) < 0.05 * max(1.0, abs(lam)):
            lam = lam + delta
            b, bp = path.shoot_samples(lam)
            a, ap = path.to_eigenfunction(b, bp)
    norm = math.sqrt(composite_simpson(path.p_nodes * a * a, path.dt))
    if norm <= 0.0:
        raise SolverError("degenerate eigenfunction norm")
    a /= norm
    ap /= norm
    resid = abs(a[-1]) / np.max(np.abs(a))
    if resid > tol:
        raise ConvergenceError(
            f"boundary residual {resid:.2e} exceeds tol {tol:.2e} for lambda={lam:.9g}"
        )
    return RadialMode(nu=path.nu, k=path.k, i=i, lam=float(lam),
                      t=path.nodes.copy(), a=a, a_prime=ap, norm=1.0)


def solve_radial_modes(ball: ModelBall, k: int, count: int, tol: float = DEFAULT_TOL,
                       n_t: int = DEFAULT_GRID, substeps: int = 2,
                       max_lambda: float | None = None):
    """First `count` eigenpairs of the level-k radial problem.

    Mode indices are certified by counting interior zeros; a mismatch
    triggers a rescan with a finer lambda ladder.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    path = _RadialPath(ball, k, n_t=n_t, substeps=substeps)
    for attempt in range(3):
        brackets = _scan_brackets(path, None, count, max_lambda=max_lambda,
                                  step_scale=4.0 ** attempt)
        roots = sorted(_refine_bracket(path, *br) for br in brackets)
        modes = [_build_mode(path, lam, idx + 1, tol) for idx, lam in enumerate(roots)]
        if all(mode.interior_sign_changes() == mode.i - 1 for mode in modes):
            return modes
    raise SolverError(f"zero-count certification failed for k={k}")


def principal_eigenpair(ball: ModelBall, tol: float = DEFAULT_TOL,
                        n_t: int = DEFAULT_GRID, substeps: int = 2) -> RadialMode:
    """Ground mode (k=0, i=1) with the positivity/monotonicity profile asserted."""
    mode = solve_radial_modes(ball, 0, 1, tol=tol, n_t=n_t, substeps=substeps)[0]
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
                      n_t: int = DEFAULT_GRID, substeps: int = 2) -> SpectrumTable:
    """All model-space eigenvalues up to the cutoff with sphere multiplicities.

    The first eigenvalue of level k is nondecreasing in k, so the k loop
    stops at the first level whose ground mode exceeds the cutoff.
    """
    principal = principal_eigenpair(ball, tol=tol, n_t=n_t, substeps=substeps)
    if lambda_cutoff <= principal.lam:
        raise ValueError(
            f"cutoff {lambda_cutoff:.6g} does not exceed the principal eigenvalue "
            f"{principal.lam:.6g}"
        )
    entries = []
    k = 0
    while True:
        _, mult = sphere_eigenvalue(k, ball.m)
        path = _RadialPath(ball, k, n_t=n_t, substeps=substeps)
        brackets = _scan_brackets(path, lambda_cutoff, None)
        roots = []
        for br in brackets:
            lam = _refine_bracket(path, *br)
            if lam <= lambda_cutoff:
                roots.append(lam)
        if not roots:
            break
        for idx, lam in enumerate(sorted(roots)):
            try:
                mode = _build_mode(path, lam, idx + 1, tol)
            except SolverError as exc:
                raise SolverError(f"(k={k}, i={idx + 1}): {exc}") from exc
            entries.append(SpectrumEntry(lam=mode.lam, k=k, i=mode.i, multiplicity=mult))
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


def maisuma_residual(mode: RadialMode, ball: ModelBall) -> float:
    """Max residual of p a' + lam * int_0^t p a, the first-integral identity (k=0)."""
    from scipy.integrate import cumulative_simpson

    p = weight_p(ball, mode.t)
    running = cumulative_simpson(p * mode.a, x=mode.t, initial=0.0)
    resid = p * mode.a_prime + mode.lam * running
    return float(np.max(np.abs(resid)))


def derivative_identity_residual(mode: RadialMode, ball: ModelBall) -> float:
    """Relative defect of ||a'||_p^2 = lam ||a||_p^2 - nu int p a^2 / rho^2."""
    p = weight_p(ball, mode.t)
    dx = mode.t[1] - mode.t[0]
    lhs = composite_simpson(p * mode.a_prime ** 2, dx)
    rhs = mode.lam * composite_simpson(p * mode.a ** 2, dx)
    if mode.nu > 0.0:
        rho = np.asarray(ball.rho.eval(np.where(mode.t == 0.0, mode.t[1], mode.t))[0])
        dens = p * mode.a ** 2 / rho ** 2
        dens[0] = 0.0 if mode.k >= 1 else dens[0]
        rhs -= mode.nu * composite_simpson(dens, dx)
    return abs(lhs - rhs) / max(abs(rhs), 1e-30)
