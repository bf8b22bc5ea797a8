"""Spherically symmetric model balls: warping profiles, radial drifts, weights.

All quantities with a 0/0 form at the origin (curvature, drift divergence,
log-derivative of the weight) are evaluated through explicitly coded limits,
never by raw division at t=0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_ZERO_TOL = 1e-12
_PROBE_POINTS = 64


@dataclass(frozen=True, eq=False)
class WarpingFunction:
    """Radial profile of a warped metric, t -> (rho, rho', rho'') on [0, t_max).

    kind is "space_form" (constant curvature kappa) or "custom"; custom
    profiles must supply analytic first and second derivatives, numpy-ready.
    """

    kind: str
    eval: Callable
    t_max: float
    kappa: float | None = None

    def __post_init__(self):
        if not self.t_max > 0:
            raise ValueError("domain limit must be positive")
        with np.errstate(all="ignore"):  # a non-finite value fails the checks below
            rho0, rho1_0, rho2_0 = (float(v) for v in self.eval(0.0))
            probe_end = min(self.t_max, 20.0)
            ts = np.linspace(probe_end / _PROBE_POINTS, probe_end * (1.0 - 1e-9), _PROBE_POINTS)
            rho = np.asarray(self.eval(ts)[0], dtype=float)
        if not max(abs(rho0), abs(rho1_0 - 1.0), abs(rho2_0)) <= _ZERO_TOL:
            raise ValueError(
                "warping profile must satisfy rho(0)=0, rho'(0)=1, rho''(0)=0; "
                f"got ({rho0:.3e}, {rho1_0:.6f}, {rho2_0:.3e})"
            )
        if not np.all(rho > 0.0):
            bad = float(ts[np.argmin(rho > 0.0)])
            raise ValueError(f"rho must stay positive on (0, t_max); vanishes near t={bad:.6g}")


def make_space_form(kappa: float) -> WarpingFunction:
    """Constant-curvature warping: sin, identity or sinh profile.

    For kappa > 0 the domain is (0, pi/sqrt(kappa)), where the profile
    returns to zero; otherwise it is unbounded.
    """
    kappa = float(kappa)
    if not math.isfinite(kappa):
        raise ValueError(f"curvature must be finite, got {kappa:g}")
    if kappa > 0.0:
        s = math.sqrt(kappa)
        t_max = math.pi / s

        def ev(t):
            t = np.asarray(t, dtype=float)
            return np.sin(s * t) / s, np.cos(s * t), -s * np.sin(s * t)

    elif kappa == 0.0:
        t_max = math.inf

        def ev(t):
            t = np.asarray(t, dtype=float)
            return t, np.ones_like(t), np.zeros_like(t)

    else:
        s = math.sqrt(-kappa)
        t_max = math.inf

        def ev(t):
            t = np.asarray(t, dtype=float)
            return np.sinh(s * t) / s, np.cosh(s * t), s * np.sinh(s * t)

    return WarpingFunction(kind="space_form", eval=ev, t_max=t_max, kappa=kappa)


def custom_warping(rho: Callable, rho_prime: Callable, rho_second: Callable,
                   t_max: float) -> WarpingFunction:
    """Wrap analytic closures for rho and its first two derivatives."""

    def ev(t):
        t = np.asarray(t, dtype=float)
        return (np.asarray(rho(t), dtype=float),
                np.asarray(rho_prime(t), dtype=float),
                np.asarray(rho_second(t), dtype=float))

    return WarpingFunction(kind="custom", eval=ev, t_max=float(t_max))


@dataclass(frozen=True, eq=False)
class DriftProfile:
    """Radial drift magnitude h with derivative and antiderivative H, H(0)=0."""

    h: Callable
    h_prime: Callable
    H: Callable


def zero_drift() -> DriftProfile:
    def z(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return DriftProfile(h=z, h_prime=z, H=z)


def polynomial_drift(coeffs) -> DriftProfile:
    """h(t) = sum_j coeffs[j] * t**(j+1); the constant term is forced to zero.

    h, h' and H sum their terms in order of degree, each power of t the
    product of the one before and t.  Coefficients must be finite.
    """
    c = np.asarray(coeffs, dtype=float).reshape(-1)
    if not np.all(np.isfinite(c)):
        raise ValueError(f"drift coefficients must be finite, got {c.tolist()}")
    powers = np.arange(1, c.shape[0] + 1)

    def series(coefs, first):
        def f(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros_like(t)
            for j, cj in enumerate(coefs):
                p = first(t) if j == 0 else p * t
                out = out + cj * p
            return out

        return f

    return DriftProfile(h=series(c, lambda t: t), h_prime=series(c * powers, np.ones_like),
                        H=series(c / (powers + 1.0), lambda t: t * t))


def drift_from_rate(h: Callable, h_prime: Callable, t_max: float) -> DriftProfile:
    """Build a profile when only h and h' are available analytically.

    The antiderivative is tabulated once by a derivative-corrected trapezoid
    prefix (fourth order) and evaluated through the cubic Hermite
    interpolant that takes the exact slopes H' = h at the nodes; both errors
    sit far below the 1e-6 consistency tolerance.  H(0) = 0 exactly.
    """
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"drift range must be positive and finite, got t_max={t_max:g}")
    n_fine = 4096
    grid = np.linspace(0.0, float(t_max), n_fine + 1)
    dx = float(grid[1] - grid[0])
    if not math.isfinite(dx * dx / 12.0):
        raise ValueError(f"drift range t_max={t_max:g} is too large for the antiderivative table")
    prefix = np.zeros_like(grid)
    with np.errstate(all="ignore"):  # a value that overflows or is undefined fails the check
        vals = np.asarray(h(grid), dtype=float)
        slopes = np.asarray(h_prime(grid), dtype=float)
        prefix[1:] = np.cumsum(0.5 * dx * (vals[1:] + vals[:-1]))
        prefix -= dx * dx / 12.0 * (slopes - slopes[0])
    finite = np.isfinite(vals) & np.isfinite(slopes) & np.isfinite(prefix)
    if not finite.all():
        raise ValueError(f"drift h, h' or H is not finite at t={grid[np.argmin(finite)]:.6g}")
    # per-cell cubic y0 + s (d0 + s (c2 + s c3)) in s = (t - x_j) / dx
    d0, d1 = dx * vals[:-1], dx * vals[1:]
    jump = prefix[1:] - prefix[:-1]
    c2 = 3.0 * jump - 2.0 * d0 - d1
    c3 = d0 + d1 - 2.0 * jump

    def H(t):
        t = np.asarray(t, dtype=float)
        j = np.clip(np.floor(t / dx).astype(int), 0, n_fine - 1)
        s = t / dx - j
        return prefix[j] + s * (d0[j] + s * (c2[j] + s * c3[j]))

    return DriftProfile(h=h, h_prime=h_prime, H=H)


@dataclass(frozen=True, eq=False)
class ModelBall:
    """Geodesic ball of a warped model space with a radial drift field."""

    m: int
    r0: float
    rho: WarpingFunction
    drift: DriftProfile

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise ValueError("dimension m must be an integer >= 2")
        if not (0.0 < self.r0 < self.rho.t_max):
            raise ValueError(f"radius must satisfy 0 < r0 < {self.rho.t_max}")
        # the solvers scale by r0^2 and r0^-2, and the radial weight rho^(m-1) dt by r0^m
        if not abs(self.m * math.log2(self.r0)) < 1024.0:
            hi = 2.0 ** (1024.0 / self.m)
            raise ValueError(f"radius {self.r0:g} is out of range for m={self.m}: r0^m and "
                             f"r0^-m stay finite only for {1.0 / hi:.3g} < r0 < {hi:.3g}")
        h0, H0 = float(self.drift.h(0.0)), float(self.drift.H(0.0))
        if not (abs(h0) <= _ZERO_TOL and abs(H0) <= _ZERO_TOL):  # nan fails too
            raise ValueError("drift must satisfy h(0)=0 and H(0)=0")
        # antiderivative consistency H' = h by central differences
        ts = np.linspace(self.r0 / 7.0, self.r0 * 0.95, 7)
        delta = self.r0 * 1e-4
        fd = (np.asarray(self.drift.H(ts + delta)) - np.asarray(self.drift.H(ts - delta))) / (2 * delta)
        hv = np.asarray(self.drift.h(ts), dtype=float)
        scale = np.maximum(1.0, np.abs(hv))
        if not np.all(np.abs(fd - hv) / scale <= 1e-6):
            raise ValueError("drift antiderivative is inconsistent: H' != h beyond 1e-6")


def euclidean_ball(m: int, r0: float, drift: DriftProfile | None = None) -> ModelBall:
    return ModelBall(m=m, r0=r0, rho=make_space_form(0.0), drift=drift or zero_drift())


def space_form_ball(kappa: float, m: int, r0: float,
                    drift: DriftProfile | None = None) -> ModelBall:
    return ModelBall(m=m, r0=r0, rho=make_space_form(kappa), drift=drift or zero_drift())


def radial_sectional_curvature(w: WarpingFunction, t):
    """Curvature -rho''/rho of the radial planes; at t=0 the limit is used.

    Space forms return kappa exactly.  For custom profiles the t=0 value is
    the limit of the ratio, evaluated at a point 1e-6 of the domain inward.
    """
    t_arr = np.asarray(t, dtype=float)
    if w.kind == "space_form":
        out = np.full_like(t_arr, w.kappa, dtype=float)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out
    delta = 1e-6 * min(w.t_max, 1.0)
    safe = np.where(t_arr == 0.0, delta, t_arr)
    rho, _, rho2 = w.eval(safe)
    out = -np.asarray(rho2) / np.asarray(rho)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def weight_p(ball: ModelBall, t):
    """Radial weight rho^(m-1) * exp(-H); zero at and below the origin."""
    t_arr = np.asarray(t, dtype=float)
    safe = np.where(t_arr <= 0.0, ball.r0 * 0.5, t_arr)
    rho = np.asarray(ball.rho.eval(safe)[0], dtype=float)
    val = rho ** (ball.m - 1) * np.exp(-np.asarray(ball.drift.H(safe), dtype=float))
    out = np.where(t_arr <= 0.0, 0.0, val)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def drift_divergence(ball: ModelBall, t):
    """div of the radial drift h(t) d/dt: h' + (m-1) h rho'/rho, limit m h'(0) at 0."""
    t_arr = np.asarray(t, dtype=float)
    safe = np.where(t_arr == 0.0, ball.r0 * 0.5, t_arr)
    rho, rho1, _ = ball.rho.eval(safe)
    hv = np.asarray(ball.drift.h(safe), dtype=float)
    hp = np.asarray(ball.drift.h_prime(safe), dtype=float)
    interior = hp + (ball.m - 1) * hv * np.asarray(rho1) / np.asarray(rho)
    at_zero = ball.m * float(ball.drift.h_prime(0.0))
    out = np.where(t_arr == 0.0, at_zero, interior)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def extra_drift_profile(ball: ModelBall, t):
    """div(V) - |V|^2/2 for the radial drift; the comparison hypotheses use it.

    Continuous through t=0 because h(0)=0, where it equals m h'(0).
    """
    t_arr = np.asarray(t, dtype=float)
    hv = np.asarray(ball.drift.h(t_arr), dtype=float)
    out = drift_divergence(ball, t) - 0.5 * hv ** 2
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def extra_condition_lhs(h1, h1_prime, laplacian_r):
    """h1' - h1^2/2 + h1 * (Laplacian of the distance function).

    One routine serves both sides of the drift comparison hypothesis; callers
    supply limit values at t=0.
    """
    h1 = np.asarray(h1, dtype=float)
    out = np.asarray(h1_prime, dtype=float) - 0.5 * h1 ** 2 + h1 * np.asarray(laplacian_r, dtype=float)
    return float(out) if out.ndim == 0 else out
