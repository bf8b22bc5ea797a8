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
        if self.t_max <= 0:
            raise ValueError("domain limit must be positive")
        rho0, rho1_0, rho2_0 = (float(v) for v in self.eval(0.0))
        if abs(rho0) > _ZERO_TOL or abs(rho1_0 - 1.0) > _ZERO_TOL or abs(rho2_0) > _ZERO_TOL:
            raise ValueError(
                "warping profile must satisfy rho(0)=0, rho'(0)=1, rho''(0)=0; "
                f"got ({rho0:.3e}, {rho1_0:.6f}, {rho2_0:.3e})"
            )
        probe_end = min(self.t_max, 20.0)
        ts = np.linspace(probe_end / _PROBE_POINTS, probe_end * (1.0 - 1e-9), _PROBE_POINTS)
        rho = np.asarray(self.eval(ts)[0], dtype=float)
        if np.any(rho <= 0.0):
            bad = float(ts[np.argmax(rho <= 0.0)])
            raise ValueError(f"rho must stay positive on (0, t_max); vanishes near t={bad:.6g}")


def make_space_form(kappa: float) -> WarpingFunction:
    """Constant-curvature warping: sin, identity or sinh profile.

    For kappa > 0 the domain is (0, pi/sqrt(kappa)), where the profile
    returns to zero; otherwise it is unbounded.
    """
    kappa = float(kappa)
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
    """h(t) = sum_j coeffs[j] * t**(j+1); the constant term is forced to zero."""
    c = np.asarray(coeffs, dtype=float)
    powers = np.arange(1, c.shape[0] + 1)

    def h(t):
        t = np.asarray(t, dtype=float)
        return np.sum(c * np.power(t[..., None], powers), axis=-1)

    def h_prime(t):
        t = np.asarray(t, dtype=float)
        return np.sum(c * powers * np.power(t[..., None], powers - 1), axis=-1)

    def H(t):
        t = np.asarray(t, dtype=float)
        return np.sum(c / (powers + 1.0) * np.power(t[..., None], powers + 1), axis=-1)

    return DriftProfile(h=h, h_prime=h_prime, H=H)


def drift_from_rate(h: Callable, h_prime: Callable, t_max: float) -> DriftProfile:
    """Build a profile when only h and h' are available analytically.

    The antiderivative is tabulated once by a derivative-corrected trapezoid
    prefix (fourth order) and evaluated through the cubic Hermite
    interpolant that takes the exact slopes H' = h at the nodes; both errors
    sit far below the 1e-6 consistency tolerance.  H(0) = 0 exactly.
    """
    n_fine = 4096
    grid = np.linspace(0.0, float(t_max), n_fine + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(h(grid), dtype=float)
        slopes = np.asarray(h_prime(grid), dtype=float)
    finite = np.isfinite(vals) & np.isfinite(slopes)
    if not finite.all():
        raise ValueError(f"drift h or h' is not finite at t={grid[np.argmin(finite)]:.6g}")
    dx = grid[1] - grid[0]
    prefix = np.zeros_like(grid)
    prefix[1:] = np.cumsum(0.5 * dx * (vals[1:] + vals[:-1]))
    prefix -= dx * dx / 12.0 * (slopes - slopes[0])
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
        h0 = float(self.drift.h(0.0))
        H0 = float(self.drift.H(0.0))
        if abs(h0) > _ZERO_TOL or abs(H0) > _ZERO_TOL:
            raise ValueError("drift must satisfy h(0)=0 and H(0)=0")
        # antiderivative consistency H' = h by central differences
        ts = np.linspace(self.r0 / 7.0, self.r0 * 0.95, 7)
        delta = self.r0 * 1e-4
        fd = (np.asarray(self.drift.H(ts + delta)) - np.asarray(self.drift.H(ts - delta))) / (2 * delta)
        hv = np.asarray(self.drift.h(ts), dtype=float)
        scale = np.maximum(1.0, np.abs(hv))
        if np.any(np.abs(fd - hv) / scale > 1e-6):
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


def volume_ratio_theta(J_val, rho_val, m: int):
    """Volume-element ratio (J/rho)^(m-1) between a subject and its model."""
    rho_arr = np.asarray(rho_val, dtype=float)
    if np.any(rho_arr <= 0.0):
        raise ValueError("model warping value must be positive")
    out = (np.asarray(J_val, dtype=float) / rho_arr) ** (m - 1)
    return float(out) if np.isscalar(J_val) and np.isscalar(rho_val) else out


def extra_condition_lhs(h1, h1_prime, laplacian_r):
    """h1' - h1^2/2 + h1 * (Laplacian of the distance function).

    One routine serves both sides of the drift comparison hypothesis; callers
    supply limit values at t=0.
    """
    h1 = np.asarray(h1, dtype=float)
    out = np.asarray(h1_prime, dtype=float) - 0.5 * h1 ** 2 + h1 * np.asarray(laplacian_r, dtype=float)
    return float(out) if out.ndim == 0 else out
