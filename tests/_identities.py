"""Residuals of identities the solvers' output must satisfy; used only by tests.

Kept apart from `_oracles.py`, which the benchmark loads at set-up: these
helpers import `scipy.integrate`, which the 1-D layer itself never needs,
and `radial_ibp_check` and `central_difference_derivative` load the 2-D
layer on their call.
"""

import numpy as np

from driftspectra.geometry import DriftProfile, ModelBall, weight_p
from driftspectra.quadrature import simpson_weights
from driftspectra.radial import principal_eigenpair


def interior_sign_changes(mode) -> int:
    """Sign changes of a radial mode strictly inside (0, r0), ignoring roundoff-level samples."""
    vals = mode.a[1:-1]
    signs = np.sign(vals[np.abs(vals) > 1e-9 * np.max(np.abs(mode.a))])
    if signs.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(signs) != 0))


def maisuma_residual(mode, ball) -> float:
    """Max residual of p a' + lam * int_0^t p a, the first-integral identity (k=0)."""
    from scipy.integrate import cumulative_simpson

    p = weight_p(ball, mode.t)
    running = cumulative_simpson(p * mode.a, x=mode.t, initial=0.0)
    resid = p * mode.a_prime + mode.lam * running
    return float(np.max(np.abs(resid)))


def derivative_identity_residual(mode, ball) -> float:
    """Relative defect of ||a'||_p^2 = lam ||a||_p^2 - nu int p a^2 / rho^2."""
    p = weight_p(ball, mode.t)
    w = simpson_weights(mode.t.size - 1, mode.t[1] - mode.t[0])
    lhs = w @ (p * mode.a_prime ** 2)
    rhs = mode.lam * (w @ (p * mode.a ** 2))
    if mode.nu > 0.0:
        rho = np.asarray(ball.rho.eval(np.where(mode.t == 0.0, mode.t[1], mode.t))[0])
        dens = p * mode.a ** 2 / rho ** 2
        dens[0] = 0.0 if mode.k >= 1 else dens[0]
        rhs -= mode.nu * (w @ dens)
    return abs(lhs - rhs) / max(abs(rhs), 1e-30)


def radial_divergence_profile(h1: np.ndarray, J: np.ndarray, t: np.ndarray, m: int):
    """(div V, (h1 J^{m-1})') sample pair for the monotonicity equivalence."""
    Jm = J ** (m - 1)
    prod = h1 * Jm
    dprod = np.gradient(prod, t)
    dh1 = np.gradient(h1, t)
    dJ = np.gradient(J, t)
    div = dh1 + (m - 1) * h1 * dJ / J
    return div, dprod


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


def radial_ibp_check(problem, u, phi) -> float:
    """Absolute defect of the radial integration-by-parts identity

        int phi du/dt dM = - int u (dphi/dt + phi * Lap r) dM

    for u vanishing on the wall and phi vanishing at the origin (checked by
    extrapolating the first two rings).  Probes the quadrature plus the
    distance-Laplacian stencils.
    """
    from driftspectra.disk import volumes

    dt = problem.grid.dt
    u = np.asarray(u, dtype=float).reshape(problem.J.shape)
    phi = np.asarray(phi, dtype=float).reshape(problem.J.shape)
    phi_at0 = 1.5 * phi[0, :] - 0.5 * phi[1, :]
    scale = max(float(np.max(np.abs(phi))), 1e-300)
    if np.max(np.abs(phi_at0)) > 1e-6 * scale:
        raise ValueError("phi must extrapolate to 0 at the origin")

    half = problem.grid.n_theta // 2
    du = radial_derivative(u, dt, ghost=np.roll(u[0, :], half), dirichlet=True)
    dphi = radial_derivative(phi, dt, ghost=np.roll(phi[0, :], half))
    Jt = radial_derivative(problem.J, dt)
    lap_r = Jt / problem.J
    vol = volumes(problem).reshape(problem.J.shape)
    lhs = float((phi * du * vol).sum())
    rhs = -float((u * (dphi + phi * lap_r) * vol).sum())
    return abs(lhs - rhs)


def central_difference_derivative(base, f, eps: float = 1e-4, tol: float = 1e-11) -> float:
    """(lambda(eps) - lambda(-eps)) / (2 eps) under the drift eps * grad f.

    The reference for `compare.derivative_lambda_eps`, with the same
    arguments: a ModelBall and radial (f, f', f''), or a DiskProblem and
    (f, f_t, f_theta); the base's own drift is dropped.  Two full solves at
    the solver tolerance `tol`.
    """
    lams = []
    for s in (eps, -eps):
        if isinstance(base, ModelBall):
            f0, f1, f2 = f
            drift = DriftProfile(
                h=lambda t, s=s: s * np.asarray(f1(t), dtype=float),
                h_prime=lambda t, s=s: s * np.asarray(f2(t), dtype=float),
                H=lambda t, s=s: s * (np.asarray(f0(t), dtype=float) - float(f0(0.0))))
            ball = ModelBall(m=base.m, r0=base.r0, rho=base.rho, drift=drift)
            lams.append(principal_eigenpair(ball, tol=tol).lam)
        else:
            from driftspectra.disk import solve_principal

            _, ft, fth = f
            grid = base.grid
            problem = base.with_drift(s * grid.sample(ft), s * grid.sample(fth) / base.J ** 2)
            lams.append(solve_principal(problem, tol=tol)[0].lam)
    return (lams[0] - lams[1]) / (2.0 * eps)
