"""Hypothesis checking and conclusion testing for the eigenvalue comparisons.

`run_case` verifies both model comparisons from one per-mode table: the
sectional (Cheng-type) one, smaller curvature and drift giving a larger
eigenvalue, and the Ricci one, where div V - |V|^2/2 reverses the inequality.
Premises are sampled pointwise (analytic closures, never grid differences of
samples), both sides are solved, and the verdict holds premises_hold, the
inequality's margin and an equality-case flag.  Premise failure is not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import radial as radial_mod
from .errors import LogarithmicBranchError, SolverError
from .geometry import (DriftProfile, ModelBall, extra_condition_lhs,
                       extra_drift_profile, radial_sectional_curvature)

PREMISE_TOL = 1e-9
TRANSPORT_TOL = 1e-6
SAMPLES_1D = 401
RICCATI_GRID = 1024  # node intervals of the Riccati flow's shooting path


@dataclass(eq=False)
class AnalyticDisk:
    """2-D subject with analytically supplied metric coefficient and drift.

    Curvature and distance-Laplacian come from the closures (J, J_t, J_tt),
    not from grid samples; the discrete problem is built on demand.
    """

    r0: float
    J: Callable
    J_t: Callable
    J_tt: Callable
    h1: Callable | None = None
    h1_t: Callable | None = None
    vtheta: Callable | None = None
    m: int = 2

    def __post_init__(self):
        if (self.h1 is None) != (self.h1_t is None):
            raise ValueError("the radial drift h1 and its derivative h1_t come together")

    def curvature(self, t, th):
        return -np.asarray(self.J_tt(t, th)) / np.asarray(self.J(t, th))

    def laplace_r(self, t, th):
        return (self.m - 1) * np.asarray(self.J_t(t, th)) / np.asarray(self.J(t, th))

    def build(self, n_t: int, n_theta: int) -> DiskProblem:
        from .disk import DiskProblem, PolarGrid

        grid = PolarGrid(n_t=n_t, n_theta=n_theta, r0=self.r0)
        return DiskProblem(grid=grid, J=grid.sample(self.J), Vt=grid.sample(self.h1),
                           Vtheta=grid.sample(self.vtheta))


@dataclass(eq=False)
class ComparisonCase:
    subject: object  # ModelBall or AnalyticDisk
    model: ModelBall
    mode: str  # a key of _STATEMENTS: sectional | ricci
    label: str = ""
    grid_2d: tuple | None = None  # (n_t, n_theta); None: the disk defaults


@dataclass(eq=False)
class ComparisonVerdict:
    label: str
    mode: str
    premises_hold: bool
    premise_margins: dict
    lambda_subject: float
    lambda_model: float
    margin: float
    conclusion_holds: bool
    equality_case: bool
    notes: list = field(default_factory=list)


# -- premise sampling --------------------------------------------------------

class _Samples(NamedTuple):
    """One side of a comparison sampled for its premises.

    K, h and the drift profile div V - |V|^2/2 on the whole t-grid (limit
    values at t = 0), J and J' on its interior.  A ball's samples are
    columns that broadcast against a disk's (t, theta) arrays.
    """

    K: np.ndarray
    h: np.ndarray
    extra: np.ndarray
    J: np.ndarray
    J1: np.ndarray
    swirl: bool  # a nonzero angular drift somewhere on the interior


def _sample(side, ts, thetas) -> _Samples:
    if isinstance(side, ModelBall):
        J, J1, _ = side.rho.eval(ts[1:])
        cols = (radial_sectional_curvature(side.rho, ts), side.drift.h(ts),
                extra_drift_profile(side, ts), J, J1)
        return _Samples(*(np.asarray(c, dtype=float)[:, None] for c in cols), False)
    row = np.ones((1, thetas.size))
    T = ts[:, None] * row

    def at(f, t):
        """f on the rows of t against the sample angles; zeros when f is None."""
        th = np.broadcast_to(thetas, t.shape)
        return np.zeros_like(t) if f is None else np.asarray(f(t, th), dtype=float) * np.ones_like(t)

    h = at(side.h1, T)
    K = np.vstack([at(side.curvature, 1e-8 * side.r0 * row), at(side.curvature, T[1:])])
    J, J1, vtheta = (at(f, T[1:]) for f in (side.J, side.J_t, side.vtheta))
    if side.h1 is None:
        extra = h
    else:  # the t = 0 limit of div V - |V|^2/2 is m h1'(0)
        lhs = extra_condition_lhs(h[1:], at(side.h1_t, T[1:]), at(side.laplace_r, T[1:]))
        extra = np.vstack([side.m * at(side.h1_t, 0.0 * row), lhs])
    return _Samples(K, h, extra, J, J1, bool(np.any(vtheta != 0.0)))


def _principal(ball: ModelBall, solved: dict | None):
    """Ground mode of a model ball, solved once per ball in `solved`."""
    solved = {} if solved is None else solved
    if ball not in solved:
        solved[ball] = radial_mod.principal_eigenpair(ball)
    return solved[ball]


def _subject_lambda(case: ComparisonCase, solved: dict | None):
    if isinstance(case.subject, ModelBall):
        mode = _principal(case.subject, solved)
        return mode.lam, 1e-9, mode
    from .disk import DEFAULT_NT, DEFAULT_NTHETA, solve_principal

    problem = case.subject.build(*(case.grid_2d or (DEFAULT_NT, DEFAULT_NTHETA)))
    pair, _ = solve_principal(problem, tol=1e-7)
    dt, dth = problem.grid.dt, problem.grid.dtheta
    return pair.lam, 10.0 * pair.lam * (dt * dt + dth * dth * 0.05), pair


def _sectional_premises(s: _Samples, m: _Samples, notes):
    """K_subject <= K_model and h1 <= h; their consequence is (J/rho)' >= 0."""
    return {"curvature": float(np.min(m.K - s.K)), "drift": float(np.min(m.h - s.h))}


def _ricci_premises(s: _Samples, m: _Samples, notes):
    """Ric and div V - |V|^2/2 at least the model's, h >= 0; -(J/rho)' >= 0 follows."""
    if s.swirl:
        raise ValueError("the Ricci comparison requires a radial subject drift")
    if np.min(s.h) < -PREMISE_TOL:
        notes.append("subject drift changes sign: outside the statement's exercised range")
    # Ricci(d/dt, d/dt) = (m-1) * radial curvature on both sides
    return {"ricci": float(np.min(s.K - m.K)), "extra_condition": float(np.min(s.extra - m.extra)),
            "model_drift_sign": float(np.min(m.h))}


class _Statement(NamedTuple):
    premises: Callable  # (subject samples, model samples, notes) -> margins
    word: str  # names the premises in the volume-ratio note
    subject_larger: bool  # lambda_subject >= lambda_model and (J/rho)' >= 0; else both reverse
    equality_margins: tuple  # premise margins that vanish in the equality case


_STATEMENTS = {
    "sectional": _Statement(_sectional_premises, "curvature", True, ("curvature", "drift")),
    "ricci": _Statement(_ricci_premises, "Ricci", False, ("extra_condition",)),
}


def run_case(case: ComparisonCase, solved: dict | None = None) -> ComparisonVerdict:
    """Verdict of the comparison statement `case.mode` (a key of _STATEMENTS).

    The premises are sampled pointwise and the volume-ratio monotonicity they
    imply is checked alongside; the eigenvalue inequality then gets the
    solvers' accuracy allowance.  In Ricci equality cases the eigenfunction
    transport omega_subject = omega_model * exp((H1 - H)/2) is checked too.
    """
    statement = _STATEMENTS.get(case.mode)
    if statement is None:
        raise ValueError(f"unknown comparison mode {case.mode!r}")
    ts = np.linspace(0.0, case.model.r0, SAMPLES_1D)
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    s, m = (_sample(side, ts, thetas) for side in (case.subject, case.model))
    notes = []
    margins = statement.premises(s, m, notes)
    premises = all(v >= -PREMISE_TOL for v in margins.values())
    slope = (s.J1 * m.J - s.J * m.J1) / m.J ** 2  # (J/rho)'
    margins["volume_ratio_slope"] = float(np.min(slope if statement.subject_larger else -slope))
    if premises and margins["volume_ratio_slope"] < -PREMISE_TOL:
        notes.append(f"volume-ratio monotonicity violated despite {statement.word} premise")
        premises = False

    mode_m = _principal(case.model, solved)
    lam_m = mode_m.lam
    if not premises:
        return ComparisonVerdict(case.label, case.mode, False, margins,
                                 math.nan, lam_m, math.nan, False, False, notes)
    lam_s, allowance, sol_s = _subject_lambda(case, solved)
    tol = 1e-9 + allowance
    margin = lam_s - lam_m if statement.subject_larger else lam_m - lam_s
    conclusion = margin >= -tol
    equality = abs(margin) <= tol and all(abs(margins[k]) <= math.sqrt(PREMISE_TOL)
                                          for k in statement.equality_margins)
    if case.mode == "ricci" and equality and isinstance(case.subject, ModelBall):
        resid = _eigenfunction_transport_residual(case.subject, case.model, sol_s, mode_m)
        notes.append(f"transport residual {resid:.2e}")
        if resid > TRANSPORT_TOL:
            conclusion = False
            notes.append("eigenfunction transport relation failed")
    return ComparisonVerdict(case.label, case.mode, True, margins, lam_s, lam_m,
                             margin, conclusion, equality, notes)


def _eigenfunction_transport_residual(subject: ModelBall, model: ModelBall,
                                      mode_s, mode_m) -> float:
    """Sup distance between omega_subject and omega_model e^{(H1-H)/2}."""
    t = mode_m.t
    H1 = np.asarray(subject.drift.H(t), dtype=float)
    H = np.asarray(model.drift.H(t), dtype=float)
    cand = mode_m.a * np.exp(0.5 * (H1 - H))
    cand /= np.max(np.abs(cand))
    ref = mode_s.a / np.max(np.abs(mode_s.a))
    return float(np.max(np.abs(cand - ref)))


def verify_divergence_comparison(problem: DiskProblem, tol: float = 1e-6) -> ComparisonVerdict:
    """Nonpositive drift divergence forces lambda*_0 <= lambda*_V.

    When div(V) vanishes identically and the drift is purely angular, the
    equality mechanism (radial ground mode unchanged) is checked too.
    """
    from .disk import angular_std, divergence_field, solve_principal

    div = divergence_field(problem)
    div_max = float(np.max(div))
    margins = {"divergence": -div_max}
    premises = div_max <= PREMISE_TOL
    notes = []
    pair0, _ = solve_principal(problem.with_drift(), tol=1e-7)
    if not premises:
        return ComparisonVerdict("cor-div", "divergence", False, margins,
                                 math.nan, pair0.lam, math.nan, False, False,
                                 ["positive divergence on the grid"])
    pairV, _ = solve_principal(problem, tol=1e-7)
    margin = pairV.lam - pair0.lam
    conclusion = margin >= -tol
    equality = False
    if float(np.max(np.abs(div))) <= PREMISE_TOL and np.all(problem.Vt == 0.0):
        equality = abs(margin) <= tol
        astd = angular_std(pairV.omega)
        notes.append(f"angular std of omega {astd:.2e}")
        if astd > 1e-6:
            notes.append("equality mechanism failed: omega not radial")
            conclusion = False
    return ComparisonVerdict("cor-div", "divergence", True, margins,
                             pairV.lam, pair0.lam, margin, conclusion,
                             equality, notes)


@dataclass(eq=False)
class SandwichResult:
    lower_gap: float
    upper_gap: float
    lam_zero: float
    lam_drift: float
    combined_tol: float


def eigenvalue_sandwich(problem: DiskProblem, tol: float = 1e-7) -> SandwichResult:
    """Slacks of the drift/driftless eigenvalue sandwich.

    With L2-normalized ground modes omega_0 and omega_V,

        lambda_V + 1/2 int (div V - 2|grad w|^2) omega_0^2
            <= lambda_0 <= lambda_V + 1/2 int div(V) omega_V^2,

    where w minimizes Q_{omega_0}.  The divergence integrals are evaluated
    through the discrete integration-by-parts dual of the drift form, which
    makes the right-hand slack exactly nonnegative at matrix level; the
    left-hand slack is nonnegative up to O(h^2).
    """
    from .bounds import solve_w_u
    from .disk import drift_matrix, solve_principal, volumes, weighted_stiffness

    vol = volumes(problem)
    pair0, _ = solve_principal(problem.with_drift(), tol=tol)
    pairV, _ = solve_principal(problem, tol=tol)
    R = drift_matrix(problem)
    shape = problem.J.shape

    def normalized(pair):
        v = pair.omega.ravel()
        return v / math.sqrt(float((v * v * vol).sum()))

    w0 = normalized(pair0)
    wV = normalized(pairV)
    drift_pairing_V = float((vol * wV) @ (R @ wV))   # int omega_V g(V, grad omega_V)
    drift_pairing_0 = float((vol * w0) @ (R @ w0))
    int_div_V = -2.0 * drift_pairing_V
    int_div_0 = -2.0 * drift_pairing_0
    upper_gap = pairV.lam + 0.5 * int_div_V - pair0.lam

    w_pot, _ = solve_w_u(problem, np.abs(w0.reshape(shape)))
    Kw = weighted_stiffness(problem, (w0.reshape(shape)) ** 2, dirichlet=False)
    grad_int = float(w_pot.ravel() @ (Kw @ w_pot.ravel()))
    lower_gap = pair0.lam - pairV.lam - 0.5 * int_div_0 + grad_int

    dt, dth = problem.grid.dt, problem.grid.dtheta
    # eigenpair residuals are relative to lambda; the slacks are absolute
    combined = (pair0.lam * pair0.residual + pairV.lam * pairV.residual
                + 2.0 * pair0.lam * (dt * dt + dth * dth * 0.05))
    return SandwichResult(lower_gap=float(lower_gap), upper_gap=float(upper_gap),
                          lam_zero=pair0.lam, lam_drift=pairV.lam,
                          combined_tol=float(combined))


# -- eigenvalue derivative under gradient drift ------------------------------

def derivative_lambda_eps(base, f, eps: float, tol: float = 1e-3) -> float:
    """Central difference d/d eps of lambda under the drift eps * grad f.

    `base` is a drift-free ModelBall with f = (f, f', f'') radial callables,
    or a DiskProblem with f = (f, f_t, f_theta) closures.  The premise that
    the Laplacian of f is constant (= 2 c0) is verified first; the result
    must match -c0 within tol.
    """
    lams, flat_tol = [], 1e-2
    if isinstance(base, ModelBall):
        f0, f1, f2 = f
        ts = np.linspace(0.0, base.r0, SAMPLES_1D)[1:]
        rho, rho1, _ = base.rho.eval(ts)
        lap = np.asarray(f2(ts), dtype=float) + (base.m - 1) * rho1 / rho * np.asarray(f1(ts), dtype=float)
        lap0 = base.m * float(f2(0.0))
        lap = np.concatenate([[lap0], lap])
        c0 = 0.5 * float(np.mean(lap))
        if np.max(np.abs(lap - 2.0 * c0)) > flat_tol * max(1.0, abs(2.0 * c0)):
            raise ValueError("f does not have a constant Laplacian on the ball")
        f_origin = float(f0(0.0))
        for sgn in (+1.0, -1.0):
            s = sgn * eps
            drift = DriftProfile(
                h=lambda t, s=s: s * np.asarray(f1(t), dtype=float),
                h_prime=lambda t, s=s: s * np.asarray(f2(t), dtype=float),
                H=lambda t, s=s: s * (np.asarray(f0(t), dtype=float) - f_origin))
            ball = ModelBall(m=base.m, r0=base.r0, rho=base.rho, drift=drift)
            lams.append(radial_mod.principal_eigenpair(ball).lam)
    else:
        from .disk import DiskProblem, assemble_operator, solve_principal, volumes

        problem: DiskProblem = base
        f0, ft, fth = f
        fs = problem.grid.sample(f0)
        A0 = assemble_operator(problem.with_drift())
        lap = -(A0 @ fs.ravel()).reshape(fs.shape)
        vol = volumes(problem).reshape(fs.shape)
        core = lap[1:-1, :]
        cvol = vol[1:-1, :]
        c0 = 0.5 * float((core * cvol).sum() / cvol.sum())
        rms = math.sqrt(float((((core - 2.0 * c0) ** 2) * cvol).sum() / cvol.sum()))
        if rms > flat_tol * max(1.0, abs(2.0 * c0)):
            raise ValueError("f does not have a constant Laplacian on the disk")
        Vt = problem.grid.sample(ft)
        Vth = problem.grid.sample(fth) / problem.J ** 2
        for sgn in (+1.0, -1.0):
            prob = DiskProblem(problem.grid, problem.J, sgn * eps * Vt, sgn * eps * Vth)
            pair, _ = solve_principal(prob, tol=1e-7)
            lams.append(pair.lam)
    est = (lams[0] - lams[1]) / (2.0 * eps)
    if abs(est + c0) > tol:
        raise SolverError(
            f"eigenvalue derivative {est:.6g} disagrees with -c0 = {-c0:.6g}"
        )
    return float(est)


# -- Riccati rigidity --------------------------------------------------------

@dataclass(eq=False)
class RiccatiResult:
    t: np.ndarray
    h_recovered: np.ndarray
    sup_error: float


def riccati_uniqueness(ball: ModelBall, tol: float = 1e-6,
                       u_prime0: float = 0.0) -> RiccatiResult:
    """Recover the drift from its own equality-case Riccati flow.

    The substitution h1 = -2 u'/u turns the Riccati equation into the
    linear ODE u'' + Lap(r) u' + g u = 0, g = (div V - |V|^2/2)/2, with a
    regular singular point at t=0 whose indicial roots are 0 and 2-m.  It
    is integrated on the radial shooting path (P = Lap(r), Q = g, lam = 0)
    from the bounded branch u = 1 + c t^2, c = -g(0)/(2m).  A nonzero
    initial slope selects the excluded singular/logarithmic family, as does
    u crossing zero before r0; both raise LogarithmicBranchError.
    """
    if u_prime0 != 0.0:
        raise LogarithmicBranchError(
            "initial slope u'(0) != 0 lies in the excluded singular branch "
            "(indicial root 2-m / logarithmic solution); no bounded drift "
            "corresponds to it"
        )
    m = ball.m

    def lap_r(t):
        rho, rho1, _ = ball.rho.eval(t)
        return (m - 1) * rho1 / rho

    def g(t):
        return 0.5 * np.asarray(extra_drift_profile(ball, t), dtype=float)

    path = radial_mod._RadialPath(ball, 0, n_t=RICCATI_GRID, coefs=(lap_r, g))
    c = -float(g(0.0)) / (2.0 * m)
    t0 = path.t_start
    _, crossings, (u, up) = path.integrate(0.0, 1.0 + c * t0 * t0, 2.0 * c * t0,
                                           samples=True)
    nonpositive = np.flatnonzero(u <= 0.0)
    if crossings or nonpositive.size:
        where = path.nodes[nonpositive[0]] if nonpositive.size else ball.r0
        raise LogarithmicBranchError(
            f"u crossed zero by t={where:.6g}: the recovered drift blows up "
            "(logarithmic/singular branch)"
        )
    h_rec = np.empty(RICCATI_GRID + 1)
    h_rec[0] = 0.0
    h_rec[1:] = -2.0 * up[1:] / u[1:]
    h_true = np.asarray(ball.drift.h(path.nodes), dtype=float)
    sup_err = float(np.max(np.abs(h_rec - h_true)))
    if sup_err > tol:
        raise SolverError(
            f"drift recovery error {sup_err:.3e} exceeds tol {tol:.1e}"
        )
    return RiccatiResult(t=path.nodes, h_recovered=h_rec, sup_error=sup_err)


def radial_ibp_check(problem: DiskProblem, u, phi) -> float:
    """Absolute defect of the radial integration-by-parts identity

        int phi du/dt dM = - int u (dphi/dt + phi * Lap r) dM

    for u vanishing on the wall and phi vanishing at the origin (checked by
    extrapolating the first two rings).  Probes the quadrature plus the
    distance-Laplacian stencils.
    """
    from .disk import radial_derivative, volumes

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


# -- corpus ------------------------------------------------------------------

def builtin_corpus() -> list:
    """Twelve model-vs-model cases over 11 distinct balls, each built once."""
    from .geometry import polynomial_drift, space_form_ball

    def ball(kappa, m, drift=None):
        return space_form_ball(kappa, m, 1.0, drift)

    t1 = polynomial_drift([1.0])        # h = t
    t_half = polynomial_drift([0.5])    # h = t/2
    t2 = polynomial_drift([0.0, 1.0])   # h = t^2
    two_t = polynomial_drift([2.0])     # h = 2t

    flat2, sphere2, hyp2 = ball(0.0, 2), ball(1.0, 2), ball(-1.0, 2)
    sphere3, hyp3 = ball(1.0, 3), ball(-1.0, 3)
    flat2_half, flat2_t, flat2_2t = ball(0.0, 2, t_half), ball(0.0, 2, t1), ball(0.0, 2, two_t)
    sphere2_t, hyp2_t, flat3_t2 = ball(1.0, 2, t1), ball(-1.0, 2, t1), ball(0.0, 3, t2)
    cases = [
        ComparisonCase(flat2, sphere2, "sectional", "flat<=sphere m2"),
        ComparisonCase(hyp2, flat2, "sectional", "hyp<=flat m2"),
        ComparisonCase(hyp3, sphere3, "sectional", "hyp<=sphere m3"),
        ComparisonCase(flat2_half, flat2_t, "sectional", "flat drift t/2<=t"),
        ComparisonCase(hyp3, flat3_t2, "sectional", "hyp zero-drift <= flat t^2"),
        ComparisonCase(flat2_t, sphere2_t, "sectional", "flat<=sphere drift t"),
        ComparisonCase(sphere2, flat2, "ricci", "sphere>=flat m2"),
        ComparisonCase(flat2, hyp2, "ricci", "flat>=hyp m2"),
        ComparisonCase(sphere3, hyp3, "ricci", "sphere>=hyp m3"),
        ComparisonCase(flat2_t, flat2_half, "ricci", "flat drift t>=t/2"),
        ComparisonCase(flat2_2t, hyp2_t, "ricci", "flat 2t >= hyp t"),
        ComparisonCase(sphere2_t, sphere2_t, "ricci", "identical pair (equality)"),
    ]
    return cases


def run_corpus(cases=None) -> list:
    """Verdicts of the cases; each distinct ball is solved once."""
    cases = builtin_corpus() if cases is None else cases
    solved = {}
    return [run_case(c, solved=solved) for c in cases]
