"""Acceptance suite: one test per shipped criterion, at pinned tolerances.

Each test prints a single PASS line once its assertions have gone through,
so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
"""

import math
import time

import numpy as np
import pytest

from driftspectra.bounds import (barta_bracket, holland_bound, rayleigh_minimize,
                                 solve_G_V, solve_w_u)
from driftspectra.compare import (derivative_lambda_eps, eigenvalue_sandwich,
                                  riccati_uniqueness, run_corpus)
from driftspectra.disk import (adjoint_principal, angular_std, build_model_disk,
                               operator_action, solve_principal, volumes)
from driftspectra.errors import LogarithmicBranchError
from driftspectra.geometry import euclidean_ball, polynomial_drift, space_form_ball
from driftspectra.radial import (assemble_spectrum, principal_eigenpair,
                                 solve_radial_modes, weighted_inner_product)

from _identities import (derivative_identity_residual, maisuma_residual,
                         radial_divergence_profile, radial_ibp_check)
from _oracles import bessel_zero

J01_SQ = 5.783185962947  # j_{0,1}^2, frozen from the series zero finder


def _report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


@pytest.fixture(scope="module")
def flat_disk_default():
    problem = build_model_disk(euclidean_ball(2, 1.0), n_t=192, n_theta=128)
    pair, A = solve_principal(problem, tol=1e-7)
    return problem, pair, A


def test_criterion_01_euclidean_disk_baseline():
    t0 = time.perf_counter()
    mode = principal_eigenpair(euclidean_ball(2, 1.0))
    elapsed = time.perf_counter() - t0
    oracle = bessel_zero(0, 1) ** 2
    assert abs(oracle - J01_SQ) < 1e-9  # frozen constant agrees with the oracle
    assert abs(mode.lam - J01_SQ) < 1e-6
    assert elapsed < 1.0
    _report(1, f"lambda={mode.lam:.12f} vs {J01_SQ} in {elapsed:.2f}s")


def test_criterion_02_analytic_m3_baseline():
    mode = principal_eigenpair(euclidean_ball(3, 1.0))
    assert abs(mode.lam - math.pi ** 2) < 1e-8
    exact = np.ones_like(mode.t)
    exact[1:] = np.sin(math.pi * mode.t[1:]) / (math.pi * mode.t[1:])
    sup = float(np.max(np.abs(mode.a / mode.a[0] - exact)))
    assert sup < 1e-6
    _report(2, f"lambda-pi^2={mode.lam - math.pi ** 2:.2e}, eigenfunction sup err={sup:.2e}")


def test_criterion_03_spectrum_assembly():
    t0 = time.perf_counter()
    table = assemble_spectrum(euclidean_ball(2, 1.0), 31.0)
    elapsed = time.perf_counter() - t0
    expected = [(bessel_zero(0, 1) ** 2, 1), (bessel_zero(1, 1) ** 2, 2),
                (bessel_zero(2, 1) ** 2, 2), (bessel_zero(0, 2) ** 2, 1)]
    assert len(table.entries) == 4
    for entry, (lam, mult) in zip(table.entries, expected):
        assert abs(entry.lam - lam) < 1e-6
        assert entry.multiplicity == mult
    assert elapsed < 5.0
    _report(3, f"4 levels reproduced in {elapsed:.2f}s")


def test_criterion_04_gradient_drift_triple_agreement():
    ball = euclidean_ball(2, 1.0, polynomial_drift([1.0]))  # h = t = (t^2/2)'
    lam_shoot = principal_eigenpair(ball, n_t=512).lam
    lam_ray, _ = rayleigh_minimize(euclidean_ball(2, 1.0),
                                   lambda t: 0.5 * np.asarray(t) ** 2, n_t=512)
    problem = build_model_disk(ball, n_t=256, n_theta=128)
    pair, _ = solve_principal(problem, tol=1e-7)
    triple = (lam_shoot, lam_ray, pair.lam)
    for a in triple:
        for b in triple:
            assert abs(a - b) < 5e-3
    _report(4, f"shooting={lam_shoot:.6f} rayleigh={lam_ray:.6f} disk={pair.lam:.6f}")


def test_criterion_05_radial_reduction_with_angular_drift():
    ball = euclidean_ball(2, 1.0, polynomial_drift([1.0]))
    problem = build_model_disk(ball, drift_angular=lambda t, th: 0.5 * t,
                               n_t=256, n_theta=128)
    pair, _ = solve_principal(problem, tol=1e-7)
    lam_1d = principal_eigenpair(ball).lam
    astd = angular_std(pair.omega)
    assert abs(pair.lam - lam_1d) < 5e-3
    assert astd < 1e-3
    _report(5, f"2-D lambda={pair.lam:.6f} vs 1-D {lam_1d:.6f}, angular std {astd:.1e}")


def test_criterion_06_barta_bracket(flat_disk_default):
    problem, pair, A = flat_disk_default
    act = operator_action(A, problem.J.shape)
    T, TH = problem.grid.mesh()
    rng = np.random.default_rng(2024)
    for _ in range(20):
        c = rng.uniform(-0.3, 0.3, size=4)
        bump = (1.0 + c[0] * T * np.sin(TH) + c[1] * T ** 2 * np.cos(2 * TH)
                + c[2] * T ** 2 + c[3] * T ** 3 * np.sin(3 * TH))
        u = (1.0 - T ** 2) * np.maximum(bump, 0.15)
        br = barta_bracket(act, u)
        assert br.lower <= pair.lam <= br.upper
    br_opt = barta_bracket(act, pair.omega)
    width = br_opt.upper - br_opt.lower
    assert br_opt.lower <= pair.lam <= br_opt.upper
    # ten times the absolute residual max|A omega - lam omega|
    omega = pair.omega.ravel()
    residual = np.max(np.abs(A @ omega - pair.lam * omega))
    assert width < 10.0 * residual
    _report(6, f"20 brackets contain lambda; width at omega {width:.2e} "
               f"< 10 x residual {residual:.2e}")


def test_criterion_07_integral_min_max():
    # rotational drift: the optimal trial attains the eigenvalue
    ball = euclidean_ball(2, 1.0)
    problem = build_model_disk(ball, drift_angular=lambda t, th: 0.5 * np.ones_like(t),
                               n_t=192, n_theta=96)
    pair, A = solve_principal(problem, tol=1e-7)
    G, _ = solve_G_V(problem, pair.omega)
    u_opt = pair.omega * np.sqrt(G)
    rep = holland_bound(problem, u_opt, A=A)
    assert abs(rep.bound - pair.lam) < 1e-3
    T, TH = problem.grid.mesh()
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = rng.uniform(-0.25, 0.25, size=3)
        u = (1.0 - T ** 2) * (1.0 + c[0] * T * np.sin(TH)
                              + c[1] * T ** 2 * np.cos(TH) + c[2] * T ** 2)
        rep_u = holland_bound(problem, np.maximum(u, 1e-3 * (1.0 - T ** 2)), A=A)
        assert rep_u.bound >= pair.lam - 1e-6

    # gradient drift: closed forms of the auxiliary solutions, f = t^2/2
    grad_ball = euclidean_ball(2, 1.0, polynomial_drift([1.0]))
    gproblem = build_model_disk(grad_ball, n_t=192, n_theta=96)
    gpair, _ = solve_principal(gproblem, tol=1e-7)
    Gg, _ = solve_G_V(gproblem, gpair.omega)
    Tg, _ = gproblem.grid.mesh()
    vol = volumes(gproblem).reshape(Tg.shape)
    target = np.exp(-Tg ** 2 / 2.0)
    target *= vol.sum() / (target * vol).sum()
    g_err = float(np.max(np.abs(Gg - target)))
    w, _ = solve_w_u(gproblem, gpair.omega)
    mask = Tg < 0.25
    half_f = Tg ** 2 / 4.0
    w_err = float(np.max(np.abs((w - w[mask].mean()) - (half_f - half_f[mask].mean()))))
    assert g_err < 1e-4
    assert w_err < 1e-4
    _report(7, f"bound at optimal trial within {abs(rep.bound - pair.lam):.1e}; "
               f"G error {g_err:.1e}, w error {w_err:.1e}")


def test_criterion_08_comparison_corpus():
    verdicts = run_corpus()
    assert len(verdicts) == 12
    for v in verdicts:
        assert v.premises_hold, f"premise failure in shipped corpus: {v.label}"
        assert v.conclusion_holds, f"conclusion violated: {v.label}"
        if v.equality_case:
            key = "curvature" if "curvature" in v.premise_margins else "ricci"
            assert abs(v.premise_margins[key]) < 1e-6
    lams = {k: principal_eigenpair(space_form_ball(k, 2, 1.0)).lam for k in (-1.0, 0.0, 1.0)}
    assert lams[-1.0] >= lams[0.0] >= lams[1.0]
    _report(8, f"12/12 verified; kappa sweep ordered "
               f"{lams[-1.0]:.4f} >= {lams[0.0]:.4f} >= {lams[1.0]:.4f}")


def test_criterion_09_sandwich():
    flat = euclidean_ball(2, 1.0)
    base = build_model_disk(flat, n_t=128, n_theta=64)
    problems = [
        base,
        build_model_disk(flat, drift_angular=lambda t, th: 0.5 * np.ones_like(t),
                         n_t=128, n_theta=64),
        build_model_disk(euclidean_ball(2, 1.0, polynomial_drift([0.2])),
                         n_t=128, n_theta=64),
        build_model_disk(euclidean_ball(2, 1.0, polynomial_drift([-0.25])),
                         n_t=128, n_theta=64),
        base.with_drift(Vt=base.grid.sample(lambda t, th: 0.3 * t * (1.0 + 0.1 * np.sin(th)))),
    ]
    gaps = []
    for idx, p in enumerate(problems):
        res = eigenvalue_sandwich(p, tol=1e-8)
        assert res.lower_gap >= -res.combined_tol, f"problem {idx}"
        assert res.upper_gap >= -res.combined_tol, f"problem {idx}"
        gaps.append((res.lower_gap, res.upper_gap))
    res0 = eigenvalue_sandwich(problems[0], tol=1e-8)
    assert res0.lower_gap == 0.0 and res0.upper_gap == 0.0  # A_V - A_0 is exactly 0 here
    _report(9, "5 problems sandwiched; no-drift slacks "
               f"({res0.lower_gap:.1e}, {res0.upper_gap:.1e})")


def test_criterion_10_eigenvalue_derivative():
    d_quad = derivative_lambda_eps(
        euclidean_ball(2, 1.0),
        (lambda t: 0.5 * np.asarray(t, dtype=float) ** 2,
         lambda t: np.asarray(t, dtype=float),
         lambda t: np.ones_like(np.asarray(t, dtype=float))),
        eps=1e-3, tol=1e-3)
    assert abs(d_quad + 1.0) < 1e-3
    problem = build_model_disk(euclidean_ball(2, 1.0), n_t=160, n_theta=96)
    d_harm = derivative_lambda_eps(
        problem,
        (lambda t, th: t * np.cos(th),
         lambda t, th: np.cos(th),
         lambda t, th: -t * np.sin(th)),
        eps=1e-3, tol=1e-3)
    assert abs(d_harm) < 1e-3
    _report(10, f"d lambda/d eps: quadratic {d_quad:.6f} (-1 expected), "
                f"harmonic {d_harm:.2e} (0 expected)")


def test_criterion_11_riccati_uniqueness():
    cases = [(2, [2.0]), (3, [1.0]), (3, [1.0, 1.0])]
    sups = []
    for m, coeffs in cases:
        res = riccati_uniqueness(euclidean_ball(m, 1.0, polynomial_drift(coeffs)),
                                 tol=1e-6)
        sups.append(res.sup_error)
        assert res.sup_error < 1e-6
    with pytest.raises(LogarithmicBranchError):
        riccati_uniqueness(euclidean_ball(3, 1.0, polynomial_drift([1.0])),
                           u_prime0=1.0)
    _report(11, "recovery errors " + ", ".join(f"{s:.1e}" for s in sups)
            + "; wrong slope raises the singular-branch error")


def test_criterion_12_invariant_suites(flat_disk_default):
    ball = euclidean_ball(2, 1.0, polynomial_drift([0.5]))
    modes = solve_radial_modes(ball, 0, 2)
    # first-integral residual and orthogonality
    for mode in modes:
        assert maisuma_residual(mode, ball) < 1e-6
    assert abs(weighted_inner_product(modes[0], modes[1], ball)) < 1e-8
    for mode in modes:
        assert derivative_identity_residual(mode, ball) < 1e-5

    # transpose spectrum and positivity of both principal modes
    problem, pair, A = flat_disk_default
    adj = adjoint_principal(A, tol=1e-7, shape=problem.J.shape)
    assert abs(adj.lam - pair.lam) < 1e-10
    assert np.all(pair.omega > 0) and np.all(adj.omega > 0)

    # completing-the-square pointwise inequality, 1e4 random triples
    rng = np.random.default_rng(99)
    X = rng.normal(size=(10000, 2))
    V = rng.normal(size=(10000, 2))
    Z = rng.normal(size=(10000, 2))
    lhs = -(X * X).sum(1) - (V * X).sum(1)
    rhs = (X * Z).sum(1) + 0.25 * ((V + Z) ** 2).sum(1)
    assert np.all(lhs <= rhs + 1e-12)
    Zs = -2.0 * X - V
    assert np.max(np.abs(lhs - ((X * Zs).sum(1) + 0.25 * ((V + Zs) ** 2).sum(1)))) < 1e-12

    # divergence-monotonicity equivalence on random radial profiles
    t = np.linspace(0.05, 1.0, 200)
    for seed in range(5):
        r = np.random.default_rng(seed)
        c = r.uniform(-1.0, 1.0, size=2)
        h1 = t * (1.0 + c[0] * t + c[1] * t ** 2) ** 2
        div, dprod = radial_divergence_profile(h1, t, t, 3)
        inner = slice(2, -2)
        assert np.all((div[inner] >= -1e-9) == (dprod[inner] >= -1e-9))

    # radial integration-by-parts probe
    T, _ = problem.grid.mesh()
    assert radial_ibp_check(problem, 1.0 - T ** 2, T) < 5e-4 * math.pi
    _report(12, "first-integral, orthogonality, derivative identity, transpose, "
                "positivity, square inequality, monotonicity, IBP probe all hold")
