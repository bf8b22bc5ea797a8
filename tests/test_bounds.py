import math
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

from driftspectra import bounds, disk
from driftspectra.bounds import (barta_bracket, holland_bound, q_functional,
                                 rayleigh_minimize, rayleigh_quotient, solve_G_V,
                                 solve_w_u)
from driftspectra.disk import (SUPERLU_OPTIONS, advection_matrix, assemble_operator,
                               build_model_disk, drift_load, grid_order, operator_action,
                               solve_principal, volumes, weighted_stiffness)
from driftspectra.errors import IrreducibilityError, SolverError
from driftspectra.geometry import euclidean_ball, polynomial_drift, space_form_ball
from driftspectra.quadrature import cumulative_trapezoid_from_origin
from driftspectra.radial import principal_eigenpair

from _oracles import bessel_zero

FLAT = euclidean_ball(2, 1.0)
GRAD = euclidean_ball(2, 1.0, polynomial_drift([1.0]))  # V = grad(t^2/2)


@pytest.fixture(scope="module")
def flat_pair():
    problem = build_model_disk(FLAT, n_t=128, n_theta=64)
    pair, A = solve_principal(problem, tol=1e-8)
    return problem, pair, A


@pytest.fixture(scope="module")
def grad_pair():
    problem = build_model_disk(GRAD, n_t=128, n_theta=64)
    pair, A = solve_principal(problem, tol=1e-8)
    return problem, pair, A


class TestBarta:
    def test_equality_case_at_ground_mode(self, flat_pair):
        problem, pair, A = flat_pair
        br = barta_bracket(operator_action(A, problem.J.shape), pair.omega)
        assert br.lower <= pair.lam <= br.upper
        # ten times the absolute residual max|A omega - lam omega|
        omega = pair.omega.ravel()
        assert br.upper - br.lower < 10.0 * np.max(np.abs(A @ omega - pair.lam * omega))
        assert br.excluded_rings == 1

    def test_paraboloid_trial(self, flat_pair):
        problem, pair, A = flat_pair
        T, _ = problem.grid.mesh()
        br = barta_bracket(operator_action(A, problem.J.shape), 1.0 - T ** 2)
        # -Delta u / u = 4/(1-t^2): the lower end sits at the innermost ring
        assert br.lower == pytest.approx(4.0, abs=1e-3)
        assert br.lower <= pair.lam <= br.upper

    def test_containment_for_random_trials(self, flat_pair):
        problem, pair, A = flat_pair
        act = operator_action(A, problem.J.shape)
        T, TH = problem.grid.mesh()
        rng = np.random.default_rng(11)
        for _ in range(10):
            c1, c2, c3 = rng.uniform(-0.3, 0.3, size=3)
            bump = 1.0 + c1 * np.sin(TH) * T + c2 * np.cos(2 * TH) * T ** 2 + c3 * T ** 2
            u = (1.0 - T ** 2) * np.maximum(bump, 0.2)
            br = barta_bracket(act, u)
            assert br.lower <= pair.lam <= br.upper

    def test_nonpositive_trial_rejected(self, flat_pair):
        problem, _, A = flat_pair
        T, _ = problem.grid.mesh()
        with pytest.raises(ValueError):
            barta_bracket(operator_action(A, problem.J.shape), 0.5 - T)

    def test_curved_model_trial_gives_lower_bound(self, flat_pair):
        # ground mode of the more curved model, transplanted radially onto
        # the flat disk, bounds the flat eigenvalue from below
        problem, pair, A = flat_pair
        model = principal_eigenpair(space_form_ball(1.0, 2, 1.0))
        T, _ = problem.grid.mesh()
        u = np.interp(T, model.t, model.a)
        br = barta_bracket(operator_action(A, problem.J.shape), u)
        assert br.lower >= model.lam - 1e-3
        assert br.lower <= pair.lam <= br.upper


class TestRayleigh:
    def test_flat_disk_minimum(self, flat_pair):
        problem, pair, _ = flat_pair
        lam, u = rayleigh_minimize(problem, lambda t, th: np.zeros_like(t))
        assert lam == pytest.approx(bessel_zero(0, 1) ** 2, abs=2e-3)
        # the discrete minimum and the operator ground value coincide
        assert lam == pytest.approx(pair.lam, abs=1e-8)
        assert rayleigh_quotient(problem, lambda t, th: np.zeros_like(t), u) \
            == pytest.approx(lam, rel=1e-12)

    def test_quotient_above_minimum(self, flat_pair):
        problem, _, _ = flat_pair
        T, _ = problem.grid.mesh()
        f0 = lambda t, th: np.zeros_like(t)
        lam, _ = rayleigh_minimize(problem, f0)
        assert rayleigh_quotient(problem, f0, 1.0 - T ** 2) >= lam - 1e-12

    def test_ball_path_matches_shooting(self):
        ball = euclidean_ball(3, 1.0)
        f = lambda t: 0.5 * np.asarray(t) ** 2
        lam_ray, u = rayleigh_minimize(ball, f, n_t=512)
        lam_sl = principal_eigenpair(euclidean_ball(3, 1.0, polynomial_drift([1.0]))).lam
        assert lam_ray == pytest.approx(lam_sl, abs=1e-4)
        # the minimizer round-trips through the quotient
        assert rayleigh_quotient(ball, f, u) == pytest.approx(lam_ray, rel=1e-12)

    @pytest.mark.parametrize("r0, n_t, exact, rel", [
        (4.0, 512, 0.004593362826586664, 1e-13),
        (4.0, 2048, 0.004593200780113121, 1e-12),
        (5.0, 512, 8.490090251145884e-05, 1e-11),
    ])
    def test_small_minimum_is_resolved(self, r0, n_t, exact, rel):
        # lambda_f far below the pencil's largest eigenvalue: the relative
        # residual's roundoff floor lies above the tolerance, and v^T K v
        # cancels to about 1e-10 in double.  `exact` is the lowest eigenvalue
        # of the same (K, M) by Sturm bisection in 40-digit arithmetic.
        f = lambda t: 0.5 * np.asarray(t) ** 2
        ball = euclidean_ball(2, r0)
        lam, u = rayleigh_minimize(ball, f, n_t=n_t)
        assert abs(lam - exact) <= rel * exact
        assert np.all(u[:-1] > 0.0) and u[-1] == 0.0
        # the quotient sums as the engine does, so the minimizer gives lam back
        assert rayleigh_quotient(ball, f, u) == pytest.approx(lam, rel=1e-13)
        if (r0, n_t) == (4.0, 512):
            # the value the earlier |delta lambda| < 1e-12 stop returned
            assert lam == pytest.approx(0.004593362826585272, rel=1e-12)

    def test_symmetric_pencil_iterates_one_vector(self, monkeypatch):
        # K = K^T makes the left vector v, so no transposed system is solved,
        # and the ball's tridiagonal K is factored as it is (no fill)
        factored, modes = [], []
        splu_ = disk.splu

        class Recording:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs, trans="N"):
                modes.append(trans)
                return self.lu.solve(rhs, trans=trans)

        def recording(mat, **kwargs):
            factored.append(mat)
            return Recording(splu_(mat, **kwargs))

        monkeypatch.setattr(disk, "splu", recording)
        ball = euclidean_ball(3, 1.0)
        f = lambda t: 0.5 * np.asarray(t) ** 2
        rayleigh_minimize(ball, f, n_t=64)
        rayleigh_minimize(build_model_disk(FLAT, n_t=16, n_theta=8), lambda t, th: 0.5 * t * t)
        assert len(factored) == 2 and (factored[0] != bounds._forms(ball, f, 64)[0]).nnz == 0
        assert modes and set(modes) == {"N"}

    def test_engine_errors_name_the_grid_or_the_size(self, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(disk, "splu", failing)
        problem = build_model_disk(FLAT, n_t=16, n_theta=8)
        with pytest.raises(SolverError, match=r"factorization failed \(grid 16x8\): Factor"):
            rayleigh_minimize(problem, lambda t, th: 0.0 * t)
        with pytest.raises(SolverError, match=r"factorization failed \(n = 64\): Factor"):
            rayleigh_minimize(euclidean_ball(3, 1.0), lambda t: 0.0 * t, n_t=64)

    def test_symmetric_pencil_errors_name_the_step(self):
        # every pencil stops on the steps of its vectors, so errors report
        # steps, not residuals; a symmetric pencil's left step is its right one
        with pytest.raises(SolverError) as exc:
            rayleigh_minimize(euclidean_ball(3, 5.0), lambda t: 2 * t ** 3 - t, n_t=128)
        msg = str(exc.value)
        assert re.search(r"n = 128, iteration \d+, step (\S+) \(right\) and \1 \(left\)", msg)
        assert "residual" not in msg

    def test_zero_trial_rejected(self, flat_pair):
        problem, _, _ = flat_pair
        with pytest.raises(ValueError):
            rayleigh_quotient(problem, lambda t, th: np.zeros_like(t),
                              np.zeros_like(problem.J))


class TestPotentialSolve:
    def test_zero_drift_gives_zero(self, flat_pair):
        problem, pair, _ = flat_pair
        w, resid = solve_w_u(problem, pair.omega)
        assert np.max(np.abs(w)) < 1e-10
        assert resid < 1e-10

    def test_gradient_drift_gives_half_potential(self, grad_pair):
        problem, pair, _ = grad_pair
        w, _ = solve_w_u(problem, pair.omega)
        T, _ = problem.grid.mesh()
        mask = T < 0.25
        target = T ** 2 / 4.0
        diff = (w - w[mask].mean()) - (target - target[mask].mean())
        assert np.max(np.abs(diff)) < 1e-4

    def test_gauge_invariance(self, grad_pair):
        # the form and load both annihilate constants; only roundoff scaled
        # by the stiffness entries survives a constant shift
        problem, pair, _ = grad_pair
        w, _ = solve_w_u(problem, pair.omega)
        q1 = q_functional(problem, pair.omega, w)
        q2 = q_functional(problem, pair.omega, w + 3.7)
        assert q2 == pytest.approx(q1, abs=1e-8)

    def test_minimum_value_identities(self, grad_pair):
        # Q(w) = -int u^2 |grad w|^2 and, for radial drift, -1/4 int u^2 h1^2
        problem, pair, _ = grad_pair
        u = pair.omega / math.sqrt(float((pair.omega.ravel() ** 2 * volumes(problem)).sum()))
        w, _ = solve_w_u(problem, u)
        q_min = q_functional(problem, u, w)
        assert q_min <= 0.0
        closed = -0.25 * float(((u * problem.Vt) ** 2 * problem.J).sum()) \
            * problem.grid.dt * problem.grid.dtheta
        assert q_min == pytest.approx(closed, rel=1e-3)

    def test_constant_test_function_annihilated(self, grad_pair):
        problem, pair, _ = grad_pair
        assert q_functional(problem, pair.omega, np.full_like(pair.omega, 2.5)) \
            == pytest.approx(0.0, abs=1e-12)

    def test_constant_test_function_exactly_zero(self, grad_pair):
        # the difference form has no roundoff on constants, also with angular drift
        problem, pair, _ = grad_pair
        swirl = problem.with_drift(problem.Vt, 0.7 * problem.grid.mesh()[0])
        for p in (problem, swirl):
            for c in (2.5, -1e3, 0.1):
                assert q_functional(p, pair.omega, np.full_like(pair.omega, c)) == 0.0


class TestSteadyDensity:
    def test_zero_drift_gives_one(self, flat_pair):
        problem, pair, _ = flat_pair
        G, resid = solve_G_V(problem, pair.omega)
        assert np.max(np.abs(G - 1.0)) < 1e-10
        assert resid < 1e-10

    def test_gradient_drift_gives_boltzmann(self, grad_pair):
        problem, pair, _ = grad_pair
        G, _ = solve_G_V(problem, pair.omega)
        T, _ = problem.grid.mesh()
        vol = volumes(problem).reshape(problem.J.shape)
        target = np.exp(-T ** 2 / 2.0)
        target *= vol.sum() / (target * vol).sum()
        assert np.max(np.abs(G - target)) < 1e-4

    def test_potential_density_link(self, grad_pair):
        # -2 w at the optimal trial equals log G up to the shared gauge
        problem, pair, _ = grad_pair
        G, _ = solve_G_V(problem, pair.omega)
        u_opt = pair.omega * np.sqrt(G)
        w, _ = solve_w_u(problem, u_opt)
        T, _ = problem.grid.mesh()
        mask = T < 0.25
        lhs = -2.0 * (w - w[mask].mean())
        rhs = np.log(G) - np.log(G)[mask].mean()
        assert np.max(np.abs(lhs - rhs)) < 5e-4

    def test_positive_everywhere(self, grad_pair):
        problem, pair, _ = grad_pair
        G, _ = solve_G_V(problem, pair.omega)
        assert np.min(G) > 0.0


def _bordered_solve(A, constraint, rhs, rhs_constraint):
    """Independent reference: the singular system bordered by its constraint row."""
    n = A.shape[0]
    c = sp.csc_matrix(constraint.reshape(n, 1))
    B = sp.bmat([[A, c], [c.T, None]], format="csc")
    return splu(B).solve(np.concatenate([rhs, [rhs_constraint]]))[:n]


@pytest.fixture(scope="module")
def swirl_pair():
    ball = space_form_ball(0.5, 2, 1.0, polynomial_drift([0.8]))
    problem = build_model_disk(ball, perturbation=lambda t, th: 0.1 * t * t * np.cos(2 * th),
                               drift_angular=lambda t, th: 0.6 * t, n_t=96, n_theta=64)
    pair, _ = solve_principal(problem, tol=1e-8)
    return problem, pair


class TestPinnedSolves:
    def test_density_matches_bordered_system(self, swirl_pair):
        problem, pair = swirl_pair
        G, _ = solve_G_V(problem, pair.omega)
        W = pair.omega ** 2
        A = weighted_stiffness(problem, W, dirichlet=False) + advection_matrix(problem, W)
        m = volumes(problem) / volumes(problem).sum()
        ref = _bordered_solve(A.tocsc(), m, np.zeros(problem.grid.size), 1.0)
        assert np.max(np.abs(G.ravel() - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert abs(m @ G.ravel() - 1.0) <= 1e-14

    def test_potential_matches_bordered_system(self, swirl_pair):
        problem, pair = swirl_pair
        G, _ = solve_G_V(problem, pair.omega)
        u = pair.omega * np.sqrt(G)
        u /= math.sqrt(float((u.ravel() ** 2 * volumes(problem)).sum()))
        w, resid = solve_w_u(problem, u)
        W = u * u
        T, _ = problem.grid.mesh()
        gauge = np.where((T < 0.25 * problem.grid.r0).ravel(), volumes(problem), 0.0)
        gauge /= gauge.sum()
        ref = _bordered_solve(2.0 * weighted_stiffness(problem, W, dirichlet=False).tocsc(),
                              gauge, drift_load(problem, W), 0.0)
        assert np.max(np.abs(w.ravel() - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert abs(gauge @ w.ravel()) <= 1e-14
        assert resid <= 1e-9

    def test_one_factorization_without_border(self, swirl_pair, monkeypatch):
        problem, pair = swirl_pair
        n = problem.grid.size
        calls = []
        factor = bounds.splu

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return factor(*args, **kwargs)

        monkeypatch.setattr(bounds, "splu", counting)
        solve_G_V(problem, pair.omega)
        assert calls == [(n, n)]
        solve_w_u(problem, pair.omega)
        assert calls == [(n, n)] * 2

    @pytest.mark.parametrize("where,tol", [("wall", 1e-10), ("ring 0", 1e-11), ("argmax", 1e-11)])
    def test_pin_position_does_not_matter(self, swirl_pair, where, tol):
        # pinned on a wall cell, a first-ring cell or where the weight peaks,
        # G after its normalization and w_u after its gauge are the bordered
        # systems' solutions; a wall cell's weight is 7e-5 of the peak, which
        # amplifies roundoff by about its inverse (w_u is off by 5e-11 there,
        # as when the pinned row and column are deleted instead), so solves
        # pin at the peak
        problem, pair = swirl_pair
        shape, n = problem.J.shape, problem.grid.size
        W = pair.omega ** 2
        k = {"wall": n - 1 - shape[1] // 3, "ring 0": shape[1] // 2 + 1,
             "argmax": int(np.argmax(W))}[where]
        A = weighted_stiffness(problem, W, dirichlet=False)
        A.data += advection_matrix(problem, W).data
        m = volumes(problem) / volumes(problem).sum()
        G = bounds._pinned_solve(A, shape, k, np.zeros(n), 1.0)
        G /= m @ G
        ref = _bordered_solve(A.tocsc(), m, np.zeros(n), 1.0)
        assert np.max(np.abs(G - ref)) <= tol * np.max(np.abs(ref))
        K = 2.0 * weighted_stiffness(problem, W, dirichlet=False)
        b, gauge = drift_load(problem, W), bounds._gauge_vector(problem)
        w = bounds._pinned_solve(K, shape, k, b, 0.0)
        w -= gauge @ w
        ref = _bordered_solve(K.tocsc(), gauge, b, 0.0)
        assert np.max(np.abs(w - ref)) <= tol * np.max(np.abs(ref))

    def test_every_2d_factor_site_uses_the_recipe(self, swirl_pair, monkeypatch):
        # the eigen, G, w_u and weighted Rayleigh factors share one set of
        # SuperLU settings, each site through its own module's binding (the
        # Rayleigh pencil is factored by the eigen engine in `disk`), and
        # each factors its matrix permuted into the grid's order: P M P^T
        # with P the identity's rows in that order, and M's row and column
        # of the pinned cell the identity's
        problem, pair = swirl_pair
        seen = []

        def recording(module):
            factor = module.splu

            def wrapper(*args, **kwargs):
                seen.append((module.__name__, args[0].copy(), kwargs))
                return factor(*args, **kwargs)
            monkeypatch.setattr(module, "splu", wrapper)

        recording(disk)
        recording(bounds)
        solve_principal(problem)
        solve_G_V(problem, pair.omega)
        solve_w_u(problem, pair.omega)
        rayleigh_minimize(problem, lambda t, th: 0.0 * t)
        assert [name for name, _, _ in seen] == ["driftspectra.disk"] + ["driftspectra.bounds"] * 2 \
            + ["driftspectra.disk"]
        assert all(kwargs == SUPERLU_OPTIONS for _, _, kwargs in seen)
        assert SUPERLU_OPTIONS["permc_spec"] == "NATURAL"

        W = pair.omega ** 2
        k = int(np.argmax(W))

        def pinned(M):
            M = M.tolil()
            M[k, :] = 0.0
            M[:, k] = 0.0
            M[k, k] = 1.0
            return M

        sites = [assemble_operator(problem),
                 pinned(weighted_stiffness(problem, W, dirichlet=False)
                        + advection_matrix(problem, W)),
                 pinned(2.0 * weighted_stiffness(problem, W, dirichlet=False)),
                 weighted_stiffness(problem, np.ones_like(W), dirichlet=True)]
        P = sp.identity(problem.grid.size, format="csr")[grid_order(*problem.J.shape)]
        for (_, factored, _), M in zip(seen, sites):
            assert (factored != (P @ M @ P.T).tocsc()).nnz == 0

    @pytest.mark.parametrize("radial,angular", [(0.0, 0.6), (0.8, 0.0), (-0.5, 0.6)])
    def test_disk_solves_gather_on_the_stencil(self, radial, angular, monkeypatch):
        # every factorization of a disk gathers its matrix into the grid's
        # order, which refuses a matrix off the cached stencil
        shapes = []

        def recording(module):
            gather = module.in_grid_order
            monkeypatch.setattr(module, "in_grid_order",
                                lambda mat, shape, *a, **k: shapes.append(shape)
                                or gather(mat, shape, *a, **k))

        recording(disk)
        recording(bounds)
        ball = space_form_ball(0.3, 2, 1.0, polynomial_drift([radial]))
        problem = build_model_disk(ball, perturbation=lambda t, th: 0.1 * t * t * np.cos(2 * th),
                                   drift_angular=lambda t, th: angular * t, n_t=24, n_theta=16)
        pair, _ = solve_principal(problem)
        solve_G_V(problem, pair.omega)
        solve_w_u(problem, pair.omega)
        rayleigh_minimize(problem, lambda t, th: 0.5 * t * t)
        assert shapes == [(24, 16)] * 4

    def test_disconnected_weight_is_a_solver_error(self, swirl_pair):
        # u^2 underflows to 0 outside t < r0/2: the outer cells decouple
        problem, _ = swirl_pair
        T, _ = problem.grid.mesh()
        u = np.where(T < 0.5, 1.0, 1e-200)
        with pytest.raises(SolverError, match="degenerate elliptic solve failed"):
            solve_w_u(problem, u)
        with pytest.raises(SolverError, match="degenerate elliptic solve failed"):
            solve_G_V(problem, u)

    def test_failed_factorization_names_grid_and_pinned_cell(self, swirl_pair, monkeypatch):
        problem, pair = swirl_pair

        def failing(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(bounds, "splu", failing)
        for solve in (solve_w_u, solve_G_V):
            cell = divmod(int(np.argmax(pair.omega ** 2)), problem.grid.n_theta)
            with pytest.raises(SolverError) as exc:
                solve(problem, pair.omega)
            assert str(exc.value) == ("degenerate elliptic solve failed (grid 96x64, pinned cell "
                                      f"(j, l) = {cell}): Factor is exactly singular")

    def test_potential_residual_error_names_grid_and_pinned_cell(self, swirl_pair, monkeypatch):
        # a factor of twice the matrix solves to half the potential
        problem, pair = swirl_pair
        factor = bounds.splu
        monkeypatch.setattr(bounds, "splu", lambda M, **kwargs: factor(2.0 * M, **kwargs))
        cell = divmod(int(np.argmax(pair.omega ** 2)), problem.grid.n_theta)
        with pytest.raises(SolverError, match=r"potential solve residual \S+ too large \(grid "
                           rf"96x64, pinned cell \(j, l\) = \({cell[0]}, {cell[1]}\)\)"):
            solve_w_u(problem, pair.omega)

    def test_unresolved_drift_loses_irreducibility(self):
        # a strong swirl on a coarse grid: the centered flux turns G negative
        problem = build_model_disk(FLAT, drift_angular=lambda t, th: 50.0 * np.cos(th),
                                   n_t=16, n_theta=8)
        T, _ = problem.grid.mesh()
        with pytest.raises(IrreducibilityError, match="nonpositive entries"):
            solve_G_V(problem, np.cos(0.5 * np.pi * T))


def _tiny_disk(n_t, n_theta):
    ball = space_form_ball(0.5, 2, 1.0, polynomial_drift([0.8]))
    return build_model_disk(ball, perturbation=lambda t, th: 0.1 * t * t * np.cos(th),
                            drift_angular=lambda t, th: 0.6 * t * (1.0 + 0.3 * np.sin(th)),
                            n_t=n_t, n_theta=n_theta)


def _weight_peaked_at(problem, ring):
    # positive weight whose largest square, the pinned cell, is in `ring`
    T, TH = problem.grid.mesh()
    radial = 1.5 - T * T if ring == 0 else 0.5 + T
    u = radial * (1.0 + 0.1 * np.cos(TH))
    assert np.argmax(u * u) // problem.grid.n_theta == (ring % problem.grid.n_t)
    return u


_TINY = [(4, 8), (6, 8), (8, 12), (12, 16)]


class TestDenseOracle:
    """Tiny grids, where numpy.linalg solves each factored system outright."""

    @pytest.mark.parametrize("ring", [0, -1])
    @pytest.mark.parametrize("n_t,n_theta", _TINY)
    def test_density(self, n_t, n_theta, ring):
        problem = _tiny_disk(n_t, n_theta)
        omega = _weight_peaked_at(problem, ring)
        G, _ = solve_G_V(problem, omega)
        W = omega ** 2
        A = (weighted_stiffness(problem, W, dirichlet=False)
             + advection_matrix(problem, W)).toarray()
        null = np.linalg.svd(A)[2][-1]
        vol = volumes(problem)
        ref = null / ((vol / vol.sum()) @ null)
        assert np.max(np.abs(G.ravel() - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ring", [0, -1])
    @pytest.mark.parametrize("n_t,n_theta", _TINY)
    def test_potential(self, n_t, n_theta, ring):
        problem = _tiny_disk(n_t, n_theta)
        u = _weight_peaked_at(problem, ring)
        w, _ = solve_w_u(problem, u)
        W = u * u
        K2 = 2.0 * weighted_stiffness(problem, W, dirichlet=False).toarray()
        ref = np.linalg.lstsq(K2, drift_load(problem, W), rcond=None)[0]
        T, _ = problem.grid.mesh()
        gauge = np.where((T < 0.25 * problem.grid.r0).ravel(), volumes(problem), 0.0)
        ref -= (gauge / gauge.sum()) @ ref
        assert np.max(np.abs(w.ravel() - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_t,n_theta", _TINY)
    def test_rayleigh_minimum(self, n_t, n_theta):
        problem = _tiny_disk(n_t, n_theta)
        f = lambda t, th: 0.5 * t * t * (1.0 + 0.2 * np.cos(th))
        lam, v = rayleigh_minimize(problem, f)
        weight = np.exp(-problem.grid.sample(f))
        K = weighted_stiffness(problem, weight, dirichlet=True).toarray()
        s = 1.0 / np.sqrt(weight.ravel() * volumes(problem))
        ev, vecs = np.linalg.eigh(s[:, None] * K * s[None, :])
        ref = s * vecs[:, 0]
        ref /= ref[np.argmax(np.abs(ref))]
        assert abs(lam - ev[0]) <= 1e-10 * ev[0]
        assert np.max(np.abs(v.ravel() - ref)) <= 1e-6


class TestBallPencilOracle:
    """The ball's Rayleigh pencil K v = lambda M v against scipy's dense QZ.

    M is 0 at the origin node, so the dense pencil has an infinite
    eigenvalue; the minimum is the lowest finite one."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n_t", [8, 16, 32])
    def test_minimum_and_minimizer(self, m, n_t):
        ball = euclidean_ball(m, 1.0)
        f = lambda t: 0.5 * np.asarray(t) ** 2 + 0.3 * np.asarray(t)
        lam, v = rayleigh_minimize(ball, f, n_t=n_t)
        K, mass = bounds._forms(ball, f, n_t)
        assert mass[0] == 0.0
        ev, vecs = sla.eig(K.toarray(), np.diag(mass))
        finite = np.flatnonzero(np.isfinite(ev))
        i = finite[np.argmin(ev[finite].real)]
        ref = vecs[:, i].real
        ref /= ref[np.argmax(np.abs(ref))]
        assert abs(lam - ev[i].real) <= 1e-10 * ev[i].real
        assert v[-1] == 0.0 and np.max(np.abs(v[:-1] - ref)) <= 1e-9


class TestIntegralBound:
    def test_zero_drift_reduces_to_rayleigh(self, flat_pair):
        problem, pair, A = flat_pair
        T, _ = problem.grid.mesh()
        u = 1.0 - T ** 2
        rep = holland_bound(problem, u, A=A)
        quot = rayleigh_quotient(problem, lambda t, th: np.zeros_like(t), u)
        assert rep.Q_min == pytest.approx(0.0, abs=1e-14)
        assert rep.bound == pytest.approx(quot, rel=1e-10)
        assert rep.bound >= pair.lam - 1e-9

    def test_optimal_trial_attains_eigenvalue(self, grad_pair):
        problem, pair, A = grad_pair
        G, _ = solve_G_V(problem, pair.omega)
        rep = holland_bound(problem, pair.omega * np.sqrt(G), A=A)
        assert rep.bound == pytest.approx(pair.lam, abs=1e-3)

    def test_fast_path_matches_elliptic_path(self, grad_pair):
        # radial drift: closed-form infimum vs the actual minimization
        problem, pair, A = grad_pair
        u = pair.omega
        rep_fast = holland_bound(problem, u, A=A)
        assert rep_fast.fast_path
        vol = volumes(problem)
        un = (u / math.sqrt(float((u.ravel() ** 2 * vol).sum())))
        w, _ = solve_w_u(problem, un)
        q_true = q_functional(problem, un, w)
        assert rep_fast.Q_min == pytest.approx(q_true, rel=1e-3)

    def test_fast_path_potential_is_the_per_column_integral(self, grad_pair):
        # one integral along axis 0 gives the bits of one call per theta column
        problem, pair, _ = grad_pair
        T, TH = problem.grid.mesh()
        swirled = problem.with_drift(Vt=T * (1.0 + 0.3 * np.cos(TH)) + 0.2 * T * T)
        rep = holland_bound(swirled, pair.omega)
        assert rep.fast_path
        radii = problem.grid.radii()
        ref = 0.5 * np.column_stack([cumulative_trapezoid_from_origin(swirled.Vt[:, l], radii)
                                     for l in range(problem.grid.n_theta)])
        assert np.array_equal(rep.w_u, ref)

    def test_bound_dominates_eigenvalue(self, grad_pair):
        problem, pair, A = grad_pair
        T, TH = problem.grid.mesh()
        rng = np.random.default_rng(3)
        for _ in range(5):
            c = rng.uniform(-0.25, 0.25, size=2)
            u = (1.0 - T ** 2) * (1.0 + c[0] * T * np.sin(TH) + c[1] * T ** 2)
            rep = holland_bound(problem, np.maximum(u, 1e-3 * (1 - T ** 2)), A=A)
            assert rep.bound >= pair.lam - 1e-6

    def test_q_min_nonpositive(self, grad_pair):
        problem, pair, A = grad_pair
        rep = holland_bound(problem, pair.omega, A=A)
        assert rep.Q_min <= 0.0


def _left_trial(problem, pair):
    """omega sqrt(G) with G = left / (vol omega): the trial `drift-spectra bounds` uses."""
    return np.sqrt(pair.omega * pair.left / volumes(problem).reshape(problem.J.shape))


def _swirled(kappa, c, eps, j, a, grid, r0=1.0):
    ball = space_form_ball(kappa, 2, r0, polynomial_drift([c]))
    return build_model_disk(ball, perturbation=lambda t, th: eps * t * t * np.cos(j * th),
                            drift_angular=lambda t, th: a * t, n_t=grid[0], n_theta=grid[1])


class TestLeftVectorTrial:
    """In the continuum G = omega*/omega, with omega* the adjoint
    eigenfunction; on the grid omega* is pair.left / vol, so `solve_G_V`'s G
    and left / (vol omega) are two discretizations of one function."""

    @pytest.mark.parametrize("kappa,c,eps,j,a", [(0.5, 0.8, 0.1, 2, 0.6),
                                                 (-0.4, 1.2, 0.05, 1, 0.9)])
    def test_density_is_the_adjoint_over_omega(self, kappa, c, eps, j, a):
        gaps = []
        for grid in ((48, 32), (96, 64)):
            problem = _swirled(kappa, c, eps, j, a, grid)
            pair, _ = solve_principal(problem, tol=1e-8)
            G, _ = solve_G_V(problem, pair.omega)
            vol = volumes(problem)
            H = pair.left.ravel() / (vol * pair.omega.ravel())
            H /= (vol / vol.sum()) @ H  # volume mean one, as G
            gaps.append(float(np.max(np.abs(G.ravel() - H))))
        assert 3.0 <= gaps[0] / gaps[1] <= 5.0  # O(h^2): 3.51 and 4.01 measured

    @settings(max_examples=20)
    @given(kappa=st.integers(-10, 10).map(lambda k: 0.1 * k),
           c=st.integers(0, 15).map(lambda k: 0.1 * k),
           eps=st.integers(0, 15).map(lambda k: 0.01 * k), j=st.integers(1, 3),
           a=st.integers(-10, 10).map(lambda k: 0.1 * k),
           r0=st.sampled_from([0.5, 1.0, 1.5]),
           grid=st.sampled_from([(24, 16), (32, 16), (48, 32)]))
    def test_bound_dominates_eigenvalue(self, kappa, c, eps, j, a, r0, grid):
        # the discrete functional is a bound up to O(h^2) for either trial
        # (6.8e-8 below lambda, relative, on one 48 x 32 disk): it is held
        # to the acceptance slack, and it sits where solve_G_V's trial puts it
        problem = _swirled(kappa, c, eps, j, a, grid, r0)
        pair, A = solve_principal(problem)
        rep = holland_bound(problem, _left_trial(problem, pair), A=A)
        G, _ = solve_G_V(problem, pair.omega)
        ref = holland_bound(problem, pair.omega * np.sqrt(G), A=A)
        assert rep.bound >= pair.lam - 1e-6
        assert abs(rep.bound - ref.bound) <= 1e-6 * pair.lam


def test_completing_the_square_inequality():
    # -|X|^2 - <V,X> <= <X,Z> + |V+Z|^2/4 with equality iff Z = -2X - V
    rng = np.random.default_rng(42)
    X = rng.normal(size=(10000, 2))
    V = rng.normal(size=(10000, 2))
    Z = rng.normal(size=(10000, 2))
    lhs = -(X * X).sum(1) - (V * X).sum(1)
    rhs = (X * Z).sum(1) + 0.25 * ((V + Z) ** 2).sum(1)
    assert np.all(lhs <= rhs + 1e-12)
    Zstar = -2.0 * X - V
    rhs_star = (X * Zstar).sum(1) + 0.25 * ((V + Zstar) ** 2).sum(1)
    assert np.max(np.abs(lhs - rhs_star)) < 1e-12
