import numpy as np
import pytest
import scipy.sparse as sp

from driftspectra import disk
from driftspectra.disk import (DiskProblem, PolarGrid, adjoint_principal, angular_std,
                               assemble_operator, build_model_disk, divergence_field,
                               eigenpair_csv, eigenpair_json, operator_action,
                               principal_eigenpair_2d, solve_principal, volumes,
                               weighted_stiffness)
from driftspectra.errors import ConvergenceError, NonPrincipalModeError, SolverError
from driftspectra.geometry import euclidean_ball, polynomial_drift
from driftspectra.radial import principal_eigenpair

from _oracles import bessel_zero

FLAT = euclidean_ball(2, 1.0)


@pytest.fixture(scope="module")
def flat_pair():
    problem = build_model_disk(FLAT, n_t=128, n_theta=64)
    pair, A = solve_principal(problem, tol=1e-8)
    return problem, pair, A


class TestGrid:
    def test_no_origin_node(self):
        grid = PolarGrid(n_t=16, n_theta=16, r0=1.0)
        assert grid.radii()[0] == pytest.approx(0.03125)
        assert np.all(grid.radii() > 0)

    def test_odd_angles_rejected(self):
        with pytest.raises(ValueError):
            PolarGrid(n_t=16, n_theta=15, r0=1.0)

    def test_negative_metric_rejected(self):
        grid = PolarGrid(n_t=8, n_theta=8, r0=1.0)
        T, _ = grid.mesh()
        with pytest.raises(ValueError):
            DiskProblem(grid, J=T - 0.5, Vt=np.zeros_like(T), Vtheta=np.zeros_like(T))

    def test_origin_behavior_enforced(self):
        grid = PolarGrid(n_t=8, n_theta=8, r0=1.0)
        T, _ = grid.mesh()
        with pytest.raises(ValueError):
            DiskProblem(grid, J=2.0 * T, Vt=np.zeros_like(T), Vtheta=np.zeros_like(T))

    def test_sample(self):
        grid = PolarGrid(n_t=8, n_theta=8, r0=1.0)
        T, TH = grid.mesh()
        assert np.array_equal(grid.sample(None), np.zeros((8, 8)))
        assert np.array_equal(grid.sample(lambda t, th: 0.5), np.full((8, 8), 0.5))
        assert np.array_equal(grid.sample(lambda t, th: t * np.cos(th)), T * np.cos(TH))

    def test_perturbation_keeps_metric_valid(self):
        p = build_model_disk(FLAT, perturbation=lambda t, th: 0.1 * t * t * np.cos(th),
                             n_t=32, n_theta=16)
        assert np.all(p.J > 0)
        with pytest.raises(ValueError):
            build_model_disk(FLAT, perturbation=lambda t, th: -1.0 - 0.1 * t,
                             n_t=32, n_theta=16)


class TestOperator:
    def test_annihilates_constants_interior(self):
        p = build_model_disk(FLAT, n_t=64, n_theta=32)
        act = operator_action(assemble_operator(p), p.J.shape)
        res = act(np.ones_like(p.J))
        assert np.max(np.abs(res[:-1, :])) < 1e-9

    def test_flat_laplacian_of_t_squared(self):
        p = build_model_disk(FLAT, n_t=64, n_theta=32)
        act = operator_action(assemble_operator(p), p.J.shape)
        T, _ = p.grid.mesh()
        res = act(T ** 2)
        assert np.max(np.abs(res[:-1, :] + 4.0)) < 1e-9

    def test_radial_drift_action(self):
        p = build_model_disk(FLAT, n_t=64, n_theta=32)
        p = p.with_drift(Vt=p.grid.sample(lambda t, th: t))
        act = operator_action(assemble_operator(p), p.J.shape)
        T, _ = p.grid.mesh()
        res = act(T ** 2)
        assert np.max(np.abs((res - (-4.0 + 2.0 * T ** 2))[:-1, :])) < 1e-9

    def test_volume_scaled_diffusion_is_symmetric(self):
        p = build_model_disk(FLAT, perturbation=lambda t, th: 0.05 * t * np.cos(th),
                             n_t=32, n_theta=16)
        K = weighted_stiffness(p, None, dirichlet=True)
        assert abs(K - K.T).max() < 1e-12


class TestEigen:
    def test_flat_disk_eigenvalue(self, flat_pair):
        _, pair, _ = flat_pair
        assert pair.lam == pytest.approx(bessel_zero(0, 1) ** 2, abs=2e-3)
        assert np.all(pair.omega > 0)
        assert pair.lam > 0

    def test_second_order_convergence(self):
        target = bessel_zero(0, 1) ** 2
        errs = []
        for n in (32, 64, 128):
            p = build_model_disk(FLAT, n_t=n, n_theta=max(16, n // 2))
            pair, _ = solve_principal(p, tol=1e-8)
            errs.append(abs(pair.lam - target))
        slope = np.log(errs[0] / errs[2]) / np.log(4.0)
        assert slope > 1.6

    def test_production_grid_accuracy(self):
        p = build_model_disk(FLAT, n_t=256, n_theta=128)
        pair, _ = solve_principal(p, tol=1e-7)
        assert pair.lam == pytest.approx(bessel_zero(0, 1) ** 2, abs=2e-3)

    def test_rotation_drift_invariance(self, flat_pair):
        _, pair0, _ = flat_pair
        p = build_model_disk(FLAT, drift_angular=lambda t, th: 0.5 * np.ones_like(t),
                             n_t=128, n_theta=64)
        pair, _ = solve_principal(p, tol=1e-8)
        assert pair.lam == pytest.approx(pair0.lam, abs=1e-11)
        assert angular_std(pair.omega) < 1e-10

    def test_transpose_spectrum(self, flat_pair):
        problem, pair, A = flat_pair
        adj = adjoint_principal(A, tol=1e-8, shape=problem.J.shape)
        assert adj.lam == pytest.approx(pair.lam, abs=1e-10)
        assert np.all(adj.omega > 0)

    def test_left_vector_is_a_left_eigenvector(self, flat_pair):
        problem, pair, A = flat_pair
        y = pair.left.ravel()
        assert pair.left.shape == pair.omega.shape
        assert np.all(y > 0) and np.max(y) == 1.0
        left_res = np.max(np.abs(A.T @ y - pair.lam * y)) / abs(pair.lam)
        assert left_res <= 1e-8
        assert left_res == pytest.approx(pair.left_residual, rel=1e-6)

    def test_adjoint_factors_once(self, flat_pair, monkeypatch):
        problem, _, A = flat_pair
        calls = []
        splu = disk.splu

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(disk, "splu", counting)
        adjoint_principal(A, tol=1e-8, shape=problem.J.shape)
        assert len(calls) == 1

    def test_adjoint_is_the_solved_left_pair(self):
        # a caller holding the pair needs no adjoint solve: pair.left is it
        ball = euclidean_ball(2, 1.0, polynomial_drift([0.8]))
        problem = build_model_disk(ball, drift_angular=lambda t, th: 0.5 * t,
                                   n_t=48, n_theta=32)
        pair, A = solve_principal(problem, tol=1e-8)
        adj = adjoint_principal(A, tol=1e-8, shape=problem.J.shape)
        assert adj.lam == pair.lam
        assert np.array_equal(adj.omega, pair.left)
        assert np.array_equal(adj.left, pair.omega)
        assert not np.allclose(pair.left, pair.omega)

    def test_factor_input_is_the_shifted_operator(self, monkeypatch):
        problem = build_model_disk(FLAT, n_t=32, n_theta=16)
        A = assemble_operator(problem)
        factored = []
        splu = disk.splu

        def capturing(*args, **kwargs):
            factored.append(args[0].copy())
            return splu(*args, **kwargs)

        monkeypatch.setattr(disk, "splu", capturing)
        principal_eigenpair_2d(A)
        principal_eigenpair_2d(A, shift_guess=2.0)
        assert (factored[0] != A.tocsc()).nnz == 0
        shifted = A.tocsc() - 2.0 * sp.identity(A.shape[0], format="csc")
        assert (factored[1] != shifted).nnz == 0

    @pytest.mark.parametrize("angular", [None, lambda t, th: 0.5 * t])
    def test_adjoint_matches_independent_transpose_solve(self, angular):
        ball = euclidean_ball(2, 1.0, polynomial_drift([0.8]))
        problem = build_model_disk(ball, drift_angular=angular, n_t=96, n_theta=64)
        A = assemble_operator(problem)
        adj = adjoint_principal(A, tol=1e-8, shape=problem.J.shape)
        ref = principal_eigenpair_2d(A.T.tocsr(), tol=1e-8, shape=problem.J.shape)
        assert abs(adj.lam - ref.lam) <= 1e-10 * abs(ref.lam)
        assert np.max(np.abs(adj.omega - ref.omega)) < 1e-6
        assert np.all(adj.omega > 0)

    def test_adjoint_volume_similarity(self, flat_pair):
        # with V=0 the adjoint mode is the volume-weighted forward mode
        problem, pair, A = flat_pair
        adj = adjoint_principal(A, tol=1e-8, shape=problem.J.shape)
        ref = volumes(problem).reshape(problem.J.shape) * pair.omega
        ref /= np.max(ref)
        assert np.max(np.abs(ref - adj.omega / np.max(adj.omega))) < 1e-6

    def test_radial_reduction_with_angular_component(self):
        ball = euclidean_ball(2, 1.0, polynomial_drift([1.0]))
        p = build_model_disk(ball, drift_angular=lambda t, th: 0.5 * t,
                             n_t=128, n_theta=64)
        pair, _ = solve_principal(p, tol=1e-8)
        lam1d = principal_eigenpair(ball).lam
        assert pair.lam == pytest.approx(lam1d, abs=5e-3)
        assert angular_std(pair.omega) < 1e-10

    def test_shift_above_principal_fails_loudly(self, flat_pair):
        _, _, A = flat_pair
        with pytest.raises((NonPrincipalModeError, SolverError)):
            principal_eigenpair_2d(A, shift_guess=14.0, tol=1e-10)

    def test_errors_name_grid_shift_iteration_and_residuals(self, flat_pair):
        problem, _, A = flat_pair
        with pytest.raises(ConvergenceError) as exc:
            principal_eigenpair_2d(A, tol=1e-8, maxiter=3, shape=problem.J.shape)
        msg = str(exc.value)
        for part in ("grid 128x64", "shift 0.0", "iteration 3", "(right)", "(left)"):
            assert part in msg
        with pytest.raises(ConvergenceError, match=r"n = 8192, shift 0\.0, iteration 3"):
            principal_eigenpair_2d(A, tol=1e-8, maxiter=3)
        with pytest.raises((NonPrincipalModeError, SolverError), match="shift 14.0, iteration"):
            principal_eigenpair_2d(A, shift_guess=14.0, tol=1e-10, shape=problem.J.shape)

    def test_scale_invariance(self):
        # lambda(c r0) c^2 = lambda(r0) at the default tolerance, within
        # discretization error of the 1-D value (whose own scaling is
        # checked in test_radial)
        lam1d = principal_eigenpair(FLAT).lam
        scaled = []
        for c in (0.01, 0.1, 1.0, 10.0):
            pair, _ = solve_principal(build_model_disk(euclidean_ball(2, c), n_t=64, n_theta=32))
            scaled.append(pair.lam * c * c)
        assert scaled == pytest.approx([scaled[2]] * 4, rel=1e-9)
        assert scaled[2] == pytest.approx(lam1d, rel=1e-3)


class TestFields:
    def test_divergence_of_rotation(self):
        p = build_model_disk(FLAT, drift_angular=lambda t, th: 0.5 * np.ones_like(t),
                             n_t=64, n_theta=32)
        assert np.max(np.abs(divergence_field(p))) < 1e-10

    def test_divergence_of_linear_radial_field(self):
        ball = euclidean_ball(2, 1.0, polynomial_drift([-0.25]))
        p = build_model_disk(ball, n_t=64, n_theta=32)
        div = divergence_field(p)
        assert np.max(np.abs(div + 0.5)) < 1e-9

    @pytest.mark.parametrize("variant", ["one-sided first ring", "antipodal ghost",
                                         "Dirichlet wall", "one-sided wall"])
    def test_radial_derivative_second_order(self, variant):
        def field(T, TH):
            # samples and exact d/dt.  The antipodal field is smooth through the
            # origin; the Dirichlet one has f = f'' = 0 at the wall, so its odd
            # reflection, which the ghost -f[-1] stands for, is smooth there too
            if variant == "antipodal ghost":
                x, y = T * np.cos(TH), T * np.sin(TH)
                return np.exp(x) * np.cos(y), np.exp(x) * np.cos(y + TH)
            s = 1.0 + 0.3 * np.sin(TH)
            if variant == "Dirichlet wall":
                return np.cos(0.5 * np.pi * T) * s, -0.5 * np.pi * np.sin(0.5 * np.pi * T) * s
            return np.exp(T) * s, np.exp(T) * s

        ring = -1 if variant.endswith("wall") else 0
        errors = []
        for n_t in (16, 32, 64):
            grid = PolarGrid(n_t=n_t, n_theta=16, r0=1.0)
            f, exact = field(*grid.mesh())
            ghost = np.roll(f[0, :], 8) if variant == "antipodal ghost" else None
            err = np.abs(disk.radial_derivative(f, grid.dt, ghost=ghost,
                                                dirichlet=variant == "Dirichlet wall") - exact)
            errors.append((np.max(err), np.max(err[ring])))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse[0] / fine[0] > 3.5 and coarse[1] / fine[1] > 3.5, errors

    def test_dump_formats(self, flat_pair):
        problem, pair, _ = flat_pair
        csv = eigenpair_csv(problem, pair)
        assert csv.startswith("t,theta,omega\n")
        assert len(csv.strip().split("\n")) == problem.grid.size + 1
        js = eigenpair_json(problem, pair)
        assert '"lambda"' in js and '"residual"' in js
