import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu as superlu
from hypothesis import given, settings, strategies as st

from driftspectra import disk
from driftspectra.disk import (SUPERLU_OPTIONS, DiskProblem, PolarGrid, adjoint_principal,
                               advection_matrix, angular_std, assemble_operator,
                               build_model_disk, divergence_field, drift_load,
                               grid_order, in_grid_order,
                               operator_action, principal_eigenpair_2d, solve_principal,
                               volumes, weighted_stiffness)
from driftspectra.errors import ConvergenceError, NonPrincipalModeError, SolverError
from driftspectra.geometry import euclidean_ball, polynomial_drift, space_form_ball
from driftspectra.radial import principal_eigenpair

from _identities import radial_derivative
from _oracles import (add_at_drift_load, bessel_zero, coo_advection, coo_operator,
                      coo_stiffness, fancy_grid_order, ring_averaged_lambda)

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

    def test_drift_action_ghosts_and_angular_difference(self):
        # centred differences, exact to roundoff: u = t has slope 1 inside,
        # ring 0 differences against its antipodal cell (same radius, so
        # half the slope) and the wall against the ghost -u; u = t cos(theta)
        # is linear across the origin, so ring 0 gets its slope cos(theta)
        # exactly; u = sin(theta) gives the angular centred difference of sin
        p = build_model_disk(FLAT, n_t=8, n_theta=16)
        T, TH = p.grid.mesh()
        one = np.ones_like(T)
        n, dth = p.grid.n_t, p.grid.dtheta
        R = _drift_action(p.with_drift(Vt=one))
        radial = (R @ T.ravel()).reshape(T.shape)
        assert np.allclose(radial[0], 0.5, rtol=0, atol=1e-14)
        assert np.allclose(radial[1:-1], 1.0, rtol=0, atol=1e-14)
        assert np.allclose(radial[-1], -(n - 1.0), rtol=0, atol=1e-13)
        x = (R @ (T * np.cos(TH)).ravel()).reshape(T.shape)
        assert np.allclose(x[:-1], np.cos(TH[:-1]), rtol=0, atol=1e-14)
        angular = _drift_action(p.with_drift(Vtheta=one)) @ np.sin(TH).ravel()
        assert np.allclose(angular, (np.cos(TH) * np.sin(dth) / dth).ravel(), rtol=0,
                           atol=1e-14)

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
        # left_residual is the last step of y <- A^-T y (max 1), from y = 1
        lu = superlu(sp.csc_matrix(A.T))
        steps = [np.ones(A.shape[0])]
        for _ in range(pair.iterations):
            z = lu.solve(steps[-1])
            steps.append(z / z.max())
        assert np.max(np.abs(steps[-1] - y)) <= 1e-12
        assert pair.left_residual == pytest.approx(np.max(np.abs(steps[-1] - steps[-2])), rel=1e-3)
        assert pair.left_residual < 1e-8

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
        # A and a caller's A - 2I permuted into the grid's elimination order,
        # built here as P A P^T with P the rows of the identity in that
        # order, and factored in that order (natural column order); without
        # a shape, A as it is (natural order)
        problem = build_model_disk(FLAT, n_t=32, n_theta=16)
        A = assemble_operator(problem)
        n = A.shape[0]
        shifted = _shifted(A, 2.0)
        factored = []
        splu = disk.splu

        def capturing(*args, **kwargs):
            factored.append((args[0].copy(), kwargs))
            return splu(*args, **kwargs)

        monkeypatch.setattr(disk, "splu", capturing)
        principal_eigenpair_2d(A, shape=(32, 16))
        principal_eigenpair_2d(shifted, shape=(32, 16))
        principal_eigenpair_2d(A)
        P = sp.identity(n, format="csr")[grid_order(32, 16)]
        for (mat, kwargs), ref in zip(factored, (P @ A @ P.T, P @ shifted @ P.T, A)):
            assert (mat != ref.tocsc()).nnz == 0
            assert kwargs == SUPERLU_OPTIONS and kwargs["permc_spec"] == "NATURAL"

    def test_wall_first_factor_has_less_fill(self, monkeypatch):
        # the recipe against minimum degree on the ring-major numbering with
        # SuperLU's default supernodes; fill counts are deterministic
        ball = space_form_ball(0.3, 2, 1.0, polynomial_drift([0.8]))
        problem = build_model_disk(ball, perturbation=lambda t, th: 0.1 * t * t * np.cos(2 * th),
                                   drift_angular=lambda t, th: 0.5 * t, n_t=96, n_theta=64)
        A = assemble_operator(problem)
        factors = []
        splu = disk.splu

        def capturing(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(disk, "splu", capturing)
        principal_eigenpair_2d(A, shape=problem.J.shape)
        ring_major = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").nnz
        assert factors[0].nnz <= 0.8 * ring_major

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

    def test_nonsymmetric_pencil_matches_the_operator(self):
        # S = diag(vol) A with M = diag(vol) has A's pair; its left vector is
        # A's divided by vol (S^T y = lam M y with y = z / vol, A^T z = lam z)
        ball = space_form_ball(0.3, 2, 1.0, polynomial_drift([0.8]))
        problem = build_model_disk(ball, perturbation=lambda t, th: 0.1 * t * t * np.cos(th),
                                   drift_angular=lambda t, th: 0.6 * t, n_t=48, n_theta=32)
        pair, A = solve_principal(problem, tol=1e-9)
        vol = volumes(problem)
        S = A.copy()  # diag(vol) A on A's pattern
        S.data *= np.repeat(vol, np.diff(A.indptr))
        pencil = principal_eigenpair_2d(S, tol=1e-9, shape=problem.J.shape, mass=vol)
        left = pair.left / vol.reshape(problem.J.shape)
        assert abs(pencil.lam - pair.lam) <= 1e-10 * pair.lam
        assert np.max(np.abs(pencil.omega - pair.omega)) <= 1e-8
        assert np.max(np.abs(pencil.left - left / left.max())) <= 1e-8

    def test_parameters_after_the_matrix_are_keyword_only(self, flat_pair):
        # a positional second argument (once a shift) is refused, not taken
        # for a tolerance
        _, _, A = flat_pair
        with pytest.raises(TypeError):
            principal_eigenpair_2d(A, 2.0)

    def test_shift_above_principal_fails_loudly(self, flat_pair):
        _, _, A = flat_pair
        with pytest.raises((NonPrincipalModeError, SolverError)):
            principal_eigenpair_2d(_shifted(A, 14.0), tol=1e-10)

    def test_errors_name_grid_iteration_and_residuals(self, flat_pair, monkeypatch):
        problem, _, A = flat_pair
        monkeypatch.setattr(disk, "MAXITER", 3)
        with pytest.raises(ConvergenceError) as exc:
            principal_eigenpair_2d(A, tol=1e-8, shape=problem.J.shape)
        msg = str(exc.value)
        assert re.search(r"grid 128x64, iteration 3, step \S+ \(right\) and \S+ \(left\)", msg)
        assert "in 3 iterations" in msg and "shift" not in msg
        with pytest.raises(ConvergenceError, match=r"n = 8192, iteration 3"):
            principal_eigenpair_2d(A, tol=1e-8)
        with pytest.raises((NonPrincipalModeError, SolverError), match="grid 128x64, iteration"):
            principal_eigenpair_2d(_shifted(A, 14.0), tol=1e-10, shape=problem.J.shape)

    def test_factorization_failure_names_the_grid(self, flat_pair, monkeypatch):
        problem, _, A = flat_pair

        def failing(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(disk, "splu", failing)
        with pytest.raises(SolverError, match=r"factorization failed \(grid 128x64\): Factor is"):
            principal_eigenpair_2d(A, shape=problem.J.shape)
        with pytest.raises(SolverError, match=r"factorization failed \(n = 8192\)"):
            principal_eigenpair_2d(A, mass=volumes(problem))

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


def _shifted(A, sigma):
    """A - sigma I on A's pattern: the engine takes no shift, so a caller
    shifts the matrix."""
    shifted = A.copy()
    shifted.setdiag(A.diagonal() - sigma)
    return shifted


def _stencil(n_t, n_theta):
    """The grid's full stencil, built cell by cell, as a CSC pattern.

    Each cell is coupled with itself, its radial and periodic angular
    neighbours and, on the first ring, its antipodal cell.
    """
    n = n_t * n_theta
    rows, cols = [], []
    for j in range(n_t):
        for l in range(n_theta):
            cell = j * n_theta + l
            nbrs = [cell, j * n_theta + (l + 1) % n_theta, j * n_theta + (l - 1) % n_theta]
            nbrs += [(j + s) * n_theta + l for s in (-1, 1) if 0 <= j + s < n_t]
            if j == 0:
                nbrs.append((l + n_theta // 2) % n_theta)
            rows += [cell] * len(nbrs)
            cols += nbrs
    return sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsc()


def _stencil_order(n_t, n_theta):
    """Elimination order of the grid's full stencil from `splu` itself.

    The stencil is numbered from the wall inward and factored with minimum
    degree on A^T + A; the returned ring-major indices follow the factor's
    column order.
    """
    n = n_t * n_theta
    M = 11.0 * sp.identity(n, format="csc") - _stencil(n_t, n_theta)
    wall_first = np.arange(n - 1, -1, -1)
    lu = superlu(M[:, wall_first][wall_first, :].tocsc(), permc_spec="MMD_AT_PLUS_A",
                 relax=1, panel_size=1)
    return wall_first[np.argsort(lu.perm_c)]


class TestStencil:
    """Every matrix assembled on a disk lies in the pattern `grid_order` is
    computed for, so that order suits every factorization on the grid."""

    @settings(max_examples=20)
    @given(kappa=st.integers(-10, 10).map(lambda k: 0.1 * k),
           c=st.integers(0, 15).map(lambda k: 0.1 * k),
           d=st.integers(-5, 5).map(lambda k: 0.1 * k),
           eps=st.integers(0, 15).map(lambda k: 0.01 * k), j=st.integers(1, 3),
           a=st.integers(-10, 10).map(lambda k: 0.1 * k),
           grid=st.sampled_from([(4, 8), (8, 8), (16, 8), (12, 16), (24, 16)]))
    def test_assembled_matrices_lie_in_the_grid_stencil(self, kappa, c, d, eps, j, a, grid):
        ball = space_form_ball(kappa, 2, 1.0, polynomial_drift([c]))
        p = build_model_disk(ball, perturbation=lambda t, th: eps * t * t * np.cos(j * th),
                             drift_angular=lambda t, th: a * t * (1.0 + 0.5 * np.sin(th)),
                             n_t=grid[0], n_theta=grid[1])
        p = p.with_drift(Vt=p.Vt * (1.0 + d * np.cos(p.grid.sample(lambda t, th: th))),
                         Vtheta=p.Vtheta)
        W = 1.0 + p.grid.sample(lambda t, th: t * np.cos(th) ** 2)
        stencil = _stencil(*grid).toarray() != 0.0
        for mat in (assemble_operator(p), weighted_stiffness(p, W, dirichlet=True),
                    weighted_stiffness(p, W, dirichlet=False), advection_matrix(p, W)):
            coo = mat.tocoo()
            assert np.all(stencil[coo.row, coo.col])


def _on_the_stencil(mat, ref, grid):
    """Equal to ref entry for entry, stored in CSR on exactly the grid's
    stencil pattern (sorted), built cell by cell."""
    stencil = _stencil(*grid).tocsr()
    assert mat.format == "csr" and (mat != ref).nnz == 0
    assert np.array_equal(mat.indptr, stencil.indptr)
    assert np.array_equal(mat.indices, stencil.indices)


def _drift_action(p):
    """The operator's drift part on the stencil, from its entries alone."""
    return disk._on_stencil(p, *disk._drift_entries(p))


def _same_storage(mat, ref):
    """Equal entry for entry, with the same stored pattern in the same order."""
    assert mat.format == ref.format and mat.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(mat, name), getattr(ref, name)), name


class TestStencilAssembly:
    """Assembly into the cached stencil gives the COO matrices' values bit for
    bit on the full stencil, and its gather gives the fancy-indexed
    permutation without stored zeros."""

    @settings(max_examples=40)
    @given(kappa=st.integers(-10, 10).map(lambda k: 0.1 * k),
           c=st.integers(-15, 15).map(lambda k: 0.1 * k),
           d=st.integers(-5, 5).map(lambda k: 0.1 * k),
           eps=st.integers(0, 15).map(lambda k: 0.01 * k), j=st.integers(1, 3),
           a=st.integers(-10, 10).map(lambda k: 0.1 * k), half=st.booleans(),
           grid=st.sampled_from([(4, 8), (8, 8), (16, 8), (12, 16), (24, 16), (48, 32),
                                 (96, 64)]))
    def test_matrices_equal_the_coo_oracle(self, kappa, c, d, eps, j, a, half, grid):
        # c of both signs and 0, angular drift or none; `half` zeroes the
        # radial drift on half of every ring, so ring 0 keeps only some
        # antipodal couplings and stores the others as zeros
        ball = space_form_ball(kappa, 2, 1.0, polynomial_drift([c]))
        p = build_model_disk(ball, perturbation=lambda t, th: eps * t * t * np.cos(j * th),
                             drift_angular=(lambda t, th: a * t * (1.0 + 0.5 * np.sin(th)))
                             if a else None, n_t=grid[0], n_theta=grid[1])
        TH = p.grid.sample(lambda t, th: th)
        p = p.with_drift(Vt=p.Vt * (np.cos(TH) > 0.0 if half else 1.0 + d * np.cos(TH)),
                         Vtheta=p.Vtheta)
        W = 1.0 + p.grid.sample(lambda t, th: t * np.cos(th) ** 2)
        pairs = [(assemble_operator(p), coo_operator(p)), (weighted_stiffness(p), coo_stiffness(p)),
                 (weighted_stiffness(p, W, dirichlet=True), coo_stiffness(p, W, True)),
                 (weighted_stiffness(p, W, dirichlet=False), coo_stiffness(p, W, False)),
                 (advection_matrix(p, W), coo_advection(p, W))]
        for mat, ref in pairs:
            _on_the_stencil(mat, ref, grid)
        assert np.array_equal(drift_load(p, W), add_at_drift_load(p, W))

        order = grid_order(*grid)
        density = weighted_stiffness(p, W, dirichlet=False)  # as `bounds.solve_G_V` sums it
        density.data += advection_matrix(p, W).data
        systems = [pairs[0][0], pairs[2][0], density,
                   2.0 * weighted_stiffness(p, W, dirichlet=False)]
        for mat in systems:
            got_order, got = in_grid_order(mat, grid)
            ref = fancy_grid_order(mat, order)
            ref.eliminate_zeros()  # SuperLU gets no stored zero
            got.sort_indices()  # as `splu` sorts its input in place
            ref.sort_indices()
            assert got_order is order
            _same_storage(got, ref)

    @pytest.mark.parametrize("swirled,nnz", [(False, 214_160), (True, 217_214)])
    def test_factor_fill_is_unchanged(self, swirled, nnz, monkeypatch):
        # L+U nonzeros of the grid's order at 96 x 64: a disk without radial
        # drift, and a swirled kappa = 0.3 disk with radial drift
        if swirled:
            ball = space_form_ball(0.3, 2, 1.0, polynomial_drift([0.8]))
            problem = build_model_disk(
                ball, perturbation=lambda t, th: 0.1 * t * t * np.cos(2 * th),
                drift_angular=lambda t, th: 0.5 * t, n_t=96, n_theta=64)
        else:
            problem = _zero_radial_drift(96, 64)
        factors = []
        splu = disk.splu

        def capturing(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(disk, "splu", capturing)
        solve_principal(problem)
        assert [lu.nnz for lu in factors] == [nnz]

    def test_cache_is_bounded_read_only_and_int32(self):
        # one full pattern per grid in one cache: at 144 x 96 its int32 index
        # arrays hold 1.2 MB, next to the order's 13,824 intp entries
        assert disk._grid.cache_info().maxsize == 8
        arrays = disk._grid(24, 16)
        assert disk._grid(24, 16) is arrays and grid_order(24, 16) is arrays[3]
        for array in arrays:
            assert not array.flags.writeable
            assert array.dtype == (np.intp if array is arrays[3] else np.int32)
        arrays = disk._grid(144, 96)
        assert sum(x.nbytes for x in arrays if x.dtype == np.int32) < 1.25e6

    def test_sorting_a_matrix_in_place_leaves_the_cache_alone(self):
        # an assembled matrix is canonical, so scipy's abs() or max() leave its
        # storage as it is, and it owns its index arrays: pruning its stored
        # zeros in place (the flat disk's antipodal couplings) changes no cache
        problem = build_model_disk(FLAT, n_t=24, n_theta=16)
        A = assemble_operator(problem)
        indptr, indices = (x.copy() for x in disk._grid(24, 16)[:2])
        before = in_grid_order(A, (24, 16))[1]
        assert A.has_canonical_format and abs(A).max() > 0.0
        A.eliminate_zeros()
        assert A.nnz == indices.size - 16
        assert np.array_equal(disk._grid(24, 16)[0], indptr)
        assert np.array_equal(disk._grid(24, 16)[1], indices)
        _same_storage(in_grid_order(assemble_operator(problem), (24, 16))[1], before)

    def test_a_matrix_off_the_stencil_is_refused(self):
        # no fallback: a pruned operator (sorted, without its stored zeros) and
        # a CSC operator are refused
        A = assemble_operator(build_model_disk(FLAT, n_t=24, n_theta=16))
        pruned = A.copy()
        pruned.eliminate_zeros()
        for mat in (pruned, A.tocsc()):
            with pytest.raises(ValueError, match="not CSR on the stencil of grid 24x16"):
                in_grid_order(mat, (24, 16))
        with pytest.raises(ValueError, match="grid 24x16"):
            principal_eigenpair_2d(pruned, shape=(24, 16))


def _zero_radial_drift(n_t, n_theta):
    # Vt = 0: the operator has no antipodal couplings, so its own pattern
    # is smaller than the grid's stencil
    return build_model_disk(FLAT, drift_angular=lambda t, th: 0.5 * t, n_t=n_t, n_theta=n_theta)


class TestGridOrder:
    @pytest.mark.parametrize("n_t,n_theta", [(4, 8), (16, 8), (48, 32), (96, 64)])
    def test_order_is_the_full_factors_order(self, n_t, n_theta):
        order = grid_order(n_t, n_theta)
        assert np.array_equal(order, _stencil_order(n_t, n_theta))
        assert np.array_equal(np.sort(order), np.arange(n_t * n_theta))

    def test_cached_per_grid_and_read_only(self):
        order = grid_order(24, 16)
        assert grid_order(24, 16) is order
        assert not order.flags.writeable
        with pytest.raises(ValueError):
            order[0] = 1

    def test_grid_order_leaves_less_fill_than_the_operators_pattern(self, monkeypatch):
        # minimum degree on the operator's own pattern against the grid's
        # stencil order, on a disk without radial drift: L+U nonzeros fall
        # from 270,428 to 214,160 at 96 x 64; the counts are deterministic
        problem = _zero_radial_drift(96, 64)
        A = assemble_operator(problem)
        factors = []
        splu = disk.splu

        def capturing(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(disk, "splu", capturing)
        principal_eigenpair_2d(A, shape=problem.J.shape)
        A.eliminate_zeros()  # the operator's own pattern: no antipodal couplings
        own = splu(A[::-1, ::-1].tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
        assert factors[0].nnz <= 0.8 * own.nnz

    def test_solve_does_not_depend_on_call_history(self):
        # the same problem before and after other grids were ordered and
        # after the cache was emptied gives the same bits
        ball = space_form_ball(0.3, 2, 1.0, polynomial_drift([0.8]))
        problem = build_model_disk(ball, perturbation=lambda t, th: 0.1 * t * t * np.cos(th),
                                   drift_angular=lambda t, th: 0.5 * t, n_t=24, n_theta=16)
        first, _ = solve_principal(problem)
        solve_principal(_zero_radial_drift(32, 16))
        again, _ = solve_principal(problem)
        disk._grid.cache_clear()
        fresh, _ = solve_principal(problem)
        for pair in (again, fresh):
            assert pair.lam == first.lam and pair.iterations == first.iterations
            assert np.array_equal(pair.omega, first.omega)
            assert np.array_equal(pair.left, first.left)


def _dense_principal(M):
    """Lowest-real-part eigenvalue of a dense matrix and its vector, max 1."""
    ev, vecs = np.linalg.eig(M)
    i = np.argmin(ev.real)
    v = vecs[:, i].real
    return ev[i].real, v / v[np.argmax(np.abs(v))]


class TestDenseOracle:
    """Tiny grids, where numpy.linalg solves the dense system outright."""

    @pytest.mark.parametrize("n_t,n_theta", [(4, 8), (6, 8), (8, 12), (12, 16)])
    def test_right_and_left_pairs(self, n_t, n_theta):
        ball = space_form_ball(0.5, 2, 1.0, polynomial_drift([0.8]))
        problem = build_model_disk(ball, perturbation=lambda t, th: 0.1 * t * t * np.cos(th),
                                   drift_angular=lambda t, th: 0.6 * t * (1.0 + 0.3 * np.sin(th)),
                                   n_t=n_t, n_theta=n_theta)
        pair, A = solve_principal(problem, tol=1e-10)
        dense = A.toarray()
        lam, right = _dense_principal(dense)
        lam_t, left = _dense_principal(dense.T)
        assert abs(pair.lam - lam) <= 1e-10 * lam
        assert abs(pair.lam - lam_t) <= 1e-10 * lam
        assert np.max(np.abs(pair.omega.ravel() - right)) <= 1e-9
        assert np.max(np.abs(pair.left.ravel() - left)) <= 1e-9


class TestTransposeAgreement:
    """The operator and its transpose have one principal pair: solving A^T
    by itself gives A's eigenvalue, with right and left vectors swapped."""

    @settings(max_examples=30)
    @given(kappa=st.integers(-10, 10).map(lambda k: 0.1 * k),
           c=st.integers(0, 15).map(lambda k: 0.1 * k),
           d=st.integers(-5, 5).map(lambda k: 0.1 * k),
           eps=st.integers(0, 15).map(lambda k: 0.01 * k), j=st.integers(1, 3),
           a=st.integers(-10, 10).map(lambda k: 0.1 * k),
           b=st.integers(-5, 5).map(lambda k: 0.1 * k),
           grid=st.sampled_from([(16, 8), (24, 16), (32, 16), (48, 32)]))
    def test_transpose_solve_swaps_the_vectors(self, kappa, c, d, eps, j, a, b, grid):
        ball = space_form_ball(kappa, 2, 1.0, polynomial_drift([c]))
        p = build_model_disk(ball, perturbation=lambda t, th: eps * t * t * np.cos(j * th),
                             drift_angular=lambda t, th: a * t * (1.0 + b * np.sin(th)),
                             n_t=grid[0], n_theta=grid[1])
        p = p.with_drift(Vt=p.Vt * (1.0 + d * np.cos(p.grid.sample(lambda t, th: th))),
                         Vtheta=p.Vtheta)
        pair, A = solve_principal(p, tol=1e-9)
        adj = principal_eigenpair_2d(A.T.tocsr(), tol=1e-9, shape=grid)
        assert abs(adj.lam - pair.lam) <= 1e-10 * pair.lam
        assert np.max(np.abs(adj.omega - pair.left)) <= 1e-8
        assert np.max(np.abs(adj.left - pair.omega)) <= 1e-8


class TestPairContract:
    """What `principal_eigenpair_2d` guarantees of every pair it returns,
    so that no caller tests it again: both vectors strictly positive with
    max exactly 1, both steps below tol, lam > 0.  The operator and its
    transpose share lam."""

    @settings(max_examples=20)
    @given(kappa=st.integers(-10, 10).map(lambda k: 0.1 * k),
           r0=st.integers(5, 15).map(lambda k: 0.1 * k),
           c=st.integers(0, 15).map(lambda k: 0.1 * k),
           eps=st.integers(0, 15).map(lambda k: 0.01 * k), j=st.integers(1, 3),
           a=st.integers(-10, 10).map(lambda k: 0.1 * k),
           grid=st.sampled_from([(24, 16), (32, 16), (32, 24), (48, 32)]))
    def test_pairs_of_the_operator_and_its_transpose(self, kappa, r0, c, eps, j, a, grid):
        ball = space_form_ball(kappa, 2, r0, polynomial_drift([c]))
        problem = build_model_disk(ball, perturbation=lambda t, th: eps * t * t * np.cos(j * th),
                                   drift_angular=lambda t, th: a * t * (1.0 + 0.5 * np.sin(th)),
                                   n_t=grid[0], n_theta=grid[1])
        pair, A = solve_principal(problem)
        adj = principal_eigenpair_2d(A.T.tocsr(), shape=grid)
        assert abs(adj.lam - pair.lam) <= 1e-10 * pair.lam
        for p in (pair, adj):
            assert p.lam > 0.0
            for vec, step in ((p.omega, p.residual), (p.left, p.left_residual)):
                assert np.all(vec > 0.0) and np.max(vec) == 1.0
                assert step < disk.DEFAULT_TOL


class TestRadialAgreement:
    """On a rotation-invariant model disk the 2-D pair reduces to the 1-D
    radial problem, up to the O(h^2) error of the 2-D grid."""

    @settings(max_examples=25)
    @given(kappa=st.integers(-10, 10).map(lambda k: 0.1 * k),
           r0=st.sampled_from([0.25, 0.5, 1.0, 1.5]),
           c=st.integers(-10, 15).map(lambda k: 0.1 * k))
    def test_disk_matches_radial_solve(self, kappa, r0, c):
        ball = space_form_ball(kappa, 2, r0, polynomial_drift([c]))
        pair, _ = solve_principal(build_model_disk(ball, n_t=96, n_theta=64))
        lam1d = principal_eigenpair(ball).lam
        assert abs(pair.lam - lam1d) <= 1e-3 * lam1d


class TestReducedOracle:
    """On rotation-invariant disks the principal pair is theta-constant and
    its eigenvalue is that of the ring-averaged operator (`_oracles`)."""

    @settings(max_examples=40)
    @given(kappa=st.integers(-10, 10).map(lambda k: 0.1 * k),
           r0=st.sampled_from([0.2, 0.5, 1.0, 1.5, 2.0]),
           c=st.integers(-10, 20).map(lambda k: 0.1 * k),
           vtheta=st.integers(-30, 30).map(lambda k: 0.1 * k),
           grid=st.sampled_from([(16, 8), (24, 16), (32, 16), (48, 32), (64, 32), (96, 64)]))
    def test_solve_matches_ring_averaged_operator(self, kappa, r0, c, vtheta, grid):
        ball = space_form_ball(kappa, 2, r0, polynomial_drift([c]))
        problem = build_model_disk(ball, drift_angular=lambda t, th: vtheta + 0.0 * t,
                                   n_t=grid[0], n_theta=grid[1])
        pair, A = solve_principal(problem)
        exact = ring_averaged_lambda(A, *grid)
        assert abs(pair.lam - exact) <= 1e-10 * exact


class TestStepStop:
    """The iteration stops on the steps of its vectors, which have no
    roundoff floor: the relative residual max|A v - lam v| / lam reads
    eps ||A|| / lam at best, 6e-9 on the flat 192 x 128 disk."""

    def test_tight_tolerance_reaches_the_ring_averaged_lambda(self):
        pair, A = solve_principal(build_model_disk(FLAT, n_t=192, n_theta=128), tol=1e-10)
        exact = ring_averaged_lambda(A, 192, 128)
        assert pair.residual < 1e-10 and pair.left_residual < 1e-10
        assert abs(pair.lam - exact) <= 1e-11 * exact

    def test_unreachable_tolerance_stagnates(self):
        A = assemble_operator(build_model_disk(FLAT, n_t=24, n_theta=16))
        with pytest.raises(ConvergenceError, match=r"steps stagnated above tol=1\.0e-17 .*"
                                                   r"iteration 39,"):
            principal_eigenpair_2d(A, tol=1e-17)

    @pytest.mark.parametrize("grid", [(48, 32), (96, 64)])
    def test_strong_radial_drift_matches_the_exact_oracle(self, grid):
        # h = 50 t: lambda is about 1e-8, far below eps ||A|| / lambda of
        # the relative residual; the steps and the long-double quotient
        # still give it to 1.6e-9
        problem = build_model_disk(euclidean_ball(2, 1.0, polynomial_drift([50.0])),
                                   n_t=grid[0], n_theta=grid[1])
        pair, A = solve_principal(problem)
        exact = ring_averaged_lambda(A, *grid)
        assert abs(pair.lam - exact) <= 1e-8 * exact

    def test_sign_fixed_iterates_do_not_converge(self):
        # h = 10 t on r0 = 10: cell Peclet numbers near 10, lambda far below
        # eps ||A||; every iterate leaves the positive cone, and their absolute
        # values stop moving after three solves
        problem = build_model_disk(euclidean_ball(2, 10.0, polynomial_drift([10.0])),
                                   n_t=96, n_theta=64)
        with pytest.raises(NonPrincipalModeError):
            solve_principal(problem)


class TestRotation:
    """Rolling the theta index of J, Vt and Vtheta by r rolls omega by r and
    keeps lambda: the grid and the stencil are the same on every ray."""

    @settings(max_examples=25)
    @given(r=st.integers(1, 15), kappa=st.floats(-1.0, 1.0), c=st.floats(0.0, 1.5),
           eps=st.floats(0.0, 0.15), j=st.integers(1, 3), a=st.floats(-1.0, 1.0))
    def test_roll_rolls_omega_and_keeps_lambda(self, r, kappa, c, eps, j, a):
        ball = space_form_ball(kappa, 2, 1.0, polynomial_drift([c]))
        p = build_model_disk(ball, perturbation=lambda t, th: eps * t * t * np.cos(j * th),
                             drift_angular=lambda t, th: a * t * (1.0 + 0.5 * np.sin(th)),
                             n_t=32, n_theta=16)
        rolled = DiskProblem(p.grid, *(np.roll(f, r, axis=1) for f in (p.J, p.Vt, p.Vtheta)))
        pair, _ = solve_principal(p, tol=1e-8)
        moved, _ = solve_principal(rolled, tol=1e-8)
        assert moved.lam == pytest.approx(pair.lam, rel=1e-12, abs=0)
        assert np.max(np.abs(moved.omega - np.roll(pair.omega, r, axis=1))) <= 1e-12


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
            err = np.abs(radial_derivative(f, grid.dt, ghost=ghost,
                                           dirichlet=variant == "Dirichlet wall") - exact)
            errors.append((np.max(err), np.max(err[ring])))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse[0] / fine[0] > 3.5 and coarse[1] / fine[1] > 3.5, errors
