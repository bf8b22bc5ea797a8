import dataclasses
import gc
import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from driftspectra.compare import riccati_uniqueness
from driftspectra.errors import ConvergenceError, EigenvalueWindowError, SolverError
from driftspectra.geometry import euclidean_ball, polynomial_drift, space_form_ball
from driftspectra.quadrature import simpson_weights
from driftspectra import radial
from driftspectra.radial import (_count_brackets, _RadialPath, _rayleigh_estimate,
                                 _refine, assemble_spectrum, frobenius_exponent,
                                 principal_eigenpair, solve_radial_modes,
                                 sphere_eigenvalue, weighted_inner_product)

from _identities import derivative_identity_residual, interior_sign_changes, maisuma_residual
from _oracles import (bessel_zero, harmonic_multiplicity, rk4_sweep, stage_coefficients,
                      step_grid)


@pytest.fixture
def sweeps(monkeypatch):
    """The lambdas of every sweep computed while the test runs; a sweep that
    `_RadialPath.integrate` reuses is not one."""
    lams = []
    sweep = _RadialPath._sweep
    monkeypatch.setattr(_RadialPath, "_sweep",
                        lambda self, lam, *a: lams.append(lam) or sweep(self, lam, *a))
    return lams


class TestSphereData:
    def test_constant_mode(self):
        for m in (2, 3, 4, 7):
            assert sphere_eigenvalue(0, m) == (0.0, 1)

    def test_circle_spectrum(self):
        nu, mult = sphere_eigenvalue(1, 2)
        assert nu == 1.0 and mult == 2
        nu, mult = sphere_eigenvalue(3, 2)
        assert nu == 9.0 and mult == 2

    def test_two_sphere_level_two(self):
        nu, mult = sphere_eigenvalue(2, 3)
        assert nu == 6.0
        assert mult == harmonic_multiplicity(2, 3) == 5

    @pytest.mark.parametrize("k,m", [(k, m) for k in range(6) for m in (2, 3, 4, 5)])
    def test_multiplicity_against_polynomial_count(self, k, m):
        assert sphere_eigenvalue(k, m)[1] == harmonic_multiplicity(k, m)

    def test_frobenius_exponent_roots(self):
        assert frobenius_exponent(0.0, 3) == 0.0
        assert frobenius_exponent(0.0, 5) == 0.0
        assert frobenius_exponent(float(2 * (2 + 4 - 2)), 4) == pytest.approx(2.0, rel=1e-14)

    def test_frobenius_exponent_quadratic_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(2, 8))
            nu = float(rng.uniform(0.0, 40.0))
            alpha = frobenius_exponent(nu, m)
            assert alpha >= 0.0
            assert alpha * (alpha + m - 2) == pytest.approx(nu, abs=1e-10)


class TestPrincipal:
    def test_flat_m3_analytic(self):
        mode = principal_eigenpair(euclidean_ball(3, 1.0))
        assert mode.lam == pytest.approx(math.pi ** 2, abs=1e-8)
        exact = np.ones_like(mode.t)
        exact[1:] = np.sin(math.pi * mode.t[1:]) / (math.pi * mode.t[1:])
        assert np.max(np.abs(mode.a / mode.a[0] - exact)) < 1e-6

    def test_flat_m2_bessel(self):
        mode = principal_eigenpair(euclidean_ball(2, 1.0))
        assert mode.lam == pytest.approx(bessel_zero(0, 1) ** 2, abs=1e-9)

    @pytest.mark.parametrize("n_t", [256, 512, 1024])
    def test_flat_disk_levels_to_the_grid_error(self, n_t):
        # RK4's h^4 error: |lam_h / lam - 1| = C (lam dt^2)^2, with C at most
        # 6.2e-4 over k <= 2, i <= 3, n_t = 128..1024 and r0 in {0.5, 1, 2}.
        # A sweep started at (b, b') = (1, 0) excited log t at k = 0, which
        # gave C = 7.5e-3 at n_t = 512 (3.65e-12 relative) and 0.12 at 1024.
        ball = euclidean_ball(2, 1.0)
        for k in range(3):
            for i, mode in enumerate(solve_radial_modes(ball, k, 3, n_t=n_t), start=1):
                lam = bessel_zero(k, i) ** 2
                assert abs(mode.lam / lam - 1.0) <= 1e-3 * (lam / n_t ** 2) ** 2

    def test_euclidean_scaling(self):
        lam1 = principal_eigenpair(euclidean_ball(3, 1.0)).lam
        lam2 = principal_eigenpair(euclidean_ball(3, 2.0)).lam
        assert lam2 == pytest.approx(lam1 / 4.0, rel=1e-9)

    def test_sign_profile(self):
        mode = principal_eigenpair(space_form_ball(-1.0, 2, 1.0, polynomial_drift([0.5])))
        assert np.all(mode.a[:-1] > 0)
        assert mode.a_prime[-1] < 0
        assert mode.a_prime[0] == 0.0

    @settings(max_examples=25)
    @given(m=st.sampled_from([2, 3, 4]), kappa=st.floats(-1.0, 0.9), r0=st.floats(0.3, 1.0),
           gaps=st.lists(st.floats(0.01, 0.3), min_size=1, max_size=3),
           c1=st.floats(-1.0, 1.5), c2=st.floats(-0.5, 0.5))
    def test_strictly_decreasing_in_radius(self, m, kappa, r0, gaps, c1, c2):
        # domain monotonicity of the Dirichlet problem, drift included:
        # the radii stay below 1.9 < pi / sqrt(0.9)
        radii = r0 + np.cumsum([0.0] + gaps)
        lams = [principal_eigenpair(space_form_ball(kappa, m, float(r),
                                                    polynomial_drift([c1, c2]))).lam
                for r in radii]
        assert all(a > b for a, b in zip(lams, lams[1:]))


class TestMemo:
    """`principal_eigenpair` solves a (ball, tol, n_t) once while the ball lives."""

    def test_repeat_call_returns_the_same_mode_without_sweeping(self, sweeps):
        ball = euclidean_ball(2, 1.0)
        mode = principal_eigenpair(ball)
        assert sweeps
        del sweeps[:]
        assert principal_eigenpair(ball) is mode
        assert principal_eigenpair(ball, tol=radial.DEFAULT_TOL, n_t=radial.DEFAULT_GRID) is mode
        assert sweeps == []

    @pytest.mark.parametrize("kw", [{"tol": 1e-7}, {"n_t": 256}])
    def test_other_tol_or_grid_solves_afresh(self, kw, sweeps):
        ball = euclidean_ball(2, 1.0)
        mode = principal_eigenpair(ball)
        del sweeps[:]
        other = principal_eigenpair(ball, **kw)
        assert other is not mode and sweeps
        assert set(radial._PRINCIPAL[ball].values()) == {mode, other}

    def test_failed_solve_stores_nothing(self, sweeps):
        # the boundary residual's roundoff floor is ~2e-16, so this tol always fails
        ball = euclidean_ball(2, 1.0)
        for _ in range(2):
            del sweeps[:]
            with pytest.raises(ConvergenceError, match="boundary residual"):
                principal_eigenpair(ball, tol=1e-300)
            assert sweeps
            assert ball not in radial._PRINCIPAL

    def test_entry_dies_with_its_ball(self):
        gc.collect()
        before = len(radial._PRINCIPAL)
        ball = euclidean_ball(2, 1.0)
        mode = principal_eigenpair(ball)
        assert len(radial._PRINCIPAL) == before + 1
        del ball
        gc.collect()
        # the mode outlives the entry: it holds no reference to its ball
        assert len(radial._PRINCIPAL) == before
        assert mode.lam == pytest.approx(bessel_zero(0, 1) ** 2, abs=1e-9)

    def test_mode_is_read_only(self):
        mode = principal_eigenpair(euclidean_ball(2, 1.0))
        for arr in (mode.t, mode.a, mode.a_prime):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            mode.lam = 0.0


class TestHigherModes:
    def test_first_angular_level(self):
        modes = solve_radial_modes(euclidean_ball(2, 1.0), 1, 1)
        assert modes[0].lam == pytest.approx(bessel_zero(1, 1) ** 2, abs=1e-9)

    def test_zero_counts(self):
        modes = solve_radial_modes(euclidean_ball(2, 1.0), 0, 3)
        for mode in modes:
            assert interior_sign_changes(mode) == mode.i - 1
        assert modes[0].lam < modes[1].lam < modes[2].lam

    def test_monotone_in_k(self):
        lams = [solve_radial_modes(euclidean_ball(2, 1.0), k, 1)[0].lam
                for k in range(5)]
        assert all(lams[j] < lams[j + 1] for j in range(4))
        for k, lam in enumerate(lams):
            assert lam == pytest.approx(bessel_zero(k, 1) ** 2, abs=1e-8)

    def test_window_exhausted_error(self):
        class OneBelowTheWindow:
            """One eigenvalue, 1, below a window that ends at lambda = 100,
            where `count` refuses as `_RadialPath.count` does."""
            k, n_t = 3, 64

            def count(self, lam):
                if lam > 100.0:
                    raise EigenvalueWindowError(f"lambda={lam:.6g} is too large")
                return int(lam > 1.0)

        # the probe 5 doubles to 80 and counts one zero there; 160 is refused
        with pytest.raises(EigenvalueWindowError) as exc:
            _count_brackets(OneBelowTheWindow(), 2, {5.0: 1})
        msg = str(exc.value)
        assert "only 1 of the 2 eigenvalues requested" in msg
        assert "level k=3" in msg and "n_t=64" in msg
        assert "below lambda=80," in msg
        assert "lambda=160 is too large" in str(exc.value.__cause__)

    def test_window_ends_the_doubling_on_a_coarse_grid(self):
        # n_t = 4 resolves lambda <= 64, with two level-0 eigenvalues below it
        path = _RadialPath(euclidean_ball(2, 1.0), 0, n_t=4)
        with pytest.raises(EigenvalueWindowError,
                           match=r"only 2 of the 3 .* below lambda=64, .*\(n_t=4\)"):
            _count_brackets(path, 3, {1.0: 0})

    def test_a_solve_past_the_window_names_the_count_found(self, sweeps):
        # four nodes hold no five Ritz values, so the first probe is the
        # window edge 64, below the third eigenvalue
        with pytest.raises(EigenvalueWindowError) as exc:
            solve_radial_modes(euclidean_ball(2, 1.0), 0, 3, n_t=4)
        assert sweeps[0] == 64.0
        msg = str(exc.value)
        assert "only 2 of the 3 eigenvalues requested of level k=0" in msg
        assert "below lambda=64," in msg and "(n_t=4)" in msg

    @pytest.mark.parametrize("probes", [{}, {0.0: 0}, {-1.0: 0}])
    def test_no_positive_probe_is_refused(self, probes):
        class NeverCounted:
            k, n_t = 0, 64

            def count(self, lam):
                raise AssertionError("no probe to double")

        with pytest.raises(ValueError, match="largest probe must be positive"):
            _count_brackets(NeverCounted(), 1, probes)


class TestSturmCount:
    @pytest.mark.parametrize("k", range(4))
    def test_count_is_number_of_eigenvalues_below(self, k):
        path = _RadialPath(euclidean_ball(2, 1.0), k)
        lams = [bessel_zero(k, i) ** 2 for i in range(1, 5)]
        probes = [0.5 * lams[0], 0.5 * (lams[0] + lams[1]), 0.5 * (lams[2] + lams[3])]
        probes += [lam * (1.0 + s * 1e-6) for lam in lams[:3] for s in (-1.0, 1.0)]
        for lam in probes:
            assert path.count(lam) == sum(1 for mu in lams if mu < lam)

    def test_brackets_hold_one_eigenvalue_each(self):
        # from a probe below every eigenvalue, doubled to 128 > j_{1,3}^2
        path = _RadialPath(euclidean_ball(2, 1.0), 1)
        brackets = _count_brackets(path, 3, {1.0: path.count(1.0)})
        assert brackets[2][1] == 128.0
        for i, (lo, hi) in enumerate(brackets, start=1):
            assert (path.count(lo), path.count(hi)) == (i - 1, i)
            assert lo < bessel_zero(1, i) ** 2 < hi

    def test_count_jump_is_not_isolated(self):
        class TwoAtOnce:
            """Every positive lambda counts two zeros: no bracket holds one."""
            k = 0

            def count(self, lam):
                return 2

        with pytest.raises(SolverError, match="cannot isolate"):
            _count_brackets(TwoAtOnce(), 1, {10.0: 2})

    def test_probes_below_an_eigenvalue_raise_the_lower_end(self):
        class ThreeEigenvalues:
            """Counts the eigenvalues 1, 14 and 15 below lambda."""
            k = 0

            def count(self, lam):
                return sum(1 for mu in (1.0, 14.0, 15.0) if mu < lam)

        brackets = _count_brackets(ThreeEigenvalues(), 3, {16.0: 3})
        assert brackets == [(0.0, 8.0), (14.0, 15.0), (15.0, 16.0)]

    def test_isolation_doubles_a_low_upper_end(self, monkeypatch):
        # on the curved 3-ball kappa = -4, r0 = 3, where lam_i = (i pi / 3)^2 + 4,
        # the last Ritz value theta_5 has 11 eigenvalues below it, its double 16
        probes = []
        count = _RadialPath.count

        def recording(path, lam):
            probes.append((lam, count(path, lam)))
            return probes[-1][1]

        monkeypatch.setattr(_RadialPath, "count", recording)
        ball = space_form_ball(-4.0, 3, 3.0)
        modes = solve_radial_modes(ball, 0, 12)
        start = probes[0][0]
        assert start == _RadialPath(ball, 0).ritz[-1]
        assert probes[:2] == [(start, 11), (2.0 * start, 16)]
        # every later probe bisects below the doubled end
        assert all(lam < 2.0 * start for lam, _ in probes[2:])
        assert start < modes[11].lam < 2.0 * start
        assert modes[11].lam == pytest.approx(16.0 * math.pi ** 2 + 4.0, rel=1e-7)
        lam = principal_eigenpair(ball).lam
        assert lam == pytest.approx(math.pi ** 2 / 9.0 + 4.0, rel=1e-10)

    @settings(max_examples=25)
    @given(m=st.sampled_from([2, 3, 4]), kappa=st.floats(-1.0, 0.9), r0=st.floats(0.5, 1.5),
           c1=st.floats(-1.0, 1.5), c2=st.floats(-0.5, 0.5), k=st.integers(0, 5),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40))
    def test_count_never_decreases_in_lambda(self, m, kappa, r0, c1, c2, k, fractions):
        path = _RadialPath(space_form_ball(kappa, m, r0, polynomial_drift([c1, c2])), k,
                           n_t=128)
        # the grid spans the whole window lam * h^2 <= 1 that `count` accepts
        counts = [path.count(f / path.h_max ** 2) for f in sorted(fractions)]
        assert counts == sorted(counts)

    @pytest.mark.parametrize("m, r0, n_t", [(2, 1.0, 512), (3, 0.7, 64), (4, 2.5, 8)])
    def test_window_edge_is_the_level_0_path_s(self, m, r0, n_t):
        ball = euclidean_ball(m, r0)
        edge = radial.window_edge(ball, n_t)
        path = _RadialPath(ball, 0, n_t=n_t)
        assert edge == 1.0 / path.h_max ** 2
        path.count(edge)
        with pytest.raises(EigenvalueWindowError):
            path.count(edge * (1.0 + 1e-15))

    def test_unresolved_lambda_is_refused(self):
        ball = euclidean_ball(2, 1.0)
        with pytest.raises(EigenvalueWindowError, match="too large"):
            _RadialPath(ball, 0, n_t=4).count(600.0)
        with pytest.raises(EigenvalueWindowError):
            assemble_spectrum(ball, 600.0, n_t=4)

    @pytest.mark.parametrize("m", [2, 3])
    def test_scale_invariance(self, m):
        base = principal_eigenpair(euclidean_ball(m, 1.0)).lam
        for c in (0.01, 0.1, 1.0, 10.0):
            lam = principal_eigenpair(euclidean_ball(m, c)).lam
            assert lam * c * c == pytest.approx(base, rel=1e-12, abs=0.0)


class TestSpectrum:
    def test_flat_disk_table(self):
        table = assemble_spectrum(euclidean_ball(2, 1.0), 16.0)
        expected = [(bessel_zero(0, 1) ** 2, 0, 1, 1), (bessel_zero(1, 1) ** 2, 1, 1, 2)]
        assert len(table.entries) == len(expected)
        for entry, (lam, k, i, mult) in zip(table.entries, expected):
            assert entry.lam == pytest.approx(lam, abs=1e-8)
            assert (entry.k, entry.i, entry.multiplicity) == (k, i, mult)

    def test_solid_ball_table(self):
        from _oracles import spherical_bessel_zero
        table = assemble_spectrum(euclidean_ball(3, 1.0), 21.0)
        assert len(table.entries) == 2
        assert table.entries[0].lam == pytest.approx(math.pi ** 2, abs=1e-8)
        assert table.entries[0].multiplicity == 1
        assert table.entries[1].lam == pytest.approx(spherical_bessel_zero(1, 1) ** 2, abs=1e-8)
        assert table.entries[1].multiplicity == 3

    def test_cutoff_below_principal_rejected(self):
        with pytest.raises(ValueError):
            assemble_spectrum(euclidean_ball(2, 1.0), 3.0)

    def test_ground_pair_solved_once(self, monkeypatch):
        # the spectrum takes its (k, i) = (0, 1) entry from the principal memo,
        # so lambda_1 of a ball is refined once, whichever call comes first
        refined = []
        refine = radial._refine
        monkeypatch.setattr(radial, "_refine", lambda path, lo, hi, i, *a, **kw:
                            refined.append((path.k, i)) or refine(path, lo, hi, i, *a, **kw))
        ball = euclidean_ball(2, 1.0)
        mode = principal_eigenpair(ball)
        table = assemble_spectrum(ball, 16.0)
        assert refined.count((0, 1)) == 1
        assert table.entries[0].lam == mode.lam

        del refined[:]
        cold = euclidean_ball(2, 1.0)
        table = assemble_spectrum(cold, 16.0)
        assert refined.count((0, 1)) == 1
        assert table.entries[0].lam == principal_eigenpair(cold).lam
        assert refined.count((0, 1)) == 1
        with pytest.raises(ValueError, match="principal eigenvalue 5.78319"):
            assemble_spectrum(euclidean_ball(2, 1.0), 5.78)

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf])
    def test_non_finite_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match="finite"):
            assemble_spectrum(euclidean_ball(2, 1.0), cutoff)

    def test_flat_disk_table_to_200(self):
        table = assemble_spectrum(euclidean_ball(2, 1.0), 200.0)
        expected = []
        for k in range(11):   # j_{10,1}^2 > 200
            i = 1
            while (z := bessel_zero(k, i)) ** 2 <= 200.0:
                expected.append((z * z, k, i, 1 if k == 0 else 2))
                i += 1
        expected.sort()
        assert len(table.entries) == len(expected) == 23
        for entry, (lam, k, i, mult) in zip(table.entries, expected):
            assert (entry.k, entry.i, entry.multiplicity) == (k, i, mult)
            assert abs(entry.lam - lam) <= 1e-9 * lam


class TestInnerProducts:
    def test_normalization(self):
        ball = euclidean_ball(2, 1.0)
        mode = principal_eigenpair(ball)
        assert weighted_inner_product(mode, mode, ball) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality(self):
        ball = euclidean_ball(2, 1.0)
        m1, m2 = solve_radial_modes(ball, 0, 2)
        assert abs(weighted_inner_product(m1, m2, ball)) < 1e-8

    def test_polynomial_integral(self):
        # int_0^1 t * t * t dt = 1/4 for the flat m=2 weight
        ball = euclidean_ball(2, 1.0)
        t = np.linspace(0.0, 1.0, 513)
        assert weighted_inner_product((t, t), (t, t), ball) == pytest.approx(0.25, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        ball = euclidean_ball(2, 1.0)
        t1 = np.linspace(0.0, 1.0, 65)
        t2 = np.linspace(0.0, 1.0, 129)
        with pytest.raises(ValueError):
            weighted_inner_product((t1, t1), (t2, t2), ball)

    @pytest.mark.parametrize("n", range(10))
    def test_simpson_weights_are_the_rule(self, n):
        # exact for cubics on n >= 2 intervals (Simpson, with the 3/8 rule on the
        # last three when n is odd), for linears on one (the trapezoid); 0 on none
        x = np.linspace(0.5, 0.5 + 0.3 * n, n + 1)
        f = np.polynomial.Polynomial([0.7, -1.3, 2.1, 1.9] if n >= 2 else [0.7, -1.3])
        integral = f.integ()(x[-1]) - f.integ()(x[0])
        assert simpson_weights(n, 0.3) @ f(x) == pytest.approx(integral, rel=1e-14, abs=0)


class TestIdentities:
    def test_first_integral_residual(self):
        ball = space_form_ball(-1.0, 3, 1.0, polynomial_drift([0.5]))
        for mode in solve_radial_modes(ball, 0, 2):
            assert maisuma_residual(mode, ball) < 1e-6

    def test_derivative_identity(self):
        ball = euclidean_ball(2, 1.0, polynomial_drift([1.0]))
        for mode in solve_radial_modes(ball, 0, 2):
            assert derivative_identity_residual(mode, ball) < 1e-5

    def test_grid_refinement_order(self):
        target = math.pi ** 2
        errs = []
        sizes = [32, 64, 128, 256]
        for n in sizes:
            lam = principal_eigenpair(euclidean_ball(3, 1.0), n_t=n).lam
            errs.append(abs(lam - target))
        slopes = np.diff(np.log(errs)) / np.diff(np.log([1.0 / n for n in sizes]))
        assert np.mean(slopes) > 3.5

    def test_residual_halving(self):
        # boundary defect of a deliberately off eigenvalue shrinks with the grid
        ball = euclidean_ball(3, 1.0)
        vals = []
        for n in (64, 128, 256):
            path = _RadialPath(ball, 0, n_t=n)
            vals.append(abs(path.integrate(math.pi ** 2)[0]))
        assert vals[2] < vals[1] < vals[0]


class TestBrent:
    """Newton's roots against scipy.optimize.brentq on the same brackets."""

    @staticmethod
    def _radial_brackets(seed, balls=40, levels=(0, 1, 2), roots=3, n_t=64):
        rng = np.random.default_rng(seed)
        for _ in range(balls):
            m = int(rng.integers(2, 5))
            kappa = float(rng.uniform(-1.0, 1.0))
            r0 = float(rng.uniform(0.5, 1.5))
            drift = polynomial_drift([float(rng.uniform(0.0, 1.5)),
                                      float(rng.uniform(-0.5, 0.5))])
            ball = space_form_ball(kappa, m, r0, drift)
            for k in levels:
                path = _RadialPath(ball, k, n_t=n_t)
                # solve_radial_modes' probe: the n_t = 64 window lies far above it
                probe = path.ritz[roots - 1]
                brackets = _count_brackets(path, roots, {probe: path.count(probe)})
                for i, (lo, hi) in enumerate(brackets, start=1):
                    yield path, i, lo, hi

    def test_newton_root_agrees_with_brentq(self):
        from scipy.optimize import brentq

        # the reference root of the same bracket, to Brent's own tolerance
        count = 0
        for path, i, lo, hi in self._radial_brackets(seed=11):
            xtol = 1e-13 * max(1.0, hi)
            ref = brentq(lambda lam: path.integrate(lam)[0], lo, hi, xtol=xtol, rtol=1e-15,
                         maxiter=200)
            assert abs(_refine(path, lo, hi, i)[0] - ref) <= xtol
            count += 1
        assert count == 40 * 3 * 3


class TestScanKernel:
    """The prefix-product sweep against the scalar RK4 loop of `_oracles`."""

    @pytest.mark.parametrize("k", [0, 1, 3, 50])
    def test_scan_matches_scalar_rk4(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(6):
            ball = space_form_ball(float(rng.uniform(-1.0, 1.0)), int(rng.integers(2, 6)),
                                   float(rng.uniform(0.5, 1.5)),
                                   polynomial_drift([float(rng.uniform(0.0, 1.5)),
                                                     float(rng.uniform(-0.5, 0.5))]))
            path = _RadialPath(ball, k, n_t=128)
            # across the count window lam * h^2 <= 1
            for lam in rng.uniform(0.0, 1.0 / path.h_max ** 2, 4):
                end, changes, (b, bp) = path.integrate(lam, samples=True)
                # the regular solution's series b = 1 + c t^2 at the first point,
                # and its values (1, 0) at t = 0 on node 0
                t_s, c = path.t_start, -(path.Q_stages[0, 0] + lam) / (2.0 * (2 * k + ball.m))
                ref_end, ref_changes, (ref_b, ref_bp) = rk4_sweep(
                    path, lam, 1.0 + c * t_s * t_s, 2.0 * c * t_s)
                assert (b[0], bp[0]) == (1.0, 0.0)
                # relative to the sweep's scale: b(r0) itself is ~0 near an eigenvalue
                scale = np.max(np.abs(ref_b))
                assert abs(end - ref_end) <= 1e-13 * scale
                assert np.max(np.abs(b[1:] - ref_b[1:])) <= 1e-13 * scale
                assert np.max(np.abs(bp[1:] - ref_bp[1:])) <= 1e-13 * np.max(np.abs(ref_bp))
                assert changes == ref_changes

    def test_start_values_and_riccati_style_coefficients(self):
        # the Riccati flow's coefficients start on the same series, here with
        # Q = -1, lam = 0, alpha = 0 and m = 3: c = 1 / 6
        ball = space_form_ball(0.5, 3, 1.0, polynomial_drift([1.0]))
        path = _RadialPath(ball, 0, n_t=64, coefs=(lambda t: 2.0 / t, lambda t: -1.0 + 0.0 * t))
        end, changes, (b, bp) = path.integrate(0.0, samples=True)
        t_s, c = path.t_start, 1.0 / 6.0
        ref_end, ref_changes, (ref_b, ref_bp) = rk4_sweep(path, 0.0, 1.0 + c * t_s * t_s,
                                                          2.0 * c * t_s)
        assert (b[0], bp[0]) == (1.0, 0.0)
        scale = np.max(np.abs(ref_b))
        assert abs(end - ref_end) <= 1e-13 * scale
        assert np.max(np.abs(b[1:] - ref_b[1:])) <= 1e-13 * scale
        assert np.max(np.abs(bp[1:] - ref_bp[1:])) <= 1e-13 * np.max(np.abs(ref_bp))
        assert changes == ref_changes


class TestMetricScaling:
    """g -> c^2 g maps the ball (kappa, r0, h) to (kappa/c^2, c r0, h(t/c)/c)
    and every eigenvalue lam to lam/c^2."""

    @settings(max_examples=80)
    @given(m=st.sampled_from([2, 3, 4]), kappa=st.floats(-1.0, 0.9), r0=st.floats(0.5, 1.5),
           c1=st.floats(0.0, 1.5), c2=st.floats(-0.5, 0.5), c=st.floats(0.1, 10.0))
    def test_principal_eigenvalue(self, m, kappa, r0, c1, c2, c):
        lam = principal_eigenpair(space_form_ball(kappa, m, r0, polynomial_drift([c1, c2]))).lam
        scaled = space_form_ball(kappa / c ** 2, m, c * r0,
                                 polynomial_drift([c1 / c ** 2, c2 / c ** 3]))
        assert principal_eigenpair(scaled).lam * c ** 2 == pytest.approx(lam, rel=1e-12, abs=0)

    @settings(max_examples=12)
    @given(m=st.sampled_from([2, 3, 4]), kappa=st.floats(-1.0, 0.9), r0=st.floats(0.5, 1.5),
           c1=st.floats(0.0, 1.5), c2=st.floats(-0.5, 0.5), c=st.floats(0.1, 10.0))
    def test_spectrum(self, m, kappa, r0, c1, c2, c):
        ball = space_form_ball(kappa, m, r0, polynomial_drift([c1, c2]))
        cutoff = 3.0 * principal_eigenpair(ball).lam
        scaled = space_form_ball(kappa / c ** 2, m, c * r0,
                                 polynomial_drift([c1 / c ** 2, c2 / c ** 3]))
        table = assemble_spectrum(ball, cutoff).entries
        table_scaled = assemble_spectrum(scaled, cutoff / c ** 2).entries
        assert [(e.k, e.i, e.multiplicity) for e in table_scaled] == \
            [(e.k, e.i, e.multiplicity) for e in table]
        assert [e.lam * c ** 2 for e in table_scaled] == \
            pytest.approx([e.lam for e in table], rel=1e-12, abs=0)

    def test_flat_disk_across_radii(self):
        # the Newton stop is relative to lambda, and the path coefficients
        # are quotients that stay in the double range, so lam r0^2 keeps its
        # digits far from r0 = 1 too; a ball whose weight scale r0^m or r0^-m
        # leaves the double range is refused before any solve, without a warning
        radii = (1e-150, 1e-100, 1e-50, 1e-3, 1.0, 1e3, 1e6, 1e20, 1e60, 1e80, 1e100, 1e150)
        refused = {2: [], 3: [1e-150, 1e150], 4: [1e-150, 1e-100, 1e80, 1e100, 1e150]}
        for m, exact in ((2, bessel_zero(0, 1) ** 2), (3, math.pi ** 2),
                         (4, bessel_zero(1, 1) ** 2)):
            unit = principal_eigenpair(euclidean_ball(m, 1.0)).lam
            assert unit == pytest.approx(exact, rel=2e-12, abs=0)  # the grid error
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for r0 in radii:
                    if r0 in refused[m]:
                        with pytest.raises(ValueError, match=f"out of range for m={m}"):
                            euclidean_ball(m, r0)
                        continue
                    lam = principal_eigenpair(euclidean_ball(m, r0)).lam
                    assert lam * r0 ** 2 == pytest.approx(unit, rel=1e-12, abs=0), (m, r0)


class TestPathGrid:
    """The array-built step grid and the one-pass coefficients against the
    scalar loop and the per-stage formulas of `_oracles`, bit for bit."""

    @settings(max_examples=80)
    @given(m=st.sampled_from([2, 3, 4]), kappa=st.floats(-1.0, 0.9),
           log_r0=st.floats(-3.0, 3.0), k=st.integers(0, 5) | st.integers(0, 600),
           n_t=st.integers(4, 4096), c1=st.floats(-1.0, 1.0), c2=st.floats(-1.0, 1.0))
    def test_matches_the_scalar_loop(self, m, kappa, log_r0, k, n_t, c1, c2):
        r0 = 10.0 ** log_r0
        if kappa > 0.0:
            r0 = min(r0, 0.95 * math.pi / math.sqrt(kappa))
        ball = space_form_ball(kappa, m, r0, polynomial_drift([c1 / r0, c2 / r0 ** 2]))
        # sinh overflows on the largest hyperbolic balls, in both constructions alike
        with np.errstate(over="ignore", invalid="ignore"):
            path = _RadialPath(ball, k, n_t=n_t)
            ts, node_steps = step_grid(r0, n_t, radial.SUBSTEPS, path.alpha, m)
            P, Q = stage_coefficients(ball, path.alpha, path.nu, ts)
        steps = np.diff(ts)
        assert np.array_equal(path.steps, steps)
        assert np.array_equal(path.node_steps, node_steps)
        assert path.t_start == ts[0]
        assert path.h_max == steps.max()
        assert np.array_equal(path.P_stages, P, equal_nan=True)
        assert np.array_equal(path.Q_stages, Q, equal_nan=True)

    def test_one_read_only_grid_per_radius(self):
        # curvature and drift do not enter the grid: both paths hold one
        a = _RadialPath(space_form_ball(-0.7, 3, 1.3, polynomial_drift([0.9, 0.3])), 0)
        b = _RadialPath(space_form_ball(0.4, 3, 1.3), 0)
        for name in ("nodes", "steps", "node_steps"):
            arr = getattr(a, name)
            assert arr is getattr(b, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        ts, node_steps = step_grid(1.3, radial.DEFAULT_GRID, radial.SUBSTEPS, a.alpha, 3)
        assert np.array_equal(a.steps, np.diff(ts))
        assert np.array_equal(a.node_steps, node_steps)
        # the Riccati flow hands out its nodes, so it hands out a copy
        result = riccati_uniqueness(space_form_ball(-0.5, 3, 1.3, polynomial_drift([0.4])))
        assert result.t.flags.writeable

    def test_custom_coefficients_called_once_on_every_stage(self):
        calls = []

        def P(t):
            calls.append(t.size)
            return 2.0 / t

        ball = space_form_ball(0.5, 3, 1.0, polynomial_drift([1.0]))
        path = _RadialPath(ball, 0, n_t=64, coefs=(P, lambda t: -1.0 + 0.0 * t))
        ts, _ = step_grid(1.0, 64, 2, path.alpha, 3)
        steps = np.diff(ts)
        assert calls == [3 * steps.size]
        for x, row in zip((ts[:-1], ts[:-1] + 0.5 * steps, ts[1:]), path.P_stages):
            assert np.array_equal(row, 2.0 / x)
        assert np.all(path.Q_stages == -1.0)


class TestNewton:
    @pytest.mark.parametrize("ball", [euclidean_ball(2, 1.0), euclidean_ball(3, 1.0),
                                      space_form_ball(1.0, 2, 1.0),
                                      space_form_ball(-1.0, 4, 1.0)],
                             ids=["flat-m2", "flat-m3", "sphere-m2", "hyp-m4"])
    def test_sweep_budget(self, ball, sweeps):
        # the parameter balls live as long as the session: a memo hit sweeps nothing
        principal_eigenpair(ball)
        assert 0 < len(sweeps) <= 2

    # the lambda of every sweep of solve_radial_modes(ball, k, n), n = 1, 2, 3:
    # the probe theta_n and the bisection on the count, then each eigenvalue's
    # Newton iterates from theta_i; theta_n is swept again, as a sweep in
    # between replaced it
    _SWEEP_SEQUENCES = {
        "flat-m2-k0": [
            [5.78318596866, 5.78318596295],
            [30.4712644529, 15.2356322265, 5.78318596866, 5.78318596295, 30.4712644529,
             30.4712623438],
            [74.9746922001, 37.4873461, 18.74367305, 5.78318596866, 5.78318596295,
             30.4712644529, 30.4712623438, 74.9746922001, 74.8869569805, 74.8870067944,
             74.8870067945]],
        "hyp-m3-r3-drift-k1": [
            [5.95099292302, 5.89754715894, 5.88901058917, 5.8888446835, 5.88884462342],
            [10.8108662533, 5.40543312667, 8.10814969, 5.95099292302, 5.89754715894,
             5.88901058917, 5.8888446835, 5.88884462342, 10.8108662533, 10.441289965,
             10.2184411239, 10.1786131635, 10.1777291236, 10.177728714],
            [21.13504876, 10.56752438, 5.28376219, 7.925643285, 5.95099292302,
             5.89754715894, 5.88901058917, 5.8888446835, 5.88884462342, 9.2465838325,
             10.4166961868, 10.2108834675, 10.1783132136, 10.1777288929, 10.177728714,
             21.13504876, 15.85128657, 16.7690608631, 16.6757683005, 16.6734731896,
             16.6734719209]],
    }

    @pytest.mark.parametrize("name, ball, k", [
        ("flat-m2-k0", euclidean_ball(2, 1.0), 0),
        ("hyp-m3-r3-drift-k1",
         space_form_ball(-4.0, 3, 3.0, polynomial_drift([0.3, -0.2])), 1)])
    def test_sweep_sequence(self, name, ball, k, sweeps):
        for n, expected in enumerate(self._SWEEP_SEQUENCES[name], start=1):
            del sweeps[:]
            solve_radial_modes(ball, k, n)
            assert sweeps == pytest.approx(expected, rel=1e-10), n

    def test_large_hyperbolic_level_222(self, sweeps):
        # b(r0) is ~1e-138 there and its sign is noise within ~1e-12 of each
        # root; a stop on a lambda-relative step alone cycled on this level
        path = _RadialPath(space_form_ball(-0.5, 4, 10.0), 222)
        n = path.count(20.0)
        assert n == 5
        for i, (lo, hi) in enumerate(_count_brackets(path, n, {20.0: n}), start=1):
            del sweeps[:]
            lam = _refine(path, lo, hi, i)[0]
            assert len(sweeps) <= 15
            assert lo <= lam <= hi
            assert path.count(lam * (1.0 - 1e-10)) == i - 1
            assert path.count(lam * (1.0 + 1e-10)) == i

    def test_nonconvergence_names_where(self):
        path = _RadialPath(euclidean_ball(2, 1.0), 1, n_t=64)
        theta = path.ritz[0]
        (lo, hi), = _count_brackets(path, 1, {theta: path.count(theta)})
        with pytest.raises(ConvergenceError) as exc:
            _refine(path, lo, hi, 1, maxiter=1)
        msg = str(exc.value)
        assert "level k=1" in msg
        assert "eigenvalue i=1" in msg
        assert f"lambda-bracket [{lo:.12g}, {hi:.12g}]" in msg
        assert "n_t=64" in msg
        assert re.search(r"last iterate \d+\.\d+", msg)

    def test_ball_family_sweep_count(self, sweeps):
        # families shaped like the benchmark's: four balls sharing (m, r0),
        # curvature rising and the last two drifted, the principal pair of
        # each, then the spectrum up to 3 lambda_1 of one of them.  Measured:
        # 14.7 sweeps per family; 20.8 when Newton started from the Ritz value
        # of two trials; 24.6 when a lone eigenvalue was isolated at the
        # Euclidean estimate and Newton swept its Rayleigh start afresh; 43.6
        # when Newton started from the Euclidean estimate, ran a confirming
        # sweep and the spectrum re-solved lambda_1.
        rng = random.Random("sweep-count")
        for _ in range(10):
            m, r0 = rng.choice((2, 3, 4)), rng.uniform(0.5, 1.5)
            kappas = sorted(rng.uniform(-1.0, 1.0) for _ in range(4))
            c1, c2 = rng.uniform(0.2, 1.5), rng.uniform(0.0, 0.8)
            drifts = [None, None, polynomial_drift([c1, c2]),
                      polynomial_drift([c1 + rng.uniform(0.05, 0.5), c2 + rng.uniform(0.0, 0.3)])]
            balls = [space_form_ball(kappa, m, r0, drift) if drift else space_form_ball(kappa, m, r0)
                     for kappa, drift in zip(kappas, drifts)]
            lams = [principal_eigenpair(ball).lam for ball in balls]
            s = rng.randrange(4)
            assemble_spectrum(balls[s], 3.0 * lams[s])
        assert len(sweeps) / 10 <= 16.1


class TestRayleighStart:
    """Newton starts eigenvalue i of a level at the Ritz value theta_i of five
    trials, a variational upper bound of it."""

    @settings(max_examples=40)
    @given(m=st.sampled_from([2, 3, 4]), kappa=st.floats(-1.0, 1.0), r0=st.floats(0.5, 1.5),
           c1=st.floats(0.0, 1.5), c2=st.floats(-0.5, 0.8))
    def test_just_above_the_first_eigenvalue(self, m, kappa, r0, c1, c2):
        ball = space_form_ball(kappa, m, r0, polynomial_drift([c1, c2]))
        for k in (0, 1, 2):
            lam = solve_radial_modes(ball, k, 1)[0].lam
            estimate = _rayleigh_estimate(_RadialPath(ball, k))[0]
            assert math.isfinite(estimate)
            assert lam <= estimate <= (1.0 + 1e-5) * lam

    def test_every_ritz_value_lies_above_its_eigenvalue(self):
        # min-max: theta_i >= lam_i, on 60 derandomized balls at levels k <= 2
        rng = random.Random("ritz-above")
        cases = 0
        for _ in range(60):
            m, kappa, r0 = rng.choice((2, 3, 4)), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)
            drift = polynomial_drift([rng.uniform(-1.0, 1.5), rng.uniform(-0.5, 0.5)])
            ball = space_form_ball(kappa, m, r0, drift)
            for k in (0, 1, 2):
                thetas = _RadialPath(ball, k).ritz
                lams = [mode.lam for mode in solve_radial_modes(ball, k, radial.RITZ_TRIALS)]
                assert np.all(thetas >= lams), (m, kappa, r0, k, thetas, lams)
                cases += len(lams)
        assert cases == 60 * 3 * radial.RITZ_TRIALS

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=st.sampled_from([2, 3, 4]), kappa=st.floats(-1.0, 1.0), r0=st.floats(0.5, 1.5),
           c1=st.floats(0.0, 1.5), c2=st.floats(-0.5, 0.8), k=st.integers(0, 2))
    def test_isolates_a_lone_eigenvalue(self, m, kappa, r0, c1, c2, k, sweeps):
        ball = space_form_ball(kappa, m, r0, polynomial_drift([c1, c2]))
        del sweeps[:]
        solve_radial_modes(ball, k, 1)
        path = _RadialPath(ball, k)
        # the solve's first and only probe is theta_1, with one zero
        probe = sweeps[0]
        assert probe == path.ritz[0]
        assert _count_brackets(path, 1, {probe: path.count(probe)}) == [(0.0, probe)]

    def test_two_zeros_at_the_estimate_bisect(self, monkeypatch):
        path = _RadialPath(space_form_ball(0.3, 3, 1.0, polynomial_drift([0.5])), 0)
        estimate, count = path.ritz[0], _RadialPath.count
        probes = []

        def two_at_the_estimate(p, lam):
            probes.append(lam)
            return 2 if lam == estimate else count(p, lam)

        monkeypatch.setattr(_RadialPath, "count", two_at_the_estimate)
        mode, = solve_radial_modes(path.ball, 0, 1)
        assert probes[0] == estimate and len(probes) > 1
        # the estimate's two zeros are bisected: every later probe lies below it
        assert max(probes[1:]) < estimate
        monkeypatch.undo()
        lam = solve_radial_modes(path.ball, 0, 1)[0].lam
        assert abs(mode.lam - lam) <= 1e-12 * lam

    def test_quiet_on_a_large_hyperbolic_level(self):
        path = _RadialPath(space_form_ball(-0.5, 4, 10.0), 222)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _rayleigh_estimate(path)

    @pytest.mark.parametrize("spoil", ["negative", "zero", "nan"])
    def test_no_positive_finite_gram_matrix_gives_nan(self, spoil):
        # the Simpson weights spoil the Gram matrices: M is negative definite,
        # zero or not finite
        path = _RadialPath(space_form_ball(0.3, 3, 1.0, polynomial_drift([0.5])), 1)
        w = path.weights
        path.weights = {"negative": -w, "zero": 0.0 * w,
                        "nan": np.where(np.arange(w.size) == 7, np.nan, w)}[spoil]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            thetas = _rayleigh_estimate(path)
        assert thetas.shape == (radial.RITZ_TRIALS,) and np.all(np.isnan(thetas))

    def test_without_an_estimate_probe_the_window_edge(self, monkeypatch, sweeps):
        # and start Newton at the midpoint of the bracket
        ball = space_form_ball(0.3, 3, 1.0, polynomial_drift([0.5]))
        lam = solve_radial_modes(ball, 0, 1)[0].lam
        monkeypatch.setattr(radial, "_rayleigh_estimate",
                            lambda path: np.full(radial.RITZ_TRIALS, math.nan))
        path = _RadialPath(ball, 0)
        del sweeps[:]
        assert abs(solve_radial_modes(ball, 0, 1)[0].lam - lam) <= 1e-12 * lam
        probe = sweeps[0]
        assert probe == 1.0 / path.h_max ** 2
        (lo, hi), = _count_brackets(path, 1, {probe: path.count(probe)})
        del sweeps[:]
        assert abs(_refine(path, lo, hi, 1)[0] - lam) <= 1e-12 * lam
        assert sweeps[0] == 0.5 * (lo + hi)

    def test_an_estimate_below_the_eigenvalue_doubles(self, monkeypatch, sweeps):
        ball = space_form_ball(-0.6, 2, 1.2, polynomial_drift([0.8, 0.2]))
        lam = solve_radial_modes(ball, 0, 1)[0].lam
        low = lam * (1.0 - 1e-7)
        monkeypatch.setattr(radial, "_rayleigh_estimate",
                            lambda path: np.full(radial.RITZ_TRIALS, low))
        del sweeps[:]
        assert abs(solve_radial_modes(ball, 0, 1)[0].lam - lam) <= 1e-12 * lam
        assert sweeps[:2] == [low, 2.0 * low]
        assert _RadialPath(ball, 0).count(low) == 0

    def test_a_low_estimate_is_swept_once(self, monkeypatch, sweeps):
        # the probe below the eigenvalue counts 0 and is kept: it is the
        # bracket's lower end, so Newton does not sweep it a second time
        ball = space_form_ball(-0.6, 2, 1.2, polynomial_drift([0.8, 0.2]))
        lam = solve_radial_modes(ball, 0, 1)[0].lam
        low = lam * (1.0 - 1e-7)
        monkeypatch.setattr(radial, "_rayleigh_estimate",
                            lambda path: np.full(radial.RITZ_TRIALS, low))
        del sweeps[:]
        assert abs(solve_radial_modes(ball, 0, 1)[0].lam - lam) <= 1e-12 * lam
        assert sweeps.count(low) == 1

    def test_a_ritz_value_past_the_window_probes_its_edge(self, sweeps):
        # on eight nodes theta_5 lies far past the window edge (16)^2 = 256
        ball = euclidean_ball(2, 1.0)
        path = _RadialPath(ball, 0, n_t=8)
        assert path.ritz[4] > 1.0 / path.h_max ** 2 == 256.0
        modes = solve_radial_modes(ball, 0, 5, n_t=8)
        assert sweeps[0] == 256.0
        assert [mode.i for mode in modes] == [1, 2, 3, 4, 5]
