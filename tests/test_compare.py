import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftspectra.compare import (AnalyticDisk, ComparisonCase, builtin_corpus,
                                  derivative_lambda_eps, eigenvalue_sandwich,
                                  riccati_uniqueness, run_case, run_corpus,
                                  verify_divergence_comparison)
from driftspectra.disk import build_model_disk
from driftspectra.errors import LogarithmicBranchError
from driftspectra.geometry import euclidean_ball, polynomial_drift, space_form_ball

from _identities import radial_divergence_profile, radial_ibp_check

FLAT = euclidean_ball(2, 1.0)


class TestSectionalComparison:
    def test_flat_versus_sphere(self):
        case = ComparisonCase(space_form_ball(0.0, 2, 1.0), space_form_ball(1.0, 2, 1.0),
                              "sectional", "flat-vs-sphere")
        v = run_case(case)
        assert v.premises_hold and v.conclusion_holds
        assert v.lambda_subject > v.lambda_model
        assert not v.equality_case

    def test_premise_failure_is_reported_not_raised(self):
        # subject more curved than the model: hypothesis fails, no assertion
        case = ComparisonCase(space_form_ball(1.0, 2, 1.0), space_form_ball(0.0, 2, 1.0),
                              "sectional", "backwards")
        v = run_case(case)
        assert not v.premises_hold
        assert math.isnan(v.lambda_subject)

    def test_identical_pair_is_equality_case(self):
        ball = space_form_ball(-1.0, 2, 1.0, polynomial_drift([0.5]))
        v = run_case(ComparisonCase(ball, ball, "sectional", "same"))
        assert v.premises_hold and v.conclusion_holds and v.equality_case

    def test_disk_subject_against_curved_model(self):
        flat_disk = AnalyticDisk(
            r0=1.0,
            J=lambda t, th: t * np.ones_like(th * 1.0),
            J_t=lambda t, th: np.ones_like(t * th),
            J_tt=lambda t, th: np.zeros_like(t * th))
        case = ComparisonCase(flat_disk, space_form_ball(1.0, 2, 1.0),
                              "sectional", "disk-vs-sphere",
                              grid_2d=(128, 64))
        v = run_case(case)
        assert v.premises_hold and v.conclusion_holds
        assert v.lambda_subject == pytest.approx(5.783186, abs=2e-3)


class TestRunCaseBranches:
    """One run_case call per verifier branch the corpus does not reach."""

    @staticmethod
    def _disk(J, J_t, **drift):
        # J_tt = 0 is inconsistent with J on purpose: the curvature premise
        # holds while (J/rho)' has the wrong sign
        return AnalyticDisk(r0=1.0, J=lambda t, th: J(t) * np.ones_like(th * 1.0),
                            J_t=lambda t, th: J_t(t) * np.ones_like(th * 1.0),
                            J_tt=lambda t, th: np.zeros_like(t * th), **drift)

    @pytest.mark.parametrize("mode,J,J_t,kappa,word", [
        ("sectional", lambda t: t - t * t / 2, lambda t: 1 - t, 1.0, "curvature"),
        ("ricci", lambda t: t + t * t / 2, lambda t: 1 + t, -1.0, "Ricci"),
    ])
    def test_volume_ratio_note(self, mode, J, J_t, kappa, word):
        case = ComparisonCase(self._disk(J, J_t), space_form_ball(kappa, 2, 1.0), mode, "bishop")
        v = run_case(case)
        assert not v.premises_hold and math.isnan(v.margin)
        assert v.premise_margins["volume_ratio_slope"] < -1e-9
        assert v.notes == [f"volume-ratio monotonicity violated despite {word} premise"]

    @pytest.mark.parametrize("mode", ["sectional", "ricci"])
    @pytest.mark.parametrize("kappa,coeffs", [
        pytest.param(kappa, coeffs, id=f"{kappa}" + ("-quadratic" if len(coeffs) > 1 else ""))
        for kappa in (1.0, -1.0) for coeffs in ([0.5], [0.5, 1.0])])
    def test_disk_twin_of_a_ball_has_the_same_premises(self, kappa, coeffs, mode):
        # the ball's premise samples are columns broadcast against the disk's
        # (t, theta) arrays: both subjects must give the same margins, the
        # t = 0 limit of the drift profile included
        ball = space_form_ball(kappa, 2, 1.0, polynomial_drift(coeffs))

        def radial(f):
            return lambda t, th: f(t) * np.ones_like(th * 1.0)

        rho = [radial(lambda t, i=i: ball.rho.eval(t)[i]) for i in range(3)]
        twin = AnalyticDisk(1.0, *rho, h1=radial(ball.drift.h), h1_t=radial(ball.drift.h_prime))
        # flat models: the subject's drift for the sectional mode, none for the Ricci one
        model = space_form_ball(0.0, 2, 1.0,
                                polynomial_drift(coeffs) if mode == "sectional" else None)
        v_ball, v_disk = (run_case(ComparisonCase(s, model, mode, "twin", grid_2d=(32, 16)))
                          for s in (ball, twin))
        assert v_ball.premises_hold == v_disk.premises_hold
        assert v_ball.premises_hold == ((kappa < 0) == (mode == "sectional"))
        assert set(v_ball.premise_margins) == set(v_disk.premise_margins)
        for key, value in v_ball.premise_margins.items():
            assert v_disk.premise_margins[key] == pytest.approx(value, abs=1e-9), key

    def test_drift_needs_its_derivative(self):
        with pytest.raises(ValueError, match="h1_t"):
            self._disk(lambda t: t, lambda t: np.ones_like(t), h1=lambda t, th: 0.5 * t)

    def test_ricci_rejects_angular_drift(self):
        disk = self._disk(lambda t: t, lambda t: np.ones_like(t),
                          vtheta=lambda t, th: 0.5 * t * np.ones_like(th))
        with pytest.raises(ValueError, match="radial subject drift"):
            run_case(ComparisonCase(disk, FLAT, "ricci", "angular"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown comparison mode 'divergence'"):
            run_case(ComparisonCase(FLAT, FLAT, "divergence", "bad"))


class TestRicciComparison:
    def test_sphere_versus_flat(self):
        case = ComparisonCase(space_form_ball(1.0, 2, 1.0), space_form_ball(0.0, 2, 1.0),
                              "ricci", "sphere-vs-flat")
        v = run_case(case)
        assert v.premises_hold and v.conclusion_holds
        assert v.lambda_subject < v.lambda_model

    def test_equality_case_transport_relation(self):
        ball = space_form_ball(1.0, 2, 1.0, polynomial_drift([1.0]))
        v = run_case(ComparisonCase(ball, ball, "ricci", "same"))
        assert v.equality_case
        resid = [n for n in v.notes if n.startswith("transport residual")]
        assert resid and float(resid[0].split()[-1]) < 1e-6

    def test_drift_pair_with_pointwise_condition(self):
        # subject 2t on flat vs model t on hyperbolic: condition holds pointwise
        subject = space_form_ball(0.0, 2, 1.0, polynomial_drift([2.0]))
        model = space_form_ball(-1.0, 2, 1.0, polynomial_drift([1.0]))
        v = run_case(ComparisonCase(subject, model, "ricci", "2t-vs-t"))
        assert v.premises_hold and v.conclusion_holds

    def test_negative_model_drift_fails_premise(self):
        subject = space_form_ball(0.0, 2, 1.0)
        model = space_form_ball(0.0, 2, 1.0, polynomial_drift([-1.0]))
        v = run_case(ComparisonCase(subject, model, "ricci", "h<0"))
        assert not v.premises_hold

    def test_sign_changing_subject_drift_is_noted(self):
        subject = space_form_ball(0.0, 2, 1.0, polynomial_drift([1.0, -2.0]))
        model = space_form_ball(0.0, 2, 1.0, polynomial_drift([1.0]))
        v = run_case(ComparisonCase(subject, model, "ricci", "sign-change"))
        assert any("changes sign" in n for n in v.notes)

    def test_disk_subject_margins_reported_pointwise(self):
        # angularly modulated radial drift against the pure model: the
        # pointwise condition fails on part of the circle, and the verdict
        # carries the (negative) margin instead of asserting anything
        wobble = AnalyticDisk(
            r0=1.0,
            J=lambda t, th: t * np.ones_like(th * 1.0),
            J_t=lambda t, th: np.ones_like(t * th),
            J_tt=lambda t, th: np.zeros_like(t * th),
            h1=lambda t, th: t * (1.0 + 0.1 * np.sin(th)),
            h1_t=lambda t, th: 1.0 + 0.1 * np.sin(th))
        model = space_form_ball(0.0, 2, 1.0, polynomial_drift([1.0]))
        v = run_case(ComparisonCase(wobble, model, "ricci", "wobble"))
        assert not v.premises_hold
        assert v.premise_margins["extra_condition"] < 0.0
        assert v.premise_margins["ricci"] >= -1e-9


class TestStatementsProperty:
    """The paper's two comparisons on ball pairs that meet their premises by
    construction, as in the benchmark's ball family: curvature and drift
    coefficients never fall from subject to model for the sectional
    statement; the Ricci pairs have zero drift and the subject the larger
    curvature.  Moving the subject's curvature a fixed margin past the
    model's voids the premises, and the verdict says so instead of failing."""

    MARGIN = 0.1

    @settings(max_examples=60)
    @given(mode=st.sampled_from(["sectional", "ricci"]), m=st.sampled_from([2, 3, 4]),
           r0=st.floats(0.5, 1.5), kappas=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
           c=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 0.8)),
           e=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.3)))
    def test_premises_by_construction_verify(self, mode, m, r0, kappas, c, e):
        lo, hi = sorted(kappas)
        if mode == "sectional":
            subject = space_form_ball(lo, m, r0, polynomial_drift(list(c)))
            model = space_form_ball(hi, m, r0, polynomial_drift([c[0] + e[0], c[1] + e[1]]))
            k_bad = hi + self.MARGIN
        else:
            subject, model = space_form_ball(hi, m, r0), space_form_ball(lo, m, r0)
            k_bad = lo - self.MARGIN
        v = run_case(ComparisonCase(subject, model, mode, "by construction"))
        assert v.premises_hold and v.conclusion_holds, v
        bad = space_form_ball(k_bad, m, r0, subject.drift)
        v = run_case(ComparisonCase(bad, model, mode, "premise violated"))
        assert not v.premises_hold and not v.conclusion_holds
        assert math.isnan(v.lambda_subject) and math.isnan(v.margin)


class TestDivergenceComparison:
    def test_rotation_field_equality(self):
        p = build_model_disk(FLAT, drift_angular=lambda t, th: 0.5 * np.ones_like(t),
                             n_t=96, n_theta=48)
        v = verify_divergence_comparison(p, tol=1e-8)
        assert v.premises_hold and v.conclusion_holds and v.equality_case

    def test_contracting_field_strict_inequality(self):
        ball = euclidean_ball(2, 1.0, polynomial_drift([-0.25]))
        p = build_model_disk(ball, n_t=96, n_theta=48)
        v = verify_divergence_comparison(p, tol=1e-8)
        assert v.premises_hold and v.conclusion_holds
        assert v.margin > 1e-3  # strictly larger eigenvalue with the drift

    def test_positive_divergence_rejected(self):
        ball = euclidean_ball(2, 1.0, polynomial_drift([0.25]))
        p = build_model_disk(ball, n_t=96, n_theta=48)
        v = verify_divergence_comparison(p)
        assert not v.premises_hold

    def test_no_drift_trivially_equal(self):
        p = build_model_disk(FLAT, n_t=96, n_theta=48)
        v = verify_divergence_comparison(p, tol=1e-10)
        assert v.premises_hold and v.conclusion_holds and v.equality_case
        assert v.margin == pytest.approx(0.0, abs=1e-12)


class TestSandwich:
    def test_no_drift_collapses(self):
        p = build_model_disk(FLAT, n_t=96, n_theta=48)
        res = eigenvalue_sandwich(p, tol=1e-8)
        assert res.lower_gap == 0.0 and res.upper_gap == 0.0  # the drift form is exactly 0

    def test_rotation_field(self):
        p = build_model_disk(FLAT, drift_angular=lambda t, th: 0.7 * np.ones_like(t),
                             n_t=96, n_theta=48)
        res = eigenvalue_sandwich(p, tol=1e-8)
        assert res.lower_gap >= -res.combined_tol
        assert res.upper_gap >= -res.combined_tol

    def test_gradient_field(self):
        ball = euclidean_ball(2, 1.0, polynomial_drift([0.4]))
        p = build_model_disk(ball, n_t=96, n_theta=48)
        res = eigenvalue_sandwich(p, tol=1e-8)
        assert res.lower_gap >= -res.combined_tol
        assert res.upper_gap >= -1e-10  # exact at matrix level


class TestEigenvalueDerivative:
    def test_radial_quadratic(self):
        d = derivative_lambda_eps(
            euclidean_ball(2, 1.0),
            (lambda t: np.asarray(t, dtype=float) ** 2 / 2,
             lambda t: np.asarray(t, dtype=float),
             lambda t: np.ones_like(np.asarray(t, dtype=float))),
            eps=1e-3)
        assert d == pytest.approx(-1.0, abs=1e-3)

    def test_nonconstant_laplacian_rejected(self):
        with pytest.raises(ValueError):
            derivative_lambda_eps(
                euclidean_ball(2, 1.0),
                (lambda t: np.asarray(t, dtype=float) ** 4,
                 lambda t: 4.0 * np.asarray(t, dtype=float) ** 3,
                 lambda t: 12.0 * np.asarray(t, dtype=float) ** 2),
                eps=1e-3)

    def test_constant_f_gives_zero(self):
        d = derivative_lambda_eps(
            euclidean_ball(2, 1.0),
            (lambda t: np.ones_like(np.asarray(t, dtype=float)),
             lambda t: np.zeros_like(np.asarray(t, dtype=float)),
             lambda t: np.zeros_like(np.asarray(t, dtype=float))),
            eps=1e-3, tol=1e-10)
        assert d == 0.0


class TestRiccati:
    @pytest.mark.parametrize("m,coeffs", [(2, [2.0]), (3, [1.0]), (3, [1.0, 1.0])])
    def test_self_consistency(self, m, coeffs):
        ball = euclidean_ball(m, 1.0, polynomial_drift(coeffs))
        res = riccati_uniqueness(ball, tol=1e-6)
        assert res.sup_error < 1e-6

    def test_zero_drift_fixed_point(self):
        res = riccati_uniqueness(euclidean_ball(3, 1.0), tol=1e-10)
        assert np.max(np.abs(res.h_recovered)) < 1e-10

    def test_wrong_slope_selects_excluded_branch(self):
        with pytest.raises(LogarithmicBranchError):
            riccati_uniqueness(euclidean_ball(3, 1.0, polynomial_drift([1.0])),
                               u_prime0=1.0)

    def test_m2_series_start_accuracy(self):
        ball = space_form_ball(0.5, 2, 1.4, polynomial_drift([0.8, 0.06]))
        assert riccati_uniqueness(ball).sup_error <= 1e-13

    def test_curved_profile(self):
        ball = space_form_ball(-1.0, 3, 1.0, polynomial_drift([0.5]))
        assert riccati_uniqueness(ball, tol=1e-6).sup_error < 1e-6


class TestIntegrationByParts:
    def test_flat_disk_closed_form(self):
        p = build_model_disk(FLAT, n_t=128, n_theta=64)
        T, _ = p.grid.mesh()
        # both sides equal -pi for u=1-t^2, phi=t
        defect = radial_ibp_check(p, 1.0 - T ** 2, T)
        assert defect < 5e-4 * math.pi

    def test_zero_cases(self):
        p = build_model_disk(FLAT, n_t=64, n_theta=32)
        T, _ = p.grid.mesh()
        assert radial_ibp_check(p, 1.0 - T ** 2, np.zeros_like(T)) == 0.0
        assert radial_ibp_check(p, np.zeros_like(T), T) == 0.0

    def test_origin_condition_enforced(self):
        p = build_model_disk(FLAT, n_t=64, n_theta=32)
        T, _ = p.grid.mesh()
        with pytest.raises(ValueError):
            radial_ibp_check(p, 1.0 - T ** 2, np.ones_like(T))


def test_divergence_monotonicity_equivalence():
    # for h1 >= 0: div(V) >= 0 exactly where h1 J^{m-1} is nondecreasing
    rng = np.random.default_rng(5)
    t = np.linspace(0.05, 1.0, 300)
    for m in (2, 3, 4):
        for _ in range(8):
            c = rng.uniform(-1.0, 1.5, size=3)
            h1 = t * (1.2 + c[0] * t + c[1] * t ** 2 + c[2] * np.sin(3 * t)) ** 2
            J = t * (1.0 + 0.2 * t ** 2)
            div, dprod = radial_divergence_profile(h1, J, t, m)
            interior = slice(2, -2)
            assert np.all((div[interior] >= -1e-9) == (dprod[interior] >= -1e-9 * J[interior] ** (m - 1)))


class TestCorpus:
    def test_twelve_cases(self):
        assert len(builtin_corpus()) == 12

    def test_each_ball_solved_once(self, monkeypatch):
        # counts real solves, the ground-mode paths built, not calls to a wrapper
        from driftspectra.radial import _RadialPath
        cases = builtin_corpus()
        balls = {id(b) for c in cases for b in (c.subject, c.model)}
        assert len(balls) == 11
        built = []
        init = _RadialPath.__init__

        def counting(self, ball, k, *args, **kwargs):
            if k == 0:
                built.append(id(ball))
            init(self, ball, k, *args, **kwargs)

        monkeypatch.setattr(_RadialPath, "__init__", counting)
        verdicts = run_corpus(cases)
        assert sorted(built) == sorted(balls)
        assert all(v.premises_hold and v.conclusion_holds for v in verdicts)
        # the memo outlives the call: the same ball objects are not solved again
        run_corpus(cases[:1])
        assert len(built) == 11
