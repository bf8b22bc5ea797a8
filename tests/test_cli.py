import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import driftspectra
from driftspectra import radial
from driftspectra.bounds import barta_bracket, holland_bound, solve_G_V
from driftspectra.cli import (EXIT_CANTCREAT, EXIT_OK, EXIT_PREMISE, EXIT_USAGE,
                              main)
from driftspectra.compare import ComparisonCase, riccati_uniqueness, run_case
from driftspectra.disk import build_model_disk, operator_action, solve_principal
from driftspectra.errors import SolverError
from driftspectra.expressions import parse_expression
from driftspectra.geometry import polynomial_drift, space_form_ball

from _oracles import bessel_zero


def run(args):
    return main(args)


class TestPrincipal:
    def test_flat_m3(self, capsys):
        assert run(["principal", "--space-form", "0", "--dim", "3", "--radius", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        lam = float(out.split("=")[-1])
        assert lam == pytest.approx(math.pi ** 2, abs=1e-8)

    def test_artifact_csv(self, tmp_path):
        path = tmp_path / "mode.csv"
        assert run(["principal", "--space-form", "0", "--dim", "2", "--radius", "1",
                    "--output", str(path)]) == EXIT_OK
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,a"
        assert len(lines) == 512 + 2

    def test_custom_warping_expression(self, capsys):
        # matches the closed-form constant-curvature profile to solver noise
        assert run(["principal", "--warping", "sinh(t)", "--dim", "2",
                    "--radius", "1"]) == EXIT_OK
        lam = float(capsys.readouterr().out.split("=")[-1])
        assert lam == pytest.approx(6.113081819733, abs=1e-9)


class TestSpectrum:
    def test_flat_disk_table(self, tmp_path, capsys):
        path = tmp_path / "spectrum.csv"
        assert run(["spectrum", "--space-form", "0", "--dim", "2", "--radius", "1",
                    "--cutoff", "31", "--output", str(path)]) == EXIT_OK
        rows = path.read_text().strip().split("\n")[1:]
        assert len(rows) == 4
        lams = [float(r.split(",")[0]) for r in rows]
        mults = [int(r.split(",")[3]) for r in rows]
        expected = [bessel_zero(0, 1) ** 2, bessel_zero(1, 1) ** 2,
                    bessel_zero(2, 1) ** 2, bessel_zero(0, 2) ** 2]
        assert np.allclose(lams, expected, atol=1e-6)
        assert mults == [1, 2, 2, 1]

    def test_json_format(self, tmp_path):
        path = tmp_path / "spectrum.json"
        assert run(["spectrum", "--space-form", "0", "--dim", "3", "--radius", "1",
                    "--cutoff", "15", "--output", str(path), "--format", "json"]) == EXIT_OK
        data = json.loads(path.read_text())
        assert data["entries"][0]["lambda"] == pytest.approx(math.pi ** 2, abs=1e-8)


class TestDisk2D:
    def test_json_summary(self, tmp_path, capsys):
        path = tmp_path / "disk.json"
        assert run(["disk2d", "--space-form", "0", "--dim", "2", "--radius", "1",
                    "--nt", "96", "--ntheta", "48", "--output", str(path),
                    "--format", "json"]) == EXIT_OK
        data = json.loads(path.read_text())
        assert set(data) == {"grid", "iterations", "lambda", "residual"}
        assert data["lambda"] == pytest.approx(5.7832, abs=2e-3)

    def test_csv_dump(self, tmp_path):
        path = tmp_path / "disk.csv"
        assert run(["disk2d", "--space-form", "0", "--dim", "2", "--radius", "1",
                    "--nt", "32", "--ntheta", "16", "--output", str(path)]) == EXIT_OK
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,theta,omega"
        assert len(lines) == 32 * 16 + 1

    def test_perturbed_metric(self, capsys):
        assert run(["disk2d", "--space-form", "0", "--dim", "2", "--radius", "1",
                    "--perturbation", "0.1*t^2*cos(theta)", "--nt", "64",
                    "--ntheta", "32"]) == EXIT_OK

    def test_origin_test_does_not_depend_on_the_grid(self, capsys):
        # J = t(1+t): its first ring is 6.25 % off t at 8 rings, J'(0) = 1
        assert run(["disk2d", "--space-form", "0", "--dim", "2", "--radius", "1",
                    "--perturbation", "t", "--nt", "8"]) == EXIT_OK

    def test_nonplanar_dimension_is_usage_error(self, capsys):
        assert run(["disk2d", "--space-form", "0", "--dim", "3",
                    "--radius", "1"]) == EXIT_USAGE


class TestBounds:
    def test_bracket_and_bound(self, tmp_path, capsys):
        path = tmp_path / "bounds.json"
        assert run(["bounds", "--space-form", "0", "--dim", "2", "--radius", "1",
                    "--drift", "t", "--nt", "96", "--ntheta", "48", "--tol", "1e-7",
                    "--output", str(path), "--format", "json"]) == EXIT_OK
        data = json.loads(path.read_text())
        lam = data["lambda"]
        assert data["barta"]["lower"] <= lam <= data["barta"]["upper"]
        assert data["min_max_integral"]["bound"] == pytest.approx(lam, abs=1e-3)


class TestCompare:
    def test_corpus_green(self, tmp_path, capsys):
        path = tmp_path / "verdicts.csv"
        assert run(["compare", "--output", str(path)]) == EXIT_OK
        rows = path.read_text().strip().split("\n")[1:]
        assert len(rows) == 12
        assert all(r.split(",")[1] == "True" for r in rows)

    def test_single_pair(self, capsys):
        assert run(["compare", "--dim", "2", "--radius", "1",
                    "--subject-kappa", "0", "--model-kappa", "1"]) == EXIT_OK

    def test_premise_failure_exit_code(self, capsys):
        # subject more curved than the model violates the hypothesis
        assert run(["compare", "--dim", "2", "--radius", "1",
                    "--subject-kappa", "1", "--model-kappa", "0"]) == EXIT_PREMISE


class TestRiccati:
    def test_recovery(self, capsys):
        assert run(["riccati", "--space-form", "0", "--dim", "3", "--radius", "1",
                    "--drift", "t"]) == EXIT_OK
        out = capsys.readouterr().out
        assert float(out.split("=")[-1]) < 1e-6


class TestSweep:
    def test_drift_scale_sweep(self, tmp_path):
        path = tmp_path / "sweep.csv"
        assert run(["sweep", "--dim", "2", "--radius", "1", "--drift", "t",
                    "--axis", "drift_scale=0,0.5,1", "--output", str(path)]) == EXIT_OK
        rows = path.read_text().strip().split("\n")[1:]
        lams = [float(r.split(",")[1]) for r in rows]
        assert lams[0] > lams[1] > lams[2]  # observed monotone in the drift scale

    def test_space_form_sweep_ordering(self, tmp_path):
        path = tmp_path / "kappa.csv"
        assert run(["sweep", "--dim", "2", "--radius", "1",
                    "--axis", "kappa=-1,0,1", "--output", str(path)]) == EXIT_OK
        lams = [float(r.split(",")[1]) for r in path.read_text().strip().split("\n")[1:]]
        assert lams[0] >= lams[1] >= lams[2]

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        p1 = tmp_path / "w1.csv"
        p8 = tmp_path / "w8.csv"
        assert run(["sweep", "--dim", "2", "--radius", "1", "--drift", "t",
                    "--axis", "drift_scale=0,0.25,0.5,0.75", "--axis", "kappa=0,1",
                    "--workers", "1", "--output", str(p1)]) == EXIT_OK
        assert run(["sweep", "--dim", "2", "--radius", "1", "--drift", "t",
                    "--axis", "drift_scale=0,0.25,0.5,0.75", "--axis", "kappa=0,1",
                    "--workers", "8", "--output", str(p8)]) == EXIT_OK
        assert p1.read_bytes() == p8.read_bytes()

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_bad_worker_count_is_usage_error(self, workers, capsys):
        assert run(["sweep", "--dim", "2", "--radius", "1", "--axis", "kappa=0,1",
                    "--workers", workers]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err

    def test_empty_axes_rejected(self):
        assert run(["sweep", "--dim", "2", "--radius", "1"]) == EXIT_USAGE

    def test_partial_failures_recorded_per_row(self, tmp_path, monkeypatch):
        # a solver failure at one point is that point's row; its message is quoted
        solve = radial.principal_eigenpair

        def failing(ball, **kw):
            if ball.drift.h(0.5) > 0.0 and ball.rho.t_max < math.inf:
                raise SolverError("a, b")
            return solve(ball, **kw)

        monkeypatch.setattr(radial, "principal_eigenpair", failing)
        path = tmp_path / "partial.csv"
        assert run(["sweep", "--dim", "2", "--radius", "1", "--drift", "t",
                    "--axis", "drift_scale=0,1", "--axis", "kappa=0,1",
                    "--output", str(path)]) == EXIT_OK
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["drift_scale", "kappa", "lambda", "status"]
        assert [len(r) for r in rows] == [4] * 5
        assert [r[3] for r in rows[1:]] == ["ok", "ok", "ok", "error: a, b"]
        assert rows[4][2] == ""

    @pytest.mark.parametrize("argv,point", [
        # kappa=5 caps the domain at pi/sqrt(5) < radius 2
        (["--radius", "2", "--axis", "kappa=0,5"], "kappa=5"),
        (["--radius", "1", "--drift", "sin(t,)", "--axis", "kappa=0,1"], "kappa=0"),
        (["--radius", "1", "--warping", "t+1", "--axis", "radius=1,2"], "radius=1"),
        (["--radius", "1", "--axis", "dim=2,1"], "dim=1"),
        # a warping fixes the curvature, so a kappa axis has nothing to set
        (["--radius", "1", "--warping", "sinh(t)", "--axis", "kappa=0,1"], "kappa axis"),
    ])
    def test_unbuildable_point_is_usage_error(self, tmp_path, capsys, monkeypatch, argv, point):
        def solver(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(radial, "principal_eigenpair", solver)
        path = tmp_path / "sweep.csv"
        assert run(["sweep", "--dim", "2", *argv, "--output", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and point in captured.err
        assert not path.exists()


# usage errors whose message is checked too: the flag list and a piece of the message
_USAGE_MESSAGES = {
    # h' scaled by dx^2 overflows: the message names the range, not t = 0
    ("--radius", "1e200", "--drift", "t"):
        "t_max=1.05e+200 is too large for the antiderivative table",
}


class TestConfigAndErrors:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[problem]\ndimension = 2\nradius = 1.0\nkappa = 0.0\ndrift = 0.5*t\n"
            "[numerics]\nn_t = 256\ntol = 1e-9\n")
        assert run(["principal", "--config", str(cfg)]) == EXIT_OK
        lam = float(capsys.readouterr().out.split("=")[-1])
        assert lam == pytest.approx(5.2968096, abs=1e-5)

    def test_cli_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[problem]\ndimension = 2\nradius = 1.0\nkappa = 1.0\n")
        assert run(["principal", "--config", str(cfg), "--space-form", "0"]) == EXIT_OK
        lam = float(capsys.readouterr().out.split("=")[-1])
        assert lam == pytest.approx(5.7831860, abs=1e-5)

    def test_space_form_keyword_and_poly_drift(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[problem]\ndimension = 2\nradius = 1.0\n"
            "warping = space_form 0.0\ndrift = poly 1.0\n")
        assert run(["principal", "--config", str(cfg)]) == EXIT_OK
        lam = float(capsys.readouterr().out.split("=")[-1])
        assert lam == pytest.approx(4.8376222, abs=1e-5)  # same as drift = t

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[problem]\ndimension = fish\n")
        assert run(["principal", "--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize("text", ["[problem]\ndimension = 2\ndimension = 3\n",
                                      "[problem]\n[problem]\n", "dimension = 2\n"],
                             ids=["repeated-key", "repeated-section", "no-section"])
    def test_config_syntax_error_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run(["principal", "--config", str(cfg)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "malformed config file" in captured.err

    def test_missing_config(self, capsys):
        assert run(["principal", "--config", "/nonexistent.cfg"]) == EXIT_USAGE

    def test_bad_expression(self, capsys):
        assert run(["principal", "--space-form", "0", "--dim", "2", "--radius", "1",
                    "--drift", "wobble(t)"]) == EXIT_USAGE

    def test_unwritable_output(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        target = blocker / "out.csv"
        assert run(["principal", "--space-form", "0", "--dim", "2", "--radius", "1",
                    "--output", str(target)]) == EXIT_CANTCREAT

    def test_rerun_reproduces_bytes(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        args = ["spectrum", "--space-form", "0", "--dim", "2", "--radius", "1",
                "--cutoff", "16"]
        assert run(args + ["--output", str(p1)]) == EXIT_OK
        assert run(args + ["--output", str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("flag", [
        ["--nt", "0"], ["--nt", "3"], ["--ntheta", "9"], ["--tol", "0"], ["--cutoff", "nan"],
        ["--cutoff", "inf"], ["--cutoff", "-5"],
        # geometry the solvers cannot take: rho(0) != 0, rho vanishing inside the
        # ball, J = 2t (not ~t at the origin) and J = -t (not positive)
        ["--warping", "t+1"], ["--warping", "sin(t)", "--radius", "3.5"],
        ["--perturbation", "1"], ["--perturbation", "-2"],
        # compare pairs: angular or h(0) != 0 drifts, a radius past the sphere cap,
        # and pair flags without --subject-kappa
        ["--subject-kappa", "0", "--subject-drift", "sin(theta)"],
        ["--subject-kappa", "0", "--subject-drift", "t^2+1"],
        ["--subject-kappa", "1", "--model-kappa", "2", "--radius", "3"],
        ["--model-kappa", "1"], ["--subject-drift", "t"], ["--model-drift", "t"],
        # whole argvs: compare takes no problem or numerics flags, nor --dim and
        # --radius without --subject-kappa; a sweep's dim values are integers
        *(["compare", *f] for f in (["--space-form", "0"], ["--warping", "t+1"],
                                    ["--drift", "sin(theta)"], ["--nt", "64"],
                                    ["--ntheta", "64"], ["--tol", "1e-8"],
                                    ["--dim", "2"], ["--radius", "1"])),
        ["sweep", "--dim", "2", "--radius", "1", "--axis", "dim=2,2.5,3"],
        # expressions past the parser's nesting bounds
        ["--drift", "(" * 300 + "t" + ")" * 300], ["--drift", "+".join(["t"] * 800)],
        # a drift whose derivative is infinite at t = 0, a constant power that is not real
        ["--drift", "t^0.5"], ["--drift", "(-2)^0.5*t"],
        # non-finite curvatures, and radii whose square or inverse square overflows
        ["--space-form", "nan"], ["--subject-kappa", "nan", "--model-kappa", "1"],
        ["--radius", "1e200"], ["--radius", "1e-200"], ["--space-form", "1e300", "--radius", "1e-160"],
        # numpy overflow or division by zero while a warping or drift is checked
        ["--radius", "1e200", "--drift", "t"], ["--radius", "1000", "--drift", "exp(t)-1"],
        ["--warping", "t^0.5"], ["--warping", "1/t"],
        # formats the command does not write
        ["riccati", "--space-form", "0", "--dim", "2", "--radius", "1", "--format", "json"],
        ["sweep", "--dim", "2", "--radius", "1", "--axis", "kappa=0,1", "--format", "json"]])
    def test_bad_grid_or_tol_is_usage_error(self, flag, capsys, tmp_path):
        out = tmp_path / "out.csv"
        if flag[0] in ("compare", "sweep", "riccati"):
            argv = flag
        else:
            command = {"--ntheta": "disk2d", "--cutoff": "spectrum", "--perturbation": "disk2d",
                       "--subject-kappa": "compare", "--model-kappa": "compare",
                       "--subject-drift": "compare", "--model-drift": "compare"}.get(flag[0],
                                                                                     "principal")
            # compare reads no --space-form, and --dim/--radius only with --subject-kappa
            common = ["--space-form", "0", "--dim", "2", "--radius", "1"]
            argv = [command, *([] if command == "compare" else common), *flag]
        assert run([*argv, "--output", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err
        assert _USAGE_MESSAGES.get(tuple(flag), "") in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["riccati", "sweep"])
    def test_config_format_the_command_does_not_write(self, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[problem]\ndimension = 2\nradius = 1\n[output]\npath = {out}\nformat = json\n")
        axis = ["--axis", "kappa=0,1"] if command == "sweep" else []
        assert run([command, "--config", str(cfg), *axis]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("argv,solvers", [
        pytest.param(["bounds", "--space-form", "0", "--dim", "2", "--radius", "1", "--drift", "t"],
                     [("disk", "solve_principal")], id="bounds"),
        pytest.param(["compare"], [("compare", "run_corpus"), ("cli", "run_corpus")],
                     id="compare-corpus"),
        pytest.param(["compare", "--subject-kappa", "0", "--model-kappa", "1"],
                     [("compare", "run_case")], id="compare-pair"),
    ])
    @pytest.mark.parametrize("target", ["missing/out.csv", "blocker/out.csv", "."])
    def test_unwritable_output_before_the_solve(self, tmp_path, capsys, monkeypatch, argv,
                                                solvers, target):
        def solver(*args, **kwargs):
            raise AssertionError("the solver ran")

        for module, name in solvers:
            monkeypatch.setattr(f"driftspectra.{module}.{name}", solver)
        (tmp_path / "blocker").write_text("x")
        assert run([*argv, "--output", str(tmp_path / target)]) == EXIT_CANTCREAT
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot write output" in captured.err

    def test_bad_config_grid_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[numerics]\nn_theta = 10\nn_t = 2\n")
        assert run(["bounds", "--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize("text,pair", [
        pytest.param("[problem]\nkappa = 5\nwarping = t+1\ndrift = sin(theta)\n"
                     "[numerics]\nn_t = 64\ntol = 1e-3\n", False, id="problem-and-numerics"),
        pytest.param("[problem]\nperturbation = 0.1*t^2\n", False, id="perturbation"),
        pytest.param("[problem]\nvtheta = t\n", True, id="vtheta-with-pair"),
        pytest.param("[numerics]\ncutoff = 10\n", True, id="cutoff-with-pair"),
        pytest.param("[problem]\ndimension = 2\n", False, id="dimension-without-pair"),
        pytest.param("[problem]\nradius = 1\n", False, id="radius-without-pair"),
    ])
    def test_compare_config_keys_it_does_not_read(self, tmp_path, capsys, text, pair):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        flags = ["--subject-kappa", "0", "--model-kappa", "1"] if pair else []
        assert run(["compare", "--config", str(cfg), *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err

    def test_compare_config_output_keys(self, tmp_path, capsys):
        out = tmp_path / "verdicts.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[output]\npath = {out}\nformat = json\n")
        assert run(["compare", "--config", str(cfg)]) == EXIT_OK
        assert "12/12 cases verified" in capsys.readouterr().out
        assert len(json.loads(out.read_text())) == 12

    def test_compare_config_pair_geometry(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[problem]\ndimension = 3\nradius = 0.5\n")
        pair = ["compare", "--subject-kappa", "0", "--model-kappa", "1", "--format", "json"]
        paths = [tmp_path / f"{name}.json" for name in ("file", "flags", "default")]
        for path, extra in zip(paths, (["--config", str(cfg)], ["--dim", "3", "--radius", "0.5"], [])):
            assert run([*pair, *extra, "--output", str(path)]) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()


# -- artifacts against the library -------------------------------------------
# Each command, run on a small problem, next to the same result computed by
# the library: {format: (header, rows)} for CSV, {format: payload} for JSON.

_FLAT = ["--space-form", "0", "--dim", "2", "--radius", "1"]
_DRIFT = ["--drift", "poly 1"]  # polynomial_drift([1.0]), the library's own drift
_GRID = ["--nt", "32", "--ntheta", "16"]


def _ball(kappa=0.0, m=2):
    return space_form_ball(kappa, m, 1.0, polynomial_drift([1.0]))


def _spectrum():
    table = radial.assemble_spectrum(_ball(), 31.0)
    rows = [(e.lam, e.k, e.i, e.multiplicity) for e in table.entries]
    return {"csv": (["lambda", "k", "i", "multiplicity"], rows),
            "json": {"cutoff": 31.0, "entries": [
                {"lambda": lam, "k": k, "i": i, "multiplicity": mult}
                for lam, k, i, mult in rows]}}


def _principal():
    mode = radial.principal_eigenpair(_ball())
    return {"csv": (["t", "a"], list(zip(mode.t, mode.a))),
            "json": {"lambda": mode.lam, "k": 0, "i": 1, "n_t": 512}}


def _disk2d():
    problem = build_model_disk(_ball(), n_t=32, n_theta=16)
    pair, _ = solve_principal(problem)
    T, TH = problem.grid.mesh()
    return {"csv": (["t", "theta", "omega"],
                    list(zip(T.ravel(), TH.ravel(), pair.omega.ravel()))),
            "json": {"lambda": pair.lam, "residual": pair.residual,
                     "iterations": pair.iterations,
                     "grid": {"n_t": 32, "n_theta": 16, "r0": 1.0}}}


def _bounds():
    problem = build_model_disk(_ball(), None, parse_expression("0.5*t"), n_t=32, n_theta=16)
    pair, A = solve_principal(problem)
    br = barta_bracket(operator_action(A, problem.J.shape), pair.omega)
    G, _ = solve_G_V(problem, pair.omega)
    rep = holland_bound(problem, pair.omega * np.sqrt(G), tol=1e-6, A=A)
    return {"csv": (["lambda", "barta_lower", "barta_upper", "bound"],
                    [(pair.lam, br.lower, br.upper, rep.bound)]),
            "json": {"lambda": pair.lam,
                     "barta": {"lower": br.lower, "upper": br.upper,
                               "argmin_point": list(br.argmin_point),
                               "argmax_point": list(br.argmax_point),
                               "excluded_boundary_rings": br.excluded_rings},
                     "min_max_integral": {"L": rep.L_value, "Q_min": rep.Q_min,
                                          "bound": rep.bound, "fast_path": rep.fast_path}}}


def _compare():
    flat = space_form_ball(0.0, 2, 1.0)
    v = run_case(ComparisonCase(flat, space_form_ball(1.0, 2, 1.0), "sectional", label="cli-pair"))
    payload = asdict(v)
    assert set(payload) == {"label", "mode", "premises_hold", "premise_margins",
                            "lambda_subject", "lambda_model", "margin",
                            "conclusion_holds", "equality_case", "notes"}
    return {"csv": (["case_id", "premises", "lambda_subject", "lambda_model", "margin",
                     "conclusion"],
                    [(v.label, v.premises_hold, v.lambda_subject, v.lambda_model, v.margin,
                      v.conclusion_holds)]),
            "json": [payload]}


def _riccati():
    result = riccati_uniqueness(_ball(m=3), tol=1e-6)
    return {"csv": (["t", "h_recovered"], list(zip(result.t, result.h_recovered)))}


def _sweep():
    rows = [(kappa, radial.principal_eigenpair(_ball(kappa)).lam, "ok") for kappa in (0.0, 1.0)]
    return {"csv": (["kappa", "lambda", "status"], rows)}


_ARTIFACTS = {
    "spectrum": (["spectrum", *_FLAT, *_DRIFT, "--cutoff", "31"], _spectrum),
    "principal": (["principal", *_FLAT, *_DRIFT], _principal),
    "disk2d": (["disk2d", *_FLAT, *_DRIFT, *_GRID], _disk2d),
    "bounds": (["bounds", *_FLAT, *_DRIFT, *_GRID, "--vtheta", "0.5*t"], _bounds),
    "compare": (["compare", "--dim", "2", "--radius", "1", "--subject-kappa", "0",
                 "--model-kappa", "1"], _compare),
    "riccati": (["riccati", "--space-form", "0", "--dim", "3", "--radius", "1", *_DRIFT],
                _riccati),
    "sweep": (["sweep", *_FLAT, *_DRIFT, "--axis", "kappa=0,1"], _sweep),
}


def _cell(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


@pytest.mark.parametrize("command,fmt", [(c, f) for c in _ARTIFACTS for f in ("csv", "json")
                                         if c not in ("riccati", "sweep") or f == "csv"])
def test_artifact_matches_the_library(command, fmt, tmp_path, capsys):
    argv, library = _ARTIFACTS[command]
    path = tmp_path / f"out.{fmt}"
    assert run([*argv, "--format", fmt, "--output", str(path)]) in (EXIT_OK, EXIT_PREMISE)
    expected = library()[fmt]
    if fmt == "json":  # full-precision floats: the doubles round-trip
        assert json.loads(path.read_text()) == expected
        return
    header, rows = expected
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == header
    assert len(table) == len(rows) + 1
    assert table[1:] == [[_cell(x) for x in row] for row in rows]  # 12 significant digits


# -- bad input never reaches a solver -------------------------------------------

class _Solved(Exception):
    """Raised by every solver in the fuzz below: the argv got past all checks."""


_NUMBERS = st.sampled_from(["0", "1", "-1", "2", "3", "0.5", "5", "1e-3", "1e-160", "1e-200",
                            "1e200", "1e300", "-1e300", "nan", "inf", "-inf", "x", "", "2.5"])
_EXPRESSIONS = st.sampled_from([
    "t", "0.5*t", "sin(t)", "sinh(t)", "t^2", "t+1", "t^0.5", "sin(t,)", "(-2)^0.5*t",
    "sin(theta)", "t^2+1", "0.1*t^2*cos(theta)", "exp(t)-1", "1/t", "t/0", "wobble(t)",
    "exp(exp(exp(t)))", "poly 1 0.5", "poly", "poly x", "space_form 1", "space_form",
    "space_form nan", "space_form 1e300", "0", ""])
_AXES = st.sampled_from(["kappa=0,1", "kappa=5", "kappa=nan", "radius=1,2", "radius=1e200",
                         "radius=0", "dim=2,3", "dim=1", "dim=2.5", "drift_scale=0,1",
                         "drift_scale=nan", "bogus=1", "kappa", "kappa="])
_FLAGS = {
    **{f: _NUMBERS for f in ("--dim", "--radius", "--space-form", "--nt", "--ntheta", "--tol",
                             "--cutoff", "--subject-kappa", "--model-kappa", "--workers")},
    **{f: _EXPRESSIONS for f in ("--warping", "--drift", "--perturbation", "--vtheta",
                                 "--subject-drift", "--model-drift")},
    "--axis": _AXES,
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--mode": st.sampled_from(["sectional", "ricci", "cheng"]),
}
_CONFIG_KEYS = {
    "problem": {"dimension": _NUMBERS, "radius": _NUMBERS, "kappa": _NUMBERS,
                "warping": _EXPRESSIONS, "drift": _EXPRESSIONS,
                "perturbation": _EXPRESSIONS, "vtheta": _EXPRESSIONS},
    "numerics": {"n_t": _NUMBERS, "n_theta": _NUMBERS, "tol": _NUMBERS, "cutoff": _NUMBERS},
    "output": {"format": st.sampled_from(["csv", "json"])},
}
_CONFIG_LINES = st.sampled_from([(sec, key) for sec, keys in _CONFIG_KEYS.items() for key in keys]
                                ).flatmap(lambda sk: _CONFIG_KEYS[sk[0]][sk[1]].map(
                                    lambda v: (sk[0], f"{sk[1]} = {v}")))
_PROBLEM_FLAGS = ["--dim", "--radius", "--space-form", "--warping", "--drift", "--nt",
                  "--ntheta", "--tol", "--format"]
_TAKES = {  # the flags of each command, drawn three times as often as any other flag
    "spectrum": [*_PROBLEM_FLAGS, "--cutoff"],
    "principal": _PROBLEM_FLAGS,
    "riccati": _PROBLEM_FLAGS,
    "disk2d": [*_PROBLEM_FLAGS, "--perturbation", "--vtheta"],
    "bounds": [*_PROBLEM_FLAGS, "--perturbation", "--vtheta"],
    "compare": ["--dim", "--radius", "--subject-kappa", "--model-kappa", "--subject-drift",
                "--model-drift", "--mode", "--format"],
    "sweep": [*_PROBLEM_FLAGS, "--axis", "--axis", "--workers"],
}


@st.composite
def _argvs(draw, config_path, out_dir):
    command = draw(st.sampled_from(sorted(_TAKES)))
    names = st.sampled_from(_TAKES[command] * 3 + sorted(_FLAGS))
    argv = [command]
    for name in draw(st.lists(names, max_size=6)):
        argv += [name, draw(_FLAGS[name])]
    config_lines = draw(st.none() | st.lists(_CONFIG_LINES, max_size=5))
    if config_lines is not None:
        sections = {}
        for section, line in config_lines:
            sections.setdefault(section, []).append(line)
        config_path.write_text("".join(f"[{sec}]\n" + "\n".join(lines) + "\n"
                                       for sec, lines in sections.items()))
        argv += ["--config", str(config_path)]
    output = draw(st.sampled_from([None, "out.csv", "missing/out.csv", "."]))
    return argv if output is None else [*argv, "--output", str(out_dir / output)]


# where `cli` looks each solver up when a handler runs
_SOLVERS = [("radial", "principal_eigenpair"), ("radial", "assemble_spectrum"),
            ("cli", "run_corpus"), ("cli", "riccati_uniqueness"), ("compare", "run_case"),
            ("disk", "solve_principal")]


def test_bad_argv_or_config_exits_before_any_solve(tmp_path, monkeypatch):
    """Every argv either reaches a solver, or exits 64/73 cleanly and writes nothing."""
    def solver(*args, **kwargs):
        raise _Solved

    for module, name in _SOLVERS:
        monkeypatch.setattr(f"driftspectra.{module}.{name}", solver)

    @settings(max_examples=300)
    @given(argv=_argvs(tmp_path / "run.cfg", tmp_path))
    def check(argv):
        err = io.StringIO()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
        except _Solved:
            return
        finally:
            assert not (tmp_path / "out.csv").exists() and not (tmp_path / "missing").exists()
        assert code in (EXIT_USAGE, EXIT_CANTCREAT), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()


_SRC = os.path.dirname(os.path.dirname(driftspectra.__file__))

# runs in a fresh interpreter; prints the exit code and the loaded scipy modules
_PROBE = """
import json, sys
{body}
print(json.dumps([rc, sorted(k for k in sys.modules if k.split(".")[0] == "scipy")]))
"""


def _fresh(body: str, cwd) -> tuple:
    env = dict(os.environ, PYTHONPATH=_SRC)
    res = subprocess.run([sys.executable, "-c", _PROBE.format(body=body)], env=env,
                         cwd=cwd, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


class TestImportBudget:
    """The 1-D commands run on numpy alone; only the 2-D layer loads scipy."""

    @pytest.mark.parametrize("argv", [
        ["principal", "--space-form", "0", "--dim", "2", "--radius", "1", "--drift", "0.5*t"],
        ["spectrum", "--space-form", "0", "--dim", "2", "--radius", "1", "--cutoff", "31"],
        ["riccati", "--space-form", "0", "--dim", "3", "--radius", "1", "--drift", "t"],
        ["compare"],
        ["compare", "--dim", "2", "--radius", "1", "--subject-kappa", "0",
         "--model-kappa", "1", "--subject-drift", "0.5*t", "--model-drift", "t"],
        ["sweep", "--dim", "2", "--radius", "1", "--drift", "t",
         "--axis", "drift_scale=0,1", "--workers", "2"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
    def test_1d_commands_import_no_scipy(self, argv, tmp_path):
        body = f"from driftspectra import cli\nrc = cli.main({argv!r})"
        rc, scipy_modules = _fresh(body, tmp_path)
        assert rc == EXIT_OK
        assert scipy_modules == []

    def test_package_import_is_scipy_free(self, tmp_path):
        assert _fresh("import driftspectra\nrc = 0", tmp_path) == [0, []]

    def test_brentq_alias_loads_scipy_on_lookup(self, tmp_path):
        body = ("import driftspectra.radial as radial\n"
                "before = sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')\n"
                "found = radial.brentq\n"
                "import scipy.optimize\n"
                "rc = [before, found is scipy.optimize.brentq]")
        rc, _ = _fresh(body, tmp_path)
        assert rc == [[], True]

    def test_lazy_2d_names_resolve(self, tmp_path):
        body = ("from driftspectra import DiskProblem, holland_bound\n"
                "from driftspectra import cli\n"
                "rc = int(cli.solve_principal.__module__ != 'driftspectra.disk')")
        rc, scipy_modules = _fresh(body, tmp_path)
        assert rc == 0 and "scipy.sparse" in scipy_modules

    @pytest.mark.parametrize("argv", [
        ["disk2d", "--space-form", "0", "--dim", "2", "--radius", "1",
         "--nt", "32", "--ntheta", "16"],
        ["bounds", "--space-form", "0", "--dim", "2", "--radius", "1", "--drift", "t",
         "--nt", "32", "--ntheta", "16"],
    ], ids=lambda argv: argv[0])
    def test_2d_commands_load_only_sparse(self, argv, tmp_path):
        body = f"from driftspectra import cli\nrc = cli.main({argv!r})"
        rc, scipy_modules = _fresh(body, tmp_path)
        assert rc == EXIT_OK
        assert "scipy.sparse.linalg" in scipy_modules
        assert not [m for m in scipy_modules
                    if m.startswith(("scipy.optimize", "scipy.interpolate"))]
