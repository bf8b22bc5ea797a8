import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import driftspectra
from driftspectra.cli import (EXIT_CANTCREAT, EXIT_OK, EXIT_PREMISE, EXIT_USAGE,
                              main)

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

    def test_partial_failures_recorded_per_row(self, tmp_path):
        # kappa=5 caps the domain at pi/sqrt(5) < radius 2: that row fails,
        # the others still complete
        path = tmp_path / "partial.csv"
        assert run(["sweep", "--dim", "2", "--radius", "2",
                    "--axis", "kappa=0,5", "--output", str(path)]) == EXIT_OK
        rows = path.read_text().strip().split("\n")[1:]
        assert rows[0].endswith(",ok")
        assert "error" in rows[1]


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
        ["--drift", "(" * 300 + "t" + ")" * 300], ["--drift", "+".join(["t"] * 800)]])
    def test_bad_grid_or_tol_is_usage_error(self, flag, capsys):
        if flag[0] in ("compare", "sweep"):
            argv = flag
        else:
            command = {"--ntheta": "disk2d", "--cutoff": "spectrum", "--perturbation": "disk2d",
                       "--subject-kappa": "compare", "--model-kappa": "compare",
                       "--subject-drift": "compare", "--model-drift": "compare"}.get(flag[0],
                                                                                     "principal")
            # compare reads no --space-form, and --dim/--radius only with --subject-kappa
            common = ["--space-form", "0", "--dim", "2", "--radius", "1"]
            argv = [command, *([] if command == "compare" else common), *flag]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err

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
