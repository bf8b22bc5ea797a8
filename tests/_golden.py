"""Golden runs of the command line: the README commands and the extra runs
that earlier changes checked by hand, each with its exit code, stdout,
stderr and `--output` artifact under `tests/golden/`.

`tests/test_golden.py` compares a fresh run against these files: stdout,
stderr and CSV byte for byte, JSON with every float rounded to 12
significant digits.  A change that moves a golden on purpose regenerates
the files with

    PYTHONPATH=src python tests/_golden.py

and states each move, with its error against an oracle, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from driftspectra.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

FLAT_DISK = ["--space-form", "0", "--dim", "2", "--radius", "1"]

# name -> argv; a run with an artifact names it `out.csv` or `out.json`
CASES = {
    # the README commands
    "readme_spectrum": ["spectrum", *FLAT_DISK, "--cutoff", "31", "--output", "out.csv"],
    "readme_principal_m3": ["principal", "--space-form", "0", "--dim", "3", "--radius", "1"],
    "readme_principal_warping": ["principal", "--warping", "sinh(t)", "--dim", "2",
                                 "--radius", "1", "--drift", "0.5*t"],
    "readme_disk2d": ["disk2d", *FLAT_DISK, "--perturbation", "0.1*t^2*cos(theta)",
                      "--format", "json", "--output", "out.json"],
    "readme_bounds": ["bounds", *FLAT_DISK, "--drift", "t", "--tol", "1e-7"],
    "readme_compare_corpus": ["compare", "--output", "out.csv"],
    "readme_compare_pair": ["compare", "--dim", "2", "--radius", "1", "--subject-kappa", "0",
                            "--model-kappa", "1"],
    "readme_riccati": ["riccati", "--space-form", "0", "--dim", "3", "--radius", "1",
                       "--drift", "t"],
    "readme_sweep": ["sweep", "--dim", "2", "--radius", "1", "--drift", "t",
                     "--axis", "drift_scale=0,0.5,1", "--axis", "kappa=0,1",
                     "--workers", "4", "--output", "out.csv"],
    # extra runs: polynomial drifts, JSON artifacts, extreme radii and errors
    "spectrum_poly_m4": ["spectrum", "--space-form=-0.7", "--dim", "4", "--radius", "1.3",
                         "--drift", "0.9*t+0.3*t^2", "--cutoff", "80", "--output", "out.csv"],
    "spectrum_sphere_m3": ["spectrum", "--space-form", "0.8", "--dim", "3", "--radius", "1.4",
                           "--cutoff", "60", "--format", "json", "--output", "out.json"],
    "spectrum_poly_keyword": ["spectrum", *FLAT_DISK, "--drift", "poly 0.7 0.2",
                              "--cutoff", "60", "--output", "out.csv"],
    "principal_m2_json": ["principal", *FLAT_DISK, "--format", "json",
                          "--output", "out.json"],
    "principal_poly_m4": ["principal", "--space-form=-1", "--dim", "4", "--radius", "1.5",
                          "--drift", "poly 1.5 0.8", "--output", "out.csv"],
    "principal_radius_1e-100": ["principal", "--space-form", "0", "--dim", "2",
                                "--radius", "1e-100"],
    "principal_radius_1e100": ["principal", "--space-form", "0", "--dim", "2",
                               "--radius", "1e100"],
    "riccati_poly": ["riccati", *FLAT_DISK, "--drift", "poly 0.7 0.2", "--output", "out.csv"],
    "spectrum_cutoff_below_principal": ["spectrum", *FLAT_DISK, "--cutoff", "5.78"],
    "principal_poly_nan": ["principal", *FLAT_DISK, "--drift", "poly nan"],
    "disk2d_tol_1e-9": ["disk2d", *FLAT_DISK, "--tol", "1e-9", "--format", "json",
                        "--output", "out.json"],
    "disk2d_drift_20t": ["disk2d", *FLAT_DISK, "--drift", "20*t", "--format", "json",
                         "--output", "out.json"],
}


def artifact_name(argv) -> str | None:
    return argv[argv.index("--output") + 1] if "--output" in argv else None


def artifact_file(name: str) -> Path | None:
    """Where the golden artifact of a case lives, if the case writes one."""
    target = artifact_name(CASES[name])
    return GOLDEN / f"{name}{Path(target).suffix}" if target else None


def run(argv):
    """Exit code, stdout, stderr and artifact text (or None) of one in-process
    `drift-spectra` run in a fresh directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            name = artifact_name(argv)
            artifact = Path(name).read_text() if name and Path(name).exists() else None
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), artifact


def record(code: int, stdout: str, stderr: str) -> str:
    """The text of a run's `.out` file."""
    return f"exit {code}\n[stdout]\n{stdout}[stderr]\n{stderr}"


def rounded(obj):
    """JSON data with every float rounded to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {key: rounded(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [rounded(value) for value in obj]
    return obj


def regenerate(names=None):
    GOLDEN.mkdir(exist_ok=True)
    for name in names or CASES:
        argv = CASES[name]
        code, stdout, stderr, artifact = run(argv)
        (GOLDEN / f"{name}.out").write_text(record(code, stdout, stderr))
        if artifact is not None:
            artifact_file(name).write_text(artifact)
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
