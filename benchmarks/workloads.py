"""Seeded inputs, timed operations and output checks of the three workloads.

Every workload is a stream of rounds.  A round is a fixed mix of operation
kinds over fresh seeded inputs, so two runs with different seeds do the same
kinds of work in the same proportions.  An `Op` separates the timed library
call from its check; the check returns the values that the traced and
untraced passes must reproduce and the relative errors of its accuracy
witnesses, and raises `CheckFailed` when an output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from driftspectra import bounds, cli, compare, disk, geometry, radial

import oracles

# the modules whose bindings the tracer wraps
MODULES = {"radial": radial, "compare": compare, "disk": disk, "bounds": bounds, "cli": cli}


class CheckFailed(AssertionError):
    pass


def ensure(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]   # -> (values, witness relative errors)


def rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


# -- ball-sweep --------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    m: int
    kappa: float
    r0: float
    c1: float = 0.0
    c2: float = 0.0

    @property
    def drifted(self) -> bool:
        return self.c1 != 0.0 or self.c2 != 0.0

    def build(self):
        drift = (geometry.polynomial_drift([self.c1, self.c2]) if self.drifted
                 else geometry.zero_drift())
        return geometry.space_form_ball(self.kappa, self.m, self.r0, drift)


def ball_family(rng: random.Random) -> list:
    """Four distinct balls sharing (m, r0), ordered for comparison pairs.

    Curvature rises along the list and drift coefficients never fall, so any
    (earlier, later) pair meets the sectional premises and (second, first)
    is a zero-drift pair that meets the Ricci premises.  The two zero-drift
    balls are closed-form witnesses when m = 3, and the second one is the
    flat disk when m = 2.
    """
    m = rng.choice((2, 3, 4))
    r0 = round(rng.uniform(0.5, 1.5), 6)
    if m == 2:
        kappas = [round(rng.uniform(-1.0, -0.05), 6), 0.0]
        kappas += sorted(round(rng.uniform(0.0, 1.0), 6) for _ in range(2))
    else:
        kappas = sorted(round(rng.uniform(-1.0, 1.0), 6) for _ in range(4))
    c1, c2 = round(rng.uniform(0.2, 1.5), 6), round(rng.uniform(0.0, 0.8), 6)
    e1, e2 = round(rng.uniform(0.05, 0.5), 6), round(rng.uniform(0.0, 0.3), 6)
    return [Ball(m, kappas[0], r0), Ball(m, kappas[1], r0),
            Ball(m, kappas[2], r0, c1, c2), Ball(m, kappas[3], r0, c1 + e1, c2 + e2)]


def _check_principal(spec: Ball):
    def check(mode):
        lam = mode.lam
        ensure(math.isfinite(lam) and lam > 0.0, f"principal lambda {lam} for {spec}")
        ref = oracles.closed_form_principal(spec.m, spec.kappa, spec.r0, spec.drifted)
        errs = []
        if ref is not None:
            errs.append(rel(lam, ref))
            ensure(errs[-1] <= 1e-9, f"principal {lam!r} vs closed form {ref!r} for {spec}")
        return [lam], errs
    return check


def _check_spectrum(spec: Ball, lam1: float):
    def check(table):
        lams = [e.lam for e in table.entries]
        ensure(lams == sorted(lams), "spectrum not sorted")
        ensure(rel(lams[0], lam1) <= 1e-12, "spectrum does not start at the principal pair")
        ensure(all(lam <= table.lambda_cutoff for lam in lams), "entry above the cutoff")
        for e in table.entries:
            ensure(e.multiplicity == oracles.harmonic_multiplicity(e.k, spec.m),
                   f"multiplicity of level {e.k} in dimension {spec.m}")
        errs = []
        if spec.m == 2 and spec.kappa == 0.0 and not spec.drifted:
            ref = oracles.flat_disk_spectrum(spec.r0, table.lambda_cutoff)
            ensure([(e.k, e.i, e.multiplicity) for e in table.entries]
                   == [r[1:] for r in ref], "flat spectrum levels differ from Bessel zeros")
            errs = [rel(e.lam, r[0]) for e, r in zip(table.entries, ref)]
            ensure(max(errs) <= 1e-9, f"flat spectrum error {max(errs):.2e}")
        return lams, errs
    return check


def _check_riccati(ball):
    def check(result):
        err = result.sup_error
        ensure(math.isfinite(err) and err <= 1e-6, f"riccati sup error {err}")
        scale = max(1.0, float(np.max(np.abs(ball.drift.h(result.t)))))
        return [err], [max(err, 1e-16) / scale]
    return check


def _check_verdicts(expected: int):
    def check(verdicts):
        ensure(len(verdicts) == expected, "verdict count")
        bad = [v.label for v in verdicts if not (v.premises_hold and v.conclusion_holds)]
        ensure(not bad, f"comparison cases not verified: {bad}")
        return [v.lambda_subject for v in verdicts] + [v.lambda_model for v in verdicts], []
    return check


def corpus_op() -> Op:
    return Op("corpus", "builtin corpus", lambda: compare.run_corpus(), _check_verdicts(12))


def ball_round(rng: random.Random) -> list:
    """Principal on four new balls, then spectrum, two Riccati solves and two
    comparisons."""
    specs = ball_family(rng)
    balls = [s.build() for s in specs]
    solved = {}
    ops = []
    for i, (spec, ball) in enumerate(zip(specs, balls)):
        def call(ball=ball, i=i):
            solved[i] = radial.principal_eigenpair(ball)
            return solved[i]
        ops.append(Op("principal", str(spec), call, _check_principal(spec)))

    s = 1 if specs[0].m == 2 else rng.randrange(4)
    factor = rng.uniform(2.5, 3.5)
    ops.append(Op("spectrum", f"{specs[s]} x{factor:.3f}",
                  lambda: radial.assemble_spectrum(balls[s], factor * solved[s].lam),
                  lambda table: _check_spectrum(specs[s], solved[s].lam)(table)))

    # one zero-drift and one drifted ball: a drifted solve costs about twice
    # as much, so a random pick would make round times bimodal
    for r in (rng.randrange(2), rng.randrange(2, 4)):
        ops.append(Op("riccati", str(specs[r]),
                      lambda r=r: compare.riccati_uniqueness(balls[r]),
                      _check_riccati(balls[r])))

    i = rng.randrange(3)
    j = rng.randrange(i + 1, 4)
    cases = [compare.ComparisonCase(balls[i], balls[j], "sectional", f"sectional {i}<{j}"),
             compare.ComparisonCase(balls[1], balls[0], "ricci", "ricci 1>=0")]
    ops.append(Op("compare", f"pairs ({i},{j}) (1,0) of {specs[0].m},{specs[0].r0}",
                  lambda: compare.run_corpus(cases), _check_verdicts(2)))
    return ops


# -- disk-bounds -------------------------------------------------------------

GRIDS = ((96, 64), (144, 96))
ROUNDOFF = 1e-12
BOUND_SLACK = 1e-6


@dataclass(frozen=True)
class Disk:
    kappa: float
    r0: float
    c: float          # radial drift c * t
    eps: float        # metric perturbation eps * t^2 * cos(j theta)
    j: int
    a: float          # angular drift a * t (0: closed-form integral bound)
    n_t: int
    n_theta: int

    def build(self):
        drift = geometry.polynomial_drift([self.c]) if self.c else geometry.zero_drift()
        ball = geometry.space_form_ball(self.kappa, 2, self.r0, drift)
        eps, j, a = self.eps, self.j, self.a
        return disk.build_model_disk(
            ball, perturbation=lambda t, th: eps * t * t * np.cos(j * th),
            drift_angular=(lambda t, th: a * t) if a else None,
            n_t=self.n_t, n_theta=self.n_theta)


def random_disk(rng: random.Random, grid, angular: bool) -> Disk:
    return Disk(kappa=round(rng.uniform(-1.0, 1.0), 6), r0=round(rng.uniform(0.5, 1.5), 6),
                c=round(rng.uniform(0.0, 1.5), 6), eps=round(rng.uniform(0.0, 0.15), 6),
                j=rng.choice((1, 2, 3)),
                a=round(rng.uniform(0.2, 1.0), 6) if angular else 0.0,
                n_t=grid[0], n_theta=grid[1])


def disk_round(rng: random.Random, grid_sizes=GRIDS) -> list:
    """Four disks: each grid size with and without angular drift.

    The coarse disk without angular drift is the flat zero-drift disk, whose
    lambda * r0^2 tends to j01^2: its error is the discretization witness."""
    combos = [(g, ang) for g in grid_sizes for ang in (False, True)]
    rng.shuffle(combos)
    ops = []
    for grid, ang in combos:
        if (grid, ang) == (grid_sizes[0], False):
            spec = Disk(0.0, round(rng.uniform(0.5, 1.5), 6), 0.0, 0.0, 1, 0.0, *grid)
        else:
            spec = random_disk(rng, grid, ang)
        problem = spec.build()
        shape = problem.J.shape
        state = {}

        def solve(problem=problem, state=state):
            state["pair"], state["A"] = disk.solve_principal(problem)
            return state["pair"]

        def check_solve(pair, spec=spec):
            ensure(pair.lam > 0.0 and pair.residual <= disk.DEFAULT_TOL,
                   f"disk pair lambda {pair.lam} residual {pair.residual} for {spec}")
            ensure(bool(np.all(pair.omega > 0.0)), "disk eigenvector not positive")
            errs = []
            if spec.kappa == spec.c == spec.eps == spec.a == 0.0:
                errs.append(rel(pair.lam * spec.r0 ** 2, oracles.J01_SQ))
                ensure(errs[-1] <= 1e-3, f"flat disk lambda r0^2 off j01^2 by {errs[-1]:.2e}")
            return [pair.lam], errs

        def check_adjoint(adj, state=state):
            lam = state["pair"].lam
            gap = abs(adj.lam - lam) / abs(lam)
            ensure(gap <= 1e-10, f"transpose gap {gap:.2e}")
            return [adj.lam], []

        def run_bounds(problem=problem, state=state, shape=shape):
            pair, A = state["pair"], state["A"]
            bracket = bounds.barta_bracket(disk.operator_action(A, shape), pair.omega)
            G, _ = bounds.solve_G_V(problem, pair.omega)
            report = bounds.holland_bound(problem, pair.omega * np.sqrt(G), A=A)
            return bracket, report

        def check_bounds(out, state=state, spec=spec):
            bracket, report = out
            lam = state.pop("pair").lam
            del state["A"]   # the disk's last op: free its matrix and eigenpair
            # the Barta bracket is exact at matrix level, so only roundoff may
            # cross it where it is tight (the flat disk); the integral bound at
            # the optimal trial equals lambda up to the auxiliary solves, and the
            # acceptance suite holds it to lambda - 1e-6
            slack = ROUNDOFF * lam
            ensure(bracket.lower - slack <= lam <= bracket.upper + slack,
                   f"Barta bracket [{bracket.lower}, {bracket.upper}] misses {lam}")
            ensure(report.bound >= lam - BOUND_SLACK,
                   f"integral bound {report.bound} below {lam}")
            ensure(report.fast_path == (spec.a == 0.0), "integral bound took the wrong path")
            return [bracket.lower, bracket.upper, report.bound], []

        ops += [Op("disk", str(spec), solve, check_solve),
                Op("adjoint", str(spec),
                   lambda state=state, shape=shape: disk.adjoint_principal(state["A"], shape=shape),
                   check_adjoint),
                Op("bounds", str(spec), run_bounds, check_bounds)]
    return ops


# -- cli-cold ----------------------------------------------------------------

# commands that never need the 2-D solvers; the rest are `disk2d` and `bounds`
CLI_1D = ("principal", "spectrum", "riccati", "compare", "sweep")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _f(x: float) -> str:
    return f"{x:.4f}"


def cli_round(rng: random.Random, nproc: int, grid=(48, 32)) -> list:
    """README-style invocations: eight commands, one of each kind plus a
    second `principal` on a zero-drift closed-form ball."""
    def kappa():
        return rng.uniform(-1.0, 1.0)

    def r0():
        return rng.uniform(0.5, 1.5)

    m = rng.choice((2, 3, 4))
    c1, c2 = rng.uniform(0.2, 1.5), rng.uniform(0.0, 0.8)
    wit_m = rng.choice((2, 3))
    wit_k = 0.0 if wit_m == 2 else kappa()
    lo, hi = sorted((kappa(), kappa()))
    nt, nth = grid
    argvs = [
        ["principal", f"--space-form={_f(kappa())}", "--dim", str(m), "--radius", _f(r0()),
         "--drift", f"{_f(c1)}*t+{_f(c2)}*t^2"],
        ["principal", f"--space-form={_f(wit_k)}", "--dim", str(wit_m), "--radius", _f(r0())],
        ["spectrum", "--space-form", "0", "--dim", "2", "--radius", _f(r0()), "--cutoff", "31"],
        ["riccati", f"--space-form={_f(kappa())}", "--dim", str(m), "--radius", _f(r0()),
         "--drift", f"{_f(c1)}*t"],
        ["compare", "--dim", str(m), "--radius", _f(r0()),
         f"--subject-kappa={_f(lo)}", f"--model-kappa={_f(hi)}"],
        ["sweep", "--dim", "2", "--radius", _f(r0()), "--drift", "t",
         "--axis", f"drift_scale=0,{_f(rng.uniform(0.2, 1.0))}",
         "--axis", f"kappa={_f(lo)},{_f(hi)}", "--workers", str(rng.randint(1, nproc))],
        ["disk2d", f"--space-form={_f(kappa())}", "--dim", "2", "--radius", _f(r0()),
         "--perturbation", f"{_f(rng.uniform(0.0, 0.15))}*t^2*cos({rng.choice((1, 2, 3))}*theta)",
         "--nt", str(nt), "--ntheta", str(nth)],
        ["bounds", f"--space-form={_f(kappa())}", "--dim", "2", "--radius", _f(r0()),
         "--drift", f"{_f(rng.uniform(0.0, 1.5))}*t", "--nt", str(nt), "--ntheta", str(nth)]
        + (["--vtheta", f"{_f(rng.uniform(0.2, 1.0))}*t"] if rng.random() < 0.5 else []),
    ]
    rng.shuffle(argvs)
    return argvs


def readme_pass(nproc: int) -> list:
    """The README's invocations, minus output files; `bounds` takes the
    angular drift of the README config example so `w_u` is solved."""
    return [
        ["spectrum", "--space-form", "0", "--dim", "2", "--radius", "1", "--cutoff", "31"],
        ["principal", "--space-form", "0", "--dim", "3", "--radius", "1"],
        ["principal", "--warping", "sinh(t)", "--dim", "2", "--radius", "1", "--drift", "0.5*t"],
        ["disk2d", "--space-form", "0", "--dim", "2", "--radius", "1",
         "--perturbation", "0.1*t^2*cos(theta)"],
        ["bounds", "--space-form", "0", "--dim", "2", "--radius", "1", "--drift", "t",
         "--tol", "1e-7", "--vtheta", "0.5*t"],
        ["compare"],
        ["compare", "--dim", "2", "--radius", "1", "--subject-kappa", "0", "--model-kappa", "1"],
        ["riccati", "--space-form", "0", "--dim", "3", "--radius", "1", "--drift", "t"],
        ["sweep", "--dim", "2", "--radius", "1", "--drift", "t", "--axis", "drift_scale=0,0.5,1",
         "--axis", "kappa=0,1", "--workers", str(min(4, nproc))],
    ]


def grids(tiny: bool) -> tuple:
    return ((24, 16), (32, 24)) if tiny else GRIDS


def make_rounds(workload: str, seed: int, tiny: bool, nproc: int):
    """The endless stream of a workload's rounds; it depends only on the seed.

    Each round is built when it is drawn, so a run holds the inputs of one
    round at a time.  Rounds of `ball-sweep` and `disk-bounds` are lists of
    `Op`; rounds of `cli-cold` are lists of argv lists."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "ball-sweep":
            yield ball_round(rng)
        elif workload == "disk-bounds":
            yield disk_round(rng, grids(tiny))
        else:
            yield cli_round(rng, nproc, (24, 16) if tiny else (48, 32))


def run_in_process(argv: list) -> tuple:
    """(exit code, stdout) of `cli.main(argv)` in this interpreter."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _options(argv: list) -> dict:
    opts, rest = {}, list(argv[1:])
    while rest:
        key = rest.pop(0)
        if "=" in key:
            key, value = key.split("=", 1)
        else:
            value = rest.pop(0)
        opts[key] = value
    return opts


def cli_witness(argv: list, stdout: str) -> list:
    """Relative errors of printed eigenvalues that have a closed form."""
    kind = argv[0]
    opts = _options(argv)
    if "--radius" not in opts or "--warping" in opts:
        return []
    radius = float(opts["--radius"])
    flat = opts.get("--space-form") == "0" and opts.get("--dim") == "2"
    if kind == "spectrum" and flat and "--drift" not in opts:
        printed = [float(x) for x in _NUMBER.findall(stdout.split(":", 2)[2])]
        ref = [entry[0] for entry in
               oracles.flat_disk_spectrum(radius, float(opts["--cutoff"]))]
        return [rel(x, r) for x, r in zip(printed, ref)]
    if kind == "principal" and "--drift" not in opts:
        ref = oracles.closed_form_principal(int(opts["--dim"]), float(opts["--space-form"]),
                                            radius, drifted=False)
        if ref is not None:
            return [rel(float(stdout.split("=")[1]), ref)]
    return []


def check_cli_output(argv: list, code: int, stdout: str) -> tuple:
    """Exit code, comparison verdict and closed-form witnesses of one command."""
    ensure(code == 0, f"exit code {code} for {argv}")
    if argv[0] == "compare":
        ensure(re.search(r"\b(\d+)/\1 cases verified", stdout) is not None,
               f"comparison not verified: {stdout.strip()}")
    errs = cli_witness(argv, stdout)
    ensure(all(e <= 1e-9 for e in errs), f"printed eigenvalue off its closed form: {errs}")
    return [float(x) for x in _NUMBER.findall(stdout)], errs


def check_cli(argv: list, code: int, stdout: str, stderr: str) -> tuple:
    """A subprocess run must also print exactly what `cli.main` prints here."""
    ensure(code == 0, f"exit code {code} for {argv}: {stderr.strip()[-300:]}")
    ref_code, ref_out = run_in_process(argv)
    ensure(ref_code == 0 and stdout == ref_out,
           f"subprocess and in-process output differ for {argv}")
    return check_cli_output(argv, code, stdout)


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("DRIFT_SPECTRA_WORKERS", None)   # --workers alone sets the pool size
    return env


def cli_command(argv: list) -> list:
    return [sys.executable, "-m", "driftspectra.cli", *argv]
