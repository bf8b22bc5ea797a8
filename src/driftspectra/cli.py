"""Command-line front end.

Subcommands (artifact formats in brackets)
-----------
spectrum   all model eigenvalues up to a cutoff, with multiplicities [csv, json]
principal  ground eigenvalue of a model ball (1-D solver) [csv, json]
disk2d     ground pair of a 2-D disk (model + perturbation + angular drift) [csv, json]
bounds     Barta bracket and integral min-max bound for a disk problem [csv, json]
compare    run the built-in comparison corpus (or a single pair) and report [csv, json]
riccati    drift recovery through the equality-case Riccati flow [csv]
sweep      cartesian parameter sweeps of `principal` with persistence [csv]

Problem flags: --dim M --radius R0 and either --space-form KAPPA or
--warping EXPR; --drift EXPR gives the radial drift h(t) (h(0)=0 required).
disk2d additionally takes --perturbation EXPR(t,theta) and --vtheta
EXPR(t,theta).  Expressions use the grammar of `driftspectra.expressions`
(+, -, *, /, ^, sin, cos, sinh, cosh, exp, t, theta, pi) and are
differentiated analytically.

A config file (--config PATH) supplies the same data as key=value sections:

    [problem]
    dimension = 2
    radius = 1.0
    kappa = 0.0            ; or: warping = sin(t) | warping = space_form 1.0
    drift = 0.5*t          ; or: drift = poly 0.5 0.1  (h = 0.5 t + 0.1 t^2)
    perturbation = 0.1*t^2*cos(theta)   ; disk2d only
    vtheta = 0.5*t                      ; disk2d only
    [numerics]
    n_t = 512
    n_theta = 128
    tol = 1e-8
    cutoff = 31.0
    [output]
    path = out.csv
    format = csv

Command-line flags override config values.  `compare` reads only the
[output] keys, plus dimension and radius with --subject-kappa; any other
[problem] or [numerics] key in its file is a usage error, as are the flags.
This module renders every artifact, through `_csv` and `_json`: CSV cells
and stdout numbers carry 12 significant digits, JSON floats are written in
full and round-trip the doubles.  Solvers are deterministic, so re-running
a config byte-reproduces its artifacts.  Exit codes: 0 success, 1 solver
failure, 2 premise failure in `compare`, 64 usage error (a --format the
command does not write among them), 73 unwritable output path.  Both are
decided before any solve: an --output that is a directory, or whose parent
is not an existing directory, exits 73 without creating or truncating the
file.  `sweep` builds the ball of every point before its first solve; a
point that cannot be built, or a kappa axis next to a warping, exits 64
and names the point, and only a solver failure becomes an error row.
Without --output, `sweep` prints its table after the header line.  `sweep`
runs its points serially: `--workers N` is still accepted (an integer >= 1,
else exit 64) but changes neither its output nor its speed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import importlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import radial as radial_mod
from .compare import riccati_uniqueness, run_corpus
from .errors import SolverError
from .expressions import ExpressionError, parse_expression
from .geometry import (ModelBall, custom_warping, drift_from_rate, make_space_form,
                       polynomial_drift, zero_drift)

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_PREMISE = 2
EXIT_USAGE = 64
EXIT_CANTCREAT = 73

# 2-D solver names this module re-exports.  The disk2d/bounds handlers import
# them where they run, so the 1-D commands never load scipy.sparse.
_LAZY_2D = {"solve_principal": "disk", "barta_bracket": "bounds",
            "holland_bound": "bounds", "solve_G_V": "bounds"}


def __getattr__(name):
    if name not in _LAZY_2D:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY_2D[name]}", __package__), name)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    dim: int = 2
    radius: float = 1.0
    kappa: float | None = 0.0
    warping: str | None = None
    drift: str | None = None
    perturbation: str | None = None
    vtheta: str | None = None
    n_t: int | None = None
    n_theta: int | None = None
    tol: float | None = None
    cutoff: float = 31.0
    output: str | None = None
    format: str = "csv"
    drift_scale: float = 1.0

    def n_t_1d(self) -> int:
        return self.n_t if self.n_t is not None else radial_mod.DEFAULT_GRID

    def tol_1d(self) -> float:
        return self.tol if self.tol is not None else radial_mod.DEFAULT_TOL

    def tol_2d(self) -> float:
        # disk.DEFAULT_TOL, written out: importing `disk` would load
        # scipy.sparse for the 1-D commands too
        return self.tol if self.tol is not None else 1e-6


def _warping(cfg: RunConfig):
    if not cfg.warping:
        return make_space_form(cfg.kappa if cfg.kappa is not None else 0.0)
    spec = cfg.warping.strip()
    if spec.startswith("space_form"):
        try:
            kappa = float(spec.split()[1])
        except (IndexError, ValueError) as exc:
            raise UsageError(f"bad warping spec {spec!r}") from exc
        return make_space_form(kappa)
    expr = parse_expression(spec)
    if expr.depends_on("theta"):
        raise UsageError("warping expressions may only involve t")
    d1 = expr.diff("t")
    return custom_warping(expr, d1, d1.diff("t"), t_max=cfg.radius * 1.5)


def _drift(cfg: RunConfig):
    if not cfg.drift or cfg.drift.strip() in ("0", "0.0"):
        return zero_drift()
    spec = cfg.drift.strip()
    scale = cfg.drift_scale
    if spec.startswith("poly"):
        try:
            coeffs = [scale * float(v) for v in spec.split()[1:]]
        except ValueError as exc:
            raise UsageError(f"bad drift coefficients in {spec!r}") from exc
        if not coeffs:
            raise UsageError("poly drift needs at least one coefficient")
        return polynomial_drift(coeffs)
    h_expr = parse_expression(spec)
    if h_expr.depends_on("theta"):
        raise UsageError("model drifts may only involve t")
    hp_expr = h_expr.diff("t")
    return drift_from_rate(h=lambda t: scale * np.asarray(h_expr(t), dtype=float),
                           h_prime=lambda t: scale * np.asarray(hp_expr(t), dtype=float),
                           t_max=cfg.radius * 1.05)


def _build_ball(cfg: RunConfig) -> ModelBall:
    try:  # a profile, drift or ball the geometry rejects is bad input
        return ModelBall(m=cfg.dim, r0=cfg.radius, rho=_warping(cfg), drift=_drift(cfg))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_output(path: str):
    """Refuse a path that cannot take the artifact, without creating or truncating it."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise _OutputError(f"{path!r} is a directory or lies in no existing directory")


def _write_text(path: str, text: str):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutputError(str(exc)) from exc


class _OutputError(Exception):
    pass


def _csv(header, rows) -> str:
    """CSV text; float cells carry 12 significant digits, others (bools too) are str()."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{x:.12g}" if isinstance(x, float) else str(x) for x in row]
                     for row in rows)
    return buf.getvalue()


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- subcommands -------------------------------------------------------------
# Each handler takes (cfg, args) and returns (exit code, summary line,
# {format: artifact}), a CSV artifact being (header, rows) and a JSON one
# its payload; `main` renders only the artifact it writes.

def _cmd_spectrum(cfg: RunConfig, args) -> tuple:
    table = radial_mod.assemble_spectrum(_build_ball(cfg), cfg.cutoff, tol=cfg.tol_1d(),
                                         n_t=cfg.n_t_1d())
    rows = [(e.lam, e.k, e.i, e.multiplicity) for e in table.entries]
    columns = ("lambda", "k", "i", "multiplicity")
    lams = ", ".join(f"{e.lam:.12g}" for e in table.entries[:6])
    return (EXIT_OK, f"spectrum: {len(rows)} eigenvalues <= {cfg.cutoff:.12g}: {lams}",
            {"csv": (columns, rows),
             "json": {"cutoff": table.lambda_cutoff,
                      "entries": [dict(zip(columns, row)) for row in rows]}})


def _cmd_principal(cfg: RunConfig, args) -> tuple:
    mode = radial_mod.principal_eigenpair(_build_ball(cfg), tol=cfg.tol_1d(), n_t=cfg.n_t_1d())
    return EXIT_OK, f"principal: lambda = {mode.lam:.12g}", {
        "csv": (("t", "a"), zip(mode.t, mode.a)),
        "json": {"lambda": mode.lam, "k": 0, "i": 1, "n_t": cfg.n_t_1d()}}


def _disk_problem(cfg: RunConfig):
    if cfg.dim != 2:
        raise UsageError("disk commands require --dim 2")
    from .disk import build_model_disk

    ball = _build_ball(cfg)
    fields = [parse_expression(s) if s else None for s in (cfg.perturbation, cfg.vtheta)]
    try:  # the parsed perturbation and angular drift are callables of (t, theta)
        return build_model_disk(ball, *fields, n_t=cfg.n_t, n_theta=cfg.n_theta)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_disk2d(cfg: RunConfig, args) -> tuple:
    from .disk import solve_principal

    problem = _disk_problem(cfg)
    pair, _ = solve_principal(problem, tol=cfg.tol_2d())
    grid = problem.grid
    T, TH = grid.mesh()
    return (EXIT_OK, f"disk2d: lambda = {pair.lam:.12g} residual = {pair.residual:.3e} "
                     f"iterations = {pair.iterations}",
            {"csv": (("t", "theta", "omega"), zip(T.ravel(), TH.ravel(), pair.omega.ravel())),
             "json": {"lambda": pair.lam, "residual": pair.residual,
                      "iterations": pair.iterations,
                      "grid": {"n_t": grid.n_t, "n_theta": grid.n_theta, "r0": grid.r0}}})


def _cmd_bounds(cfg: RunConfig, args) -> tuple:
    from .bounds import barta_bracket, holland_bound, solve_G_V
    from .disk import operator_action, solve_principal

    problem = _disk_problem(cfg)
    pair, A = solve_principal(problem, tol=cfg.tol_2d())
    bracket = barta_bracket(operator_action(A, problem.J.shape), pair.omega)
    G, _ = solve_G_V(problem, pair.omega)
    u_opt = pair.omega * np.sqrt(G)
    report = holland_bound(problem, u_opt, tol=cfg.tol_2d(), A=A)
    values = (pair.lam, bracket.lower, bracket.upper, report.bound)
    return (EXIT_OK, "bounds: lambda = {:.12g} bracket = [{:.12g}, {:.12g}] "
                     "integral bound = {:.12g}".format(*values),
            {"csv": (("lambda", "barta_lower", "barta_upper", "bound"), [values]),
             "json": {"lambda": pair.lam,
                      "barta": {"lower": bracket.lower, "upper": bracket.upper,
                                "argmin_point": list(bracket.argmin_point),
                                "argmax_point": list(bracket.argmax_point),
                                "excluded_boundary_rings": bracket.excluded_rings},
                      "min_max_integral": {"L": report.L_value, "Q_min": report.Q_min,
                                           "bound": report.bound,
                                           "fast_path": report.fast_path}}})


def _cmd_compare(cfg: RunConfig, args) -> tuple:
    if args.subject_kappa is not None:
        from .compare import ComparisonCase, run_case

        subject = _build_ball(replace(cfg, kappa=args.subject_kappa, warping=None,
                                      drift=args.subject_drift))
        model = _build_ball(replace(cfg, kappa=args.model_kappa or 0.0, warping=None,
                                    drift=args.model_drift))
        verdicts = [run_case(ComparisonCase(subject, model, args.mode, label="cli-pair"))]
    elif {args.dim, args.radius, args.model_kappa, args.subject_drift, args.model_drift} != {None}:
        raise UsageError("compare takes --dim, --radius and the pair flags only with --subject-kappa")
    else:
        verdicts = run_corpus()
    ok = sum(1 for v in verdicts if v.premises_hold and v.conclusion_holds)
    fails = [v.label for v in verdicts if not v.premises_hold]
    code = EXIT_PREMISE if fails else EXIT_SOLVER if ok < len(verdicts) else EXIT_OK
    rows = [(v.label, v.premises_hold, v.lambda_subject, v.lambda_model, v.margin,
             v.conclusion_holds) for v in verdicts]
    return (code, f"compare: {ok}/{len(verdicts)} cases verified; premise failures: "
                  f"{fails if fails else 'none'}",
            {"csv": (("case_id", "premises", "lambda_subject", "lambda_model", "margin",
                      "conclusion"), rows),
             "json": [asdict(v) for v in verdicts]})


def _cmd_riccati(cfg: RunConfig, args) -> tuple:
    result = riccati_uniqueness(_build_ball(cfg), tol=1e-6)
    return (EXIT_OK, f"riccati: sup_error = {result.sup_error:.6e}",
            {"csv": (("t", "h_recovered"), zip(result.t, result.h_recovered))})


_AXIS_PARAMS = ("kappa", "radius", "dim", "drift_scale")


def _cmd_sweep(cfg: RunConfig, args) -> tuple:
    if args.workers < 1:  # accepted for compatibility; sweep runs serially
        raise UsageError(f"--workers must be an integer >= 1, got {args.workers}")
    axes = []
    for spec in args.axis:
        if "=" not in spec:
            raise UsageError(f"axis spec {spec!r} must look like name=v1,v2")
        name, _, values = spec.partition("=")
        name = name.strip()
        if name not in _AXIS_PARAMS:
            raise UsageError(f"unknown sweep axis {name!r}; choose from {_AXIS_PARAMS}")
        try:
            vals = [float(v) for v in values.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise UsageError(f"bad axis values in {spec!r}") from exc
        if not vals:
            raise UsageError(f"axis {name!r} has no values")
        if name == "dim" and not all(v.is_integer() for v in vals):
            raise UsageError(f"dimension values must be integers in {spec!r}")
        axes.append((name, vals))
    if not axes:
        raise UsageError("sweep requires at least one --axis")
    names = [n for n, _ in axes]
    if "kappa" in names and cfg.warping:
        raise UsageError("a kappa axis sets the space form; it cannot sweep a --warping ball")
    points = [[]]
    for _, vals in axes:
        points = [p + [v] for p in points for v in vals]

    balls = []  # every point's ball, before the first solve
    for values in points:
        point = replace(cfg, **{n: int(v) if n == "dim" else v for n, v in zip(names, values)})
        try:
            balls.append(_build_ball(point))
        except UsageError as exc:
            where = ", ".join(f"{n}={v:.12g}" for n, v in zip(names, values))
            raise UsageError(f"sweep point {where}: {exc}") from exc
    rows = []
    for values, ball in zip(points, balls):
        try:
            lam, status = radial_mod.principal_eigenpair(ball, tol=cfg.tol_1d(),
                                                         n_t=cfg.n_t_1d()).lam, "ok"
        except SolverError as exc:
            lam, status = "", f"error: {exc}"
        rows.append([*values, lam, status])
    columns = names + ["lambda", "status"]
    line = f"sweep: {len(points)} configurations over axes {names}"
    if not cfg.output:  # the table follows the header on stdout
        line += "\n" + _csv(columns, rows)[:-1]
    return EXIT_OK, line, {"csv": (columns, rows)}


# subcommand -> (handler, artifact formats it writes)
_COMMANDS = {
    "spectrum": (_cmd_spectrum, ("csv", "json")),
    "principal": (_cmd_principal, ("csv", "json")),
    "disk2d": (_cmd_disk2d, ("csv", "json")),
    "bounds": (_cmd_bounds, ("csv", "json")),
    "compare": (_cmd_compare, ("csv", "json")),
    "riccati": (_cmd_riccati, ("csv",)),
    "sweep": (_cmd_sweep, ("csv",)),
}


# -- argument handling --------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, problem: bool = True):
    """Shared flags; `compare` takes only those it reads (problem=False)."""
    p.add_argument("--config", help="plain-text config file (key=value sections)")
    p.add_argument("--dim", type=int, help="ball dimension m >= 2")
    p.add_argument("--radius", type=float, help="geodesic radius r0")
    if problem:
        p.add_argument("--space-form", dest="kappa", type=float,
                       help="constant curvature kappa of the model")
        p.add_argument("--warping", help="custom warping expression in t")
        p.add_argument("--drift", help="radial drift expression h(t), h(0)=0")
        p.add_argument("--nt", dest="n_t", type=int, help="radial grid cells")
        p.add_argument("--ntheta", dest="n_theta", type=int, help="angular grid cells (2-D)")
        p.add_argument("--tol", type=float, help="solver tolerance")
    p.add_argument("--output", help="artifact file path")
    p.add_argument("--format", choices=("csv", "json"), help="artifact format")


def _make_parser() -> _Parser:
    parser = _Parser(prog="drift-spectra",
                     description="eigenvalues and bounds for drift Laplacians on balls")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        _add_common(p, problem=name != "compare")
        if name == "spectrum":
            p.add_argument("--cutoff", type=float, help="eigenvalue cutoff")
        if name in ("disk2d", "bounds"):
            p.add_argument("--perturbation", help="metric perturbation expression in t, theta")
            p.add_argument("--vtheta", help="angular drift coefficient expression")
        if name == "compare":
            p.add_argument("--subject-kappa", type=float,
                           help="curvature of a single subject ball (else run the corpus)")
            p.add_argument("--model-kappa", type=float, help="curvature of the model ball")
            p.add_argument("--subject-drift", help="subject drift expression h1(t)")
            p.add_argument("--model-drift", help="model drift expression h(t)")
            p.add_argument("--mode", choices=("sectional", "ricci"), default="sectional")
        if name == "sweep":
            p.add_argument("--axis", action="append", default=[],
                           help=f"axis spec name=v1,v2,... with name in {_AXIS_PARAMS}")
            p.add_argument("--workers", type=int, default=1)
    return parser


# config (section, key) -> (RunConfig field, SectionProxy reader); flags override the fields
_CONFIG_KEYS = {
    ("problem", "dimension"): ("dim", "getint"),
    ("problem", "radius"): ("radius", "getfloat"),
    ("problem", "kappa"): ("kappa", "getfloat"),
    ("problem", "warping"): ("warping", "get"),
    ("problem", "drift"): ("drift", "get"),
    ("problem", "perturbation"): ("perturbation", "get"),
    ("problem", "vtheta"): ("vtheta", "get"),
    ("numerics", "n_t"): ("n_t", "getint"),
    ("numerics", "n_theta"): ("n_theta", "getint"),
    ("numerics", "tol"): ("tol", "getfloat"),
    ("numerics", "cutoff"): ("cutoff", "getfloat"),
    ("output", "path"): ("output", "get"),
    ("output", "format"): ("format", "get"),
}


def _load_config_file(path: str) -> dict:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise UsageError(f"malformed config file: {exc}") from exc
    if not read:
        raise UsageError(f"cannot read config file {path!r}")
    out = {}
    try:
        for (section, key), (name, reader) in _CONFIG_KEYS.items():
            if cp.has_section(section) and key in cp[section]:
                out[name] = getattr(cp[section], reader)(key)
    except ValueError as exc:
        raise UsageError(f"malformed config file: {exc}") from exc
    return out


def _merge_config(args: argparse.Namespace) -> RunConfig:
    data = {"command": args.command}
    if getattr(args, "config", None):
        loaded = _load_config_file(args.config)
        if args.command == "compare":  # it reads [output], and dim/radius only for a pair
            reads = {"output", "format"} | ({"dim", "radius"} if args.subject_kappa is not None else set())
            unread = [f"[{section}] {key}" for (section, key), (name, _) in _CONFIG_KEYS.items()
                      if name in loaded and name not in reads]
            if unread:
                raise UsageError(f"compare does not read {', '.join(unread)} from a config file")
        data.update(loaded)
    for key, _ in _CONFIG_KEYS.values():
        val = getattr(args, key, None)
        if val is not None:
            data[key] = val
    defaults = RunConfig(**data)
    if defaults.dim < 2:
        raise UsageError("dimension must be >= 2")
    if defaults.n_t is not None and defaults.n_t < 4:
        raise UsageError(f"radial grid needs n_t >= 4, got {defaults.n_t}")
    if defaults.n_theta is not None and (defaults.n_theta < 8 or defaults.n_theta % 2):
        raise UsageError(f"angular grid needs an even n_theta >= 8, got {defaults.n_theta}")
    if defaults.tol is not None and not defaults.tol > 0.0:
        raise UsageError(f"tolerance must be positive, got {defaults.tol:g}")
    if not (math.isfinite(defaults.cutoff) and defaults.cutoff > 0.0):
        raise UsageError(f"cutoff must be positive and finite, got {defaults.cutoff:g}")
    return defaults


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args)
        handler, formats = _COMMANDS[args.command]
        if cfg.format not in formats:
            raise UsageError(f"{args.command} writes {' or '.join(formats)}, not {cfg.format!r}")
        if cfg.output:
            _check_output(cfg.output)
        code, line, artifacts = handler(cfg, args)
        if cfg.output:
            artifact = artifacts[cfg.format]
            _write_text(cfg.output, _csv(*artifact) if cfg.format == "csv" else _json(artifact))
        print(line)
        return code
    except (UsageError, ExpressionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _OutputError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    except (SolverError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
