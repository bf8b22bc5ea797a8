"""Command-line front end.

Subcommands
-----------
spectrum   all model eigenvalues up to a cutoff, with multiplicities (CSV)
principal  ground eigenvalue of a model ball (1-D solver)
disk2d     ground pair of a 2-D disk (model + perturbation + angular drift)
bounds     Barta bracket and integral min-max bound for a disk problem
compare    run the built-in comparison corpus (or a single pair) and report
riccati    drift recovery through the equality-case Riccati flow
sweep      cartesian parameter sweeps of `principal` with persistence

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
All floating point output is fixed at 12 significant digits; solvers are
deterministic, so re-running a config byte-reproduces its artifacts.  Exit
codes: 0 success, 1 solver failure, 2 premise failure in `compare`, 64
usage error, 73 unwritable output path.  `sweep` runs its points serially:
`--workers N` is still accepted (an integer >= 1, else exit 64) but changes
neither its output nor its speed.
"""

from __future__ import annotations

import argparse
import configparser
import importlib
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import radial as radial_mod
from .compare import riccati_uniqueness, run_corpus, verdicts_to_csv, verdicts_to_json
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
_LAZY_2D = {"build_model_disk": "disk", "eigenpair_csv": "disk",
            "operator_action": "disk", "solve_principal": "disk",
            "barta_bracket": "bounds", "holland_bound": "bounds",
            "solve_G_V": "bounds"}


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
        return self.tol if self.tol is not None else 1e-8

    def tol_2d(self) -> float:
        return self.tol if self.tol is not None else 1e-6


def _build_ball(cfg: RunConfig) -> ModelBall:
    if cfg.warping:
        spec = cfg.warping.strip()
        if spec.startswith("space_form"):
            try:
                kappa = float(spec.split()[1])
            except (IndexError, ValueError) as exc:
                raise UsageError(f"bad warping spec {spec!r}") from exc
            rho = make_space_form(kappa)
        else:
            expr = parse_expression(spec)
            if expr.depends_on("theta"):
                raise UsageError("warping expressions may only involve t")
            d1 = expr.diff("t")
            d2 = d1.diff("t")
            try:
                rho = custom_warping(expr, d1, d2, t_max=cfg.radius * 1.5)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
    else:
        rho = make_space_form(cfg.kappa if cfg.kappa is not None else 0.0)
    if cfg.drift and cfg.drift.strip() not in ("0", "0.0"):
        spec = cfg.drift.strip()
        scale = cfg.drift_scale
        if spec.startswith("poly"):
            try:
                coeffs = [scale * float(v) for v in spec.split()[1:]]
            except ValueError as exc:
                raise UsageError(f"bad drift coefficients in {spec!r}") from exc
            if not coeffs:
                raise UsageError("poly drift needs at least one coefficient")
            drift = polynomial_drift(coeffs)
        else:
            h_expr = parse_expression(spec)
            if h_expr.depends_on("theta"):
                raise UsageError("model drifts may only involve t")
            hp_expr = h_expr.diff("t")
            drift = drift_from_rate(
                h=lambda t: scale * np.asarray(h_expr(t), dtype=float),
                h_prime=lambda t: scale * np.asarray(hp_expr(t), dtype=float),
                t_max=cfg.radius * 1.05)
    else:
        drift = zero_drift()
    try:
        return ModelBall(m=cfg.dim, r0=cfg.radius, rho=rho, drift=drift)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_text(path: str, text: str):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutputError(str(exc)) from exc


class _OutputError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# -- subcommands -------------------------------------------------------------

def _cmd_spectrum(cfg: RunConfig) -> int:
    ball = _build_ball(cfg)
    table = radial_mod.assemble_spectrum(ball, cfg.cutoff, tol=cfg.tol_1d(),
                                         n_t=cfg.n_t_1d())
    if cfg.format == "json":
        payload = [{"lambda": e.lam, "k": e.k, "i": e.i, "multiplicity": e.multiplicity}
                   for e in table.entries]
        text = json.dumps({"cutoff": table.lambda_cutoff, "entries": payload},
                          sort_keys=True, indent=2) + "\n"
    else:
        text = table.to_csv()
    if cfg.output:
        _write_text(cfg.output, text)
    lams = ", ".join(_fmt(e.lam) for e in table.entries[:6])
    print(f"spectrum: {len(table.entries)} eigenvalues <= {_fmt(cfg.cutoff)}: {lams}")
    return EXIT_OK


def _cmd_principal(cfg: RunConfig) -> int:
    ball = _build_ball(cfg)
    mode = radial_mod.principal_eigenpair(ball, tol=cfg.tol_1d(), n_t=cfg.n_t_1d())
    if cfg.output:
        if cfg.format == "json":
            text = json.dumps({"lambda": mode.lam, "k": 0, "i": 1,
                               "n_t": cfg.n_t_1d()}, sort_keys=True) + "\n"
        else:
            lines = ["t,a"] + [f"{tj:.12g},{aj:.12g}" for tj, aj in zip(mode.t, mode.a)]
            text = "\n".join(lines) + "\n"
        _write_text(cfg.output, text)
    print(f"principal: lambda = {_fmt(mode.lam)}")
    return EXIT_OK


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


def _cmd_disk2d(cfg: RunConfig) -> int:
    from .disk import eigenpair_csv, eigenpair_json, solve_principal

    problem = _disk_problem(cfg)
    pair, _ = solve_principal(problem, tol=cfg.tol_2d())
    if cfg.output:
        if cfg.format == "json":
            text = eigenpair_json(problem, pair)
        else:
            text = eigenpair_csv(problem, pair)
        _write_text(cfg.output, text)
    print(f"disk2d: lambda = {_fmt(pair.lam)} residual = {pair.residual:.3e} "
          f"iterations = {pair.iterations}")
    return EXIT_OK


def _cmd_bounds(cfg: RunConfig) -> int:
    from .bounds import barta_bracket, holland_bound, solve_G_V
    from .disk import operator_action, solve_principal

    problem = _disk_problem(cfg)
    pair, A = solve_principal(problem, tol=cfg.tol_2d())
    bracket = barta_bracket(operator_action(A, problem.J.shape), pair.omega)
    G, _ = solve_G_V(problem, pair.omega)
    u_opt = pair.omega * np.sqrt(G)
    report = holland_bound(problem, u_opt, tol=cfg.tol_2d(), A=A)
    payload = {"lambda": pair.lam, "barta": bracket.to_dict(),
               "min_max_integral": report.to_dict()}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if cfg.output:
        if cfg.format == "csv":
            text = ("lambda,barta_lower,barta_upper,bound\n"
                    f"{_fmt(pair.lam)},{_fmt(bracket.lower)},{_fmt(bracket.upper)},"
                    f"{_fmt(report.bound)}\n")
        _write_text(cfg.output, text)
    print(f"bounds: lambda = {_fmt(pair.lam)} bracket = "
          f"[{_fmt(bracket.lower)}, {_fmt(bracket.upper)}] "
          f"integral bound = {_fmt(report.bound)}")
    return EXIT_OK


def _cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> int:
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
    text = verdicts_to_json(verdicts) if cfg.format == "json" else verdicts_to_csv(verdicts)
    if cfg.output:
        _write_text(cfg.output, text)
    ok = sum(1 for v in verdicts if v.premises_hold and v.conclusion_holds)
    fails = [v.label for v in verdicts if not v.premises_hold]
    print(f"compare: {ok}/{len(verdicts)} cases verified; premise failures: "
          f"{fails if fails else 'none'}")
    if fails:
        return EXIT_PREMISE
    if any(v.premises_hold and not v.conclusion_holds for v in verdicts):
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_riccati(cfg: RunConfig) -> int:
    ball = _build_ball(cfg)
    result = riccati_uniqueness(ball, tol=1e-6)
    if cfg.output:
        lines = ["t,h_recovered"] + [f"{tj:.12g},{hj:.12g}"
                                     for tj, hj in zip(result.t, result.h_recovered)]
        _write_text(cfg.output, "\n".join(lines) + "\n")
    print(f"riccati: sup_error = {result.sup_error:.6e}")
    return EXIT_OK


_AXIS_PARAMS = ("kappa", "radius", "dim", "drift_scale")


def _cmd_sweep(axes: list, base: RunConfig) -> int:
    if not axes:
        raise UsageError("sweep requires at least one --axis")
    names = [n for n, _ in axes]
    grids = [v for _, v in axes]
    points = [[]]
    for vals in grids:
        points = [p + [v] for p in points for v in vals]
    print(f"sweep: {len(points)} configurations over axes {names}")

    def run_point(values):
        cfg = base
        for name, val in zip(names, values):
            if name == "dim":
                cfg = replace(cfg, dim=int(val))
            else:
                cfg = replace(cfg, **{name: float(val)})
        try:
            ball = _build_ball(cfg)
            mode = radial_mod.principal_eigenpair(ball, tol=cfg.tol_1d(),
                                                  n_t=cfg.n_t_1d())
            return _fmt(mode.lam), "ok"
        except (SolverError, UsageError, ValueError, ExpressionError) as exc:
            return "", f"error: {exc}"

    results = [run_point(p) for p in points]

    lines = [",".join(names + ["lambda", "status"])]
    for values, (lam, status) in zip(points, results):
        lines.append(",".join([_fmt(v) if isinstance(v, float) else str(v)
                               for v in values] + [lam, status]))
    text = "\n".join(lines) + "\n"
    if base.output:
        _write_text(base.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


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
    for name in ("spectrum", "principal", "disk2d", "bounds", "compare", "riccati"):
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
    p = sub.add_parser("sweep")
    _add_common(p)
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
    read = cp.read(path)
    if not read:
        raise UsageError(f"cannot read config file {path!r}")
    out = {}
    try:
        for (section, key), (name, reader) in _CONFIG_KEYS.items():
            if cp.has_section(section) and key in cp[section]:
                out[name] = getattr(cp[section], reader)(key)
    except ValueError as exc:
        raise UsageError(f"malformed config file: {exc}") from exc
    if out.get("format", "csv") not in ("csv", "json"):
        raise UsageError(f"unknown output format {out['format']!r}")
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


def _parse_axes(specs) -> list:
    axes = []
    for spec in specs:
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
    return axes


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            base = _merge_config(args)
            if args.workers < 1:  # accepted for compatibility; sweep runs serially
                raise UsageError(f"--workers must be an integer >= 1, got {args.workers}")
            return _cmd_sweep(_parse_axes(args.axis), base)
        cfg = _merge_config(args)
        if args.command == "compare":
            return _cmd_compare(cfg, args)
        handler = {
            "spectrum": _cmd_spectrum,
            "principal": _cmd_principal,
            "disk2d": _cmd_disk2d,
            "bounds": _cmd_bounds,
            "riccati": _cmd_riccati,
        }[args.command]
        return handler(cfg)
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
