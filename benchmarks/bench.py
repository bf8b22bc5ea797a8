"""driftspectra benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 benchmarks/bench.py --workload ball-sweep --seed 1 --seconds 25 --trace 0

`--trace 0` runs the workload for `--seconds` with no instrumentation and
prints the end-to-end metrics; `--trace 1` runs a fixed number of rounds
with every layer wrapped, next to an untraced child run of the same rounds,
and prints the per-layer metrics.  The last line of standard output is one
JSON object; the full record (timings, accuracy witnesses, machine facts,
spans) is written to `benchmarks/records/`.  `--workload all` runs the three
workloads one after another and prints the combined table.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RECORDS = BENCH_DIR / "records"
WORKLOADS = ("ball-sweep", "disk-bounds", "cli-cold")
SETUP_PROBES = 5
# rounds of the traced run (fixed, so counters repeat exactly for one seed)
TRACE_ROUNDS = {"ball-sweep": 6, "disk-bounds": 3, "cli-cold": 3}
# accuracy and the peak RSS of CLI processes are taken over the first rounds
# only, so that they do not depend on how many rounds fit in a run; a 25 s
# run fits 13 or more rounds of ball-sweep and disk-bounds and 3 of cli-cold
SCORED_ROUNDS = {"ball-sweep": 8, "disk-bounds": 8, "cli-cold": 3}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- set-up: import, inputs, warm-up --------------------------------------------

class Setup:
    """Imports the package, seeds the round stream and runs a warm-up op."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        t0 = time.perf_counter()
        import workloads as wl   # imports driftspectra
        self.wl = wl
        self.import_s = time.perf_counter() - t0
        self.rounds = wl.make_rounds(workload, seed, tiny, nproc())
        if workload == "ball-sweep":
            warm = wl.Ball(2, 0.0, 1.0).build()
            warm_op = lambda: wl.radial.principal_eigenpair(warm)
        elif workload == "disk-bounds":
            warm = wl.Disk(0.0, 1.0, 0.5, 0.05, 1, 0.5, *wl.grids(tiny)[0]).build()
            warm_op = lambda: wl.disk.solve_principal(warm)
        else:
            warm_op = lambda: run_command(["principal", "--dim", "2", "--radius", "1"])
        warm_op()
        self.total_s = time.perf_counter() - t0


def run_command(argv: list) -> tuple:
    """Run one `drift-spectra` invocation as a fresh process and wait for it.

    Returns (wall seconds, exit code, stdout, stderr, peak RSS in MiB)."""
    import workloads as wl
    t0 = time.perf_counter()
    proc = subprocess.Popen(wl.cli_command(argv), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=wl.cli_env(str(SRC)), text=True)
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return wall, proc.returncode, out, err, usage.ru_maxrss / 1024.0


def setup_probes(args) -> list:
    """Wall time of fresh interpreters that only do the set-up, one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


# -- operations ---------------------------------------------------------------

def cli_ops(argvs: list, in_process: bool) -> list:
    """Ops that run CLI invocations, as subprocesses or through `cli.main`."""
    import workloads as wl
    ops = []
    for argv in argvs:
        if in_process:
            if "--workers" in argv:
                # one sweep worker, so that spans nest on a single thread
                i = argv.index("--workers")
                argv = argv[:i + 1] + ["1"] + argv[i + 2:]
            ops.append(wl.Op("cli." + argv[0], " ".join(argv),
                             lambda argv=argv: wl.run_in_process(argv),
                             lambda res, argv=argv: wl.check_cli_output(argv, *res)))
        else:
            kind = "cli_1d" if argv[0] in wl.CLI_1D else "cli_2d"
            ops.append(wl.Op(kind, " ".join(argv), lambda argv=argv: run_command(argv),
                             lambda res, argv=argv: wl.check_cli(argv, res[1], res[2], res[3])))
    return ops


def op_rounds(setup: Setup, workload: str, count: int | None, traced_run: bool,
              tiny: bool):
    """The first `count` rounds (all when None), each built when it is drawn;
    the traced run uses in-process CLI calls only."""
    wl = setup.wl
    for i, ops in enumerate(itertools.islice(setup.rounds, count)):
        if workload == "cli-cold":
            ops = cli_ops(ops, in_process=traced_run)
        if workload == "ball-sweep" and i == 0:
            ops = [wl.corpus_op()] + ops
        yield ops
    if traced_run and not tiny:
        # the README invocations through `cli.main`, so every layer is exercised
        yield cli_ops(wl.readme_pass(nproc()), in_process=True)


def trace_rounds(args) -> int:
    return 1 if args.tiny else TRACE_ROUNDS[args.workload]


def run_op(op, op_id: int, tracer=None) -> dict:
    """Time one library call, then check its output outside the timed part."""
    import workloads as wl
    before = dict(tracer.counters) if tracer else None
    err, out = None, None
    t0 = time.perf_counter()
    try:
        if tracer:
            with tracer.span("op." + op.kind, op=op_id):
                out = op.call()
        else:
            out = op.call()
        dt = time.perf_counter() - t0
        values, witness = op.check(out)
    except (wl.CheckFailed, ArithmeticError, LookupError, ValueError,
            RuntimeError, TypeError) as exc:
        dt = time.perf_counter() - t0
        values, witness, err = [], [], f"{type(exc).__name__}: {exc}"
    rec = {"id": op_id, "kind": op.kind, "label": op.label, "seconds": dt,
           "ok": err is None, "values": [float(v) for v in values], "witness": witness}
    if err:
        rec["error"] = err
    if tracer:
        rec["counters"] = {k: v - before.get(k, 0) for k, v in tracer.counters.items()
                           if v != before.get(k, 0)}
    if op.kind in ("cli_1d", "cli_2d"):
        rec["rss_mb"] = out[4] if isinstance(out, tuple) else None
    return rec


def execute(rounds, budget: float | None, tracer=None) -> dict:
    """Run whole rounds, one op at a time in a closed loop, until the ops have
    used `budget` seconds (all rounds when it is None).

    A round's time is the sum of its ops' call times, so the checks and the
    building of inputs do not count; only whole rounds run, so every run has
    the same mix of kinds."""
    samples, round_times = [], []
    for ops in rounds:
        recs = [run_op(op, len(samples) + i, tracer) for i, op in enumerate(ops)]
        for rec in recs:
            rec["round"] = len(round_times)
        samples += recs
        round_times.append(sum(rec["seconds"] for rec in recs))
        if budget is not None and sum(round_times) >= budget:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"ops": samples, "round_s": round_times, "rss_mb": rss_mb}


# -- statistics ---------------------------------------------------------------

def latency_summary(xs: list) -> dict:
    """p50, sample count, and the highest percentile with ten samples beyond it."""
    out = {"n": len(xs), "p50_ms": 1e3 * statistics.median(xs)}
    for q in (99, 95, 90, 75):
        if len(xs) * (100 - q) >= 1000:
            out["tail_pct"] = q
            out["tail_ms"] = 1e3 * statistics.quantiles(xs, n=100, method="inclusive")[q - 1]
            break
    return out


def round_wall_s(round_s: list) -> float:
    """90th percentile of the round times after the first round.

    The first round carries the built-in corpus on ball-sweep and first-use
    costs elsewhere.  The upper percentile, not the median, because on a
    shared machine neighbours going idle speed ops up by a third in bursts
    of 10-20 s; the median follows how much of a run those bursts cover,
    the 90th percentile is set by the rounds outside them."""
    rest = round_s[1:]
    if len(rest) < 2:
        return rest[0] if rest else math.nan
    return statistics.quantiles(rest, n=10, method="inclusive")[-1]


def accuracy_digits(ops: list) -> float:
    errs = [e for op in ops for e in op["witness"]]
    return -math.log10(max(max(errs), 1e-16)) if errs else math.nan


# -- record facts ---------------------------------------------------------------

def machine_facts(seed: int) -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {"nproc": nproc(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_env": {k: os.environ[k] for k in blas_vars if k in os.environ},
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "seed": seed}


def write_record(path: Path, record: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def default_record(args) -> Path:
    tag = "trace" if args.trace else "e2e"
    return RECORDS / f"{args.workload}-seed{args.seed}-{tag}.json"


# -- end-to-end run -------------------------------------------------------------

KIND_LATENCIES = {"ball-sweep": ("principal", "spectrum", "riccati", "compare"),
                  "disk-bounds": ("disk", "adjoint", "bounds"),
                  "cli-cold": ("cli_1d", "cli_2d")}


def peak_rss_mb(workload: str, run: dict, scored: list) -> float:
    if workload == "cli-cold":
        return max((op["rss_mb"] for op in scored if op.get("rss_mb")), default=math.nan)
    return run["rss_mb"]


def end_to_end(args) -> tuple:
    probes = setup_probes(args)
    setup = Setup(args.workload, args.seed, args.tiny)
    rounds = op_rounds(setup, args.workload, 2 if args.tiny else None, False, args.tiny)
    t0 = time.perf_counter()
    run = execute(rounds, None if args.tiny else args.seconds)
    elapsed = time.perf_counter() - t0
    ops = run["ops"]
    good = [op for op in ops if op["ok"]]
    scored = [op for op in good if op["round"] < SCORED_ROUNDS[args.workload]]
    kinds = {}
    for kind in sorted({op["kind"] for op in ops}):
        xs = [op["seconds"] for op in good if op["kind"] == kind]
        if xs:
            kinds[kind] = latency_summary(xs)
    failed = sum(1 for op in ops if not op["ok"])
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "wall_s": (round_wall_s(run["round_s"]), "s"),
        "accuracy_digits": (accuracy_digits(scored), "digits"),
        "peak_rss_mb": (peak_rss_mb(args.workload, run, scored), "MiB"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": 0, "facts": machine_facts(args.seed),
        "setup": {"probe_s": probes, "in_run_import_s": setup.import_s,
                  "in_run_total_s": setup.total_s},
        "elapsed_s": elapsed, "round_s": run["round_s"], "kinds": kinds,
        "attempted": len(ops), "failed": failed,
        "fail_frac": failed / max(1, len(ops)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": ops,
    }
    summary = [(k, v, u) for k, (v, u) in metrics.items()]
    summary.append(("fail_frac", record["fail_frac"], "ratio"))
    for kind in KIND_LATENCIES[args.workload]:
        if kind in kinds:
            summary.append((f"{kind}_ms", kinds[kind]["p50_ms"], "ms"))
    return record, summary


# -- traced run -----------------------------------------------------------------

def _importtime(module: str) -> dict:
    """Cumulative import microseconds per module from `python -X importtime`."""
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                         env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                         text=True, timeout=120, check=True)
    cumulative = {}
    for line in res.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line.split(":", 1)[1].split("|")]
        if parts[0].isdigit():
            cumulative[parts[2]] = int(parts[1])
    return cumulative


def cli_layer(repeats: int) -> dict:
    starts, imports = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        starts.append(time.perf_counter() - t0)
        imports.append(_importtime("driftspectra.cli"))

    def med(mod):
        return statistics.median(imp.get(mod, 0) for imp in imports) / 1e3

    return {"cli.python_startup_ms": (1e3 * statistics.median(starts), "ms"),
            "cli.import_ms": (med("driftspectra.cli"), "ms"),
            "cli.import_scipy_optimize_ms": (med("scipy.optimize"), "ms"),
            "cli.import_scipy_sparse_linalg_ms": (med("scipy.sparse.linalg"), "ms")}


def untraced_child(args) -> dict:
    path = RECORDS / f".untraced-{args.workload}-seed{args.seed}-{os.getpid()}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--trace-pass", "untraced",
           "--record", str(path)] + (["--tiny"] if args.tiny else [])
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=170)
    with open(path) as fh:
        data = json.load(fh)
    path.unlink()
    return data


def same_values(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        len(x["values"]) == len(y["values"])
        and all(f"{u:.12g}" == f"{v:.12g}" for u, v in zip(x["values"], y["values"]))
        for x, y in zip(a, b))


def layer_metrics(tracer, ops: list) -> dict:
    c = tracer.counters
    T = tracer.total

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "radial.principal_s": (T("radial.principal"), "s"),
        "radial.principal.calls": (c["radial.principal.calls"], "count"),
        "radial.spectrum_s": (T("radial.spectrum"), "s"),
        "radial.spectrum.levels": (c["radial.spectrum.levels"], "count"),
        "radial.brentq_s": (T("radial.brentq"), "s"),
        "radial.brentq.calls": (c["radial.brentq.calls"], "count"),
        "radial.brentq.fevals": (c["radial.brentq.fevals"], "count"),
        "radial.brentq.fevals_per_root": (ratio(c["radial.brentq.fevals"],
                                                c["radial.brentq.roots"]), "ratio"),
        "geometry.extra_drift_profile.calls": (c["geometry.extra_drift_profile.calls"], "count"),
        "geometry.extra_drift_profile_s": (c["geometry.extra_drift_profile_s"], "s"),
        "compare.corpus_s": (T("compare.corpus"), "s"),
        "compare.riccati_s": (T("compare.riccati"), "s"),
        "compare.principal.calls": (c["compare.principal.calls"], "count"),
        "compare.distinct_balls": (len(tracer.compare_balls), "count"),
        "compare.solve_reuse": (ratio(len(tracer.compare_balls),
                                      c["compare.principal.calls"]), "ratio"),
        "disk.assemble_s": (T("disk.assemble"), "s"),
        "disk.splu_s": (T("disk.splu"), "s"),
        "disk.splu.calls": (c["disk.splu.calls"], "count"),
        "disk.lu_nnz": (ratio(c["disk.lu_nnz"], c["disk.splu.calls"]), "count"),
        "disk.lu_fill": (ratio(c["disk.lu_nnz"], c["disk.a_nnz"]), "ratio"),
        "disk.lu_solves": (c["disk.lu_solve.calls"], "count"),
        "disk.lu_solve_s": (c["disk.lu_solve_s"], "s"),
        "disk.iterations": (c["disk.iterations"], "count"),
        "disk.restarts": (c["disk.restarts"], "count"),
        "bounds.barta_s": (T("bounds.barta"), "s"),
        "bounds.solve_G_V_s": (T("bounds.solve_G_V"), "s"),
        "bounds.holland_s": (T("bounds.holland"), "s"),
        "bounds.solve_w_u.calls": (c["bounds.solve_w_u.calls"], "count"),
        "bounds.fast_path_ratio": (ratio(c["bounds.holland.fast_path"],
                                         c["bounds.holland.calls"]), "ratio"),
        "bounds.splu_s": (T("bounds.splu"), "s"),
        "bounds.splu.calls": (c["bounds.splu.calls"], "count"),
        "bounds.lu_nnz": (ratio(c["bounds.lu_nnz"], c["bounds.splu.calls"]), "count"),
    }
    for kind in ("principal", "spectrum", "riccati", "compare", "sweep", "disk2d", "bounds"):
        xs = [op["seconds"] for op in ops if op["kind"] == "cli." + kind]
        metrics[f"cli.main.{kind}_ms"] = (1e3 * statistics.mean(xs) if xs else 0.0, "ms")
    return metrics


def traced(args) -> tuple:
    from tracing import Tracer
    n_rounds = trace_rounds(args)
    untraced = untraced_child(args)
    setup = Setup(args.workload, args.seed, args.tiny)
    rounds = op_rounds(setup, args.workload, n_rounds, True, args.tiny)
    tracer = Tracer()
    with tracer.installed(setup.wl.MODULES):
        run = execute(rounds, None, tracer)
    traced_wall = sum(run["round_s"])
    ops = run["ops"]
    failed = sum(1 for op in ops if not op["ok"]) + untraced["failed"]
    identical = same_values(ops, untraced["ops"])
    if not identical:
        failed += 1
    metrics = layer_metrics(tracer, ops)
    metrics.update(cli_layer(1 if args.tiny else 3))
    metrics["trace.overhead_s"] = (traced_wall - untraced["wall_s"], "s")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 1, "rounds": n_rounds,
        "facts": machine_facts(args.seed), "attempted": len(ops) + len(untraced["ops"]),
        "failed": failed, "traced_matches_untraced": identical,
        "traced_wall_s": traced_wall, "untraced_wall_s": untraced["wall_s"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "span_table": tracer.span_table(), "counters": dict(tracer.counters),
        "ops": ops, "untraced_ops": untraced["ops"], "spans": tracer.dump_spans(),
    }
    return record, [(k, v, u) for k, (v, u) in metrics.items()]


def untraced_pass(args):
    """Child of a traced run: the same rounds, uninstrumented."""
    setup = Setup(args.workload, args.seed, args.tiny)
    rounds = op_rounds(setup, args.workload, trace_rounds(args), True, args.tiny)
    run = execute(rounds, None)
    write_record(Path(args.record), {"wall_s": sum(run["round_s"]), "ops": run["ops"],
                                     "failed": sum(1 for op in run["ops"] if not op["ok"])})


# -- entry point ----------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows = []
    for workload in WORKLOADS:
        path = RECORDS / f"{workload}-seed{args.seed}-e2e.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--record", str(path)] + (["--tiny"] if args.tiny else [])
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=900)
        with open(path) as fh:
            rec = json.load(fh)
        rows += [(workload, name, m["value"], m["unit"]) for name, m in rec["metrics"].items()]
        rows.append((workload, "fail_frac", rec["fail_frac"], "ratio"))
        rows += [(workload, f"{kind}_ms", rec["kinds"][kind]["p50_ms"], "ms")
                 for kind in KIND_LATENCIES[workload] if kind in rec["kinds"]]
    for workload, name, value, unit in rows:
        print(f"{workload:12s} {name:18s} {value:14.6g} {unit}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="record path (default benchmarks/records/...)")
    parser.add_argument("--tiny", action="store_true",
                        help="a short run on tiny grids, for the self-tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-pass", choices=("untraced",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "driftspectra" / "__init__.py").is_file():
        print(f"benchmark: no driftspectra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        Setup(args.workload, args.seed, args.tiny)
        return 0
    if args.trace_pass:
        untraced_pass(args)
        return 0

    record, summary = traced(args) if args.trace else end_to_end(args)
    write_record(Path(args.record) if args.record else default_record(args), record)
    for name, value, unit in summary:
        print(f"{name:40s} {value:14.6g} {unit}")
    missing = [k for k, m in record["metrics"].items() if not math.isfinite(m["value"])]
    if missing:
        # too many ops failed to measure anything; the record says which
        print(f"benchmark: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
