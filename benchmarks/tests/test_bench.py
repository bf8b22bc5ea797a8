"""Self-tests of the benchmark: inputs, tiny runs, tracing, limits, contract.

    python3 -m pytest -q benchmarks/tests
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def inputs(workload, seed):
    rounds = list(itertools.islice(wl.make_rounds(workload, seed, True, 2), 2))
    if workload == "cli-cold":
        return rounds
    return [[(op.kind, op.label) for op in ops] for ops in rounds]


def run(tmp_path, *args):
    record = tmp_path / "record.json"
    res = subprocess.run([sys.executable, str(BENCH_DIR / "bench.py"), *args, "--tiny",
                          "--record", str(record)],
                         capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1]), json.loads(record.read_text())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs(workload, 5) == inputs(workload, 5)
    assert inputs(workload, 5) != inputs(workload, 6)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_is_correct(tmp_path, workload):
    result, record = run(tmp_path, "--workload", workload, "--seed", "3", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["fail_frac"] == 0.0
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for m in SPEC["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and value["value"] > 0
    assert all(kind["n"] >= 1 for kind in record["kinds"].values())
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas_env", "git_commit",
            "src_lines", "seed"} <= set(record["facts"])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_matches_untraced(tmp_path, workload):
    result, record = run(tmp_path, "--workload", workload, "--seed", "4", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert record["traced_matches_untraced"]
    assert [op["values"] for op in record["ops"]] == [
        op["values"] for op in record["untraced_ops"]]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert record["spans"] and record["span_table"]


def test_wrappers_are_restored():
    from tracing import Tracer
    before = {name: dict(vars(mod)) for name, mod in wl.MODULES.items()}
    with Tracer().installed(wl.MODULES):
        assert wl.radial.principal_eigenpair is not before["radial"]["principal_eigenpair"]
    for name, mod in wl.MODULES.items():
        for attr, value in before[name].items():
            assert getattr(mod, attr) is value, f"{name}.{attr} not restored"


def test_worker_counts_within_nproc():
    limit = bench.nproc()
    argvs = [a for seed in range(40) for a in next(wl.make_rounds("cli-cold", seed, False, limit))]
    argvs += wl.readme_pass(limit)
    workers = [int(a[a.index("--workers") + 1]) for a in argvs if "--workers" in a]
    assert workers and max(workers) <= limit
    assert "DRIFT_SPECTRA_WORKERS" not in wl.cli_env("src")


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("records", "__pycache__"))
    res = subprocess.run([*SPEC["command"], "--workload", "ball-sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert res.returncode != 0
    assert "{" not in res.stdout


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
