"""Tests of the benchmark itself: run with ``python -m pytest bench``.

The traced runs take a few minutes: one traced and one untraced round of
every workload, including a 257 x 257 solve.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

PDE = [
    "pde.linear_elliptic_solve.calls",
    "pde.linear_elliptic_solve.s",
    "pde.spilu.s",
    "pde.bicgstab.s",
    "pde.picard_iters",
    "pde.assemble_coefficients.calls",
    "pde.assemble_coefficients.s",
]
QUANTILE = [
    "conditional.quantile.calls",
    "conditional.quantile.points",
    "conditional.quantile.s",
    "conditional.quantile_ds.s",
    "conditional.quantile_dcond.s",
]
SETUP = ["presets.build_preset.s", "cost.build_instance.s"]
AFTER_SOLVE = [
    "cost.M_field.calls",
    "cost.M_field.s",
    "pde.hh_residual.calls",
    "pde.hh_residual.s",
    "pde.recover_density.calls",
    "pde.recover_density.s",
]
GRID_IO = ["io.write_field.s", "io.write_density.s", "io.bytes_written"]
ORACLE = [
    "oracle.exact_ot.calls",
    "oracle.exact_ot.s",
    "oracle.exact_ot.vars",
    "oracle.linprog.s",
    "oracle.atomize.s",
    "oracle.minimize_objective_direct.s",
]
OBJECTIVE = [
    "cost.objective.calls",
    "cost.objective.s",
    "cost.apply_perturbation.s",
    "cost.M_closed_form_residual.s",
]

# Per-layer metrics that must be non-zero on each workload.
NONZERO = {
    "solve-129": PDE + QUANTILE + SETUP + AFTER_SOLVE + GRID_IO + ["io.read_density.s", "cli.run_solve.s"],
    "solve-257": PDE + QUANTILE + SETUP + AFTER_SOLVE + GRID_IO + ["cli.run_solve.s"],
    # the manufactured-solutions criterion falls back to spsolve once
    "validate": PDE + QUANTILE + SETUP + ORACLE + OBJECTIVE + ["pde.spsolve.calls", "cli.run_validate.s"],
}


def _run(root, workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return proc


@pytest.fixture(scope="module")
def traced():
    """Result JSON and results file of one traced run per workload."""
    out = {}
    for name in workloads.WORKLOADS:
        proc = _run(ROOT, name, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(run.OUT, f"result-{name}-seed0-trace1.json")) as fh:
            out[name] = (result, json.load(fh))
    return out


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_named_layers_nonzero(traced, name):
    result, _ = traced[name]
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m for m, _ in run.PER_LAYER}
    zero = [m for m in NONZERO[name] if not metrics[m]["value"] > 0]
    assert not zero
    if name != "validate":
        assert all(metrics[m]["value"] == 0 for m in ORACLE)


@pytest.mark.parametrize("name", ["solve-129", "solve-257"])
def test_one_linear_solve_per_picard_iteration(traced, name):
    _, record = traced[name]
    ops = [op for op in record["ops"] if op["traced"]]
    assert ops
    for op in ops:
        layers = op["layers"]
        assert layers["pde.picard_solve.calls"] == 1
        assert layers["pde.linear_elliptic_solve.calls"] == layers["pde.picard_iters"]


@pytest.mark.parametrize("name", ["solve-129", "solve-257"])
def test_traced_cost_bit_identical(traced, name):
    _, record = traced[name]
    costs = {}
    for op in record["ops"]:
        costs.setdefault(op["label"], set()).add(op["cost"])
    assert costs and all(len(c) == 1 and None not in c for c in costs.values())


def test_self_times_account_for_wall(traced):
    for name, (result, _) in traced.items():
        m = result["metrics"]
        assert abs(m["trace.unaccounted_s"]["value"]) < 1e-3 * m["trace.wall_s"]["value"], name


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "solve-129", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_random_inputs_follow_the_seed():
    a = workloads.smooth_density(np.random.default_rng(5), 17)
    b = workloads.smooth_density(np.random.default_rng(5), 17)
    c = workloads.smooth_density(np.random.default_rng(6), 17)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert a.min() == pytest.approx(workloads.FLOOR) and a.max() == pytest.approx(workloads.FLOOR + 1.0)


def test_output_checks_reject_bad_reports():
    op = workloads.Op("x", [], "solve", {"lower": 2.0, "upper": 2.1, "slack": 1e-4, "split": True})
    good = "converged = true\ncost = 2.01\n"
    assert op.check(0, good) == []
    assert op.check(2, good) == ["exit_code"]
    assert op.check(0, "converged = false\ncost = 2.01\n") == ["converged"]
    assert op.check(0, "converged = true\ncost = 1.99\n") == ["cost_lower_bound"]
    assert op.check(0, "converged = true\ncost = 2.2\n") == ["cost_upper_bound", "cost_split_sum"]
    rows = [f"{k} | {'FAIL' if k in workloads.VALIDATE_FAILS else 'PASS'} | d" for k in
            ["a", "b", "c", "d", "e", "f", "g", "h", *sorted(workloads.VALIDATE_FAILS)]]
    val = workloads.Op("v", [], "validate")
    assert val.check(1, "\n".join(rows)) == []
    assert val.check(1, "\n".join(rows).replace("a | PASS", "a | FAIL")) == ["criterion:a"]
    assert val.check(1, "\n".join(rows[1:])) == ["criteria_count"]
