"""planeot benchmark: end-to-end and per-layer numbers for the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve-129 --seed 0 --seconds 10 --trace 0

Workloads are described in ``workloads.py``. Each operation is one
``planeot`` command run in this process through ``planeot.cli.main``;
operations run one after another (a closed loop with one client) until
``--seconds`` have passed, and always at least one full round.

``--trace 0`` reports the end-to-end metrics:

* ``wall_norm``: wall seconds per CLI operation divided by the median
  pace sample taken while it ran (``pace.py``: CPU seconds of a fixed
  memory-bound kernel on the same core), as the median over rounds of the
  mean over the round's operations (``solve-129`` alternates two inputs in
  a round). On a shared machine the memory system slows the solves by tens
  of percent for minutes at a time; the pace kernel slows in step, so the
  ratio holds still where raw seconds do not. ``wall_s``, the same median
  of raw seconds, is printed and recorded but not gated;
* ``setup_s``: median, over ``SETUP_PROBES`` fresh processes started half
  before and half after the operations, of the time
  from process start until planeot is imported, the inputs are built or
  read, and ``build_instance`` has run for each of them;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` first runs one untraced round, then traced rounds, and
reports the per-layer metrics (see ``spans.py``) per traced operation, plus
the tracing overhead: traced over untraced median wall seconds.

Every operation's output is checked (``Op.check``); an operation whose
command raises or whose checks fail counts in ``failed``. A traced run also
fails an operation whose cost differs, bit for bit, from the untraced one.
``fail_ratio`` (failed over attempted operations) is printed with the
metrics but is not one of them: it is 0 whenever the program is correct.
BLAS and OpenMP pools are pinned to one thread before numpy is imported;
an untraced run also pins itself to one core, which the pace sampler shares.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A results file with
the environment, every operation and the metrics goes to ``.bench_out/``,
and a traced run also writes its spans there.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, parse_report, prepare  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60

END_TO_END = [
    ("wall_norm", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("cli.main.s", "s/op"),
    ("cli.run_solve.s", "s/op"),
    ("cli.run_validate.s", "s/op"),
    ("validation.run_criteria.s", "s/op"),
    ("presets.build_preset.s", "s/op"),
    ("cost.build_instance.s", "s/op"),
    ("pde.picard_solve.s", "s/op"),
    ("pde.picard_iters", "count/op"),
    ("pde.assemble_coefficients.calls", "count/op"),
    ("pde.assemble_coefficients.s", "s/op"),
    ("pde.linear_elliptic_solve.calls", "count/op"),
    ("pde.linear_elliptic_solve.s", "s/op"),
    ("pde.spilu.s", "s/op"),
    ("pde.bicgstab.s", "s/op"),
    ("pde.spsolve.calls", "count/op"),
    ("pde.spsolve.s", "s/op"),
    ("conditional.quantile.calls", "count/op"),
    ("conditional.quantile.points", "count/op"),
    ("conditional.quantile.s", "s/op"),
    ("conditional.quantile_ds.s", "s/op"),
    ("conditional.quantile_dcond.s", "s/op"),
    ("cost.objective.calls", "count/op"),
    ("cost.objective.s", "s/op"),
    ("cost.apply_perturbation.s", "s/op"),
    ("cost.M_closed_form_residual.s", "s/op"),
    ("cost.M_field.calls", "count/op"),
    ("cost.M_field.s", "s/op"),
    ("pde.hh_residual.calls", "count/op"),
    ("pde.hh_residual.s", "s/op"),
    ("pde.recover_density.calls", "count/op"),
    ("pde.recover_density.s", "s/op"),
    ("oracle.exact_ot.calls", "count/op"),
    ("oracle.exact_ot.s", "s/op"),
    ("oracle.exact_ot.vars", "count/op"),
    ("oracle.linprog.s", "s/op"),
    ("oracle.atomize.s", "s/op"),
    ("oracle.minimize_objective_direct.s", "s/op"),
    ("io.read_density.s", "s/op"),
    ("io.write_field.s", "s/op"),
    ("io.write_density.s", "s/op"),
    ("io.bytes_written", "B/op"),
    ("trace.wall_s", "s/op"),
    ("trace.untraced_wall_s", "s/op"),
    ("trace.overhead", "ratio"),
    ("trace.unaccounted_s", "s/op"),
]


def environment(args, params: dict) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **params,
    }


@contextlib.contextmanager
def pace_sampler(cpu: int, path: str):
    """Run ``pace.py`` on ``cpu`` for the duration of the block."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "pace.py"), str(cpu), path])
    try:
        deadline = time.monotonic() + PROBE_TIMEOUT_S
        while not (os.path.exists(path) and os.path.getsize(path)):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the pace sampler did not start")
            time.sleep(0.05)
        yield
    finally:
        proc.terminate()
        proc.wait(timeout=PROBE_TIMEOUT_S)


def attach_pace(records: list[dict], path: str):
    """Give each operation the median pace sample taken while it ran."""
    with open(path) as fh:
        samples = [tuple(map(float, line.split())) for line in fh if line.strip()]
    for rec in records:
        during = [cpu_s for t, cpu_s in samples if rec["began"] <= t <= rec["ended"]]
        if not during:
            raise RuntimeError(f"no pace sample during operation {rec['op']}")
        rec["pace_s"] = statistics.median(during)
        rec["wall_norm"] = rec["wall_s"] / rec["pace_s"]


def measure_setup(probes: list[str], count: int) -> list[float]:
    """Seconds from starting a fresh process until its instances are built."""
    script = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, script, *probes],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return times


class Runner:
    """Runs operations of one workload and keeps one record per operation."""

    def __init__(self, main, tracer, workdir: str):
        self.main = main
        self.tracer = tracer
        self.workdir = workdir
        self.records: list[dict] = []
        self.rounds = 0

    def run_op(self, op, traced: bool):
        k = len(self.records)
        out = os.path.join(self.workdir, f"op{k}")
        argv = [*op.argv, "--out", out]
        captured = io.StringIO()
        rc, error = None, None
        began = time.monotonic()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                if traced:
                    rc = self.tracer.run(k, self.main, argv)
                else:
                    rc = self.main(argv)
        except Exception:  # an operation that raises is a failed operation
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        ended = time.monotonic()
        shutil.rmtree(out, ignore_errors=True)
        report = captured.getvalue()
        failed = ["exception"] if error else op.check(rc, report)
        pairs = parse_report(report)[0]
        cost = pairs.get("cost")
        rec = {"op": k, "round": self.rounds, "label": op.label, "traced": traced, "wall_s": wall,
               "began": began, "ended": ended, "rc": rc, "cost": cost, "iterations": pairs.get("iterations"), "failed_checks": failed}
        if error:
            sys.stderr.write(error)
        self.records.append(rec)
        print(f"op {k} {op.label} traced={int(traced)} wall_s={wall!r} rc={rc} cost={cost} "
              f"checks={'ok' if not failed else ','.join(failed)}")

    def run_rounds(self, ops, seconds: float, traced: bool):
        start = time.perf_counter()
        first = self.rounds
        while self.rounds == first or time.perf_counter() - start < seconds:
            for op in ops:
                self.run_op(op, traced)
            self.rounds += 1

    def per_round(self, key: str, traced: bool) -> list[float]:
        """Mean of ``key`` over the operations of each round."""
        values: dict[int, list[float]] = {}
        for r in self.records:
            if r["traced"] == traced:
                values.setdefault(r["round"], []).append(r[key])
        return [statistics.fmean(v) for v in values.values()]


def layer_metrics(tracer, runner: Runner) -> dict:
    traced = [r for r in runner.records if r["traced"]]
    untraced = [r for r in runner.records if not r["traced"]]
    totals = tracer.layer_totals([r["op"] for r in traced])
    n = len(traced)
    values = {name: totals.get(name, 0.0) / n for name, _ in PER_LAYER}
    self_sum = sum(v for k, v in totals.items() if k.endswith(".s"))
    values["trace.wall_s"] = statistics.median(runner.per_round("wall_s", traced=True))
    values["trace.untraced_wall_s"] = statistics.median(runner.per_round("wall_s", traced=False))
    values["trace.overhead"] = values["trace.wall_s"] / values["trace.untraced_wall_s"]
    values["trace.unaccounted_s"] = (sum(r["wall_s"] for r in traced) - self_sum) / n
    # the same command must give the same cost with and without wrappers
    baseline = {r["label"]: r["cost"] for r in untraced}
    for r in traced:
        r["layers"] = tracer.layer_totals([r["op"]])
        if r["cost"] != baseline.get(r["label"]):
            r["failed_checks"].append("traced_cost_differs")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "planeot")):
        sys.stderr.write(f"error: no planeot sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    from planeot.cli import main as planeot_main

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}\n")
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops, probes, params = prepare(args.workload, args.seed, workdir)
        env = environment(args, params)
        print("env " + json.dumps(env, sort_keys=True))
        tracer = Tracer()
        runner = Runner(planeot_main, tracer, workdir)
        extra = {}
        if args.trace:
            runner.run_rounds(ops, 0.0, traced=False)
            tracer.install()
            try:
                runner.run_rounds(ops, args.seconds, traced=True)
            finally:
                tracer.uninstall()
            values, units = layer_metrics(tracer, runner), dict(PER_LAYER)
            tracer.dump(os.path.join(OUT, f"spans-{tag}.jsonl"))
        else:
            # the operations and the pace sampler share one core
            cpu = min(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpu})
            extra["cpu"] = cpu
            # probes before and after the operations sample the machine at
            # different moments, so a slow spell moves fewer of them
            setup = measure_setup(probes, SETUP_PROBES // 2)
            pace_path = os.path.join(workdir, "pace.txt")
            with pace_sampler(cpu, pace_path):
                runner.run_rounds(ops, args.seconds, traced=False)
            attach_pace(runner.records, pace_path)
            setup += measure_setup(probes, SETUP_PROBES - SETUP_PROBES // 2)
            extra["setup_s_samples"] = setup
            walls = runner.per_round("wall_s", traced=False)
            values = {
                "wall_norm": statistics.median(runner.per_round("wall_norm", traced=False)),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            print(f"wall_s = {statistics.median(walls)!r} s (median of {len(walls)} rounds, "
                  f"{len(runner.records)} operations; recorded, not gated)")
            print(f"setup_s samples={setup!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if r["failed_checks"])
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"fail_ratio = {failed / attempted!r} ({failed} of {attempted} operations)")
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"env": env, **extra, "ops": runner.records, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
