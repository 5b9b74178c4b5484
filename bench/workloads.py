"""The benchmark's workloads: seeded inputs, the CLI commands, output checks.

Each operation is one ``planeot`` CLI command. A workload is a list of
operations run back to back as one round; a run repeats rounds.

Why each workload and input:

* ``solve-129`` alternates ``planeot solve`` on the ``product-gauss`` preset
  and on a seeded random smooth pair, both at 129 x 129, the grid size users
  run; a round is the two solves. The linear Dirichlet solve takes most of
  the Picard time and coefficient assembly about a third. The random pair
  is passed as two
  density files on [0, 1]^2, so ``io.read_density`` and the shifted-cost path
  (``cost_pq``) run too.
* ``solve-257`` is ``planeot solve`` on ``product-gauss`` at 257 x 257. There
  the O(n^3) profile matrix of ``ConditionalQuantile`` makes assembly as large
  as the linear solve, peak memory reaches about 500 MB, and the
  recomputation after the solve plus the grid dumps are a visible share. It
  uses the preset because a random pair at 257 takes about twice as long.
* ``validate`` is ``planeot validate`` with 24 oracle atoms: the cross-check
  path, dominated by the exact LP oracle and the objective calls of the
  stationarity criterion. The PDE layers take under a fifth of it, so a PDE
  change should leave it flat. 24 atoms give the same PASS/FAIL table as the
  default 32 in about a third of the time.

The random pair is ``FLOOR + normalized(1 + sum a_kl cos(k pi x) cos(l pi y))``
over k, l <= 2 without (0, 0), with ``a_kl ~ U(-1, 1)`` drawn from the seed
and ``normalized`` mapping the sum onto [0, 1]. With floor 0.5 every seed
tried converged in 12 to 15 Picard iterations at 65 x 65.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

GRID_SOLVE_129 = 129
GRID_SOLVE_257 = 257
ORACLE_ATOMS = 24
FLOOR = 0.5

# The discrete optimum may sit below the 1D lower bound or above the product
# coupling by a discretization error: 0.86 h^2 below it on product-gauss at 33.
BOUND_SLACK_H2 = 2.0
# product-gauss factorizes, so its cost is the sum of the two 1D costs.
SPLIT_TOL = 0.01

VALIDATE_CRITERIA = 11
# The three strict xfails of the acceptance suite; every other criterion passes.
VALIDATE_FAILS = frozenset({"product-gauss-recovery", "residual-refinement", "closed-form-m"})


@dataclass
class Op:
    """One CLI command and the checks its output must pass."""

    label: str
    argv: list[str]
    kind: str  # "solve" or "validate"
    bounds: dict = field(default_factory=dict)

    def check(self, rc: int, report: str) -> list[str]:
        """Names of the output checks that fail; empty when all pass."""
        pairs, rows = parse_report(report)
        if self.kind == "validate":
            return _check_validate(rows)
        failed = []
        if rc != 0:
            failed.append("exit_code")
        if pairs.get("converged") != "true":
            failed.append("converged")
        try:
            cost = float(pairs["cost"])
        except (KeyError, ValueError):
            return failed + ["cost"]
        b = self.bounds
        if not cost >= b["lower"] - b["slack"]:
            failed.append("cost_lower_bound")
        if not cost <= b["upper"] + b["slack"]:
            failed.append("cost_upper_bound")
        if b.get("split") and not abs(cost - b["lower"]) <= SPLIT_TOL * b["lower"]:
            failed.append("cost_split_sum")
        return failed


def _check_validate(rows: list[tuple[str, str]]) -> list[str]:
    failed = []
    if len(rows) != VALIDATE_CRITERIA:
        failed.append("criteria_count")
    for key, status in rows:
        want = "FAIL" if key in VALIDATE_FAILS else "PASS"
        if status != want:
            failed.append(f"criterion:{key}")
    return failed


def parse_report(text: str) -> tuple[dict, list[tuple[str, str]]]:
    """``key = value`` pairs and ``key | status | detail`` rows of a report."""
    pairs, rows = {}, []
    for line in text.splitlines():
        if " | " in line:
            cells = line.split(" | ")
            rows.append((cells[0], cells[1]))
        elif " = " in line:
            key, _, value = line.partition(" = ")
            pairs[key] = value
    return pairs, rows


def smooth_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """One seeded density of the random family on an n x n grid of [0, 1]^2."""
    x = np.linspace(0.0, 1.0, n)
    g = np.ones((n, n))
    for k in range(3):
        for l in range(3):
            if k or l:
                g += rng.uniform(-1.0, 1.0) * np.outer(np.cos(k * math.pi * x), np.cos(l * math.pi * x))
    return FLOOR + (g - g.min()) / (g.max() - g.min())


def write_density_file(path: str, values: np.ndarray):
    """Write a density on [0, 1]^2 in the ``mk-density`` grid file format."""
    nx, ny = values.shape
    with open(path, "w") as fh:
        fh.write(f"# mk-density nx={nx} ny={ny} xlo=0.0 xhi=1.0 ylo=0.0 yhi=1.0\n")
        for j in range(ny):
            fh.write(" ".join(repr(float(v)) for v in values[:, j]) + "\n")


def _solve_bounds(f, f_tilde, split: bool) -> dict:
    """1D lower bound and product-coupling upper bound on the optimal cost."""
    from planeot.cost import build_instance, krw_1d_distance, objective, product_candidate

    inst = build_instance(f, f_tilde)
    lower = krw_1d_distance(inst.f1, inst.f1_tilde) ** 2 + krw_1d_distance(inst.f2, inst.f2_tilde) ** 2
    upper = objective(inst, product_candidate(inst))
    h = max(inst.f.gx.h, inst.f.gy.h, inst.f_tilde.gx.h, inst.f_tilde.gy.h)
    return {"lower": lower, "upper": upper, "slack": BOUND_SLACK_H2 * h * h, "split": split}


def _preset_solve(n: int) -> Op:
    from planeot.presets import build_preset

    argv = ["solve", "--preset", "product-gauss", "--nx", str(n), "--ny", str(n)]
    return Op(f"product-gauss-{n}", argv, "solve", _solve_bounds(*build_preset("product-gauss", n, n), split=True))


def _random_solve(n: int, seed: int, workdir: str) -> Op:
    from planeot.grids import Density2D, Grid1D

    rng = np.random.default_rng(seed)
    p, q = smooth_density(rng, n), smooth_density(rng, n)
    p_path, q_path = os.path.join(workdir, "p.dat"), os.path.join(workdir, "q.dat")
    write_density_file(p_path, p)
    write_density_file(q_path, q)
    unit, shifted = Grid1D(0.0, 1.0, n), Grid1D(1.0, 2.0, n)
    bounds = _solve_bounds(Density2D(unit, unit, p), Density2D(shifted, shifted, q), split=False)
    argv = ["solve", "--density-p", p_path, "--density-q", q_path, "--nx", str(n), "--ny", str(n)]
    return Op(f"random-{n}", argv, "solve", bounds)


def prepare(name: str, seed: int, workdir: str) -> tuple[list[Op], list[str], dict]:
    """Inputs of one workload: its round of operations, set-up probe specs, parameters.

    Probe specs name what a fresh process loads before it can solve:
    ``preset:<name>:<n>`` or ``files:<p path>:<q path>``.
    """
    if name == "solve-129":
        n = GRID_SOLVE_129
        ops = [_preset_solve(n), _random_solve(n, seed, workdir)]
        probes = [f"preset:product-gauss:{n}", f"files:{ops[1].argv[2]}:{ops[1].argv[4]}"]
        return ops, probes, {"grid": n, "floor": FLOOR}
    if name == "solve-257":
        n = GRID_SOLVE_257
        return [_preset_solve(n)], [f"preset:product-gauss:{n}"], {"grid": n}
    if name == "validate":
        # "--preset" is required by the config parser, though validate ignores it
        argv = ["validate", "--preset", "uniform", "--oracle-atoms", str(ORACLE_ATOMS), "--seed", str(seed)]
        probes = [f"preset:{p}:{n}" for n in (33, 65) for p in ("uniform", "product-gauss", "bilinear")]
        return [Op("validate", argv, "validate")], probes, {"oracle_atoms": ORACLE_ATOMS, "grids": [33, 65, 129]}
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("solve-129", "solve-257", "validate")
