"""Command-line front end: solve, validate, distance1d, oracle.

Configuration comes from an optional JSON file plus flag overrides; the
fully-resolved form is echoed to the output directory so a run can be
reproduced exactly. Exit codes: 0 success, 1 error, 2 a run that stopped
short of a full result (non-convergence, a failed linear solve or density
recovery, or a failed transport LP); it still writes its partial report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import io as gridio
from .conditional import ellipticity_margin
from .cost import (
    build_instance,
    density_moments,
    krw_1d_distance,
    shift_cost_relation,
    transport_map,
)
from .errors import ConfigError, Infeasible, PlaneOTError
from .grids import Density2D, Grid1D, Marginal1D, normalize
from .oracle import SIZE_GUARD, atomize, exact_ot, exact_ot_1d
from .pde import SolverConfig, picard_solve
from .presets import PRESETS, build_preset
from .validation import run_criteria

@dataclass
class RunConfig(SolverConfig):
    """Solver settings plus the inputs, oracle and output of one CLI run."""

    preset: str | None = None
    density_p: str | None = None
    density_q: str | None = None
    oracle: bool = False
    oracle_atoms: int = 32
    out: str = "planeot-out"
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.nx < 9 or self.ny < 9:
            raise ConfigError(f"nx/ny: grid sizes must be at least 9, got {self.nx}x{self.ny}")
        # the LP couples oracle_atoms**2 atoms with as many, so at most 37
        if self.oracle_atoms < 1 or self.oracle_atoms**4 > SIZE_GUARD:
            raise ConfigError(
                f"oracle_atoms: must be at least 1 with oracle_atoms**4 at most "
                f"{SIZE_GUARD}, got {self.oracle_atoms}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed: must be non-negative, got {self.seed}")
        has_files = self.density_p is not None or self.density_q is not None
        if self.preset is not None and has_files:
            raise ConfigError("preset: give either a preset or two density files, not both")
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigError(f"preset: unknown preset {self.preset!r}; choose from {sorted(PRESETS)}")
        for key in ("density_p", "density_q"):
            path = getattr(self, key)
            if path is not None and not os.path.exists(path):
                raise ConfigError(f"{key}: file {path!r} does not exist")


def parse_config(
    config_path: str | None = None, overrides: dict | None = None
) -> tuple[RunConfig, bool]:
    """Resolve a config file plus overrides against the RunConfig defaults.

    Returns the config and whether the file set ``oracle``. Raises
    ConfigError with the offending field named for anything malformed:
    unknown keys, bad types (the preset and density paths take a string
    or null), out-of-range solver settings, grids below the minimum of 9,
    unknown presets, missing density files.
    """
    data = {}
    if config_path is not None:
        if not os.path.exists(config_path):
            raise ConfigError(f"config: file {config_path!r} does not exist")
        try:
            with open(config_path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config: invalid JSON ({e})") from None
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be an object")
    given = {**data, **{k: v for k, v in (overrides or {}).items() if v is not None}}
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for key in given:
        if key not in defaults:
            raise ConfigError(f"{key}: unknown configuration field")
    values = {}
    for key, default in defaults.items():
        val = given.get(key, default)
        if default is None:
            # the preset and the density paths: a string or nothing
            if val is not None and not isinstance(val, str):
                raise ConfigError(f"{key}: expected a string or null, got {val!r}")
        elif (
            # a boolean only where one is due, a number or a string where
            # one is, and no fraction where a whole number is
            isinstance(val, bool) != isinstance(default, bool)
            or not isinstance(val, str if isinstance(default, str) else (int, float))
            or (isinstance(default, int) and not float(val).is_integer())
        ):
            raise ConfigError(f"{key}: expected {type(default).__name__}, got {val!r}")
        else:
            val = type(default)(val)
        values[key] = val
    return RunConfig(**values), "oracle" in data


def _load_instance(cfg: RunConfig):
    """Build the instance; returns (instance, normalized Q or None).

    A second density on the unit square is read as the unshifted target
    law Q and translated by (+1, +1); one already on [1,2] x [1,2] is
    used directly. Q is returned normalized, since its moments give
    ``cost_pq`` and a file need not hold unit mass.
    """
    if cfg.preset is not None:
        f, ft = build_preset(cfg.preset, cfg.nx, cfg.ny)
        return build_instance(f, ft), None
    f = gridio.read_density(cfg.density_p)
    second = gridio.read_density(cfg.density_q)
    if abs(second.gx.lo) < 1e-9 and abs(second.gy.lo) < 1e-9:
        ft = Density2D(
            Grid1D(second.gx.lo + 1.0, second.gx.hi + 1.0, second.gx.n),
            Grid1D(second.gy.lo + 1.0, second.gy.hi + 1.0, second.gy.n),
            second.values,
        )
        return build_instance(f, ft), normalize(second)
    return build_instance(f, second), None


def _start_report(cfg: RunConfig) -> list:
    """Echo the resolved config to the output directory; return its report pairs."""
    resolved = asdict(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "resolved_config.json"), "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [(f"config.{k}", v) for k, v in sorted(resolved.items())]


def run_solve(cfg: RunConfig) -> int:
    pairs = _start_report(cfg)
    inst, q_orig = _load_instance(cfg)
    F, report = picard_solve(inst, cfg)
    pairs += [
        ("iterations", report.iterations),
        ("converged", report.converged),
        ("final_update_norm", report.final_update_norm),
        ("ellipticity_margin", report.ellipticity_margin),
        ("hh_residual_max", report.hh_residual_max),
        ("mixed_M_residual_max", report.mixed_M_residual_max),
        ("monotone_violations", report.monotone_violations),
        ("floored_mass", report.floored_mass),
        ("cost", report.cost),
        ("w2", float(np.sqrt(max(report.cost, 0.0)))),
    ]
    if report.candidate is not None:
        gridio.write_density(os.path.join(cfg.out, "p.dat"), report.candidate.q)
        gridio.write_field(os.path.join(cfg.out, "M.dat"), report.M)
    gridio.write_field(os.path.join(cfg.out, "F.dat"), F)
    if report.hh is not None:
        gridio.write_field(os.path.join(cfg.out, "hh_residual.dat"), report.hh)
    if q_orig is not None:
        ex1, ex2 = density_moments(inst.f)
        ey1, ey2 = density_moments(q_orig)
        cost_pq = shift_cost_relation(ex1, ey1, ex2, ey2, report.cost)
        pairs += [
            ("cost_pq", cost_pq),
            ("w2_pq", float(np.sqrt(max(cost_pq, 0.0)))),
        ]
    stop_reason = report.stop_reason
    if cfg.oracle:
        src = atomize(inst.f, cfg.oracle_atoms, cfg.oracle_atoms)
        dst = atomize(inst.f_tilde, cfg.oracle_atoms, cfg.oracle_atoms)
        # the solve's own map seeds the LP's support; pricing every pair
        # keeps the cost independent of it
        near = None
        if report.candidate is not None:
            near = transport_map(inst, report.candidate, src.points, dst.points)
        try:
            plan, ot_cost = exact_ot(src, dst, near)
        except Infeasible as e:
            stop_reason = stop_reason or f"oracle: {e}"
        else:
            pairs += [
                ("oracle_cost", ot_cost),
                ("oracle_dual_gap", plan.dual_gap),
                ("oracle_rel_gap", abs(report.cost - ot_cost) / ot_cost),
            ]
    return _finish(cfg, "solve", "report.txt", pairs, stop_reason)


def run_validate(cfg: RunConfig) -> int:
    pairs = _start_report(cfg)
    results = run_criteria(
        seed=cfg.seed,
        oracle=cfg.oracle,
        oracle_atoms=cfg.oracle_atoms,
        omega=cfg.omega,
    )
    n_pass = sum(r.status == "PASS" for r in results)
    n_fail = sum(r.status == "FAIL" for r in results)
    n_skip = sum(r.status == "SKIP" for r in results)
    pairs += [
        ("criteria_total", len(results)),
        ("criteria_passed", n_pass),
        ("criteria_failed", n_fail),
        ("criteria_skipped", n_skip),
        ("validate_pass", n_fail == 0),
    ]
    rows = [(r.key, r.status, r.detail) for r in results]
    report_text = gridio.render_report(pairs, "criteria", rows)
    _emit(cfg, "validate_report.txt", report_text)
    return 0 if n_fail == 0 else 1


def _atoms_1d(m: Marginal1D):
    """(weights, centers) of 1000 equal cells carrying the marginal's mass."""
    atoms = 1000
    lo, hi = m.grid.lo, m.grid.hi
    centers = lo + (np.arange(atoms) + 0.5) * (hi - lo) / atoms
    edges = lo + np.arange(atoms + 1) * (hi - lo) / atoms
    w = np.maximum(np.diff(m.cdf_at(edges)), 0.0)
    w /= w.sum()
    return w, centers


def run_distance1d(cfg: RunConfig, axis: str) -> int:
    pairs = _start_report(cfg)
    inst, _ = _load_instance(cfg)
    m = inst.f1 if axis == "x" else inst.f2
    mt = inst.f1_tilde if axis == "x" else inst.f2_tilde
    dist = krw_1d_distance(m, mt)
    pairs += [("axis", axis), ("distance1d", dist), ("distance1d_squared", dist**2)]
    if cfg.oracle:
        c1d = exact_ot_1d(*_atoms_1d(m), *_atoms_1d(mt))
        pairs += [
            ("oracle_cost_1d", c1d),
            ("oracle_rel_gap", abs(dist**2 - c1d) / max(c1d, 1e-300)),
        ]
    _emit(cfg, "distance1d_report.txt", gridio.render_report(pairs))
    return 0


def run_oracle(cfg: RunConfig) -> int:
    pairs = _start_report(cfg)
    inst, q_orig = _load_instance(cfg)
    src = atomize(inst.f, cfg.oracle_atoms, cfg.oracle_atoms)
    dst = atomize(inst.f_tilde, cfg.oracle_atoms, cfg.oracle_atoms)
    try:
        plan, cost = exact_ot(src, dst)
        if q_orig is not None:
            _, cost_pq = exact_ot(src, atomize(q_orig, cfg.oracle_atoms, cfg.oracle_atoms))
    except Infeasible as e:
        # the config echo is the partial report
        return _finish(cfg, "oracle", "oracle_report.txt", pairs, str(e))
    pairs += [
        ("oracle_atoms", cfg.oracle_atoms),
        ("oracle_cost", cost),
        ("oracle_w2", float(np.sqrt(max(cost, 0.0)))),
        ("oracle_dual_gap", plan.dual_gap),
        ("ellipticity_margin", ellipticity_margin(inst.cq_G1_tilde, inst.cq_G2)),
    ]
    if q_orig is not None:
        pairs += [("oracle_cost_pq", cost_pq)]
    return _finish(cfg, "oracle", "oracle_report.txt", pairs, None)


def _finish(cfg: RunConfig, command: str, name: str, pairs: list, stop_reason: str | None) -> int:
    """Write the report; exit 0, or 2 with one stderr line naming the stop."""
    _emit(cfg, name, gridio.render_report(pairs))
    if stop_reason is None:
        return 0
    sys.stderr.write(f"{command} stopped: {stop_reason}\n")
    return 2


def _emit(cfg: RunConfig, name: str, text: str):
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, name), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planeot",
        description="Planar 2-Wasserstein coupling via an elliptic Dirichlet solve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "solve one instance and write report plus grid dumps"),
        ("validate", "run the acceptance criteria suite"),
        ("distance1d", "1D quantile distance between chosen marginals"),
        ("oracle", "exact discrete transport between atomized inputs"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
        p.add_argument("--density-p", help="source density grid file")
        p.add_argument("--density-q", help="target density grid file ([0,1]^2 inputs are shifted)")
        p.add_argument("--nx", type=int)
        p.add_argument("--ny", type=int)
        p.add_argument("--omega", type=float)
        p.add_argument("--oracle-atoms", type=int, dest="oracle_atoms")
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        if name == "distance1d":
            p.add_argument("--axis", choices=("x", "y"), default="x")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    keys = {f.name for f in fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in keys}
    try:
        cfg, oracle_pinned = parse_config(args.config, overrides)
        # the oracle defaults on for validate/oracle runs and whenever an
        # atom count was requested, unless the config file pinned it
        if not oracle_pinned and (
            args.command in ("validate", "oracle") or overrides["oracle_atoms"] is not None
        ):
            cfg.oracle = True
        # validate builds its own instances; the other commands load one
        if args.command != "validate" and cfg.preset is None and not (
            cfg.density_p and cfg.density_q
        ):
            raise ConfigError("preset: need a preset name or both density_p and density_q")
        if args.command == "solve":
            return run_solve(cfg)
        if args.command == "validate":
            return run_validate(cfg)
        if args.command == "distance1d":
            return run_distance1d(cfg, args.axis)
        return run_oracle(cfg)
    except (PlaneOTError, ValueError) as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
