import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

import planeot as po
from planeot import grids
from planeot import io as gridio
from planeot import pde
from planeot.cli import main, parse_config
from planeot.errors import ConfigError, NonPositiveDensity
from planeot.grids import Density2D, Grid1D, ScalarField2D


def read_report(path) -> dict:
    """The ``key = value`` pairs of a report file, values as text."""
    lines = path.read_text().splitlines()
    return dict(l.split(" = ") for l in lines if " = " in l)


def fail_transport_lp(monkeypatch):
    """Make every transport LP report a failed solve."""
    failed = SimpleNamespace(status=2, message="scripted failure")
    monkeypatch.setattr("planeot.oracle.linprog", lambda *args, **kwargs: failed)


class TestGridFiles:
    def test_density_round_trip(self, tmp_path, rng):
        g = Grid1D(0.0, 1.0, 17)
        gy = Grid1D(1.0, 2.0, 13)
        d = po.normalize(Density2D(g, gy, 0.5 + rng.random((17, 13))))
        path = tmp_path / "d.dat"
        gridio.write_density(str(path), d)
        back = gridio.read_density(str(path))
        assert back.gx == d.gx and back.gy == d.gy
        assert np.array_equal(back.values, d.values)

    def test_written_bytes(self, tmp_path):
        # one repr per value, row j holding every x at the j-th y
        g = Grid1D(0.0, 1.0, 3)
        vals = np.array([[5e-324, 1e-300, 1 / 3], [1e300, 0.5, 2.0], [1.0, 7.25, 1e-7]])
        f = ScalarField2D(g, g, vals)
        path = tmp_path / "f.dat"
        gridio.write_field(str(path), f)
        rows = [" ".join(repr(float(v)) for v in vals[:, j]) for j in range(3)]
        header = "# mk-field nx=3 ny=3 xlo=0.0 xhi=1.0 ylo=0.0 yhi=1.0"
        assert path.read_text() == header + "\n" + "\n".join(rows) + "\n"
        assert "5e-324" in rows[0] and "1e+300" in rows[0]

    def test_header_format(self, tmp_path):
        g = Grid1D(0.0, 1.0, 9)
        d = po.normalize(Density2D(g, g, np.ones((9, 9))))
        path = tmp_path / "d.dat"
        gridio.write_density(str(path), d)
        header = open(path).readline()
        assert header.startswith("# mk-density nx=9 ny=9 xlo=0.0 xhi=1.0")

    def test_field_round_trip(self, tmp_path):
        g = Grid1D(0.0, 1.0, 9)
        vals = np.arange(81.0).reshape(9, 9)
        path = tmp_path / "f.dat"
        gridio.write_field(str(path), ScalarField2D(g, g, vals))
        back = gridio.read_field(str(path))
        assert np.array_equal(back.values, vals)

    def test_negative_density_rejected(self, tmp_path):
        # negative and non-finite values are rejected where they enter, at
        # the node they sit on: (1, 2) is the second value of the third row
        g = Grid1D(0.0, 1.0, 9)
        d = po.normalize(Density2D(g, g, np.ones((9, 9))))
        path = tmp_path / "bad.dat"
        for bad in (-1.0, np.nan, np.inf):
            gridio.write_density(str(path), d)
            lines = open(path).read().splitlines()
            lines[3] = lines[3].replace(" 1.0", f" {bad!r}", 1)
            open(path, "w").write("\n".join(lines) + "\n")
            with pytest.raises(NonPositiveDensity, match=r"node \(1, 2\)"):
                gridio.read_density(str(path))
            vals = np.ones((9, 9))
            vals[1, 2] = bad
            with pytest.raises(NonPositiveDensity, match=r"node \(1, 2\)"):
                Density2D(g, g, vals)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "junk.dat"
        path.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(ConfigError):
            gridio.read_density(str(path))


class TestParseConfig:
    def test_minimal_preset_defaults(self):
        cfg, _ = parse_config(None, {"preset": "uniform"})
        assert cfg.nx == 65 and cfg.ny == 65
        assert cfg.omega == 0.7
        assert cfg.picard_tol == 1e-8
        assert cfg.linear_tol == 1e-10

    def test_grid_minimum(self):
        with pytest.raises(ConfigError):
            parse_config(None, {"preset": "uniform", "nx": 4})

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            parse_config(None, {"preset": "nope"})

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config(None, {"density_p": "/does/not/exist", "density_q": "/nor/this"})

    def test_round_trip(self, tmp_path):
        cfg, _ = parse_config(None, {"preset": "bilinear", "nx": 33, "ny": 33, "seed": 7})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        cfg2, _ = parse_config(str(path), {})
        assert asdict(cfg2) == asdict(cfg)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("omega", 0.0), ("omega", 1.5), ("picard_tol", 0.0), ("linear_tol", -1e-10),
            ("picard_max_iters", 0), ("picard_max_iters", -3), ("linear_max_iters", -1),
            ("seed", -1), ("oracle_atoms", 38),
        ],
    )
    def test_solver_setting_out_of_range(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}:"):
            parse_config(None, {"preset": "uniform", key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("oracle", "false"), ("oracle", 1), ("nx", 65.9), ("nx", True), ("nx", "65"),
            ("omega", "0.5"), ("out", None), ("density_p", 1), ("density_q", ["a"]),
        ],
    )
    def test_mistyped_value_rejected(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "uniform", key: value}))
        with pytest.raises(ConfigError, match=f"^{key}:"):
            parse_config(str(path), {})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "uniform", "bogus": 1}))
        with pytest.raises(ConfigError):
            parse_config(str(path), {})


class TestCliSolve:
    def test_uniform_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["solve", "--preset", "uniform", "--nx", "33", "--ny", "33", "--out", str(out)])
        assert rc == 0
        report = (out / "report.txt").read_text()
        assert "converged = true" in report
        cost = float([l for l in report.splitlines() if l.startswith("cost =")][0].split("=")[1])
        assert abs(cost - 2.0) <= 1e-3
        # grid dumps parse back through the package readers
        gridio.read_density(str(out / "p.dat"))
        gridio.read_field(str(out / "F.dat"))
        gridio.read_field(str(out / "M.dat"))
        gridio.read_field(str(out / "hh_residual.dat"))

    def test_stall_exit_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps(
                {
                    "preset": "bilinear",
                    "nx": 33,
                    "ny": 33,
                    "picard_max_iters": 1,
                    "out": str(tmp_path / "run"),
                }
            )
        )
        rc = main(["solve", "--config", str(cfgfile)])
        assert rc == 2
        report = (tmp_path / "run" / "report.txt").read_text()
        assert "converged = false" in report
        err = capsys.readouterr().err
        assert "stall" in err and "last update norm" in err

    def test_ratio_guard_exit_two(self, tmp_path, capsys):
        # at 17 nodes the edge stencils of product-gauss's starting iterate
        # leave [0, 1] by 0.28; the solve stops with a partial report
        # instead of an error
        out = tmp_path / "run"
        rc = main(["solve", "--preset", "product-gauss", "--nx", "17", "--ny", "17",
                   "--out", str(out)])
        assert rc == 2
        report = (out / "report.txt").read_text()
        assert "converged = false" in report
        assert "hh_residual_max = nan" in report
        err = capsys.readouterr().err
        assert "ratio" in err and "guard" in err
        gridio.read_field(str(out / "F.dat"))
        assert not (out / "hh_residual.dat").exists()

    def test_derived_fields_computed_once(self, tmp_path, monkeypatch, capsys):
        # count calls wherever a planeot module looks the functions up
        counts = {}
        # marginal: the instance reads f1 and f2~ from its two quantile
        # families (2 calls) and builds f2 and f1~ only when read, which a
        # solve never does; the recovered candidate checks its two
        # bilinear: no derivative is relocated from its point, so a solve
        # whose inputs sit on the solve grid never calls it
        names = ("hh_residual", "recover_density", "M_field", "marginal")
        for name, original in [(n, getattr(po, n)) for n in names] + [("bilinear", grids.bilinear)]:

            def counted(*args, _name=name, _fn=original, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            for modname, mod in list(sys.modules.items()):
                if modname == "planeot" or modname.startswith("planeot."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, key, counted)
        # each level field is inverted once per assembly, hh, objective and M
        original_quantile = po.ConditionalQuantile.quantile

        def counted_quantile(self, *args, **kwargs):
            counts["quantile"] = counts.get("quantile", 0) + 1
            return original_quantile(self, *args, **kwargs)

        monkeypatch.setattr(po.ConditionalQuantile, "quantile", counted_quantile)
        # both derivatives are read at the bracket quantile found: one level
        # and one conditioning read per family and assembly
        for method in ("quantile_ds", "quantile_dcond"):
            original_method = getattr(po.ConditionalQuantile, method)

            def counted_method(self, *args, _name=method, _fn=original_method, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(self, *args, **kwargs)

            monkeypatch.setattr(po.ConditionalQuantile, method, counted_method)
        per_assembly = []
        original_assemble = pde.assemble_coefficients

        def counted_assemble(*args, **kwargs):
            before = (counts.get("quantile_ds", 0), counts.get("quantile_dcond", 0))
            out = original_assemble(*args, **kwargs)
            per_assembly.append(
                (counts["quantile_ds"] - before[0], counts["quantile_dcond"] - before[1])
            )
            return out

        monkeypatch.setattr(pde, "assemble_coefficients", counted_assemble)
        # the instance builds the two quantile families the equation reads
        original_init = po.ConditionalQuantile.__init__

        def counted_init(self, *args, **kwargs):
            counts["ConditionalQuantile"] = counts.get("ConditionalQuantile", 0) + 1
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(po.ConditionalQuantile, "__init__", counted_init)
        rc = main(["solve", "--preset", "bilinear", "--nx", "33", "--ny", "33",
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        report = (tmp_path / "run" / "report.txt").read_text()
        iterations = int(re.search(r"^iterations = (\d+)$", report, re.M).group(1))
        quantile_calls = counts.pop("quantile")
        derivative_calls = (counts.pop("quantile_ds"), counts.pop("quantile_dcond"))
        assert "bilinear" not in counts
        assert counts == {
            "hh_residual": 1, "recover_density": 1, "M_field": 1, "ConditionalQuantile": 2,
            "marginal": 4,
        }
        assert quantile_calls == 2 * iterations + 6
        # each assembly, hh and M reads both derivatives once per family
        assert per_assembly == [(2, 2)] * iterations
        assert derivative_calls == (2 * iterations + 4, 2 * iterations + 4)

    def test_recovery_failure_exit_two(self, tmp_path, capsys):
        # the solve converges, but on the default 65x65 grid the recovered
        # density's marginals miss the 25 h^2 slack: a partial report, exit 2
        g = Grid1D(0.0, 1.0, 33)
        X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        p = 1.0 + 0.2 * np.sin(3 * X) * np.cos(2 * Y)
        q = 1.0 + 0.2 * np.exp(-((X - 0.4) ** 2 + (Y - 0.6) ** 2) / 0.1)
        paths = []
        for name, vals in (("p.dat", p), ("q.dat", q)):
            paths.append(str(tmp_path / name))
            gridio.write_density(paths[-1], po.normalize(Density2D(g, g, vals)))
        out = tmp_path / "run"
        rc = main(["solve", "--density-p", paths[0], "--density-q", paths[1], "--out", str(out)])
        assert rc == 2
        report = (out / "report.txt").read_text()
        assert "converged = true" in report
        assert "cost = nan" in report
        gridio.read_field(str(out / "F.dat"))
        gridio.read_field(str(out / "hh_residual.dat"))
        assert not (out / "p.dat").exists()
        err = capsys.readouterr().err
        assert "density recovery" in err and "marginals deviate" in err

    def test_bad_file_exit_one(self, tmp_path, capsys):
        rc = main(["solve", "--density-p", "/missing.dat", "--density-q", "/missing2.dat"])
        assert rc == 1

    def test_corrupt_density_exit_one(self, tmp_path, capsys):
        g = Grid1D(0.0, 1.0, 17)
        d = po.normalize(Density2D(g, g, np.ones((17, 17))))
        p1 = tmp_path / "p.dat"
        gridio.write_density(str(p1), d)
        p2 = tmp_path / "q.dat"
        gridio.write_density(str(p2), d)
        txt = p2.read_text().splitlines()
        txt[5] = txt[5].replace(" 1.0", " -3.0", 1)
        p2.write_text("\n".join(txt) + "\n")
        rc = main(["solve", "--density-p", str(p1), "--density-q", str(p2), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_pq_pair_shift_reported(self, tmp_path, capsys):
        # supply Q on the unit square; the report carries the adjusted cost
        n = 33
        f, ft = po.build_preset("bilinear", n, n)
        q_orig = Density2D(Grid1D(0, 1, n), Grid1D(0, 1, n), ft.values)
        p1 = tmp_path / "p.dat"
        p2 = tmp_path / "q.dat"
        gridio.write_density(str(p1), f)
        gridio.write_density(str(p2), po.normalize(q_orig))
        out = tmp_path / "run"
        rc = main(["solve", "--density-p", str(p1), "--density-q", str(p2), "--out", str(out)])
        assert rc == 0
        lines = read_report(out / "report.txt")
        cost = float(lines["cost"])
        cost_pq = float(lines["cost_pq"])
        # both marginal pairs are uniform, so the shift identity reduces
        # to subtracting exactly 2
        assert abs(cost_pq - (cost - 2.0)) < 1e-9

    def test_pq_pair_unnormalized_q(self, tmp_path, capsys):
        # a Q file of mass 1.3: the moments behind cost_pq are those of the
        # normalized Q. Q's own moments would give -0.634; the 16-atom LP
        # gives 0.00773
        n = 33
        g = Grid1D(0.0, 1.0, n)
        X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        p = Density2D(g, g, 1.0 + 0.5 * (2 * X - 1) * (2 * Y - 1))
        q = Density2D(g, g, 1.3 * (1.0 + 0.4 * (2 * X - 1)))
        assert abs(q.mass() - 1.3) < 1e-12
        p_path, q_path = tmp_path / "p.dat", tmp_path / "q.dat"
        gridio.write_density(str(p_path), p)
        gridio.write_density(str(q_path), q)
        files = ["--density-p", str(p_path), "--density-q", str(q_path)]
        assert main(["solve", *files, "--out", str(tmp_path / "s")]) == 0
        assert main(["oracle", *files, "--oracle-atoms", "16", "--out", str(tmp_path / "o")]) == 0
        solved = read_report(tmp_path / "s" / "report.txt")
        oracle_report = read_report(tmp_path / "o" / "oracle_report.txt")
        ex1, ex2 = po.density_moments(po.normalize(p))
        ey1, ey2 = po.density_moments(po.normalize(q))
        expected = po.shift_cost_relation(ex1, ey1, ex2, ey2, float(solved["cost"]))
        cost_pq = float(solved["cost_pq"])
        assert abs(cost_pq - expected) <= 1e-12
        assert float(solved["w2_pq"]) == pytest.approx(np.sqrt(expected), rel=1e-12)
        # the LP's atomization error: oracle_cost_pq - cost_pq measured
        # 3.58e-3 at 8 atoms, 1.49e-3 at 16 and 8.8e-4 at 24 on this pair;
        # twice the 16-atom gap
        assert abs(float(oracle_report["oracle_cost_pq"]) - cost_pq) <= 3e-3

    def test_oracle_flag_adds_oracle_keys(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            ["solve", "--preset", "uniform", "--nx", "17", "--ny", "17",
             "--oracle-atoms", "8", "--out", str(out)]
        )
        assert rc == 0
        report = (out / "report.txt").read_text()
        assert "oracle_cost = " in report
        assert "oracle_dual_gap = " in report

    def test_oracle_pinned_off(self, tmp_path, capsys):
        # a config file that pins the oracle off wins over --oracle-atoms
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"preset": "uniform", "nx": 17, "ny": 17, "oracle": False}))
        out = tmp_path / "run"
        rc = main(["solve", "--config", str(cfgfile), "--oracle-atoms", "8", "--out", str(out)])
        assert rc == 0
        report = (out / "report.txt").read_text()
        assert "config.oracle = false" in report
        assert "oracle_cost" not in report

    @pytest.mark.parametrize(
        "preset, converged, stop",
        [
            ("uniform", "true", "oracle: transport LP failed: scripted failure"),
            # the solve's own stop reason wins over the oracle's
            ("product-gauss", "false", "ratio guard at Picard iteration 1: "),
        ],
        ids=["converged", "solve-stopped"],
    )
    def test_failed_transport_lp_exit_two(
        self, tmp_path, monkeypatch, capsys, preset, converged, stop
    ):
        fail_transport_lp(monkeypatch)
        out = tmp_path / "run"
        rc = main(["solve", "--preset", preset, "--nx", "17", "--ny", "17",
                   "--oracle-atoms", "8", "--out", str(out)])
        assert rc == 2
        report = (out / "report.txt").read_text()
        assert f"converged = {converged}" in report
        assert "config.oracle = true" in report
        assert not re.search(r"^oracle_", report, re.MULTILINE)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"solve stopped: {stop}")


class TestCliOther:
    def test_distance1d(self, tmp_path, capsys):
        out = tmp_path / "d1"
        rc = main(["distance1d", "--preset", "uniform", "--nx", "17", "--ny", "17",
                   "--axis", "x", "--out", str(out)])
        assert rc == 0
        lines = read_report(out / "distance1d_report.txt")
        assert abs(float(lines["distance1d"]) - 1.0) < 1e-9

    def test_oracle_command(self, tmp_path, capsys):
        out = tmp_path / "orc"
        rc = main(["oracle", "--preset", "uniform", "--nx", "17", "--ny", "17",
                   "--oracle-atoms", "8", "--out", str(out)])
        assert rc == 0
        lines = read_report(out / "oracle_report.txt")
        assert abs(float(lines["oracle_cost"]) - 2.0) < 1e-9

    def test_oracle_command_failed_lp_exit_two(self, tmp_path, monkeypatch, capsys):
        fail_transport_lp(monkeypatch)
        out = tmp_path / "orc"
        rc = main(["oracle", "--preset", "uniform", "--nx", "17", "--ny", "17",
                   "--oracle-atoms", "8", "--out", str(out)])
        assert rc == 2
        # the partial report is the config echo
        report = (out / "oracle_report.txt").read_text()
        keys = [l.split(" = ")[0] for l in report.splitlines() if " = " in l]
        assert keys and all(k.startswith("config.") for k in keys)
        err = capsys.readouterr().err.splitlines()
        assert err == ["oracle stopped: transport LP failed: scripted failure"]

    def test_resolved_config_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["solve", "--preset", "uniform", "--nx", "17", "--ny", "17", "--out", str(out)])
        assert rc == 0
        resolved = out / "resolved_config.json"
        cfg2, _ = parse_config(str(resolved), {})
        assert json.load(open(resolved)) == asdict(cfg2)


class TestValidateCli:
    def test_no_preset_needed(self, tmp_path, monkeypatch, capsys):
        # validate builds its own instances, so it needs no inputs
        monkeypatch.setattr("planeot.cli.run_criteria", lambda **kwargs: [])
        out = tmp_path / "v"
        assert main(["validate", "--out", str(out)]) == 0
        assert (out / "validate_report.txt").exists()

    def test_solve_still_needs_inputs(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["solve", "--out", str(out)]) == 1
        assert "preset:" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_off_skips(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps({"preset": "uniform", "oracle": False, "out": str(tmp_path / "v")})
        )
        rc = main(["validate", "--config", str(cfgfile)])
        report = (tmp_path / "v" / "validate_report.txt").read_text()
        assert "SKIP" in report
        assert "one-d-agreement | SKIP" in report

    def test_determinism_byte_identical(self, tmp_path, capsys):
        # same config (including seed), two runs: byte-identical reports
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps(
                {
                    "preset": "uniform",
                    "oracle": True,
                    "oracle_atoms": 16,
                    "seed": 424242,
                    "out": str(tmp_path / "v"),
                }
            )
        )
        texts = []
        for _ in range(2):
            main(["validate", "--config", str(cfgfile)])
            texts.append((tmp_path / "v" / "validate_report.txt").read_bytes())
        assert texts[0] == texts[1]


# Runs in a fresh interpreter, so no earlier import of scipy.optimize counts.
# argv[1] is the output directory.
STARTUP_SCRIPT = """
import sys
import planeot.cli as cli

out = sys.argv[1]
grid = ["--preset", "bilinear", "--nx", "17", "--ny", "17"]
assert "scipy.optimize" not in sys.modules, "import planeot.cli"
assert cli.main(["solve", *grid, "--out", out + "/solve"]) == 0
assert "scipy.optimize" not in sys.modules, "solve"
assert cli.main(["distance1d", *grid, "--out", out + "/d1"]) == 0
assert "scipy.optimize" not in sys.modules, "distance1d"
assert cli.main(["oracle", *grid, "--oracle-atoms", "8", "--out", out + "/oracle"]) == 0
assert "scipy.optimize" in sys.modules, "oracle"
"""


class TestStartUp:
    def test_scipy_optimize_loads_at_first_lp(self, tmp_path):
        # solve and distance1d never run a transport LP, so they do not
        # pay for importing scipy.optimize; the first LP imports it
        package_parent = os.path.dirname(os.path.dirname(os.path.abspath(po.__file__)))
        env = {**os.environ, "PYTHONPATH": package_parent}
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        # the LP certificate bounds the distance to the optimum by GAP_TOL
        # relative
        cost = float(read_report(tmp_path / "oracle" / "oracle_report.txt")["oracle_cost"])
        assert cost == pytest.approx(2.0067840576171876, rel=1e-9)
