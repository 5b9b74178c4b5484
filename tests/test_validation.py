import numpy as np
import pytest

import planeot as po
from planeot import validation
from planeot.cli import main
from planeot.cost import corner_profiles, perturbation_deltas
from planeot.errors import Infeasible, MarginalViolation, PositivityViolated


class OneSolve:
    """Workspace stand-in that hands out one cached solve for every request."""

    def __init__(self, solve):
        self._solve = solve

    def solve(self, preset, n):
        return self._solve


def draw_profiles(cand, rng, count):
    """(perturbation, (delta * ux, wy)) for ``count`` draws that keep positivity."""
    out = []
    while len(out) < count:
        pert = validation.draw_perturbation(rng, rng.choice([-1.0, 1.0]) * 1e-3)
        try:
            po.apply_perturbation(cand, pert)
        except PositivityViolated:
            continue
        ux, wy = corner_profiles(pert, cand.q.gx, cand.q.gy)
        out.append((pert, (pert.delta * ux, wy)))
    return out


class TestPerturbationDeltas:
    @pytest.mark.parametrize("preset", validation.PRESET_NAMES)
    def test_each_delta_matches_full_objective(self, solves, preset):
        inst, _, rep, cand = solves(preset, 33)
        trials = draw_profiles(cand, np.random.default_rng(5), 24)
        got = perturbation_deltas(inst, cand, [prof for _, prof in trials])
        want = [po.objective(inst, po.apply_perturbation(cand, pert)) - rep.cost for pert, _ in trials]
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_no_profiles(self, solves):
        inst, _, _, cand = solves("uniform", 33)
        assert perturbation_deltas(inst, cand, []).shape == (0,)

    def test_row_integral_drift_raises(self, solves):
        inst, _, _, cand = solves("bilinear", 33)
        pert = po.CornerPerturbation(0.2, 0.6, 1.2, 1.6, eps=0.1, delta=1e-3)
        ux, wy = corner_profiles(pert, cand.q.gx, cand.q.gy)
        # a one-signed y profile has a nonzero integral along every row
        with pytest.raises(MarginalViolation):
            perturbation_deltas(inst, cand, [(pert.delta * ux, np.abs(wy))])


class TestStationarity:
    def test_plus_trial_with_failed_partner_counts(self, solves, monkeypatch):
        inst, F, rep, cand = solves("bilinear", 33)
        ok = po.CornerPerturbation(0.2, 0.6, 1.2, 1.6, eps=0.1, delta=1e-3)
        draws = []

        def scripted(rng, delta):
            # the first + trial passes; every later draw fails positivity,
            # so no pair is ever complete
            draws.append(delta)
            size = 1e-3 if len(draws) == 1 else 10.0
            return po.CornerPerturbation(ok.a, ok.a1, ok.b, ok.b1, ok.eps, np.sign(delta) * size)

        monkeypatch.setattr(validation, "draw_perturbation", scripted)
        monkeypatch.setattr(validation, "PRESET_NAMES", ("bilinear",))
        r = validation.criterion_stationarity(OneSolve((inst, F, rep)), np.random.default_rng(0))
        # 2000 tries: the first draws + and -, every later one only +
        assert len(draws) == 2001 and draws[1] < 0.0
        want = po.objective(inst, po.apply_perturbation(cand, ok)) - rep.cost
        assert r.detail == f"worst deltas bilinear:{want:.2e}(0) (floor -1e-6)"


class TestFailingCriterion:
    def test_error_becomes_fail_row(self, tmp_path, monkeypatch, capsys):
        def broken(src, dst, near=None):
            raise Infeasible("transport LP failed:\nstub")

        monkeypatch.setattr(validation, "exact_ot", broken)
        out = tmp_path / "v"
        assert main(["validate", "--oracle-atoms", "8", "--out", str(out)]) == 1
        text = (out / "validate_report.txt").read_text()
        rows = dict(
            line.split(" | ", 1) for line in text.split("# criteria\n")[1].splitlines()
        )
        assert len(rows) == 11
        for key in ("bilinear-triangulation", "algebraic-identities"):
            assert rows[key] == "FAIL | Infeasible: transport LP failed: stub"
        # criteria after the failing ones still ran
        assert rows["one-d-agreement"].startswith("PASS | ")
        assert rows["determinism"].startswith("PASS | ")
