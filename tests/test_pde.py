import numpy as np
import pytest
import scipy.sparse.linalg as spla

import planeot as po
import planeot.pde as pde
from planeot.errors import LinearSolveDiverged, NegativeMassExcessive, QuantileRangeError
from planeot.grids import Grid1D, ScalarField2D
from planeot.pde import (
    PdeCoefficients,
    dirichlet_boundary,
    initial_iterate,
    residual_window_max,
)


def field(gx, gy, fn):
    X, Y = np.meshgrid(gx.nodes, gy.nodes, indexing="ij")
    return ScalarField2D(gx, gy, fn(X, Y))


def ones_coeffs(gx, gy, c):
    n, m = gx.n, gy.n
    one = ScalarField2D(gx, gy, np.ones((n, m)))
    return PdeCoefficients(one, one, ScalarField2D(gx, gy, np.full((n, m), float(c))))


def quadratic_problem():
    """Manufactured data whose discrete solution is the exact quadratic."""
    gx, gy = Grid1D(0, 1, 33), Grid1D(1, 2, 33)
    return ones_coeffs(gx, gy, 4.0), field(gx, gy, lambda X, Y: X**2 + (Y - 1.0) ** 2)


class TestBoundary:
    def test_uniform_boundary_curves(self, instances):
        inst = instances("uniform", 33)
        gx, gy = Grid1D(0, 1, 33), Grid1D(1, 2, 33)
        top, right = dirichlet_boundary(inst, gx, gy)
        assert np.allclose(top, gx.nodes, atol=1e-12)
        assert np.allclose(right, gy.nodes - 1.0, atol=1e-12)

    def test_initial_iterate_ratios_admissible(self, instances):
        # from 33 nodes up the product start keeps both derivative ratios
        # within the guard even for strongly non-uniform marginals
        inst = instances("product-gauss", 65)
        gx, gy = Grid1D(0, 1, 65), Grid1D(1, 2, 65)
        F0 = initial_iterate(inst, gx, gy)
        po.assemble_coefficients(inst, F0)

    def test_corner_is_one(self, instances):
        inst = instances("bilinear", 33)
        F0 = initial_iterate(inst, Grid1D(0, 1, 33), Grid1D(1, 2, 33))
        assert abs(F0.values[-1, -1] - 1.0) < 1e-8


class TestAssemble:
    def test_uniform_exact_coefficients(self, instances):
        inst = instances("uniform", 33)
        gx, gy = Grid1D(0, 1, 33), Grid1D(1, 2, 33)
        F = field(gx, gy, lambda X, Y: X * (Y - 1.0))
        coeffs = po.assemble_coefficients(inst, F)
        assert np.max(np.abs(coeffs.A.values - 1.0)) < 1e-12
        assert np.max(np.abs(coeffs.B.values - 1.0)) < 1e-12
        assert np.max(np.abs(coeffs.C.values)) < 1e-12

    def test_product_solution_residual_order(self, instances):
        # plug the exact product distribution into the discrete operator
        errs = []
        for n in (33, 65):
            inst = instances("product-gauss", n)
            gx, gy = Grid1D(0, 1, n), Grid1D(1, 2, n)
            top, right = dirichlet_boundary(inst, gx, gy)
            F = ScalarField2D(gx, gy, np.outer(top, right))
            coeffs = po.assemble_coefficients(inst, F)
            # central second differences at interior nodes; the edge nodes
            # lie outside the residual window
            V = F.values
            d2x = (V[2:, 1:-1] - 2.0 * V[1:-1, 1:-1] + V[:-2, 1:-1]) / gx.h**2
            d2y = (V[1:-1, 2:] - 2.0 * V[1:-1, 1:-1] + V[1:-1, :-2]) / gy.h**2
            A, B, C = (c.values[1:-1, 1:-1] for c in (coeffs.A, coeffs.B, coeffs.C))
            res = np.zeros_like(V)
            res[1:-1, 1:-1] = A * d2x + B * d2y - C
            errs.append(residual_window_max(ScalarField2D(gx, gy, res)))
        assert errs[0] / errs[1] > 2.5

    def test_cold_start_positive_coefficients(self, instances):
        for preset in ("uniform", "product-gauss", "bilinear"):
            inst = instances(preset, 33)
            F0 = initial_iterate(inst, Grid1D(0, 1, 33), Grid1D(1, 2, 33))
            coeffs = po.assemble_coefficients(inst, F0)
            assert coeffs.margin > 0.0
            assert np.all(np.isfinite(coeffs.C.values))

    def test_ratio_guard_trips(self, instances):
        inst = instances("uniform", 33)
        gx, gy = Grid1D(0, 1, 33), Grid1D(1, 2, 33)
        F = field(gx, gy, lambda X, Y: 2.0 * X * (Y - 1.0))
        with pytest.raises(QuantileRangeError):
            po.assemble_coefficients(inst, F)


class TestLinearSolve:
    def test_harmonic_bilinear_exact(self):
        gx, gy = Grid1D(0, 1, 33), Grid1D(1, 2, 33)
        Fb = field(gx, gy, lambda X, Y: X * (Y - 1.0))
        sol = po.linear_elliptic_solve(ones_coeffs(gx, gy, 0.0), Fb)
        assert np.max(np.abs(sol.values - Fb.values)) < 1e-10

    def test_quadratic_manufactured_exact(self):
        coeffs, Fm = quadratic_problem()
        sol = po.linear_elliptic_solve(coeffs, Fm, linear_tol=1e-12)
        assert np.max(np.abs(sol.values - Fm.values)) < 1e-10

    def test_sine_manufactured_order(self):
        errs = []
        for n in (33, 65):
            gx, gy = Grid1D(0, 1, n), Grid1D(1, 2, n)
            X, Y = np.meshgrid(gx.nodes, gy.nodes, indexing="ij")
            Fs = np.sin(np.pi * X) * np.sin(np.pi * (Y - 1.0))
            one = ScalarField2D(gx, gy, np.ones((n, n)))
            rhs = ScalarField2D(gx, gy, -2.0 * np.pi**2 * Fs)
            sol = po.linear_elliptic_solve(
                PdeCoefficients(one, one, rhs),
                ScalarField2D(gx, gy, np.zeros((n, n))),
                linear_tol=1e-12,
            )
            errs.append(np.max(np.abs(sol.values - Fs)))
        assert np.log2(errs[0] / errs[1]) > 1.9


class SparseStandIn:
    """Stand-in for ``pde.spla`` that logs the solver calls in order.

    The log holds ``("spilu", k)`` for the k-th factor, ``("M", k)`` when a
    preconditioner wraps factor k and ``("bicgstab", maxiter)``;
    ``iterations`` holds each BiCGStab call's iteration count and
    ``solved`` its (A, b, x). Preconditioners must declare their dtype.
    BiCGStab call number i (from 1) reports failure when
    ``fail_bicgstab(i)`` is true, whatever it reached.
    """

    def __init__(self, fail_bicgstab=lambda i: False):
        self.log = []
        self.iterations = []
        self.factors = []
        self.solved = []
        self._fail = fail_bicgstab

    def __getattr__(self, name):
        return getattr(spla, name)

    def names(self):
        return [name for name, _ in self.log]

    def spilu(self, *args, **kwargs):
        ilu = spla.spilu(*args, **kwargs)
        self.factors.append(ilu)
        self.log.append(("spilu", len(self.factors)))
        return ilu

    def LinearOperator(self, shape, matvec, *, dtype):
        # a dtype is required: without one scipy probes matvec, which costs
        # one extra triangular solve of the factor per BiCGStab call
        self.log.append(("M", self.factors.index(matvec.__self__) + 1))
        return spla.LinearOperator(shape, matvec, dtype=dtype)

    def bicgstab(self, A, b, **kwargs):
        self.log.append(("bicgstab", kwargs["maxiter"]))
        steps = []
        x, info = spla.bicgstab(A, b, callback=steps.append, **kwargs)
        self.iterations.append(len(steps))
        self.solved.append((A, b, x))
        return x, 1 if self._fail(self.names().count("bicgstab")) else info


class TestLinearSolverCalls:
    def test_solve_factors_once(self, instances, monkeypatch):
        stand_in = SparseStandIn()
        monkeypatch.setattr(pde, "spla", stand_in)
        cfg = po.SolverConfig(nx=33, ny=33)
        _, rep = po.picard_solve(instances("bilinear", 33), cfg)
        assert rep.converged
        names = stand_in.names()
        assert names.count("spilu") == 1
        assert names.count("bicgstab") == rep.iterations
        # the first step factors and solves within linear_max_iters; every
        # later step reuses that factor under the tighter cap
        cap = pde.REUSED_FACTOR_MAX_ITERS
        assert stand_in.log == (
            [("spilu", 1), ("M", 1), ("bicgstab", cfg.linear_max_iters)]
            + [("M", 1), ("bicgstab", cap)] * (rep.iterations - 1)
        )

    def test_missed_reuse_refactors_once(self, instances, monkeypatch):
        inst = instances("bilinear", 33)
        cfg = po.SolverConfig(nx=33, ny=33)
        _, ref = po.picard_solve(inst, cfg)
        # the second BiCGStab call is step 2's attempt with step 1's factor
        stand_in = SparseStandIn(fail_bicgstab=lambda i: i == 2)
        monkeypatch.setattr(pde, "spla", stand_in)
        _, rep = po.picard_solve(inst, cfg)
        cap = pde.REUSED_FACTOR_MAX_ITERS
        # step 2 retries with its own factor, and later steps reuse that one
        assert stand_in.log == (
            [("spilu", 1), ("M", 1), ("bicgstab", cfg.linear_max_iters)]
            + [("M", 1), ("bicgstab", cap)]
            + [("spilu", 2), ("M", 2), ("bicgstab", cfg.linear_max_iters)]
            + [("M", 2), ("bicgstab", cap)] * (rep.iterations - 2)
        )
        assert rep.converged and rep.iterations == ref.iterations
        assert abs(rep.cost - ref.cost) < 1e-10

    def test_fill_cap_keeps_reused_factor_near_exact_at_257(self, instances, monkeypatch):
        # bilinear 257's natural fill (9.41) sat just under the old cap of
        # 10, which left a factor needing 5-14 iterations per reused step
        stand_in = SparseStandIn()
        monkeypatch.setattr(pde, "spla", stand_in)
        _, rep = po.picard_solve(instances("bilinear", 257), po.SolverConfig(nx=257, ny=257))
        assert rep.converged
        assert stand_in.names().count("spilu") == 1
        cap = pde.REUSED_FACTOR_MAX_ITERS
        caps = [maxiter for name, maxiter in stand_in.log if name == "bicgstab"]
        reused = [k for maxiter, k in zip(caps, stand_in.iterations) if maxiter == cap]
        assert len(reused) == rep.iterations - 1
        assert max(reused) <= 3, reused

    def test_missed_tolerance_raises(self, monkeypatch):
        stand_in = SparseStandIn(fail_bicgstab=lambda i: True)
        monkeypatch.setattr(pde, "spla", stand_in)
        coeffs, Fq = quadratic_problem()
        with pytest.raises(LinearSolveDiverged) as err:
            po.linear_elliptic_solve(coeffs, Fq, linear_tol=1e-12)
        # a standalone call factors its own matrix, and its one attempt is final
        assert stand_in.names() == ["spilu", "M", "bicgstab"]
        (A, b, x), = stand_in.solved
        res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
        assert str(err.value) == (
            f"BiCGStab missed tolerance 1.0e-12: relative residual {res:.3e}, info 1"
        )

    def test_failed_ilu_raises(self, tmp_path, monkeypatch, capsys):
        from planeot.cli import main

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        stand_in = SparseStandIn()
        stand_in.spilu = singular
        monkeypatch.setattr(pde, "spla", stand_in)
        coeffs, Fq = quadratic_problem()
        with pytest.raises(LinearSolveDiverged) as err:
            po.linear_elliptic_solve(coeffs, Fq)
        assert str(err.value) == "incomplete LU failed: Factor is exactly singular"
        # no unpreconditioned BiCGStab stands in for the failed factor
        assert stand_in.log == []
        out = tmp_path / "run"
        rc = main(["solve", "--preset", "bilinear", "--nx", "17", "--ny", "17", "--out", str(out)])
        assert rc == 2
        assert "converged = false" in (out / "report.txt").read_text()
        err = capsys.readouterr().err
        assert "solve stopped: linear solve at Picard iteration 1: incomplete LU failed" in err

    def test_linear_solve_failure_stops_solve(self, instances, monkeypatch):
        # step 2's reused factor misses, and so does its own factor
        stand_in = SparseStandIn(fail_bicgstab=lambda i: i >= 2)
        monkeypatch.setattr(pde, "spla", stand_in)
        F, rep = po.picard_solve(instances("bilinear", 33), po.SolverConfig(nx=33, ny=33))
        assert stand_in.names().count("spilu") == 2
        assert not rep.converged and rep.iterations == 1
        assert rep.stop_reason.startswith(
            "linear solve at Picard iteration 2: BiCGStab missed tolerance 1.0e-10: "
            "relative residual"
        )
        assert np.isfinite(rep.cost)

    def test_linear_solve_failure_cli_exit_two(self, tmp_path, monkeypatch, capsys):
        from planeot.cli import main

        monkeypatch.setattr(pde, "spla", SparseStandIn(lambda i: True))
        out = tmp_path / "run"
        rc = main(["solve", "--preset", "bilinear", "--nx", "17", "--ny", "17", "--out", str(out)])
        assert rc == 2
        report = (out / "report.txt").read_text()
        assert "iterations = 0" in report and "converged = false" in report
        err = capsys.readouterr().err
        assert "solve stopped: linear solve at Picard iteration 1: BiCGStab missed tolerance" in err


def scripted_assembly(monkeypatch, raise_on):
    """Make ``pde.assemble_coefficients`` raise on the listed calls (from 1).

    Returns the list of iterates it was called with, in order.
    """
    seen = []
    real = pde.assemble_coefficients

    def scripted(inst, F):
        seen.append(F.values)
        if len(seen) in raise_on:
            raise QuantileRangeError(f"scripted at call {len(seen)}")
        return real(inst, F)

    monkeypatch.setattr(pde, "assemble_coefficients", scripted)
    return seen


def plain_damped_cost(inst, cfg):
    """Cost of the unaccelerated damped iteration, the reference for Anderson."""
    gx, gy = Grid1D(0.0, 1.0, cfg.nx), Grid1D(1.0, 2.0, cfg.ny)
    F = initial_iterate(inst, gx, gy)
    for _ in range(cfg.picard_max_iters):
        F_star = po.linear_elliptic_solve(po.assemble_coefficients(inst, F), F)
        new = (1.0 - cfg.omega) * F.values + cfg.omega * F_star.values
        update = np.max(np.abs(new - F.values))
        F = ScalarField2D(gx, gy, new)
        if update <= cfg.picard_tol:
            return po.objective(inst, po.recover_density(inst, F))
    raise AssertionError("plain damped iteration did not converge")


class TestAnderson:
    def test_matches_plain_damped_iteration(self, solves):
        inst, _, rep, _ = solves("bilinear", 33)
        assert abs(rep.cost - plain_damped_cost(inst, po.SolverConfig(nx=33, ny=33))) < 1e-8

    @pytest.mark.parametrize("preset, n, ceiling", [("bilinear", 33, 8), ("product-gauss", 65, 12)])
    def test_iteration_ceiling(self, solves, preset, n, ceiling):
        # the plain damped iteration takes 13 and 15
        _, _, rep, _ = solves(preset, n)
        assert rep.converged and rep.iterations <= ceiling

    def test_guard_on_extrapolated_iterate_takes_plain_step(self, instances, solves, monkeypatch):
        inst = instances("bilinear", 33)
        _, _, ref, _ = solves("bilinear", 33)
        cfg = po.SolverConfig(nx=33, ny=33)
        # calls 1 and 2 assemble the start and the first plain damped
        # iterate; call 3 is the first extrapolated one
        seen = scripted_assembly(monkeypatch, raise_on={3})
        _, rep = po.picard_solve(inst, cfg)
        assert rep.converged and rep.stop_reason is None
        # one assembly per step, plus the one that raised
        assert len(seen) == rep.iterations + 1
        # call 4 is step 2's plain damped iterate, which the extrapolated
        # one of call 3 is not; F* is solved again here to linear_tol
        F2 = ScalarField2D(Grid1D(0, 1, 33), Grid1D(1, 2, 33), seen[1])
        F_star = po.linear_elliptic_solve(po.assemble_coefficients(inst, F2), F2).values
        plain = (1.0 - cfg.omega) * F2.values + cfg.omega * F_star
        assert np.max(np.abs(seen[3] - plain)) < 1e-9
        assert np.max(np.abs(seen[2] - plain)) > 1e-6
        assert abs(rep.cost - ref.cost) < cfg.picard_tol

    @pytest.mark.parametrize("raise_on, k", [({2}, 2), ({3, 4}, 3)])
    def test_guard_on_plain_iterate_stops(self, instances, monkeypatch, raise_on, k):
        # {3, 4}: the extrapolated iterate and its plain fallback both trip
        scripted_assembly(monkeypatch, raise_on)
        _, rep = po.picard_solve(instances("bilinear", 33), po.SolverConfig(nx=33, ny=33))
        assert not rep.converged and rep.iterations == k - 1
        assert rep.stop_reason.startswith(f"ratio guard at Picard iteration {k}: scripted")


class TestPicard:
    def test_uniform_fast_convergence(self, instances):
        inst = instances("uniform", 33)
        F, rep = po.picard_solve(inst, po.SolverConfig(nx=33, ny=33, omega=1.0))
        assert rep.converged and rep.iterations <= 3
        X, Y = np.meshgrid(F.gx.nodes, F.gy.nodes, indexing="ij")
        assert np.max(np.abs(F.values - X * (Y - 1.0))) < 1e-9
        assert abs(rep.cost - 2.0) <= 1e-3

    def test_product_gauss_structure(self, solves):
        inst, F, rep, cand = solves("product-gauss", 65)
        assert rep.converged
        # X-derivative of F carries the product structure f1(x) F2~(y)
        from planeot.grids import _d1

        Fx = _d1(F.values, F.gx.h, 0)
        target = np.outer(
            inst.f1.density_at(F.gx.nodes), inst.f2_tilde.cdf_at(F.gy.nodes)
        )
        assert np.max(np.abs(Fx - target)[1:-1, 1:-1]) < 5e-3
        # recovered density tracks the product at the stencil-truncation level
        prod = np.outer(
            inst.f1.density_at(F.gx.nodes), inst.f2_tilde.density_at(F.gy.nodes)
        )
        assert np.max(np.abs(cand.q.values - prod)) < 0.05

    def test_stall_returns_partial_report(self, instances):
        inst = instances("bilinear", 33)
        cfg = po.SolverConfig(nx=33, ny=33, picard_max_iters=1)
        F, rep = po.picard_solve(inst, cfg)
        assert not rep.converged
        assert rep.iterations == 1
        assert np.isfinite(rep.final_update_norm)
        assert np.isfinite(rep.cost)
        assert rep.stop_reason.startswith("Picard stall")
        assert f"{rep.final_update_norm:.3e}" in rep.stop_reason

    def test_boundary_held_exactly(self, solves, instances):
        inst, F, rep, _ = solves("bilinear", 33)
        top, right = dirichlet_boundary(inst, F.gx, F.gy)
        assert np.array_equal(F.values[:, 0], np.zeros(F.gx.n))
        assert np.array_equal(F.values[0, :], np.zeros(F.gy.n))
        assert np.max(np.abs(F.values[:, -1] - top)) < 1e-14
        assert np.max(np.abs(F.values[-1, :] - right)) < 1e-14

    def test_reflection_symmetry(self, solves):
        # the uniform instance is symmetric under swapping the two axes
        inst, F, rep, _ = solves("uniform", 33)
        shifted = F.values - 0.0
        assert np.max(np.abs(shifted - shifted.T)) < 1e-10

    def test_symmetric_gaussian_pair(self):
        # when f is exchange-symmetric and f~ is its (+1,+1) shift, the
        # coupling problem maps to itself under swapping the axes, so the
        # solved distribution must be transpose-symmetric
        n = 33
        g = Grid1D(0.0, 1.0, n)
        gt = Grid1D(1.0, 2.0, n)
        prof = np.exp(-0.5 * ((g.nodes - 0.45) / 0.25) ** 2)
        from planeot.grids import Density2D, normalize

        f = normalize(Density2D(g, g, np.outer(prof, prof)))
        ft = normalize(Density2D(gt, gt, np.outer(prof, prof)))
        inst = po.build_instance(f, ft)
        F, rep = po.picard_solve(inst, po.SolverConfig(nx=n, ny=n))
        assert rep.converged
        assert np.max(np.abs(F.values - F.values.T)) < 1e-7


class TestHhResidual:
    def test_uniform_zero(self, instances):
        inst = instances("uniform", 33)
        gx, gy = Grid1D(0, 1, 33), Grid1D(1, 2, 33)
        F = field(gx, gy, lambda X, Y: X * (Y - 1.0))
        res = po.hh_residual(inst, F)
        assert np.max(np.abs(res.values)) < 1e-10

    def test_product_residual_refines(self, solves):
        vals = []
        for n in (33, 65):
            inst, F, rep, _ = solves("product-gauss", n)
            vals.append(residual_window_max(po.hh_residual(inst, F)))
        assert vals[0] / vals[1] > 2.5

    def test_wrong_field_discriminates(self, solves, instances):
        inst, F, rep, _ = solves("bilinear", 33)
        converged = residual_window_max(po.hh_residual(inst, F))
        F0 = initial_iterate(inst, F.gx, F.gy)
        cold = residual_window_max(po.hh_residual(inst, F0))
        assert cold > 10.0 * converged


class TestRecoverDensity:
    def test_uniform_recovers_one(self, solves):
        inst, F, rep, cand = solves("uniform", 33)
        assert np.max(np.abs(cand.q.values - 1.0)) < 1e-9

    def test_non_monotone_raises(self, instances):
        inst = instances("uniform", 33)
        gx, gy = Grid1D(0, 1, 33), Grid1D(1, 2, 33)
        bad = field(
            gx, gy, lambda X, Y: X * (Y - 1.0) + 0.3 * np.sin(3 * np.pi * X) * np.sin(3 * np.pi * (Y - 1))
        )
        with pytest.raises(NegativeMassExcessive):
            po.recover_density(inst, bad)

    def test_marginals_within_tolerance(self, solves):
        inst, F, rep, cand = solves("product-gauss", 65)
        assert cand.max_marginal_error <= cand.marginal_tol

    def test_report_fields_populated(self, solves):
        _, _, rep, _ = solves("bilinear", 65)
        assert rep.converged is True
        assert rep.stop_reason is None
        assert rep.ellipticity_margin > 0.0
        assert rep.monotone_violations == 0
        assert np.isfinite(rep.hh_residual_max)
        assert np.isfinite(rep.mixed_M_residual_max)
