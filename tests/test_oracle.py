import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import planeot as po
from planeot import oracle
from planeot.errors import Infeasible, SizeGuard
from planeot.grids import Density2D, Grid1D
from planeot.cost import _objective_value
from planeot.oracle import _fd_gradient, _project_marginals


def uniform_density(n=17, lo=0.0):
    g = Grid1D(lo, lo + 1.0, n)
    return po.normalize(Density2D(g, g, np.ones((n, n))))


def bilinear_density(n=33):
    g = Grid1D(0.0, 1.0, n)
    X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    return po.normalize(Density2D(g, g, 1.0 + 0.5 * (2 * X - 1) * (2 * Y - 1)))


def random_density(rng, lo=0.0, n=17):
    g = Grid1D(lo, lo + 1.0, n)
    return po.normalize(Density2D(g, g, 0.3 + rng.random((n, n))))


def dense_reference(src, dst, method="highs-ipm"):
    """Independent formulation: the transportation LP over every pair,
    its constraints built by Kronecker products. Returns (plan, cost)."""
    n, m = len(src.weights), len(dst.weights)
    diff = src.points[:, None, :] - dst.points[None, :, :]
    C = np.einsum("ijk,ijk->ij", diff, diff)
    A_rows = sp.kron(sp.eye(n, format="csr"), np.ones((1, m)), format="csr")
    A_cols = sp.kron(np.ones((1, n)), sp.eye(m, format="csr"), format="csr")
    res = linprog(
        C.ravel(),
        A_eq=sp.vstack([A_rows, A_cols[:-1]], format="csr"),
        b_eq=np.concatenate([src.weights, dst.weights[:-1]]),
        bounds=(0, None),
        method=method,
    )
    assert res.status == 0
    return res.x.reshape(n, m), res.fun


def assert_matches_reference(src, dst, method="highs-ipm"):
    plan, cost = po.exact_ot(src, dst)
    ref_plan, ref_cost = dense_reference(src, dst, method)
    assert abs(cost - ref_cost) <= 1e-12 * abs(ref_cost)
    for p in (plan.plan, ref_plan):
        assert np.max(np.abs(p.sum(axis=1) - src.weights)) < 1e-9
        assert np.max(np.abs(p.sum(axis=0) - dst.weights)) < 1e-9
    return cost


def preset_atoms(name, na):
    f, ft = po.build_preset(name, 33, 33)
    return po.atomize(f, na, na), po.atomize(ft, na, na)


def count_lp_solves(monkeypatch):
    """Record the number of variables of every restricted LP solved."""
    sizes = []

    def counting(c, **kwargs):
        sizes.append(len(c))
        return linprog(c, **kwargs)

    monkeypatch.setattr(oracle, "linprog", counting)
    return sizes


class TestAtomize:
    def test_uniform_two_by_two(self):
        am = po.atomize(uniform_density(), 2, 2)
        assert np.allclose(am.weights, 0.25, atol=1e-13)
        assert np.allclose(sorted(am.points[:, 0]), [0.25, 0.25, 0.75, 0.75])

    def test_weights_sum_to_one(self, rng):
        g = Grid1D(0.0, 1.0, 21)
        d = po.normalize(Density2D(g, g, 0.3 + rng.random((21, 21))))
        am = po.atomize(d, 7, 5)
        assert abs(am.weights.sum() - 1.0) < 1e-12

    def test_bilinear_cell_integrals(self):
        # integral of 1 + a(2x-1)(2y-1) over [x0,x1]x[y0,y1] has the
        # closed form below; the grid integral of the interpolant matches
        # it exactly because the density is bilinear
        d = bilinear_density(33)
        am = po.atomize(d, 4, 4)
        a = 0.5
        edges = np.linspace(0.0, 1.0, 5)

        def anti(t):  # antiderivative of (2t - 1)
            return t**2 - t

        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                x0, x1 = edges[i], edges[i + 1]
                y0, y1 = edges[j], edges[j + 1]
                expected[i, j] = (x1 - x0) * (y1 - y0) + a * (anti(x1) - anti(x0)) * (
                    anti(y1) - anti(y0)
                )
        assert np.max(np.abs(am.weights.reshape(4, 4) - expected)) < 1e-10


class TestExactOt:
    def test_single_atoms(self):
        a = po.AtomizedMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
        b = po.AtomizedMeasure(np.array([[1.0, 2.0]]), np.array([1.0]))
        plan, cost = po.exact_ot(a, b)
        assert abs(cost - 5.0) < 1e-12
        assert plan.plan.shape == (1, 1)

    def test_translation_cost_two(self):
        src = po.atomize(uniform_density(17, 0.0), 16, 16)
        dst = po.atomize(uniform_density(17, 1.0), 16, 16)
        plan, cost = po.exact_ot(src, dst)
        assert abs(cost - 2.0) < 1e-9
        assert plan.dual_gap <= 1e-9 * cost + 1e-12

    def test_lp_cross_check(self):
        # the reference through the dual simplex rather than the interior point
        src = po.atomize(uniform_density(17, 0.0), 16, 16)
        dst = po.atomize(bilinear_density(33), 16, 16)
        assert_matches_reference(src, dst, "highs-ds")

    def test_plan_marginals(self, rng):
        # unequal sizes, above the size solved over every pair at once
        src = po.atomize(random_density(rng, 0.0), 8, 8)
        dst = po.atomize(random_density(rng, 1.0), 9, 7)
        assert len(src.weights) * len(dst.weights) > oracle.DENSE_PAIRS
        assert_matches_reference(src, dst)

    def test_1d_reduction(self):
        # measures on one horizontal line reduce to the 1D matcher
        xs = np.array([0.1, 0.3, 0.8])
        xt = np.array([0.2, 0.55, 0.9])
        wa = np.array([0.5, 0.3, 0.2])
        wb = np.array([0.2, 0.5, 0.3])
        src = po.AtomizedMeasure(np.column_stack([xs, np.full(3, 0.4)]), wa)
        dst = po.AtomizedMeasure(np.column_stack([xt, np.full(3, 0.4)]), wb)
        _, cost2d = po.exact_ot(src, dst)
        cost1d = po.exact_ot_1d(wa, xs, wb, xt)
        assert abs(cost2d - cost1d) < 1e-12

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            po.AtomizedMeasure(np.zeros((2, 2)), np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_points_rejected(self, bad):
        with pytest.raises(ValueError, match="points"):
            po.AtomizedMeasure(np.array([[0.0, 0.0], [bad, 1.0]]), np.array([0.5, 0.5]))

    def test_size_guard(self):
        pts = np.zeros((4000, 2))
        w = np.full(4000, 1.0 / 4000)
        m = po.AtomizedMeasure(pts, w)
        with pytest.raises(SizeGuard, match="16000000 atom pairs exceed the guard of 2000000"):
            po.exact_ot(m, m)

    def test_refinement_approaches_pde_cost(self, solves):
        # the discrete-transport cost converges to the minimized objective
        # as the atomization refines
        inst, F, rep, _ = solves("bilinear", 33)
        gaps = []
        for na in (8, 16):
            _, c = po.exact_ot(
                po.atomize(inst.f, na, na), po.atomize(inst.f_tilde, na, na)
            )
            gaps.append(abs(c - rep.cost))
        assert gaps[1] < gaps[0] / 2.0


class TestCoarseToFine:
    """The sparse coarse-to-fine LP against the dense reference, above the
    size at which ``exact_ot`` stops solving over every pair."""

    def test_uniform_ties(self):
        src = po.atomize(uniform_density(17, 0.0), 16, 16)
        dst = po.atomize(uniform_density(17, 1.0), 16, 16)
        assert len(src.weights) * len(dst.weights) > oracle.DENSE_PAIRS
        assert_matches_reference(src, dst)

    @pytest.mark.parametrize("na", [16, 24])
    def test_product_gauss(self, na):
        assert_matches_reference(*preset_atoms("product-gauss", na))

    @pytest.mark.parametrize("na", [16, 24])
    def test_random_densities(self, na):
        # at 24 atoms, a pair on which HiGHS returns plan entries of -9e-8
        # (inside its absolute 1e-7 tolerance) unless the masses are scaled
        rng = np.random.default_rng(2)
        src = po.atomize(random_density(rng, 0.0), na, na)
        dst = po.atomize(random_density(rng, 1.0), na, na)
        assert_matches_reference(src, dst)

    def test_random_point_clouds(self, rng):
        def cloud(n, shift):
            w = rng.random(n) + 0.1
            return po.AtomizedMeasure(rng.random((n, 2)) * [1.0, 2.0] + shift, w / w.sum())

        assert_matches_reference(cloud(300, 0.0), cloud(250, 0.5))

    def test_one_line(self, rng):
        # every atom on y = 0.4: the bins are one row deep, and the cost
        # is the 1D matcher's
        def line(n, lo):
            x = np.sort(lo + rng.random(n))
            w = rng.random(n) + 0.1
            return x, w / w.sum()

        xs, wa = line(60, 0.0)
        xt, wb = line(50, 0.3)
        src = po.AtomizedMeasure(np.column_stack([xs, np.full(60, 0.4)]), wa)
        dst = po.AtomizedMeasure(np.column_stack([xt, np.full(50, 0.4)]), wb)
        cost = assert_matches_reference(src, dst)
        assert abs(cost - po.exact_ot_1d(wa, xs, wb, xt)) < 1e-12

    def test_pricing_repairs_undilated_seed(self, monkeypatch):
        # seeded with the coarse support alone, the plan reaches the dense
        # optimum only by pricing pairs in over further rounds: three levels
        # (16, 64 and 256 atoms) but more than three LP solves
        monkeypatch.setattr(oracle, "_neighbourhood", lambda mask: mask)
        sizes = count_lp_solves(monkeypatch)
        assert_matches_reference(*preset_atoms("bilinear", 16))
        assert len(sizes) > 3

    def test_default_atom_count(self):
        # at 32 atoms a side one level's duals are feasible on their own
        # support only to about -5e-8, so pricing in-support pairs as well
        # would re-solve an unchanged LP until the round cap. The dense LP
        # over every pair, too large for this suite, costs 2.0037394993007163.
        _, cost = po.exact_ot(*preset_atoms("bilinear", 32))
        assert abs(cost - 2.0037394993007163) <= 1e-12 * cost

    def test_round_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "_neighbourhood", lambda mask: mask)
        monkeypatch.setattr(oracle, "PRICING_ROUNDS", 1)
        with pytest.raises(Infeasible, match="did not settle in 1 rounds"):
            po.exact_ot(*preset_atoms("bilinear", 16))

    def test_dense_below_threshold(self, monkeypatch):
        # small problems take one LP over every pair
        sizes = count_lp_solves(monkeypatch)
        src, dst = preset_atoms("bilinear", 6)
        po.exact_ot(src, dst)
        assert sizes == [len(src.weights) * len(dst.weights)]


class TestMapSeed:
    """The transport LP seeded by a solve's transport map."""

    @pytest.mark.parametrize("n, na, shift", [(33, 24, 0.0), (65, 12, 1.0)])
    def test_one_lp_matches_coarse_to_fine(self, solves, monkeypatch, n, na, shift):
        # bilinear 33 at 24 atoms, and the algebraic-identities pair: f
        # against f~ moved back by (1, 1), mapped by the 65 solve. The seed
        # skips the coarse levels and settles in one LP
        inst, _, _, cand = solves("bilinear", n)
        ft = inst.f_tilde
        target = Density2D(
            Grid1D(ft.gx.lo - shift, ft.gx.hi - shift, ft.gx.n),
            Grid1D(ft.gy.lo - shift, ft.gy.hi - shift, ft.gy.n),
            ft.values,
        )
        src, dst = po.atomize(inst.f, na, na), po.atomize(target, na, na)
        _, ref = po.exact_ot(src, dst)
        images, preimages = po.transport_map(inst, cand, src.points, dst.points + shift)
        sizes = count_lp_solves(monkeypatch)
        plan, cost = po.exact_ot(src, dst, (images - shift, preimages))
        assert abs(cost - ref) <= 1e-12 * abs(ref)
        assert plan.rounds == 1 and plan.priced_in == 0 and len(sizes) == 1

    def test_wrong_map_repaired(self):
        # every image and preimage at one corner: the support near the map
        # cannot carry the marginals, the north-west-corner plan's pairs
        # make it feasible, and pricing finds the optimum
        src, dst = preset_atoms("bilinear", 16)
        images = np.full((len(src.weights), 2), 2.0)
        preimages = np.zeros((len(dst.weights), 2))
        plan, cost = po.exact_ot(src, dst, (images, preimages))
        _, ref_cost = dense_reference(src, dst)
        assert abs(cost - ref_cost) <= 1e-12 * abs(ref_cost)
        assert plan.rounds > 1 and plan.priced_in > 0

    def test_shapes_checked(self):
        src, dst = preset_atoms("bilinear", 4)
        with pytest.raises(ValueError, match="near"):
            po.exact_ot(src, dst, (src.points, dst.points[:-1]))


class TestExactOt1d:
    def test_identical(self):
        w = np.array([0.5, 0.5])
        p = np.array([0.2, 0.8])
        assert po.exact_ot_1d(w, p, w, p) == 0.0

    def test_unit_shift(self):
        n = 50
        w = np.full(n, 1.0 / n)
        p = np.linspace(0, 1, n)
        assert abs(po.exact_ot_1d(w, p, w, p + 1.0) - 1.0) < 1e-12

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            po.exact_ot_1d([0.5, 0.5], [0.8, 0.2], [0.5, 0.5], [0.2, 0.8])

    def test_triangular_vs_quantile_distance(self):
        n = 2001
        g = Grid1D(0.0, 1.0, n)
        from planeot.grids import Marginal1D

        m = Marginal1D(g, np.ones(n))
        mt = Marginal1D(g, np.maximum(2.0 * g.nodes, 1e-12))
        k2 = po.krw_1d_distance(m, mt) ** 2
        atoms = 1000
        centers = (np.arange(atoms) + 0.5) / atoms
        w_u = np.full(atoms, 1.0 / atoms)
        w_t = np.diff((np.arange(atoms + 1) / atoms) ** 2)
        c = po.exact_ot_1d(w_u, centers, w_t, centers)
        assert abs(k2 - c) / c < 0.005


class TestDirectMinimizer:
    def test_uniform_already_optimal(self, instances):
        inst = instances("uniform", 33)
        cand, val = po.minimize_objective_direct(inst, 33, 33, iters=5)
        assert abs(val - 2.0) < 1e-4

    def test_monotone_descent(self, instances):
        inst = instances("bilinear", 33)
        from planeot.cost import product_candidate

        start_cand = product_candidate(inst)
        start_val = po.objective(inst, start_cand)
        _, val = po.minimize_objective_direct(inst, 33, 33, iters=6)
        assert val <= start_val + 1e-12

    def test_size_guard(self, instances):
        inst = instances("uniform", 33)
        with pytest.raises(SizeGuard):
            po.minimize_objective_direct(inst, 65, 65)

    def test_fd_gradient_matches_naive(self, instances):
        inst = instances("bilinear", 33)
        nx = ny = 9
        gx = Grid1D(0.0, 1.0, nx)
        gy = Grid1D(1.0, 2.0, ny)
        t1 = inst.f1.density_at(gx.nodes)
        t2 = inst.f2_tilde.density_at(gy.nodes)
        q = _project_marginals(np.outer(t1, t2), t1, t2, gx.h, gy.h)
        g_fast = _fd_gradient(inst, q, gx, gy)
        base = _objective_value(inst, q, gx, gy)
        g_naive = np.zeros_like(q)
        for i in range(nx):
            for j in range(ny):
                bumped = q.copy()
                bumped[i, j] += 1e-6
                g_naive[i, j] = (_objective_value(inst, bumped, gx, gy) - base) / 1e-6
        assert np.max(np.abs(g_fast - g_naive)) < 1e-8
