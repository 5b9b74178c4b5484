import numpy as np
import pytest
from scipy.integrate import quad

import planeot as po
from planeot.cost import product_candidate
from planeot.errors import GeometryInvalid, MarginalViolation, PositivityViolated
from planeot.grids import Density2D, Grid1D, Marginal1D


def marginal_from_density(values_fn, lo, hi, n=2001):
    g = Grid1D(lo, hi, n)
    return Marginal1D(g, np.maximum(values_fn(g.nodes), 1e-12))


class TestKrw1d:
    def test_translation(self):
        m = marginal_from_density(lambda x: np.ones_like(x), 0.0, 1.0)
        mt = marginal_from_density(lambda x: np.ones_like(x), 1.0, 2.0)
        assert abs(po.krw_1d_distance(m, mt) - 1.0) < 1e-10

    def test_self_zero(self):
        m = marginal_from_density(lambda x: 2.0 * x, 0.0, 1.0)
        assert po.krw_1d_distance(m, m) == 0.0

    def test_uniform_vs_triangular(self):
        # quantile gap is t - sqrt(t); the squared integral is 1/30,
        # cross-checked by quadrature of the closed form
        oracle, _ = quad(lambda t: (t - np.sqrt(t)) ** 2, 0.0, 1.0)
        assert abs(oracle - 1.0 / 30.0) < 1e-9
        m = marginal_from_density(lambda x: np.ones_like(x), 0.0, 1.0)
        mt = marginal_from_density(lambda x: 2.0 * x, 0.0, 1.0)
        d2 = po.krw_1d_distance(m, mt) ** 2
        # table resolution limits accuracy near the flat CDF corner at 0
        assert abs(d2 - 1.0 / 30.0) < 1.5e-4

    def test_symmetry(self):
        m = marginal_from_density(lambda x: 1.0 + 0.3 * x, 0.0, 1.0)
        mt = marginal_from_density(lambda x: 2.0 * x, 0.0, 1.0)
        assert abs(po.krw_1d_distance(m, mt) - po.krw_1d_distance(mt, m)) < 1e-12

    def test_triangle_inequality(self):
        a = marginal_from_density(lambda x: np.ones_like(x), 0.0, 1.0)
        b = marginal_from_density(lambda x: 2.0 * x, 0.0, 1.0)
        c = marginal_from_density(lambda x: 2.0 - 2.0 * x, 0.0, 1.0)
        dab = po.krw_1d_distance(a, b)
        dbc = po.krw_1d_distance(b, c)
        dac = po.krw_1d_distance(a, c)
        assert dac <= dab + dbc + 1e-12


class TestShiftRelation:
    def test_identical_measures(self):
        assert po.shift_cost_relation(0.5, 0.5, 0.5, 0.5, 2.0) == 0.0

    def test_pure_arithmetic(self):
        got = po.shift_cost_relation(0.3, 0.4, 0.6, 0.2, 1.0)
        assert abs(got - (1.0 + 0.6 - 0.8 + 1.2 - 0.4 - 2.0)) < 1e-15


class TestObjective:
    def test_uniform_is_two(self, instances):
        inst = instances("uniform", 33)
        cand = product_candidate(inst)
        assert abs(po.objective(inst, cand) - 2.0) < 1e-12

    def test_product_equals_marginal_split(self, instances):
        inst = instances("product-gauss", 65)
        cand = product_candidate(inst)
        ksum = (
            po.krw_1d_distance(inst.f1, inst.f1_tilde) ** 2
            + po.krw_1d_distance(inst.f2, inst.f2_tilde) ** 2
        )
        assert abs(po.objective(inst, cand) - ksum) < 2e-4

    def test_product_start_above_optimum(self, instances):
        inst = instances("bilinear", 33)
        start_val = po.objective(inst, product_candidate(inst))
        _, best = po.minimize_objective_direct(inst, 33, 33, iters=8)
        assert best < start_val

    def test_nonnegative(self, instances, rng):
        inst = instances("bilinear", 33)
        from planeot.oracle import _project_marginals

        vals = _project_marginals(
            0.2 + rng.random((33, 33)),
            inst.f1.values,
            inst.f2_tilde.values,
            inst.f.gx.h,
            inst.f_tilde.gy.h,
        )
        q = Density2D(Grid1D(0, 1, 33), Grid1D(1, 2, 33), vals)
        cand = po.make_candidate(inst, q, marginal_tol=1e-8)
        assert po.objective(inst, cand) >= 0.0

    def test_infeasible_rejected(self, instances):
        inst = instances("bilinear", 33)
        q = Density2D(Grid1D(0, 1, 33), Grid1D(1, 2, 33), np.full((33, 33), 2.0))
        with pytest.raises(MarginalViolation):
            po.make_candidate(inst, q, marginal_tol=1e-8)


class TestSplitCheck:
    def test_single_sample(self, instances):
        inst = instances("uniform", 33)
        assert po.split_check(inst, [(0.2, 0.9, 1.4, 1.1)]) < 1e-15

    def test_thousand_samples(self, instances, rng):
        inst = instances("uniform", 33)
        pts = np.column_stack(
            [rng.random(1000), rng.random(1000), 1 + rng.random(1000), 1 + rng.random(1000)]
        )
        assert po.split_check(inst, pts) <= 1e-12

    def test_degenerate_corners(self, instances):
        inst = instances("uniform", 33)
        # X = (0,0), X~ = (2,2): both sides equal 8
        assert abs((0.0 - 2.0) ** 2 + (0.0 - 2.0) ** 2 - 8.0) < 1e-15
        assert po.split_check(inst, [(0.0, 0.0, 2.0, 2.0)]) == 0.0


class TestMField:
    def test_uniform_closed_form(self, instances):
        # boundary integrals give 2y - 2x - 1; interior term vanishes
        inst = instances("uniform", 33)
        cand = product_candidate(inst)
        M = po.M_field(inst, cand)
        X, Y = np.meshgrid(M.gx.nodes, M.gy.nodes, indexing="ij")
        assert np.max(np.abs(M.values - (2 * Y - 2 * X - 1.0))) < 1e-10

    def test_corner_value(self, instances):
        inst = instances("uniform", 33)
        M = po.M_field(inst, product_candidate(inst))
        assert abs(M.values[0, 0] - 1.0) < 1e-12  # M(0, 1) = x^2 + y^2 there

    def test_product_interior_term_vanishes(self, instances):
        inst = instances("product-gauss", 65)
        cand = product_candidate(inst)
        assert po.M_closed_form_residual(inst, cand) <= 1e-8

    def test_perturbation_discriminates(self, instances):
        inst = instances("product-gauss", 65)
        cand = product_candidate(inst)
        r_opt = po.M_closed_form_residual(inst, cand)
        pert = po.CornerPerturbation(0.3, 0.55, 1.3, 1.55, eps=0.1, delta=0.05)
        r_pert = po.M_closed_form_residual(inst, po.apply_perturbation(cand, pert))
        assert r_pert > 10.0 * max(r_opt, 1e-8)


class TestPerturbation:
    def test_zero_delta_unchanged(self, instances):
        inst = instances("uniform", 33)
        cand = product_candidate(inst)
        pert = po.CornerPerturbation(0.2, 0.6, 1.2, 1.6, eps=0.1, delta=0.0)
        out = po.apply_perturbation(cand, pert)
        assert np.array_equal(out.q.values, cand.q.values)

    def test_marginals_preserved(self, instances, rng):
        inst = instances("product-gauss", 33)
        cand = product_candidate(inst)
        from planeot.grids import marginal

        for _ in range(5):
            eps = rng.uniform(0.02, 0.1)
            a = rng.uniform(0.02, 1 - 2 * eps - 0.04)
            a1 = rng.uniform(a + eps + 0.01, 1 - eps - 0.01)
            b = rng.uniform(1.02, 2 - 2 * eps - 0.04)
            b1 = rng.uniform(b + eps + 0.01, 2 - eps - 0.01)
            pert = po.CornerPerturbation(a, a1, b, b1, eps, delta=1e-4)
            out = po.apply_perturbation(cand, pert)
            mx = marginal(out.q, "x")
            my = marginal(out.q, "y")
            assert np.max(np.abs(mx.values - inst.f1.values)) < 1e-10
            assert np.max(np.abs(my.values - inst.f2_tilde.values)) < 1e-10

    def test_uniform_objective_increases(self, instances):
        inst = instances("uniform", 33)
        cand = product_candidate(inst)
        base = po.objective(inst, cand)
        pert = po.CornerPerturbation(0.2, 0.6, 1.2, 1.6, eps=0.1, delta=0.1)
        perturbed = po.objective(inst, po.apply_perturbation(cand, pert))
        assert perturbed > base

    def test_positivity_guard(self, instances):
        inst = instances("uniform", 33)
        cand = product_candidate(inst)
        pert = po.CornerPerturbation(0.2, 0.6, 1.2, 1.6, eps=0.1, delta=1.5)
        with pytest.raises(PositivityViolated):
            po.apply_perturbation(cand, pert)

    def test_geometry_guard(self):
        with pytest.raises(GeometryInvalid):
            po.CornerPerturbation(0.5, 0.4, 1.2, 1.6, eps=0.1, delta=0.01)
        with pytest.raises(GeometryInvalid):
            po.CornerPerturbation(0.2, 0.6, 1.2, 1.95, eps=0.1, delta=0.01)


class TestReconstruction:
    def test_uniform_translation_point(self, instances):
        inst = instances("uniform", 33)
        cand = product_candidate(inst)
        X, Xt = po.reconstruct_coupling(inst, cand, [(0.3, 1.7)])
        assert np.allclose(X[0], [0.3, 0.7], atol=1e-10)
        assert np.allclose(Xt[0], [1.3, 1.7], atol=1e-10)

    def test_product_first_coordinate_rank_only(self, instances):
        inst = instances("product-gauss", 33)
        cand = product_candidate(inst)
        pts = [(0.4, 1.2), (0.4, 1.8)]
        _, Xt = po.reconstruct_coupling(inst, cand, pts)
        assert abs(Xt[0, 0] - Xt[1, 0]) < 1e-12

    def test_monte_carlo_matches_objective(self, solves):
        inst, F, rep, cand = solves("bilinear", 33)
        rng = np.random.default_rng(11)
        pts = po.sample_candidate(cand, 100_000, rng)
        X, Xt = po.reconstruct_coupling(inst, cand, pts)
        mc = float(np.mean(np.sum((X - pts) ** 2, axis=1) + np.sum((pts - Xt) ** 2, axis=1)))
        obj = po.objective(inst, cand)
        assert abs(mc - obj) / obj <= 0.01


class TestTransportMap:
    def test_uniform_translation(self, instances):
        # between uniform squares the product coupling is the optimal one,
        # and its map is the translation by (1, 1)
        inst = instances("uniform", 33)
        pts = np.array([[0.3, 0.7], [0.05, 0.9], [0.5, 0.5]])
        images, preimages = po.transport_map(inst, product_candidate(inst), pts, pts + 1.0)
        assert np.allclose(images, pts + 1.0, atol=1e-10)
        assert np.allclose(preimages, pts, atol=1e-10)

    def test_round_trip(self, solves):
        # the inverse undoes the map at the 24-atom centres, and every
        # image lies in the target square
        inst, _, _, cand = solves("bilinear", 33)
        src = po.atomize(inst.f, 24, 24).points
        images, _ = po.transport_map(inst, cand, src, po.atomize(inst.f_tilde, 24, 24).points)
        _, back = po.transport_map(inst, cand, src, images)
        assert np.max(np.abs(back - src)) <= 1e-12
        assert np.all((images >= 1.0) & (images <= 2.0))


class TestMoments:
    def test_uniform_moments(self, instances):
        inst = instances("uniform", 33)
        ex, ey = po.density_moments(inst.f)
        assert abs(ex - 0.5) < 1e-12 and abs(ey - 0.5) < 1e-12

    def test_shift_consistency(self, instances):
        # shifting the target by (1,1) changes the first moments by one
        inst = instances("bilinear", 33)
        ex1, ey1 = po.density_moments(inst.f_tilde)
        q = Density2D(Grid1D(0, 1, 33), Grid1D(0, 1, 33), inst.f_tilde.values)
        ex0, ey0 = po.density_moments(q)
        assert abs(ex1 - ex0 - 1.0) < 1e-12
        assert abs(ey1 - ey0 - 1.0) < 1e-12
