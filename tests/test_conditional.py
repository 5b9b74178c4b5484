import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

import planeot as po
from planeot import io as gridio
from planeot.cli import main
from planeot.conditional import (
    FIRST_GIVEN_SECOND,
    SECOND_GIVEN_FIRST,
    ConditionalQuantile,
)
from planeot.errors import DegenerateDensity, OutOfRange
from planeot.grids import EPS_POS, Density2D, Grid1D, ScalarField2D, _d1_edge3, bilinear
from planeot.pde import _marginal_tables, assemble_coefficients, initial_iterate


def bilinear_density(n=65, alpha=0.5):
    g = Grid1D(0.0, 1.0, n)
    X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    return po.normalize(Density2D(g, g, 1.0 + alpha * (2 * X - 1) * (2 * Y - 1)))


def uniform_shifted(n=33):
    g = Grid1D(1.0, 2.0, n)
    return po.normalize(Density2D(g, g, np.ones((n, n))))


# closed-form conditional CDF of the bilinear density: F1(x|y) = x + 0.5(2y-1)(x^2-x)
def bilinear_cdf(x, y, alpha=0.5):
    return x + alpha * (2 * y - 1) * (x**2 - x)


def dense_quantile(cq, s, conditioning):
    """Reference quantile: materialise every query's blended CDF column, count crossings."""
    s_in, c_in = np.broadcast_arrays(
        np.asarray(s, dtype=float), np.asarray(conditioning, dtype=float)
    )
    sq = np.clip(s_in.ravel(), 0.0, 1.0)
    cg = cq.cond_grid
    t = np.clip((c_in.ravel() - cg.lo) / cg.h, 0.0, cg.n - 1.0)
    j = np.minimum(t.astype(int), cg.n - 2)
    w = t - j
    prof = cq._tbl[:, j] * (1.0 - w) + cq._tbl[:, j + 1] * w
    n = cq.inv_grid.n
    idx = np.clip((prof <= sq[None, :]).sum(axis=0) - 1, 0, n - 2)
    cols = np.arange(sq.size)
    c0 = prof[idx, cols]
    c1 = prof[idx + 1, cols]
    frac = (sq - c0) / np.maximum(c1 - c0, 1e-300)
    v = cq.inv_grid.nodes[idx] + np.clip(frac, 0.0, 1.0) * cq.inv_grid.h
    return v.reshape(s_in.shape)


def stencil_dcond(cq, point, conditioning):
    """Reference conditioning derivative: cond_cdf differenced at the conditioning value.

    Central at interior values; one-sided second order wherever a
    central step would leave the conditioning domain.
    """
    g_in, c_in = np.broadcast_arrays(
        np.asarray(point, dtype=float), np.asarray(conditioning, dtype=float)
    )
    g = g_in.ravel()
    c = c_in.ravel()
    cg = cq.cond_grid
    h = cg.h
    lo_side = c - h < cg.lo - 1e-12
    hi_side = c + h > cg.hi + 1e-12
    mid = ~(lo_side | hi_side)
    dF = np.empty_like(c)
    dF[mid] = (cq.cond_cdf(g[mid], c[mid] + h) - cq.cond_cdf(g[mid], c[mid] - h)) / (2.0 * h)
    gl, cl = g[lo_side], c[lo_side]
    dF[lo_side] = (
        -3.0 * cq.cond_cdf(gl, cl) + 4.0 * cq.cond_cdf(gl, cl + h) - cq.cond_cdf(gl, cl + 2.0 * h)
    ) / (2.0 * h)
    gh, ch = g[hi_side], c[hi_side]
    dF[hi_side] = (
        3.0 * cq.cond_cdf(gh, ch) - 4.0 * cq.cond_cdf(gh, ch - h) + cq.cond_cdf(gh, ch - 2.0 * h)
    ) / (2.0 * h)
    marg = cq.marginal.density_at(c)
    return (-dF * marg / point_field(cq, cq.source, g, c)).reshape(g_in.shape)


def point_field(cq, field, point, conditioning):
    """Reference read of a field over (x, y): bilinear at the bare point."""
    if cq._inv_axis == 0:
        return bilinear(field, point, conditioning)
    return bilinear(field, conditioning, point)


def sine_density(n):
    g = Grid1D(0.0, 1.0, n)
    X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    return po.normalize(Density2D(g, g, 1.0 + 0.5 * np.sin(3 * X) * np.cos(3 * Y)))


class TestCondCdf:
    def test_uniform_is_identity(self):
        g = Grid1D(0.0, 1.0, 21)
        d = po.normalize(Density2D(g, g, np.ones((21, 21))))
        cq = ConditionalQuantile(d, FIRST_GIVEN_SECOND)
        for y in (0.0, 0.31, 1.0):
            assert abs(cq.cond_cdf(0.42, y) - 0.42) < 1e-12

    def test_edges(self, rng):
        g = Grid1D(0.0, 1.0, 17)
        d = po.normalize(Density2D(g, g, 0.5 + rng.random((17, 17))))
        cq = ConditionalQuantile(d, FIRST_GIVEN_SECOND)
        assert cq.cond_cdf(0.0, 0.5) == 0.0
        assert abs(cq.cond_cdf(1.0, 0.5) - 1.0) < 1e-14

    def test_bilinear_closed_form(self):
        d = bilinear_density(65)
        cq = ConditionalQuantile(d, FIRST_GIVEN_SECOND)
        h = d.gx.h
        for x, y in [(0.3, 0.2), (0.71, 0.9), (0.5, 0.55)]:
            assert abs(cq.cond_cdf(x, y) - bilinear_cdf(x, y)) < 5.0 * h**2


class TestQuantile:
    def test_uniform_shifted(self):
        cq = ConditionalQuantile(uniform_shifted(), FIRST_GIVEN_SECOND)
        for s, y in [(0.0, 1.5), (0.37, 1.1), (1.0, 2.0)]:
            assert abs(cq.quantile(s, y) - (1.0 + s)) < 1e-12

    def test_level_limits(self, rng):
        g = Grid1D(0.0, 1.0, 17)
        d = po.normalize(Density2D(g, g, 0.5 + rng.random((17, 17))))
        cq = ConditionalQuantile(d, FIRST_GIVEN_SECOND)
        assert cq.quantile(0.0, 0.5) == 0.0
        assert abs(cq.quantile(1.0, 0.5) - 1.0) < 1e-12

    def test_bilinear_root(self):
        # level 0.5 at y = 0.75 solves x + 0.25 (x^2 - x) = 0.5
        root = brentq(lambda x: bilinear_cdf(x, 0.75) - 0.5, 0.0, 1.0, xtol=1e-12)
        assert abs(root - (-3.0 + np.sqrt(17.0)) / 2.0) < 1e-12
        d = bilinear_density(65)
        cq = ConditionalQuantile(d, FIRST_GIVEN_SECOND)
        assert abs(cq.quantile(0.5, 0.75) - root) < 5.0 * d.gx.h**2

    def test_clamp_policy(self):
        cq = ConditionalQuantile(uniform_shifted(), FIRST_GIVEN_SECOND)
        assert abs(cq.quantile(1.0 + 5e-10, 1.5) - 2.0) < 1e-9
        with pytest.raises(OutOfRange):
            cq.quantile(1.01, 1.5)

    def test_nan_level_rejected(self):
        cq = ConditionalQuantile(uniform_shifted(), FIRST_GIVEN_SECOND)
        with pytest.raises(OutOfRange, match="level nan is not finite"):
            cq.quantile(np.nan, 1.5)
        with pytest.raises(OutOfRange, match="level nan is not finite"):
            cq.quantile(np.array([0.2, np.nan, 0.7, np.inf]), cq.cond_grid.nodes[:4])

    def test_matches_dense_reference(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=80, deadline=None, database=None)
        @hyp.given(st.data())
        def check(data):
            nx = data.draw(st.integers(3, 9), label="nx")
            ny = data.draw(st.integers(3, 9), label="ny")
            vals = data.draw(
                st.lists(st.floats(0.05, 20.0), min_size=nx * ny, max_size=nx * ny),
                label="density",
            )
            which = data.draw(st.sampled_from([FIRST_GIVEN_SECOND, SECOND_GIVEN_FIRST]))
            d = Density2D(Grid1D(0.0, 1.0, nx), Grid1D(1.0, 2.0, ny),
                          np.reshape(vals, (nx, ny)))
            cq = ConditionalQuantile(d, which)
            n_inv, n_cond = cq._tbl.shape
            cg = cq.cond_grid
            levels, conds = [], []
            for _ in range(data.draw(st.integers(1, 24), label="queries")):
                k = data.draw(st.integers(0, n_inv - 1))
                j = data.draw(st.integers(0, n_cond - 1))
                # levels include the table knot _tbl[k, j], conditioning its node j
                s = data.draw(st.one_of(
                    st.sampled_from([0.0, 1.0, -5e-10, 1.0 + 5e-10, float(cq._tbl[k, j])]),
                    st.floats(0.0, 1.0),
                ))
                c = data.draw(st.one_of(
                    st.just(float(cg.nodes[j])), st.floats(cg.lo, cg.hi)
                ))
                levels.append(s)
                conds.append(c)
            got = cq.quantile(np.array(levels), np.array(conds))
            assert np.array_equal(got, dense_quantile(cq, levels, conds))
            one = cq.quantile(levels[0], conds[0])
            assert type(one) is float
            assert one == float(dense_quantile(cq, levels[0], conds[0]))

        check()

    def test_memory_linear_in_queries(self, instances):
        inst = instances("product-gauss", 129)
        cq = inst.cq_G2
        levels = np.random.default_rng(3).random((129, 129))
        conds = np.broadcast_to(cq.cond_grid.nodes[:, None], levels.shape)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cq.quantile(levels, conds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / levels.size < 256


class TestBracketTraffic:
    """Which bracket path real solves take: node columns or bisection."""

    def test_preset_solve_stays_on_nodes(self, tmp_path, monkeypatch, capsys):
        # conditioning on the solve grid lands exactly on table nodes; a
        # change in node arithmetic would silently send it all to bisection
        def refuse(*args):
            raise AssertionError("off-node bracket taken")

        monkeypatch.setattr(ConditionalQuantile, "_bisect_bracket", refuse)
        rc = main(["solve", "--preset", "bilinear", "--nx", "33", "--ny", "33",
                   "--out", str(tmp_path / "run")])
        assert rc == 0

    def test_unnested_file_grid_bisects(self, tmp_path, monkeypatch, capsys):
        # density files on 100 nodes solved at 65: conditioning falls
        # between the files' nodes
        g = Grid1D(0.0, 1.0, 100)
        X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        paths = []
        for name, vals in (
            ("p.dat", 1.0 + 0.3 * np.sin(3 * X) * np.cos(2 * Y)),
            ("q.dat", 1.0 + 0.3 * np.exp(-((X - 0.4) ** 2 + (Y - 0.6) ** 2) / 0.1)),
        ):
            paths.append(str(tmp_path / name))
            gridio.write_density(paths[-1], po.normalize(Density2D(g, g, vals)))
        bisected = []
        bisect = ConditionalQuantile._bisect_bracket

        def counting(self, sq, j, w):
            bisected.append(sq.size)
            return bisect(self, sq, j, w)

        monkeypatch.setattr(ConditionalQuantile, "_bisect_bracket", counting)
        rc = main(["solve", "--density-p", paths[0], "--density-q", paths[1],
                   "--nx", "65", "--ny", "65", "--out", str(tmp_path / "run")])
        assert rc == 0
        assert sum(bisected) > 0


class TestQuantileDs:
    def test_uniform_shifted_is_one(self):
        cq = ConditionalQuantile(uniform_shifted(), FIRST_GIVEN_SECOND)
        assert abs(cq.quantile_ds(cq.quantile(0.4, 1.3), 1.3) - 1.0) < 1e-10

    def test_product_independent_of_conditioning(self, instances):
        inst = instances("product-gauss", 65)
        cq = ConditionalQuantile(inst.f, FIRST_GIVEN_SECOND)
        vals = [cq.quantile_ds(cq.quantile(0.37, y), y) for y in (0.1, 0.5, 0.9)]
        assert np.max(np.abs(np.diff(vals))) < 1e-10

    def test_bilinear_chain_value(self):
        d = bilinear_density(65)
        cq = ConditionalQuantile(d, FIRST_GIVEN_SECOND)
        root = brentq(lambda x: bilinear_cdf(x, 0.75) - 0.5, 0.0, 1.0, xtol=1e-12)
        f_at = 1.0 + 0.5 * (2 * root - 1) * (2 * 0.75 - 1)
        # conditioning marginal is uniform, so ds = 1 / f(G, y)
        assert abs(cq.quantile_ds(cq.quantile(0.5, 0.75), 0.75) - 1.0 / f_at) < 5e-4


class TestQuantileDcond:
    def test_product_zero(self, instances):
        inst = instances("product-gauss", 65)
        cq = ConditionalQuantile(inst.f, FIRST_GIVEN_SECOND)
        for s, y in [(0.2, 0.3), (0.8, 0.7)]:
            assert abs(cq.quantile_dcond(cq.quantile(s, y), y)) < 1e-10

    def test_uniform_zero(self):
        g = Grid1D(0.0, 1.0, 21)
        d = po.normalize(Density2D(g, g, np.ones((21, 21))))
        cq = ConditionalQuantile(d, FIRST_GIVEN_SECOND)
        assert abs(cq.quantile_dcond(cq.quantile(0.6, 0.4), 0.4)) < 1e-12

    def test_bilinear_symbolic(self):
        # at (s, y) = (0.5, 0.5): G = 0.5, dF/dy = x^2 - x = -0.25,
        # dF/dx = f(0.5, 0.5) = 1, so dG/dcond = 0.25
        d = bilinear_density(129)
        cq = ConditionalQuantile(d, FIRST_GIVEN_SECOND)
        got = cq.quantile_dcond(cq.quantile(0.5, 0.5), 0.5)
        assert abs(got - 0.25) < 5e-4
        # numeric cross-check by differencing the closed-form inverse
        eps = 1e-5
        g_plus = brentq(lambda x: bilinear_cdf(x, 0.5 + eps) - 0.5, 0.0, 1.0, xtol=1e-13)
        g_minus = brentq(lambda x: bilinear_cdf(x, 0.5 - eps) - 0.5, 0.0, 1.0, xtol=1e-13)
        assert abs((g_plus - g_minus) / (2 * eps) - 0.25) < 1e-6

    @pytest.mark.parametrize("which", [FIRST_GIVEN_SECOND, SECOND_GIVEN_FIRST])
    def test_matches_stencil_reference(self, which):
        levels = np.linspace(0.0, 1.0, 11)[:, None]
        edge_gaps = []
        for n in (33, 65, 129):
            cq = ConditionalQuantile(sine_density(n), which)
            cg = cq.cond_grid
            # every node, and off-node values in the cells whose both ends
            # take the central difference
            inner = cg.nodes[1:-2] + np.array([0.3, 0.71])[:, None] * cg.h
            for conds in (cg.nodes, inner.ravel()):
                c = np.broadcast_to(conds[None, :], (levels.size, conds.size))
                point = cq.quantile(levels, c)
                ref = stencil_dcond(cq, point, c)
                assert np.max(np.abs(cq.quantile_dcond(point, c) - ref)) <= (
                    1e-12 * np.max(np.abs(ref))
                )
            # inside the first and last cell the edge stencil is blended
            edge = np.array([cg.lo + 0.5 * cg.h, cg.hi - 0.5 * cg.h])
            c = np.broadcast_to(edge[None, :], (levels.size, 2))
            point = cq.quantile(levels, c)
            edge_gaps.append(
                np.max(np.abs(cq.quantile_dcond(point, c) - stencil_dcond(cq, point, c)))
            )
        assert edge_gaps[0] >= 3.5 * edge_gaps[1] >= 3.5**2 * edge_gaps[2]
        one = cq.quantile_dcond(cq.quantile(0.4, 0.37), 0.37)
        assert type(one) is float


def reference_derivatives(cq, point, conditioning):
    """(ds, dcond) relocated from the bare point by bilinear reads."""
    ds = cq.marginal.density_at(conditioning) / point_field(cq, cq.source, point, conditioning)
    return ds, -point_field(cq, cq._dcdf_dcond, point, conditioning) * ds


def assert_close(got, ref, rel=1e-12):
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


class TestBracketRead:
    """Derivatives read at the bracket quantile found match the point read."""

    @pytest.mark.parametrize("which", [FIRST_GIVEN_SECOND, SECOND_GIVEN_FIRST])
    def test_node_aligned(self, which):
        cq = ConditionalQuantile(sine_density(33), which)
        # levels 0 and 1 (frac clipped), every knot of one column, and
        # every conditioning node up to the last (weight 1 in the last cell)
        levels = np.concatenate([[0.0, 1.0, 0.37], cq._tbl[:, 5]])[:, None]
        conds = np.broadcast_to(cq.cond_grid.nodes[None, :], (levels.size, cq.cond_grid.n))
        point, b = cq.quantile(levels, conds, bracket=True)
        assert b.off.size == 0
        assert b.node[-1] == cq.cond_grid.n - 1
        ds = cq.quantile_ds(point, conds, bracket=b)
        dcond = cq.quantile_dcond(point, conds, bracket=b, ds=ds)
        ref_ds, ref_dcond = reference_derivatives(cq, point, conds)
        assert_close(ds, ref_ds)
        assert_close(dcond, ref_dcond)
        # a bare point reads through a bracket derived from the point
        assert_close(cq.quantile_ds(point, conds), ref_ds)
        assert_close(cq.quantile_dcond(point, conds), ref_dcond)

    @pytest.mark.parametrize("which", [FIRST_GIVEN_SECOND, SECOND_GIVEN_FIRST])
    def test_mixed_batch(self, which, rng):
        cq = ConditionalQuantile(sine_density(33), which)
        cg = cq.cond_grid
        on = cg.nodes[rng.integers(0, cg.n, 40)]
        off = rng.uniform(cg.lo, cg.hi, 40)
        conds = np.concatenate([on, off, [cg.hi]])
        levels = np.concatenate([rng.random(80), [1.0]])
        point, b = cq.quantile(levels, conds, bracket=True)
        assert np.array_equal(b.off, np.arange(40, 80))
        ds = cq.quantile_ds(point, conds, bracket=b)
        ref_ds, ref_dcond = reference_derivatives(cq, point, conds)
        assert_close(ds, ref_ds)
        assert_close(cq.quantile_dcond(point, conds, bracket=b, ds=ds), ref_dcond)
        one_point, one = cq.quantile(0.4, 0.37, bracket=True)
        assert type(cq.quantile_ds(one_point, 0.37, bracket=one)) is float

    def test_assembly_cross_grid(self):
        # a 33-node pair solved on a 65 grid: every other conditioning
        # value falls between the pair's nodes
        g, gt = Grid1D(0.0, 1.0, 33), Grid1D(1.0, 2.0, 33)
        X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        p = 1.0 + 0.2 * np.sin(3 * X) * np.cos(2 * Y)
        q = 1.0 + 0.2 * np.exp(-((X - 0.4) ** 2 + (Y - 0.6) ** 2) / 0.1)
        inst = po.build_instance(po.normalize(Density2D(g, g, p)), po.normalize(Density2D(gt, gt, q)))
        gx, gy = Grid1D(0.0, 1.0, 65), Grid1D(1.0, 2.0, 65)
        Xs, Ys = np.meshgrid(gx.nodes, gy.nodes, indexing="ij")
        bump = 0.004 * np.sin(np.pi * Xs) * np.sin(np.pi * (Ys - 1.0))
        F = ScalarField2D(gx, gy, initial_iterate(inst, gx, gy).values + bump)
        coeffs = assemble_coefficients(inst, F)
        # the same formulas with every derivative relocated from its point
        f1, f2t, logd1, logd2t = _marginal_tables(inst, gx, gy)
        v = np.clip(_d1_edge3(F.values, gx.h, axis=0) / f1[:, None], 0.0, 1.0)
        u = np.clip(_d1_edge3(F.values, gy.h, axis=1) / f2t[None, :], 0.0, 1.0)
        Xc = np.broadcast_to(gx.nodes[:, None], v.shape)
        Yc = np.broadcast_to(gy.nodes[None, :], u.shape)
        ds_v, dc_v = reference_derivatives(inst.cq_G2, inst.cq_G2.quantile(v, Xc), Xc)
        ds_u, dc_u = reference_derivatives(inst.cq_G1_tilde, inst.cq_G1_tilde.quantile(u, Yc), Yc)
        A = ds_v / f1[:, None]
        B = ds_u / f2t[None, :]
        C = -dc_u - dc_v + B * logd2t[None, :] * u * f2t[None, :] + A * logd1[:, None] * v * f1[:, None]
        assert_close(coeffs.A.values, A)
        assert_close(coeffs.B.values, B)
        assert_close(coeffs.C.values, C)

    def test_sub_floor_density_raises(self):
        d = sine_density(17)
        cq = ConditionalQuantile(d, SECOND_GIVEN_FIRST)
        vals = np.array(d.values)
        vals[6, :] = 0.5 * EPS_POS
        # the tables stay those of the valid density; only the read sees the floor
        cq.source = ScalarField2D(d.gx, d.gy, vals)
        conds = np.full(5, d.gx.nodes[6])
        point, b = cq.quantile(np.linspace(0.0, 1.0, 5), conds, bracket=True)
        with pytest.raises(DegenerateDensity, match="below the positivity floor"):
            cq.quantile_ds(point, conds, bracket=b)
        with pytest.raises(DegenerateDensity):
            cq.quantile_dcond(point, conds, bracket=b)


class TestEllipticity:
    def test_uniform_margin_one(self, instances):
        inst = instances("uniform", 33)
        margin = po.ellipticity_margin(inst.cq_G1_tilde, inst.cq_G2)
        assert abs(margin - 1.0) < 1e-9

    def test_product_gauss_scan_oracle(self, instances):
        inst = instances("product-gauss", 65)
        margin = po.ellipticity_margin(inst.cq_G1_tilde, inst.cq_G2)
        # exhaustive scan: 1/f~(x, y) over nodes bounds the first family,
        # 1/f(x, y) the second; quantiles sweep the whole domain
        lo1 = 1.0 / np.max(inst.f_tilde.values)
        lo2 = 1.0 / np.max(inst.f.values)
        expected = min(lo1, lo2)
        assert margin > 0.0
        assert abs(margin - expected) < 0.02 * expected

    def test_floor_still_positive(self):
        g = Grid1D(0.0, 1.0, 17)
        vals = np.full((17, 17), 1e-12)
        vals[8, 8] = 1.0
        d = po.normalize(Density2D(g, g, vals))
        cq1 = ConditionalQuantile(d, FIRST_GIVEN_SECOND)
        cq2 = ConditionalQuantile(d, SECOND_GIVEN_FIRST)
        margin = po.ellipticity_margin(cq1, cq2)
        assert 0.0 < margin < np.inf


class TestProperties:
    def test_round_trip(self, instances):
        inst = instances("bilinear", 33)
        cq = ConditionalQuantile(inst.f, FIRST_GIVEN_SECOND)
        ss = np.linspace(0.0, 1.0, 20)
        ys = np.linspace(0.0, 1.0, 20)
        S, Y = np.meshgrid(ss, ys, indexing="ij")
        G = cq.quantile(S, Y)
        back = cq.cond_cdf(G, Y)
        assert np.max(np.abs(back - S)) < 1e-8

    def test_monotone_in_level(self, instances):
        inst = instances("bilinear", 33)
        cq = inst.cq_G2
        for x in (0.0, 0.33, 0.9):
            q = cq.quantile(np.linspace(0, 1, 50), np.full(50, x))
            assert np.all(np.diff(q) >= -1e-14)

    def test_ds_matches_finite_difference(self, instances):
        inst = instances("bilinear", 65)
        cq = ConditionalQuantile(inst.f, FIRST_GIVEN_SECOND)
        delta = 1e-4
        for s in (0.25, 0.5, 0.75):
            for y in (0.3, 0.6):
                g = cq.quantile(s, y)
                ds = cq.quantile_ds(g, y)
                fd = (cq.quantile(s + delta, y) - cq.quantile(s - delta, y)) / (2 * delta)
                assert abs(ds - fd) <= max(1e-4, 1e-2 * abs(ds))
                dc = cq.quantile_dcond(g, y)
                fd = (cq.quantile(s, y + delta) - cq.quantile(s, y - delta)) / (2 * delta)
                assert abs(dc - fd) <= max(1e-4, 1e-2 * abs(dc))

    def test_product_factorization_exact(self, instances):
        inst = instances("product-gauss", 33)
        cq = ConditionalQuantile(inst.f, FIRST_GIVEN_SECOND)
        for s in (0.1, 0.5, 0.93):
            vals = [cq.quantile(s, y) for y in inst.f.gy.nodes[::8]]
            assert np.max(np.abs(np.diff(vals))) < 1e-13
