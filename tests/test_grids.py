import numpy as np
import pytest
from scipy.special import erf

import planeot as po
from planeot.errors import GridTooSmall, NonPositiveDensity, OutOfRange
from planeot.grids import (
    Grid1D, Density2D, ScalarField2D, _d1, cdf_levels, cumtrapz1d, trapz2d,
)


def trapz2d_oracle(values, hx, hy):
    """Independent quadrature oracle: explicit weighted double sum."""
    nx, ny = values.shape
    total = 0.0
    for i in range(nx):
        wi = 0.5 if i in (0, nx - 1) else 1.0
        for j in range(ny):
            wj = 0.5 if j in (0, ny - 1) else 1.0
            total += wi * wj * values[i, j]
    return hx * hy * total


def trunc_gauss_density(x, mean, sd, lo, hi):
    z = lambda t: (t - mean) / (sd * np.sqrt(2.0))
    mass = 0.5 * (erf(z(hi)) - erf(z(lo)))
    return np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi)) / mass


class TestGrid1D:
    def test_nodes_and_spacing(self):
        g = Grid1D(0.0, 1.0, 5)
        assert g.h == 0.25
        assert np.allclose(np.diff(g.nodes), 0.25)

    def test_too_small(self):
        with pytest.raises(GridTooSmall):
            Grid1D(0.0, 1.0, 2)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 1.0, 5)


class TestNormalize:
    def test_constant_density(self):
        g = Grid1D(0.0, 1.0, 9)
        d = po.normalize(Density2D(g, g, np.full((9, 9), 2.0)))
        assert np.allclose(d.values, 1.0, atol=1e-14)

    def test_idempotent(self):
        g = Grid1D(0.0, 1.0, 17)
        rng = np.random.default_rng(3)
        d = po.normalize(Density2D(g, g, 0.5 + rng.random((17, 17))))
        again = po.normalize(d)
        assert np.max(np.abs(again.values - d.values)) < 1e-12

    def test_bilinear_mass_oracle(self):
        # 4xy is bilinear, so the trapezoid mass is exact at any resolution
        for n in (33, 65):
            g = Grid1D(0.0, 1.0, n)
            X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
            vals = np.maximum(4.0 * X * Y, 1e-9)
            oracle_mass = trapz2d_oracle(vals, g.h, g.h)
            assert abs(oracle_mass - trapz2d(vals, g.h, g.h)) < 1e-13
            d = po.normalize(Density2D(g, g, vals))
            assert abs(d.mass() - 1.0) < 1e-10

    def test_rejects_nonpositive(self):
        g = Grid1D(0.0, 1.0, 5)
        vals = np.ones((5, 5))
        vals[2, 2] = 0.0
        with pytest.raises(NonPositiveDensity):
            Density2D(g, g, vals)


class TestMarginal:
    def test_uniform(self):
        g = Grid1D(0.0, 1.0, 21)
        d = po.normalize(Density2D(g, g, np.ones((21, 21))))
        m = po.marginal(d, "x")
        assert np.allclose(m.values, 1.0, atol=1e-12)
        assert np.allclose(m.cdf, g.nodes, atol=1e-12)

    def test_odd_factor_integrates_out(self):
        g = Grid1D(0.0, 1.0, 33)
        X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        d = po.normalize(Density2D(g, g, 1.0 + 0.5 * (2 * X - 1) * (2 * Y - 1)))
        m = po.marginal(d, "x")
        assert np.allclose(m.values, 1.0, atol=1e-12)

    def test_truncated_gaussian_product_structure(self, instances):
        # the marginal of a product density is the 1D factor, renormalized
        # by the same quadrature the density itself was normalized with
        inst = instances("product-gauss", 65)
        m = po.marginal(inst.f, "x")
        raw = np.exp(-0.5 * ((m.grid.nodes - 0.5) / 0.2) ** 2)
        expected = raw / np.trapezoid(raw, dx=m.grid.h)
        assert np.max(np.abs(m.values - expected)) < 1e-12

    def test_truncated_gaussian_closed_form(self):
        # at fine resolution the quadrature constant converges and the
        # marginal matches the erf-normalized density pointwise
        n = 1025
        f, _ = po.build_preset("product-gauss", n, n)
        m = po.marginal(f, "x")
        expected = trunc_gauss_density(m.grid.nodes, 0.5, 0.2, 0.0, 1.0)
        assert np.max(np.abs(m.values - expected)) < 1e-6

    def test_both_axis_masses(self, rng):
        g = Grid1D(0.0, 1.0, 29)
        d = po.normalize(Density2D(g, g, 0.2 + rng.random((29, 29))))
        for axis in ("x", "y"):
            m = po.marginal(d, axis)
            assert abs(np.trapezoid(m.values, dx=m.grid.h) - 1.0) < 1e-10
            assert np.all(np.diff(m.cdf) > 0)
            assert abs(m.cdf[-1] - 1.0) < 1e-10


class TestCumulative:
    def test_uniform_axis_x(self):
        g = Grid1D(0.0, 1.0, 17)
        d = po.normalize(Density2D(g, g, np.ones((17, 17))))
        c = cumtrapz1d(d.values, g.h, axis=0)
        assert np.allclose(c, g.nodes[:, None], atol=1e-12)

    def test_first_slice_zero(self, rng):
        g = Grid1D(0.0, 1.0, 13)
        d = po.normalize(Density2D(g, g, 0.5 + rng.random((13, 13))))
        assert np.all(cumtrapz1d(d.values, g.h, axis=0)[0, :] == 0.0)
        assert np.all(cumtrapz1d(d.values, g.h, axis=1)[:, 0] == 0.0)

    def test_bilinear_antiderivative(self):
        # f(0.25, y) = 1.25 - 0.5 y is linear, so cumulative trapezoid is exact
        g = Grid1D(0.0, 1.0, 33)
        X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        d = po.normalize(Density2D(g, g, 1.0 + 0.5 * (2 * X - 1) * (2 * Y - 1)))
        c = cumtrapz1d(d.values, g.h, axis=1)
        i = 8  # node at x = 0.25
        expected = 1.25 * g.nodes - 0.25 * g.nodes**2
        assert np.max(np.abs(c[i, :] - expected)) < 1e-12

    def test_monotone_along_axis(self, rng):
        g = Grid1D(0.0, 1.0, 13)
        d = po.normalize(Density2D(g, g, 0.5 + rng.random((13, 13))))
        c = cumtrapz1d(d.values, g.h, axis=0)
        assert np.all(np.diff(c, axis=0) > 0)

    def test_cdf_levels_exact_ends_and_monotone(self):
        # the property that lets callers use the levels without clipping
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        @hyp.settings(max_examples=60, deadline=None, database=None)
        @hyp.given(st.data())
        def check(data):
            shape = (data.draw(st.integers(3, 40)), data.draw(st.integers(3, 40)))
            vals = data.draw(hnp.arrays(float, shape, elements=st.floats(1e-6, 1e6)))
            h = data.draw(st.floats(1e-3, 1.0))
            axis = data.draw(st.sampled_from([0, 1]))
            lv = np.moveaxis(cdf_levels(vals, h, axis=axis), axis, 0)
            assert np.all(lv[0] == 0.0)
            assert np.all(lv[-1] == 1.0)
            assert np.all(np.diff(lv, axis=0) >= 0.0)

        check()


class TestDifferences:
    def test_diff1_linear_exact(self):
        g = Grid1D(0.0, 1.0, 11)
        X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        assert np.max(np.abs(_d1(X * Y, g.h, 0) - Y)) < 1e-13

    def test_mixed_xy_convergence_order(self):
        errs = []
        for n in (65, 129):
            g = Grid1D(0.0, 1.0, n)
            X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
            f = ScalarField2D(g, g, np.sin(X) * np.cos(Y))
            exact = -np.cos(X) * np.sin(Y)
            err = np.max(np.abs(po.mixed_xy(f).values - exact)[1:-1, 1:-1])
            errs.append(err)
        order = np.log2(errs[0] / errs[1])
        assert order > 1.9

    def test_grid_too_small(self):
        g3 = Grid1D(0.0, 1.0, 3)
        _d1(np.ones((3, 3)), g3.h, 0)  # n = 3 is allowed
        with pytest.raises(GridTooSmall):
            Grid1D(0.0, 1.0, 2)


class TestInterp:
    def test_midpoint(self):
        assert po.interp1_monotone([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 0.5) == 0.5

    def test_node_exact(self):
        xs = np.array([0.0, 0.3, 1.0])
        ys = np.array([1.0, 2.0, 4.0])
        assert po.interp1_monotone(xs, ys, 0.3) == 2.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            po.interp1_monotone([0.0, 1.0], [0.0, 1.0], 1.5)

    def test_truncated_gaussian_cdf(self):
        n = 201
        g = Grid1D(0.0, 1.0, n)
        dens = trunc_gauss_density(g.nodes, 0.5, 0.2, 0.0, 1.0)
        cdf = cumtrapz1d(dens, g.h)
        cdf /= cdf[-1]
        x = g.nodes[50] + 0.5 * g.h  # midway between nodes
        got = po.interp1_monotone(g.nodes, cdf, x)
        z = lambda t: (t - 0.5) / (0.2 * np.sqrt(2.0))
        expected = (erf(z(x)) - erf(z(0.0))) / (erf(z(1.0)) - erf(z(0.0)))
        assert abs(got - expected) < 3.0 * g.h**2

    def test_never_overshoots(self, rng):
        xs = np.sort(rng.random(20)) + np.arange(20) * 1e-3
        ys = np.cumsum(rng.random(20))
        for _ in range(50):
            x = rng.uniform(xs[0], xs[-1])
            v = po.interp1_monotone(xs, ys, x)
            k = np.searchsorted(xs, x) - 1
            k = max(0, min(k, len(xs) - 2))
            assert ys[k] - 1e-12 <= v <= ys[k + 1] + 1e-12


class TestRoundTrip:
    def test_diff_of_cumulative_recovers_density(self, rng):
        errs = []
        for n in (33, 65):
            g = Grid1D(0.0, 1.0, n)
            X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
            d = po.normalize(Density2D(g, g, 1.0 + 0.5 * np.sin(3 * X) * np.cos(2 * Y)))
            back = _d1(cumtrapz1d(d.values, g.h, axis=0), g.h, 0)
            errs.append(np.max(np.abs(back - d.values)[1:-1, 1:-1]))
        assert errs[1] < errs[0] / 3.0
