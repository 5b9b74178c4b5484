"""Conditional CDFs of a planar density and their inverse (quantile) maps.

For a density ``d(x, y)`` the two families are

    F1(x | y) = (1 / m2(y)) * integral of d(u, y) for u from the lower
                x-edge to x,          inverted in x at fixed y;
    F2(y | x) = (1 / m1(x)) * integral of d(x, v) for v from the lower
                y-edge to y,          inverted in y at fixed x;

with ``m1``, ``m2`` the axis marginals. Strict positivity of ``d`` makes
both strictly increasing in their first argument, so the inverse maps
(quantiles) exist. Under trapezoid quadrature every conditional CDF is
piecewise linear along its inverted axis, so quantile evaluation is
exact for the discrete model: bracket the level, then solve the linear
piece. The bracket is found by bisection, O(log n) per query, memory
linear in queries.

All evaluators accept scalars or broadcastable arrays and are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDensity, OutOfRange
from .grids import (
    EPS_POS,
    Density2D,
    ScalarField2D,
    _d1,
    bilinear,
    cdf_levels,
    marginal,
)

FIRST_GIVEN_SECOND = "first_given_second"
SECOND_GIVEN_FIRST = "second_given_first"

# Levels may leave [0, 1] by at most this much before it is an error.
LEVEL_CLAMP_TOL = 1e-9


class ConditionalQuantile:
    """Evaluator for one conditional-CDF family of a density and its inverse."""

    def __init__(self, source: Density2D, which: str):
        if which not in (FIRST_GIVEN_SECOND, SECOND_GIVEN_FIRST):
            raise ValueError(f"unknown conditioning mode {which!r}")
        self.source = source
        if which == FIRST_GIVEN_SECOND:
            self._inv_axis = 0
            self.inv_grid = source.gx
            self.cond_grid = source.gy
            self.marginal = marginal(source, "y")
        else:
            self._inv_axis = 1
            self.inv_grid = source.gy
            self.cond_grid = source.gx
            self.marginal = marginal(source, "x")
        table = cdf_levels(source.values, self.inv_grid.h, axis=self._inv_axis)
        self.cdf_table = ScalarField2D(source.gx, source.gy, table)
        # the table differenced once along the conditioning axis (central,
        # one-sided second order at the edges), read by quantile_dcond
        dcond = _d1(table, self.cond_grid.h, axis=1 - self._inv_axis)
        self._dcdf_dcond = ScalarField2D(source.gx, source.gy, dcond)
        # the same table viewed as (inverted axis, conditioning axis)
        vals = self.cdf_table.values
        self._tbl = vals if self._inv_axis == 0 else vals.T

    # -- forward -----------------------------------------------------------

    def cond_cdf(self, primary, conditioning):
        """Conditional CDF value at ``primary`` given ``conditioning``; in [0, 1]."""
        return np.clip(self._at(self.cdf_table, primary, conditioning), 0.0, 1.0)

    # -- inverse -----------------------------------------------------------

    def _check_levels(self, s: np.ndarray) -> np.ndarray:
        if np.any(s < -LEVEL_CLAMP_TOL) or np.any(s > 1.0 + LEVEL_CLAMP_TOL):
            bad = s[(s < -LEVEL_CLAMP_TOL) | (s > 1.0 + LEVEL_CLAMP_TOL)]
            raise OutOfRange(
                f"quantile level {np.atleast_1d(bad).ravel()[0]!r} outside [0, 1]"
            )
        return np.clip(s, 0.0, 1.0)

    def quantile(self, s, conditioning):
        """Inverse conditional CDF: the point where cond_cdf reaches level ``s``.

        Each query is bracketed by bisection over its own CDF column, blended
        between the two conditioning nodes around it: O(log n) per query,
        memory linear in queries (one gathered table value per query and
        step). The blend is non-decreasing along the column, so the bracket
        is the count of column values at or below the level.
        """
        s_in, c_in = np.broadcast_arrays(
            np.asarray(s, dtype=float), np.asarray(conditioning, dtype=float)
        )
        shape = s_in.shape
        sq = self._check_levels(s_in.ravel())
        cond = c_in.ravel()
        cg = self.cond_grid
        if not np.all(cg.contains(cond)):
            raise OutOfRange("conditioning value outside the grid domain")
        t = np.clip((cond - cg.lo) / cg.h, 0.0, cg.n - 1.0)
        j = np.minimum(t.astype(int), cg.n - 2)
        w = t - j
        wc = 1.0 - w
        j1 = j + 1
        tbl = self._tbl

        def column(k):
            # row k of each query's blended column; rounds exactly as
            # tbl[k, j] * (1 - w) + tbl[k, j + 1] * w, so ties at knots hold
            out = tbl[k, j] * wc
            out += tbl[k, j1] * w
            return out

        n = self.inv_grid.n
        # count = number of column values <= level; step p tries adding 2**p
        count = np.zeros(sq.size, dtype=np.intp)
        for p in range(n.bit_length() - 1, -1, -1):
            cand = count + (1 << p)
            probe = np.minimum(cand, n) - 1
            take = (cand <= n) & (column(probe) <= sq)
            np.copyto(count, cand, where=take)
        idx = np.clip(count - 1, 0, n - 2)
        c0 = column(idx)
        c1 = column(idx + 1)
        frac = (sq - c0) / np.maximum(c1 - c0, 1e-300)
        v = self.inv_grid.nodes[idx] + np.clip(frac, 0.0, 1.0) * self.inv_grid.h
        v = v.reshape(shape)
        return v if shape else float(v)

    def quantile_ds(self, point, conditioning):
        """Derivative of the quantile in its level argument; strictly positive.

        ``point`` is the quantile point ``quantile(s, conditioning)``; the
        derivative there is the conditioning marginal over the density.
        """
        g, c = np.broadcast_arrays(
            np.asarray(point, dtype=float), np.asarray(conditioning, dtype=float)
        )
        dens = self._density_at(g, c)
        marg = self.marginal.density_at(c)
        out = marg / dens
        return out if np.ndim(out) else float(out)

    def quantile_dcond(self, point, conditioning):
        """Derivative of the quantile in the conditioning argument.

        ``point`` is the quantile point ``quantile(s, conditioning)``.
        Implicit differentiation of ``F(G, c) = s``: the conditioning
        derivative of the CDF, read from the table differenced once at
        construction, times the level derivative ``quantile_ds``.
        """
        dF = self._at(self._dcdf_dcond, point, conditioning)
        out = -dF * self.quantile_ds(point, conditioning)
        return out if np.ndim(out) else float(out)

    def _at(self, field: ScalarField2D, g, c):
        """Bilinear read of a field over (x, y) at primary ``g``, conditioning ``c``."""
        if self._inv_axis == 0:
            return bilinear(field, g, c)
        return bilinear(field, c, g)

    def _density_at(self, g: np.ndarray, c: np.ndarray) -> np.ndarray:
        dens = np.asarray(self._at(self.source, g, c), dtype=float)
        if np.any(dens < EPS_POS):
            raise DegenerateDensity(
                f"density {dens.min()!r} below the positivity floor"
            )
        return dens


def ellipticity_margin(cq_tilde_1: ConditionalQuantile, cq_2: ConditionalQuantile) -> float:
    """Empirical lower bound of the two elliptic coefficient fields.

    Scans ``1/f~(G~(1, s, y), y)`` and ``1/f(x, G(2, x, t))`` over a level
    grid with as many levels as the inverted axis has nodes, times every
    conditioning node, and returns the minimum. A non-positive return is a
    valid, alarming answer; callers decide how loudly to warn.
    """
    lo = np.inf
    for cq in (cq_tilde_1, cq_2):
        levels = np.linspace(0.0, 1.0, cq.inv_grid.n)
        conds = cq.cond_grid.nodes
        S, C = np.meshgrid(levels, conds, indexing="ij")
        g = cq.quantile(S, C)
        coeff = cq.quantile_ds(g, C) / cq.marginal.density_at(C)
        lo = min(lo, float(np.min(coeff)))
    return lo
