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
piece. A query conditioned exactly on a table node reads that node's
column: one ``searchsorted`` over all columns, kept node-major as
complex keys, brackets any mix of nodes at once. A query between nodes
blends the two columns around it and is bracketed by bisection. Both
are O(log n) per query with memory linear in queries, and both return
the same bits the blend would.

The level and conditioning derivatives of a quantile are read at the
bracket ``quantile`` found (``Bracket``): the density, the CDF's
conditioning derivative and the marginal at the bracketed row and node,
with no second search. A bare point is bracketed the way a bilinear
read locates it, and then read by the same kernel.

All evaluators accept scalars or broadcastable arrays and are pure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateDensity, OutOfRange
from .grids import (
    EPS_POS,
    Density2D,
    ScalarField2D,
    _d1,
    cdf_levels,
    marginal,
)

FIRST_GIVEN_SECOND = "first_given_second"
SECOND_GIVEN_FIRST = "second_given_first"

# Levels may leave [0, 1] by at most this much before it is an error.
LEVEL_CLAMP_TOL = 1e-9


class Bracket(NamedTuple):
    """Where a batch of quantile points sits in its family's tables.

    ``pos`` is each point's flat position, in the C-ordered (x, y)
    tables, of its lower row on the inverted axis at conditioning node
    ``node``; ``frac`` in [0, 1] weighs the next row. The points listed
    in ``off`` lie between conditioning nodes ``node`` and ``node + 1``
    and weigh the second by ``w``; every other point lies on ``node``.
    ``shape`` is the query shape, () for a scalar.
    """

    shape: tuple
    pos: np.ndarray
    node: np.ndarray
    frac: np.ndarray
    off: np.ndarray
    w: np.ndarray


def _shaped(flat: np.ndarray, shape: tuple):
    """``flat`` (one value per query) in the query shape; a float for a scalar query."""
    return flat.reshape(shape) if shape else float(flat[0])


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
        # the columns node-major as keys node + 1j*value; NumPy orders
        # complex numbers real part first and every column is
        # non-decreasing, so the keys are sorted and nothing is rounded
        keys = np.empty(self._tbl.shape[::-1], dtype=complex)
        keys.real = np.arange(self.cond_grid.n)[:, None]
        keys.imag = self._tbl.T
        self._keys = keys.ravel()
        self._keys.flags.writeable = False
        # flat steps along the inverted and the conditioning axis in the
        # C-ordered (x, y) tables that a Bracket indexes
        self._step_inv, self._step_cond = (
            (self.cond_grid.n, 1) if self._inv_axis == 0 else (1, self.inv_grid.n)
        )

    # -- forward -----------------------------------------------------------

    def cond_cdf(self, primary, conditioning):
        """Conditional CDF value at ``primary`` given ``conditioning``; in [0, 1]."""
        b = self._point_bracket(primary, conditioning)
        return _shaped(np.clip(self._read(self.cdf_table.values, b), 0.0, 1.0), b.shape)

    # -- inverse -----------------------------------------------------------

    def _check_levels(self, s: np.ndarray) -> np.ndarray:
        # NaN fails both range comparisons, so it is caught first
        if not np.all(np.isfinite(s)):
            raise OutOfRange(f"quantile level {float(s[~np.isfinite(s)][0])!r} is not finite")
        if np.any(s < -LEVEL_CLAMP_TOL) or np.any(s > 1.0 + LEVEL_CLAMP_TOL):
            bad = s[(s < -LEVEL_CLAMP_TOL) | (s > 1.0 + LEVEL_CLAMP_TOL)]
            raise OutOfRange(f"quantile level {float(bad[0])!r} outside [0, 1]")
        return np.clip(s, 0.0, 1.0)

    def quantile(self, s, conditioning, *, bracket: bool = False):
        """Inverse conditional CDF: the point where cond_cdf reaches level ``s``.

        Each query's CDF column is blended between the two conditioning
        nodes around it; the blend is non-decreasing, so the bracket is
        the count of column values at or below the level. A query exactly
        on a node (blend weight 0, or 1 in the last cell) has that node's
        column bit for bit, and one ``searchsorted`` over the node-major
        keys counts for every such query. The others are bracketed by
        bisection over their blended column. Both take O(log n) per query
        and memory linear in queries; queries ordered node by node search
        fastest.

        With ``bracket=True`` returns ``(point, Bracket)``: the bracket
        ``quantile_ds`` and ``quantile_dcond`` read the derivatives at.
        """
        s_in, c_in = np.broadcast_arrays(
            np.asarray(s, dtype=float), np.asarray(conditioning, dtype=float)
        )
        sq = self._check_levels(s_in.ravel())
        j, w, on, node = self._cond_cell(c_in.ravel())
        if on.all():
            idx, c0, c1 = self._node_bracket(sq, node)
        else:
            off = ~on
            idx = np.empty(sq.size, dtype=np.intp)
            c0 = np.empty(sq.size)
            c1 = np.empty(sq.size)
            idx[on], c0[on], c1[on] = self._node_bracket(sq[on], node[on])
            idx[off], c0[off], c1[off] = self._bisect_bracket(sq[off], j[off], w[off])
        frac = np.clip((sq - c0) / np.maximum(c1 - c0, 1e-300), 0.0, 1.0)
        point = _shaped(self.inv_grid.nodes[idx] + frac * self.inv_grid.h, s_in.shape)
        if not bracket:
            return point
        return point, self._bracket(s_in.shape, idx, frac, node, on, w)

    def _cond_cell(self, cond: np.ndarray):
        """(cell j, weight w, on-node mask, node) of conditioning values ``cond``.

        A value is on a node when its weight is 0, or 1 in the last cell;
        its node is then ``j`` or ``j + 1``, otherwise ``j``.
        """
        cg = self.cond_grid
        if not np.all(cg.contains(cond)):
            raise OutOfRange("conditioning value outside the grid domain")
        t = np.clip((cond - cg.lo) / cg.h, 0.0, cg.n - 1.0)
        j = np.minimum(t.astype(int), cg.n - 2)
        w = t - j
        last = w == 1.0
        return j, w, (w == 0.0) | last, j + last

    def _bracket(self, shape, idx, frac, node, on, w) -> Bracket:
        off = np.flatnonzero(~on)
        pos = idx * self._step_inv + node * self._step_cond
        return Bracket(shape, pos, node, frac, off, w[off])

    def _point_bracket(self, point, conditioning) -> Bracket:
        """The bracket of bare points, located as a bilinear read locates them."""
        g_in, c_in = np.broadcast_arrays(
            np.asarray(point, dtype=float), np.asarray(conditioning, dtype=float)
        )
        g = g_in.ravel()
        ig = self.inv_grid
        if not np.all(ig.contains(g)):
            raise OutOfRange("quantile point outside the grid domain")
        t = np.clip((g - ig.lo) / ig.h, 0.0, ig.n - 1.0)
        idx = np.minimum(t.astype(int), ig.n - 2)
        _, w, on, node = self._cond_cell(c_in.ravel())
        return self._bracket(g_in.shape, idx, t - idx, node, on, w)

    def _node_bracket(self, sq: np.ndarray, node: np.ndarray):
        """Bracket (index, lower and upper CDF value) of levels ``sq`` in columns ``node``."""
        n = self.inv_grid.n
        query = np.empty(sq.size, dtype=complex)
        query.real = node
        query.imag = sq
        # keys at or below node + 1j*level: every key of an earlier node,
        # then this column's values at or below the level
        base = node * n
        count = np.searchsorted(self._keys, query, side="right") - base
        idx = np.clip(count - 1, 0, n - 2)
        flat = base + idx
        col = self._keys.imag
        return idx, col[flat], col[flat + 1]

    def _bisect_bracket(self, sq: np.ndarray, j: np.ndarray, w: np.ndarray):
        """Bracket of levels ``sq`` in columns blended by ``w`` between nodes ``j``, ``j + 1``."""
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
        return idx, column(idx), column(idx + 1)

    # -- derivatives, read at a bracket -----------------------------------

    def _read(self, table: np.ndarray, b: Bracket) -> np.ndarray:
        """A C-ordered (x, y) table at the bracketed points, one value per point.

        Rows ``pos`` and the next blended by ``frac`` at each point's node;
        an off-node point blends that with the next node's pair by ``w``.
        """
        step = self._step_inv
        out = np.take(table, b.pos) * (1.0 - b.frac)
        out += np.take(table, b.pos + step) * b.frac
        if b.off.size:
            p = b.pos[b.off] + self._step_cond
            f = b.frac[b.off]
            nxt = np.take(table, p) * (1.0 - f) + np.take(table, p + step) * f
            out[b.off] = out[b.off] * (1.0 - b.w) + nxt * b.w
        return out

    def _marginal_read(self, b: Bracket) -> np.ndarray:
        """The conditioning marginal at the bracketed points' conditioning values."""
        m = self.marginal.values
        out = m[b.node]
        if b.off.size:
            out[b.off] = out[b.off] * (1.0 - b.w) + m[b.node[b.off] + 1] * b.w
        return out

    def quantile_ds(self, point, conditioning, *, bracket: Bracket | None = None):
        """Derivative of the quantile in its level argument; strictly positive.

        ``point`` is the quantile point ``quantile(s, conditioning)``; the
        derivative there is the conditioning marginal over the density,
        both read at ``bracket``, the one ``quantile`` found for the
        point. Without it the point is located as a bilinear read would.
        Raises DegenerateDensity where the density read is below the
        positivity floor.
        """
        b = self._point_bracket(point, conditioning) if bracket is None else bracket
        dens = self._read(self.source.values, b)
        if np.any(dens < EPS_POS):
            raise DegenerateDensity(
                f"density {dens.min()!r} below the positivity floor"
            )
        return _shaped(self._marginal_read(b) / dens, b.shape)

    def quantile_dcond(self, point, conditioning, *, bracket: Bracket | None = None, ds=None):
        """Derivative of the quantile in the conditioning argument.

        ``point`` is the quantile point ``quantile(s, conditioning)``.
        Implicit differentiation of ``F(G, c) = s``: the conditioning
        derivative of the CDF, read from the table differenced once at
        construction, times the level derivative ``ds``. Both are read
        at ``bracket`` as in ``quantile_ds``; ``ds``, if given, is that
        method's value at the same bracket and is not read again.
        """
        b = self._point_bracket(point, conditioning) if bracket is None else bracket
        if ds is None:
            ds = self.quantile_ds(point, conditioning, bracket=b)
        dF = self._read(self._dcdf_dcond.values, b)
        return _shaped(-dF * np.ravel(ds), b.shape)


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
        g, b = cq.quantile(S, C, bracket=True)
        coeff = cq.quantile_ds(g, C, bracket=b) / cq.marginal.density_at(C)
        lo = min(lo, float(np.min(coeff)))
    return lo
