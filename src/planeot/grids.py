"""Uniform rectangular grids and the field types built on them.

Everything downstream (conditional quantiles, the cost functional, the
elliptic solve) works on node-valued fields over uniform tensor grids.
The quadrature rule is composite trapezoid throughout, which pairs with
piecewise-linear interpolation so that CDF tables and their inverses are
exact mutual inverses on the grid.

Conventions:
    * ``values[i, j]`` lives at ``(gx.nodes[i], gy.nodes[j])``;
    * axes are named by the string ``"x"`` (first index) or ``"y"``
      (second index);
    * all field types are immutable after construction (their arrays are
      marked read-only), so concurrent reads are safe.
"""

from __future__ import annotations

import numpy as np

from .errors import GridTooSmall, NonPositiveDensity, OutOfRange

# Positivity floor applied to density values at ingestion; guards every
# later division by a marginal or a pointwise density value.
EPS_POS = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _axis_index(axis: str) -> int:
    if axis == "x":
        return 0
    if axis == "y":
        return 1
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


class Grid1D:
    """Uniform 1D grid with ``n`` nodes on ``[lo, hi]``."""

    __slots__ = ("lo", "hi", "n", "h", "nodes")

    def __init__(self, lo: float, hi: float, n: int):
        if n < 3:
            raise GridTooSmall(f"need at least 3 nodes, got {n}")
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        self.n = int(n)
        self.h = (self.hi - self.lo) / (self.n - 1)
        self.nodes = _freeze(np.linspace(self.lo, self.hi, self.n))

    def __repr__(self):
        return f"Grid1D(lo={self.lo}, hi={self.hi}, n={self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, Grid1D)
            and (self.lo, self.hi, self.n) == (other.lo, other.hi, other.n)
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.n))

    def contains(self, x, atol: float = 1e-12) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x >= self.lo - atol) & (x <= self.hi + atol)


class ScalarField2D:
    """Node values of a scalar function on a tensor grid."""

    __slots__ = ("gx", "gy", "values")

    def __init__(self, gx: Grid1D, gy: Grid1D, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (gx.n, gy.n):
            raise ValueError(
                f"values shape {values.shape} does not match grids ({gx.n}, {gy.n})"
            )
        self.gx = gx
        self.gy = gy
        self.values = _freeze(values)

    def __repr__(self):
        return f"ScalarField2D({self.gx!r}, {self.gy!r})"


class Density2D(ScalarField2D):
    """Strictly positive, finite density values on a tensor grid.

    Values at or below zero, NaN and infinities are rejected, naming the
    first such node; values in ``(0, EPS_POS)`` are floored up to
    ``EPS_POS``. Construction does not normalize; call :func:`normalize`
    for unit mass.
    """

    def __init__(self, gx: Grid1D, gy: Grid1D, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (gx.n, gy.n):
            raise ValueError(
                f"values shape {values.shape} does not match grids ({gx.n}, {gy.n})"
            )
        bad = ~((values > 0.0) & np.isfinite(values))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise NonPositiveDensity(
                f"density value {float(values[i, j])!r} at node ({i}, {j}) "
                "is not positive and finite"
            )
        super().__init__(gx, gy, np.maximum(values, EPS_POS))

    def mass(self) -> float:
        return trapz2d(self.values, self.gx.h, self.gy.h)


class Marginal1D:
    """A 1D marginal density together with its cumulative table.

    ``cdf`` is the cumulative trapezoid of ``values`` divided by its
    final entry, so it starts at exactly 0 and ends at exactly 1.
    """

    __slots__ = ("grid", "values", "cdf")

    def __init__(self, grid: Grid1D, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(f"values shape {values.shape} != ({grid.n},)")
        if not np.all(values > 0.0):
            raise NonPositiveDensity("marginal density must be strictly positive")
        cdf = cdf_levels(values, grid.h)
        self.grid = grid
        self.values = _freeze(values)
        self.cdf = _freeze(cdf)

    def density_at(self, x) -> np.ndarray:
        """Piecewise-linear density value at ``x`` (must lie in the domain)."""
        return interp1_monotone(self.grid.nodes, self.values, x)

    def cdf_at(self, x) -> np.ndarray:
        return interp1_monotone(self.grid.nodes, self.cdf, x)

    def quantile_at(self, t) -> np.ndarray:
        """Inverse of the piecewise-linear CDF at levels ``t`` in [0, 1]."""
        return interp1_monotone(self.cdf, self.grid.nodes, t)


# ---------------------------------------------------------------------------
# quadrature


def trapz_weights(n: int) -> np.ndarray:
    """Unit-spacing trapezoid weights: ones, with 1/2 at both ends."""
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def trapz1d(values: np.ndarray, h: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(h * (values.sum() - 0.5 * (values[0] + values[-1])))


def cumtrapz1d(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Cumulative trapezoid along ``axis``, first entry 0."""
    values = np.asarray(values, dtype=float)
    pair = 0.5 * h * (np.take(values, range(1, values.shape[axis]), axis=axis)
                      + np.take(values, range(0, values.shape[axis] - 1), axis=axis))
    out_shape = list(values.shape)
    out = np.zeros(out_shape)
    idx = [slice(None)] * values.ndim
    idx[axis] = slice(1, None)
    out[tuple(idx)] = np.cumsum(pair, axis=axis)
    return out


def cdf_levels(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Cumulative trapezoid along ``axis``, each line divided by its total.

    Every line starts at exactly 0, ends at exactly 1 and is
    non-decreasing (a running sum of positive terms), so the levels need
    no clipping.
    """
    cum = cumtrapz1d(values, h, axis=axis)
    return cum / np.take(cum, [-1], axis=axis)


def trapz2d(values: np.ndarray, hx: float, hy: float) -> float:
    values = np.asarray(values, dtype=float)
    wx = trapz_weights(values.shape[0])
    wy = trapz_weights(values.shape[1])
    return float(hx * hy * (wx @ values @ wy))


# ---------------------------------------------------------------------------
# density operations


def normalize(d: Density2D) -> Density2D:
    """Scale a density by one constant so its trapezoid mass is 1."""
    m = d.mass()
    if not m > 0.0:
        raise NonPositiveDensity(f"total mass {m} is not positive")
    return Density2D(d.gx, d.gy, d.values / m)


def marginal(d: Density2D, axis: str) -> Marginal1D:
    """Marginal density along ``axis`` (integrating out the other axis)."""
    k = _axis_index(axis)
    other = d.gy if k == 0 else d.gx
    w = trapz_weights(other.n)
    if k == 0:
        vals = other.h * (d.values @ w)
        grid = d.gx
    else:
        vals = other.h * (w @ d.values)
        grid = d.gy
    return Marginal1D(grid, vals)


# ---------------------------------------------------------------------------
# finite differences (second order everywhere, one-sided at edges)


def _d1(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    n = values.shape[axis]
    if n < 3:
        raise GridTooSmall(f"first difference needs >= 3 nodes, got {n}")
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _d1_edge3(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central first difference with third-order one-sided edge closure.

    Used where a differenced field is differenced again: a second-order
    edge closure leaves an O(h) kink at the first interior ring when the
    outer difference straddles the stencil switch; the third-order edge
    keeps the composition uniformly second order.
    """
    n = values.shape[axis]
    if n < 4:
        return _d1(values, h, axis)
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-11.0 * v[0] + 18.0 * v[1] - 9.0 * v[2] + 2.0 * v[3]) / (6.0 * h)
    out[-1] = (11.0 * v[-1] - 18.0 * v[-2] + 9.0 * v[-3] - 2.0 * v[-4]) / (6.0 * h)
    return np.moveaxis(out, 0, axis)


def mixed_xy(f: ScalarField2D) -> ScalarField2D:
    """Mixed second derivative; interior entries are the four-point cross stencil.

    Edge lines close with the third-order one-sided first difference so
    that fields derived from the result stay uniformly second order when
    differenced again.
    """
    vals = _d1_edge3(_d1_edge3(f.values, f.gx.h, 0), f.gy.h, 1)
    return ScalarField2D(f.gx, f.gy, vals)


# ---------------------------------------------------------------------------
# interpolation


def interp1_monotone(xs: np.ndarray, ys: np.ndarray, x) -> np.ndarray:
    """Piecewise-linear interpolation of ``ys`` over strictly increasing ``xs``.

    Raises OutOfRange for queries outside ``[xs[0], xs[-1]]`` beyond a
    1e-12 roundoff allowance; callers that want clamping must clamp
    explicitly. Output never overshoots the bracketing node values.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xq = np.asarray(x, dtype=float)
    lo, hi = xs[0], xs[-1]
    if np.any(xq < lo - 1e-12) or np.any(xq > hi + 1e-12):
        bad = xq[(xq < lo - 1e-12) | (xq > hi + 1e-12)]
        raise OutOfRange(
            f"query {np.atleast_1d(bad).ravel()[0]!r} outside [{lo}, {hi}]"
        )
    out = np.interp(np.clip(xq, lo, hi), xs, ys)
    return out if np.ndim(x) else float(out)


def bilinear(field: ScalarField2D, xq, yq) -> np.ndarray:
    """Bilinear interpolation of a 2D field; queries must lie in the domain."""
    gx, gy = field.gx, field.gy
    xq = np.asarray(xq, dtype=float)
    yq = np.asarray(yq, dtype=float)
    if not (np.all(gx.contains(xq)) and np.all(gy.contains(yq))):
        raise OutOfRange("bilinear query outside the grid domain")
    tx = np.clip((xq - gx.lo) / gx.h, 0.0, gx.n - 1.0)
    ty = np.clip((yq - gy.lo) / gy.h, 0.0, gy.n - 1.0)
    i = np.minimum(tx.astype(int), gx.n - 2)
    j = np.minimum(ty.astype(int), gy.n - 2)
    fx = tx - i
    fy = ty - j
    v = field.values
    out = (
        v[i, j] * (1 - fx) * (1 - fy)
        + v[i + 1, j] * fx * (1 - fy)
        + v[i, j + 1] * (1 - fx) * fy
        + v[i + 1, j + 1] * fx * fy
    )
    return out if (np.ndim(xq) or np.ndim(yq)) else float(out)
