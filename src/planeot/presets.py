"""Built-in density pairs: one analytic, one product, one genuinely coupled."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grids import Density2D, Grid1D, normalize


def _trunc_gauss(nodes: np.ndarray, mean: float, sd: float) -> np.ndarray:
    z = (nodes - mean) / sd
    return np.exp(-0.5 * z * z)


def uniform_pair(nx: int, ny: int):
    gx = Grid1D(0.0, 1.0, nx)
    gy = Grid1D(0.0, 1.0, ny)
    gxt = Grid1D(1.0, 2.0, nx)
    gyt = Grid1D(1.0, 2.0, ny)
    f = normalize(Density2D(gx, gy, np.ones((nx, ny))))
    ft = normalize(Density2D(gxt, gyt, np.ones((nx, ny))))
    return f, ft


def product_gauss_pair(nx: int, ny: int):
    """Truncated-Gaussian products: means (0.5, 0.4) and (1.5, 1.6), sd 0.2."""
    gx = Grid1D(0.0, 1.0, nx)
    gy = Grid1D(0.0, 1.0, ny)
    gxt = Grid1D(1.0, 2.0, nx)
    gyt = Grid1D(1.0, 2.0, ny)
    f = np.outer(_trunc_gauss(gx.nodes, 0.5, 0.2), _trunc_gauss(gy.nodes, 0.4, 0.2))
    ft = np.outer(_trunc_gauss(gxt.nodes, 1.5, 0.2), _trunc_gauss(gyt.nodes, 1.6, 0.2))
    return normalize(Density2D(gx, gy, f)), normalize(Density2D(gxt, gyt, ft))


def bilinear_pair(nx: int, ny: int):
    """``1 + 0.5(2x-1)(2y-1)`` and its [1,2]^2 counterpart with coefficient -0.3."""
    gx = Grid1D(0.0, 1.0, nx)
    gy = Grid1D(0.0, 1.0, ny)
    gxt = Grid1D(1.0, 2.0, nx)
    gyt = Grid1D(1.0, 2.0, ny)
    X, Y = np.meshgrid(gx.nodes, gy.nodes, indexing="ij")
    f = 1.0 + 0.5 * (2.0 * X - 1.0) * (2.0 * Y - 1.0)
    Xt, Yt = np.meshgrid(gxt.nodes, gyt.nodes, indexing="ij")
    ft = 1.0 - 0.3 * (2.0 * (Xt - 1.0) - 1.0) * (2.0 * (Yt - 1.0) - 1.0)
    return normalize(Density2D(gx, gy, f)), normalize(Density2D(gxt, gyt, ft))


PRESETS = {
    "uniform": uniform_pair,
    "product-gauss": product_gauss_pair,
    "bilinear": bilinear_pair,
}


def build_preset(name: str, nx: int, ny: int):
    try:
        builder = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"preset: unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return builder(nx, ny)
