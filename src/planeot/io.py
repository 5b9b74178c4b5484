"""Delimited-text grid files and key=value reports.

Density and field files share one human-inspectable format: a header
line carrying the grid geometry, then ``ny`` rows of ``nx`` values
(row-major in y, so each row is one horizontal grid line). Densities are
tagged ``mk-density``, other node fields ``mk-field``; both parse back
through the readers here.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError
from .grids import Density2D, Grid1D, ScalarField2D

_DENSITY_TAG = "mk-density"
_FIELD_TAG = "mk-field"


def _header(tag: str, f: ScalarField2D) -> str:
    return (
        f"# {tag} nx={f.gx.n} ny={f.gy.n} "
        f"xlo={f.gx.lo!r} xhi={f.gx.hi!r} ylo={f.gy.lo!r} yhi={f.gy.hi!r}"
    )


def _write(path: str, tag: str, f: ScalarField2D):
    rows = [" ".join(map(repr, row)) for row in f.values.T.tolist()]
    with open(path, "w") as fh:
        fh.write(_header(tag, f) + "\n")
        fh.write("\n".join(rows) + "\n")


def write_density(path: str, d: Density2D):
    _write(path, _DENSITY_TAG, d)


def write_field(path: str, f: ScalarField2D):
    _write(path, _FIELD_TAG, f)


def _parse_header(line: str, path: str):
    parts = line.lstrip("#").split()
    if not parts or parts[0] not in (_DENSITY_TAG, _FIELD_TAG):
        raise ConfigError(f"{path}: not a grid file (missing mk-density/mk-field header)")
    tag = parts[0]
    kv = {}
    for tok in parts[1:]:
        key, _, val = tok.partition("=")
        kv[key] = val
    try:
        nx, ny = int(kv["nx"]), int(kv["ny"])
        xlo, xhi = float(kv["xlo"]), float(kv["xhi"])
        ylo, yhi = float(kv["ylo"]), float(kv["yhi"])
    except (KeyError, ValueError) as e:
        raise ConfigError(f"{path}: malformed header ({e})") from None
    return tag, nx, ny, xlo, xhi, ylo, yhi


def _read(path: str):
    if not os.path.exists(path):
        raise ConfigError(f"{path}: file does not exist")
    with open(path) as fh:
        header = fh.readline()
        tag, nx, ny, xlo, xhi, ylo, yhi = _parse_header(header, path)
        try:
            data = np.loadtxt(fh, ndmin=2)
        except ValueError as e:
            raise ConfigError(f"{path}: unreadable grid values ({e})") from None
    if data.shape != (ny, nx):
        raise ConfigError(
            f"{path}: expected {ny} rows of {nx} values, got shape {data.shape}"
        )
    gx = Grid1D(xlo, xhi, nx)
    gy = Grid1D(ylo, yhi, ny)
    return tag, gx, gy, data.T.copy()


def read_density(path: str) -> Density2D:
    tag, gx, gy, values = _read(path)
    if tag != _DENSITY_TAG:
        raise ConfigError(f"{path}: expected a {_DENSITY_TAG} file, found {tag}")
    return Density2D(gx, gy, values)


def read_field(path: str) -> ScalarField2D:
    _, gx, gy, values = _read(path)
    return ScalarField2D(gx, gy, values)


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def render_report(pairs, table_title: str | None = None, table_rows=None) -> str:
    """One ``key = value`` line per pair, then an optional delimited table."""
    lines = [f"{k} = {format_value(v)}" for k, v in pairs]
    if table_rows is not None:
        lines.append("")
        lines.append(f"# {table_title}")
        for row in table_rows:
            lines.append(" | ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"
