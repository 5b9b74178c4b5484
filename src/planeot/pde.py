"""Quasi-linear elliptic Dirichlet solve for the distribution function of Z.

The unknown is the joint distribution function F on [0,1] x [1,2] whose
mixed derivative is the optimal coupling density. Stationarity of the
coupling objective is equivalent to

    A(x, F'_x) F''_xx + B(y, F'_y) F''_yy = C(x, y, F'_x, F'_y)

with strictly positive leading coefficients built from the quantile
evaluators (no zero-order term). The solve freezes the coefficients at
the current iterate (Picard), solves the resulting linear five-point
system with Dirichlet data, and mixes that solution with the last few
iterates by Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 49,
2011), with ``omega`` as the mixing weight. An extrapolated iterate whose
derivative ratios trip the guard is replaced by the plain damped one.

Boundary data: F vanishes on the low edges; on the high edges it equals
the CDFs of the prescribed marginals (x-marginal of f on top, y-marginal
of f~ on the right), the only values consistent with Z's marginals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cost import CandidateQ, Instance, M_field, make_candidate, objective
from .cost import _composite_derivative, _quantile_points
from .errors import (
    ConfigError,
    LinearSolveDiverged,
    MarginalViolation,
    NegativeMassExcessive,
    QuantileRangeError,
)
from .grids import (
    EPS_POS,
    Density2D,
    Grid1D,
    ScalarField2D,
    _d1,
    _d1_edge3,
    mixed_xy,
    trapz2d,
)

# ratios F'_x/f1 and F'_y/f2~ may leave [0,1] by this much before it is
# treated as a gross violation; finite-h iterates overshoot near
# low-density edges at the discretization-error level, well above roundoff
RATIO_GUARD = 0.05
# residual maxima in reports exclude a band this wide along the boundary:
# the discrete solve carries a numerical boundary layer a few nodes deep
# whose defect decays one order slower than the bulk
RESIDUAL_MARGIN = 0.1
# density recovery fails when flooring removes more than this share of mass
MAX_FLOORED = 0.01
# BiCGStab iteration cap when an earlier Picard step's ILU factor
# preconditions a new matrix; a step that misses the tolerance within it
# factors its own matrix. Reused factors need at most 16 iterations per
# step on the shipped presets at 33-513 (product-gauss at 33; at most 2
# from 257 up), so the cap only bounds the cost of a bad one
REUSED_FACTOR_MAX_ITERS = 50
# fill cap of the ILU, nnz(L+U) / nnz(A). The natural fill of the minimum-
# degree ILU (drop_tol 1e-5) on the first Picard matrix grows by about 1.6
# per doubling of n: product-gauss 6.06 / 7.63 / 9.26 / 10.84 and bilinear
# 7.75 / 9.41 / 10.98 (at 129 / 257 / 513, product-gauss from 65). SuperLU
# spends the cap as a running per-column budget, so a cap just above the
# natural fill (10 on bilinear 257) still drops enough to cost 5-14 BiCGStab
# iterations per step; 14 covers the fill at 513 with margin
ILU_FILL_FACTOR = 14.0
# Anderson mixing depth: residual differences of the last this many Picard
# steps. At 33-257 depth 3 takes product-gauss from 16/15/13/10 to
# 11/10/9/8 iterations and bilinear from 13 to 6; depths 2 and 5 gain
# nothing more
ANDERSON_DEPTH = 3


@dataclass
class SolverConfig:
    """Grid size, Picard settings and linear-solve settings of one solve.

    ``linear_tol`` is the relative residual each linear solve must reach.
    Any positive value is accepted, but one near 1e-12 can sit below the
    residual floor the five-point system allows at 257 nodes (a direct
    solve of the sine manufactured problem reaches only 1.92e-12): there
    the solve stops with ``LinearSolveDiverged``, exit 2.
    """

    nx: int = 65
    ny: int = 65
    omega: float = 0.7
    picard_tol: float = 1e-8
    picard_max_iters: int = 200
    linear_tol: float = 1e-10
    linear_max_iters: int = 20000

    def __post_init__(self):
        if not (0.0 < self.omega <= 1.0):
            raise ConfigError(f"omega: must lie in (0, 1], got {self.omega}")
        for name in ("picard_tol", "linear_tol"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name}: must be positive")
        for name in ("picard_max_iters", "linear_max_iters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be at least 1, got {getattr(self, name)}")


@dataclass
class SolveReport:
    """Diagnostics of one Picard solve and the fields derived from its result.

    ``candidate`` and ``M`` are None when density recovery failed (too
    much mass floored away, or marginals outside the 25 h^2 slack); ``hh``
    is None when the last iterate's derivative ratios left [0, 1] beyond
    the guard. ``stop_reason`` says why a solve stopped short of a full
    result (the ratio guard, a stall, a failed linear solve or a failed
    density recovery) and is None when it converged and its density was
    recovered.
    """

    iterations: int = 0
    converged: bool = False
    final_update_norm: float = np.inf
    hh_residual_max: float = np.nan
    mixed_M_residual_max: float = np.nan
    ellipticity_margin: float = np.inf
    cost: float = np.nan
    monotone_violations: int = 0
    floored_mass: float = 0.0
    candidate: CandidateQ | None = None
    hh: ScalarField2D | None = None
    M: ScalarField2D | None = None
    stop_reason: str | None = None


class PdeCoefficients:
    """Frozen coefficient fields of one Picard step."""

    __slots__ = ("A", "B", "C")

    def __init__(self, A: ScalarField2D, B: ScalarField2D, C: ScalarField2D):
        self.A = A
        self.B = B
        self.C = C

    @property
    def margin(self) -> float:
        """Minimum of both leading coefficients over interior nodes."""
        a = self.A.values[1:-1, 1:-1]
        b = self.B.values[1:-1, 1:-1]
        return float(min(a.min(), b.min()))


# ---------------------------------------------------------------------------
# boundary data and initial iterate


def dirichlet_boundary(inst: Instance, gx: Grid1D, gy: Grid1D):
    """(top, right) boundary curves: the prescribed marginal CDFs."""
    top = inst.f1.cdf_at(gx.nodes)
    right = inst.f2_tilde.cdf_at(gy.nodes)
    return top, right


def initial_iterate(inst: Instance, gx: Grid1D, gy: Grid1D) -> ScalarField2D:
    """Product of the boundary CDFs.

    Satisfies all four Dirichlet edges exactly. Its exact derivative
    ratios lie in [0, 1] for any instance (a transfinite blend of the
    edges does not once the marginals are far from uniform), but the
    discrete ones need not: where a marginal is tiny at the domain edge,
    the one-sided edge stencils overshoot. On product-gauss they leave
    [0, 1] by 1.56 at 9 nodes, 0.281 at 17, 0.146 at 21, 0.087 at 25 and
    0.056 at 29, beyond ``RATIO_GUARD``, so every solve of it below 33
    nodes stops at iteration 1.
    """
    top, right = dirichlet_boundary(inst, gx, gy)
    return ScalarField2D(gx, gy, np.outer(top, right))


def _marginal_tables(inst: Instance, gx: Grid1D, gy: Grid1D):
    """f1, f2~ and their log-derivatives sampled on the solver grid."""
    f1 = inst.f1.density_at(gx.nodes)
    f2t = inst.f2_tilde.density_at(gy.nodes)
    df1 = _d1(inst.f1.values, inst.f1.grid.h, axis=0)
    df2t = _d1(inst.f2_tilde.values, inst.f2_tilde.grid.h, axis=0)
    logd1 = np.interp(gx.nodes, inst.f1.grid.nodes, df1 / inst.f1.values)
    logd2t = np.interp(gy.nodes, inst.f2_tilde.grid.nodes, df2t / inst.f2_tilde.values)
    return f1, f2t, logd1, logd2t


def _ratios_and_points(inst: Instance, F: ScalarField2D, f1: np.ndarray, f2t: np.ndarray):
    """Clamped levels v = F'_x/f1, u = F'_y/f2~ and their quantile points."""
    gx, gy = F.gx, F.gy
    v = _d1_edge3(F.values, gx.h, axis=0) / f1[:, None]
    u = _d1_edge3(F.values, gy.h, axis=1) / f2t[None, :]
    worst = max(
        float(max(-v.min(), v.max() - 1.0)), float(max(-u.min(), u.max() - 1.0))
    )
    if worst > RATIO_GUARD:
        raise QuantileRangeError(
            f"derivative ratio left [0, 1] by {worst:.3e} (guard {RATIO_GUARD:.1e})"
        )
    return _quantile_points(inst, np.clip(v, 0.0, 1.0), np.clip(u, 0.0, 1.0), gx, gy)


# ---------------------------------------------------------------------------
# assembly, one linear step, the Picard loop


def assemble_coefficients(inst: Instance, F: ScalarField2D) -> PdeCoefficients:
    """Coefficient fields of the frozen-coefficient linear problem.

    A multiplies F''_xx, B multiplies F''_yy, and C collects the
    conditioning-derivatives of the quantile maps plus the marginal
    log-derivative corrections.
    """
    gx, gy = F.gx, F.gy
    f1, f2t, logd1, logd2t = _marginal_tables(inst, gx, gy)
    (v, _, ds_v, dc_v), (u, _, ds_u, dc_u) = _ratios_and_points(inst, F, f1, f2t)
    Fx = v * f1[:, None]
    Fy = u * f2t[None, :]
    A = ds_v / f1[:, None]
    B = ds_u / f2t[None, :]
    C = (
        -dc_u
        - dc_v
        + B * logd2t[None, :] * Fy
        + A * logd1[:, None] * Fx
    )
    return PdeCoefficients(
        ScalarField2D(gx, gy, A), ScalarField2D(gx, gy, B), ScalarField2D(gx, gy, C)
    )


class _FactorSlot:
    """The ILU factor a Picard solve carries from step to step (None before the first)."""

    __slots__ = ("ilu",)

    def __init__(self):
        self.ilu = None


def linear_elliptic_solve(
    coeffs: PdeCoefficients,
    boundary: ScalarField2D,
    linear_tol: float = SolverConfig.linear_tol,
    linear_max_iters: int = SolverConfig.linear_max_iters,
    factor: _FactorSlot | None = None,
) -> ScalarField2D:
    """Solve A d2x F + B d2y F = C on interior nodes with given Dirichlet data.

    Five-point second differences; the sparse system is solved by
    BiCGStab preconditioned with an incomplete LU in minimum-degree order
    of A + A^T, and the relative residual is verified against
    ``linear_tol`` after every attempt. The attempts, in order:

    1. when ``factor`` holds an earlier step's ILU, BiCGStab with it, at
       most ``REUSED_FACTOR_MAX_ITERS`` iterations;
    2. BiCGStab with a fresh ILU of this matrix, which replaces the one in
       ``factor``, at most ``linear_max_iters`` iterations.

    ``LinearSolveDiverged`` names the second attempt's relative residual
    when it misses too, or the error of an ILU that fails. Without
    ``factor`` a call factors its own matrix.
    """
    gx, gy = boundary.gx, boundary.gy
    n, m = gx.n, gy.n
    ni, mi = n - 2, m - 2
    ax = coeffs.A.values[1:-1, 1:-1] / gx.h**2
    by = coeffs.B.values[1:-1, 1:-1] / gy.h**2
    rhs = coeffs.C.values[1:-1, 1:-1].copy()
    bvals = boundary.values
    # boundary neighbors move to the right-hand side
    rhs[0, :] -= ax[0, :] * bvals[0, 1:-1]
    rhs[-1, :] -= ax[-1, :] * bvals[-1, 1:-1]
    rhs[:, 0] -= by[:, 0] * bvals[1:-1, 0]
    rhs[:, -1] -= by[:, -1] * bvals[1:-1, -1]

    N = ni * mi
    diag = (-2.0 * (ax + by)).ravel()
    east = ax.ravel()[: N - mi]          # coupling to (i+1, j)
    west = ax.ravel()[mi:]               # coupling to (i-1, j)
    north = by.ravel()[:-1].copy()       # coupling to (i, j+1)
    south = by.ravel()[1:].copy()        # coupling to (i, j-1)
    north[mi - 1 :: mi] = 0.0
    south[mi - 1 :: mi] = 0.0
    A_mat = sp.diags(
        [diag, east, west, north, south],
        offsets=[0, mi, -mi, 1, -1],
        shape=(N, N),
        format="csc",
    )
    b = rhs.ravel()
    x0 = bvals[1:-1, 1:-1].ravel()
    bnorm = float(np.linalg.norm(b))

    def bicgstab(ilu, maxiter):
        """BiCGStab preconditioned by ``ilu``: (x, None) or (x, why it missed)."""
        M = spla.LinearOperator((N, N), ilu.solve, dtype=float)
        x, info = spla.bicgstab(
            A_mat, b, x0=x0, rtol=linear_tol * 0.1, atol=0.0, maxiter=maxiter, M=M
        )
        res = float(np.linalg.norm(A_mat @ x - b)) / bnorm
        if info == 0 and res <= linear_tol:
            return x, None
        return x, (
            f"BiCGStab missed tolerance {linear_tol:.1e}: relative residual "
            f"{res:.3e}, info {info}"
        )

    if bnorm == 0.0:
        x = np.zeros(N)
    else:
        slot = _FactorSlot() if factor is None else factor
        if slot.ilu is not None:
            x, miss = bicgstab(slot.ilu, min(REUSED_FACTOR_MAX_ITERS, linear_max_iters))
        if slot.ilu is None or miss:
            # minimum-degree ordering of A + A^T suits the structurally
            # symmetric five-point matrix; SuperLU's default COLAMD, built for
            # unsymmetric structure, loses so much to the fill cap that
            # BiCGStab needs tens of iterations per solve
            try:
                slot.ilu = spla.spilu(
                    A_mat,
                    drop_tol=1e-5,
                    fill_factor=ILU_FILL_FACTOR,
                    permc_spec="MMD_AT_PLUS_A",
                )
            except RuntimeError as e:
                raise LinearSolveDiverged(f"incomplete LU failed: {e}") from None
            x, miss = bicgstab(slot.ilu, linear_max_iters)
            if miss:
                raise LinearSolveDiverged(miss)
    out = bvals.copy()
    out[1:-1, 1:-1] = x.reshape(ni, mi)
    return ScalarField2D(gx, gy, out)


class _AndersonHistory:
    """Differences of the last ``ANDERSON_DEPTH`` iterates and residuals of one solve.

    Both buffers are allocated once and overwritten in place, oldest row
    first, so a solve's memory does not grow with its iteration count.
    """

    __slots__ = ("dx", "dr", "count", "x", "r")

    def __init__(self, size: int):
        self.dx = np.empty((ANDERSON_DEPTH, size))
        self.dr = np.empty((ANDERSON_DEPTH, size))
        self.reset()

    def reset(self):
        self.count = 0
        self.x = self.r = None

    def mix(self, x: np.ndarray, x_star: np.ndarray, omega: float):
        """(next iterate, plain damped iterate) after the step from x to x_star.

        Type-II Anderson: with the residual r = x_star - x and the columns
        of dX, dR the stored differences, gamma minimizes |r - dR gamma|
        and the next iterate is x + omega r - (dX + omega dR) gamma. With
        no differences stored it is the plain damped iterate. ``x`` is
        kept as the next step's reference, so it must not be modified
        afterwards.
        """
        r = x_star - x
        plain = (1.0 - omega) * x + omega * x_star
        if self.x is not None:
            row = self.count % ANDERSON_DEPTH
            np.subtract(x, self.x, out=self.dx[row])
            np.subtract(r, self.r, out=self.dr[row])
            self.count += 1
        self.x, self.r = x, r
        used = min(self.count, ANDERSON_DEPTH)
        if used == 0:
            return plain, plain
        dx, dr = self.dx[:used], self.dr[:used]
        gamma = np.linalg.lstsq(dr.T, r, rcond=None)[0]
        return plain - gamma @ dx - omega * (gamma @ dr), plain


def picard_solve(inst: Instance, cfg: SolverConfig) -> tuple[ScalarField2D, SolveReport]:
    """Anderson-accelerated frozen-coefficient iteration until the applied update is small.

    Each step assembles the coefficients at the current iterate F, solves
    the linear problem for F*, and moves to the type-II Anderson mixture
    of depth ``ANDERSON_DEPTH`` with weight ``cfg.omega`` (``_AndersonHistory``).
    The first step is the plain damped step (1 - omega) F + omega F*. The
    solve converges once the max-norm of the update it applied is at most
    ``picard_tol``. When the derivative ratios of an extrapolated iterate
    trip the guard, the step's plain damped iterate replaces it and the
    history restarts; a plain iterate that trips it stops the solve.

    The first step's ILU factor preconditions every later step's linear
    solve: the coefficients change little from step to step, so the
    factor stays nearly exact for them. A step whose solve misses
    ``linear_tol`` with it factors its own matrix, which later steps then
    reuse (``linear_elliptic_solve`` gives the full retry order).

    Neither convergence failure, nor an iterate whose derivative ratios
    trip the guard, nor a linear solve that fails its residual check, nor
    a failed density recovery raises; the report comes back with a
    ``stop_reason`` and whatever diagnostics the last iterate allows, so
    callers can inspect a stopped run. The report carries the recovered
    candidate and the hh and M fields, so callers never recompute them.
    """
    gx = Grid1D(0.0, 1.0, cfg.nx)
    gy = Grid1D(1.0, 2.0, cfg.ny)
    F = initial_iterate(inst, gx, gy)
    report = SolveReport()
    ell = np.inf
    factor = _FactorSlot()
    history = _AndersonHistory(F.values.size)
    shape = F.values.shape
    plain = None  # the step's plain damped iterate when F is extrapolated
    for k in range(1, cfg.picard_max_iters + 1):
        # an extrapolated iterate that trips the ratio guard gives way to
        # the plain damped one, and the history restarts from there
        for F in (F,) if plain is None else (F, plain):
            try:
                coeffs = assemble_coefficients(inst, F)
                break
            except QuantileRangeError as e:
                guard = e
                history.reset()
        else:
            report.stop_reason = f"ratio guard at Picard iteration {k}: {guard}"
            break
        if k == 1 and coeffs.margin <= 1e-8:
            warnings.warn(
                f"ellipticity margin {coeffs.margin:.3e} is not safely positive; "
                "proceeding anyway",
                stacklevel=2,
            )
        ell = min(ell, coeffs.margin)
        try:
            F_star = linear_elliptic_solve(
                coeffs,
                F,
                linear_tol=cfg.linear_tol,
                linear_max_iters=cfg.linear_max_iters,
                factor=factor,
            )
        except LinearSolveDiverged as e:
            report.stop_reason = f"linear solve at Picard iteration {k}: {e}"
            break
        x = F.values.ravel()
        new_vals, plain_vals = history.mix(x, F_star.values.ravel(), cfg.omega)
        update = float(np.max(np.abs(new_vals - x)))
        F = ScalarField2D(gx, gy, new_vals.reshape(shape))
        plain = None if plain_vals is new_vals else ScalarField2D(gx, gy, plain_vals.reshape(shape))
        report.iterations = k
        report.final_update_norm = update
        if update <= cfg.picard_tol:
            report.converged = True
            break
    else:
        report.stop_reason = (
            f"Picard stall: {cfg.picard_max_iters} iterations, last update norm "
            f"{report.final_update_norm:.3e} above tolerance {cfg.picard_tol:.1e}"
        )
    report.ellipticity_margin = float(ell)
    report.monotone_violations = _count_monotone_violations(F)
    try:
        report.hh = hh_residual(inst, F)
    except QuantileRangeError:
        if report.converged:
            raise
    else:
        report.hh_residual_max = residual_window_max(report.hh)
    try:
        cand = recover_density(inst, F)
    except (NegativeMassExcessive, MarginalViolation) as e:
        if report.stop_reason is None:
            report.stop_reason = f"density recovery: {e}"
        return F, report
    report.candidate = cand
    report.floored_mass = cand.floored_mass
    report.cost = objective(inst, cand)
    report.M = M_field(inst, cand)
    report.mixed_M_residual_max = residual_window_max(mixed_xy(report.M))
    return F, report


def residual_window_max(field: ScalarField2D) -> float:
    """Max magnitude over nodes at least ``RESIDUAL_MARGIN`` inside the boundary."""
    gx, gy = field.gx, field.gy
    m = RESIDUAL_MARGIN
    mx = (gx.nodes >= gx.lo + m - 1e-12) & (gx.nodes <= gx.hi - m + 1e-12)
    my = (gy.nodes >= gy.lo + m - 1e-12) & (gy.nodes <= gy.hi - m + 1e-12)
    if not (mx.any() and my.any()):
        mx = np.ones(gx.n, dtype=bool)
        my = np.ones(gy.n, dtype=bool)
        mx[[0, -1]] = False
        my[[0, -1]] = False
    return float(np.max(np.abs(field.values[np.ix_(mx, my)])))


def _count_monotone_violations(F: ScalarField2D) -> int:
    """Neighbour pairs along either axis where F drops by more than roundoff."""
    dv_x = np.diff(F.values, axis=0)
    dv_y = np.diff(F.values, axis=1)
    return int(np.count_nonzero(dv_x < -1e-12) + np.count_nonzero(dv_y < -1e-12))


def hh_residual(inst: Instance, F: ScalarField2D) -> ScalarField2D:
    """Pointwise stationarity defect of F, interior nodes only.

    The total y-derivative of the first quantile composite plus the total
    x-derivative of the second; both expanded by the chain rule through
    the level and conditioning derivatives. Edge entries are zero.
    """
    gx, gy = F.gx, F.gy
    f1, f2t, _, _ = _marginal_tables(inst, gx, gy)
    res = _composite_derivative(_ratios_and_points(inst, F, f1, f2t), gx, gy, _d1)
    out = np.zeros_like(res)
    out[1:-1, 1:-1] = res[1:-1, 1:-1]
    return ScalarField2D(gx, gy, out)


def recover_density(inst: Instance, F: ScalarField2D) -> CandidateQ:
    """Mixed derivative of F, floored at zero and renormalized to unit mass.

    The recovered marginals track the prescribed ones at the mixed-stencil
    truncation level; the 25 h^2 feasibility slack covers the measured
    constant (about 11 h^2 on the steepest shipped preset) with headroom.
    """
    p_raw = mixed_xy(F).values
    clipped = np.maximum(p_raw, 0.0)
    removed = trapz2d(clipped - p_raw, F.gx.h, F.gy.h)
    total = trapz2d(clipped, F.gx.h, F.gy.h)
    if total <= 0.0 or removed > MAX_FLOORED * total:
        raise NegativeMassExcessive(
            f"flooring removed {removed:.3e} of mass {total:.3e}"
        )
    vals = np.maximum(clipped, EPS_POS)
    d = Density2D(F.gx, F.gy, vals / trapz2d(vals, F.gx.h, F.gy.h))
    tol = 25.0 * max(F.gx.h, F.gy.h) ** 2
    return make_candidate(inst, d, marginal_tol=tol, floored_mass=float(removed))
