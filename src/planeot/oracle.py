"""Independent ground truth for the PDE pipeline.

Two oracles:

    * exact discrete optimal transport between atomized measures, solved
      as a transportation LP to vertex optimality with a primal-dual
      certificate;
    * direct projected descent on the coupling objective over the
      marginal-constraint polytope.

Agreement of the PDE cost with both, under refinement, is the
end-to-end validation of the reduction. Neither calls the elliptic solve.
A caller that holds a solve may seed the transport LP's support with the
solve's transport map; the certificate prices every pair, so the LP's
answer does not depend on the seed, only the work to reach it does.

Only the transport LP needs ``scipy.optimize``, so this module loads it at
the first call of ``linprog``, not on import: ``planeot solve`` without
the oracle and ``planeot distance1d`` load numpy, ``scipy.sparse`` and
``scipy.sparse.linalg`` only, and the first LP of a process pays for the
import (about 0.2 s and 17 MB).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .cost import (
    CandidateQ,
    Instance,
    _line_costs,
    _objective_value,
    _terms,
    make_candidate,
    objective,
)
from .errors import FloorSaturation, Infeasible, SizeGuard
from .grids import (
    EPS_POS,
    Density2D,
    Grid1D,
    bilinear,
    trapz1d,
    trapz_weights,
)

# the guard was set for the dense LP, which handed every pair to HiGHS
# (1.8 GB peak RSS at 37 x 37 atoms a side). The coarse-to-fine LP keeps
# only dense n x m costs, reduced costs and masks, and hands HiGHS about
# 40 pairs per atom: 199 MB peak RSS at 37 x 37 (bilinear, about 80 MB of
# it the interpreter with numpy and scipy), so 2e6 pairs is now far under
# a 2 GB budget
SIZE_GUARD = 2_000_000
# largest primal-dual gap, relative to the cost, that certifies an LP optimum;
# also the reduced cost, relative to the cost, below which a pair is priced in
GAP_TOL = 1e-9
# up to this many atom pairs the transport LP is solved over every pair;
# above it the support is seeded from a coarsened pair
DENSE_PAIRS = 40 * 40
# most restricted LP solves per level before pricing gives up
PRICING_ROUNDS = 20
# a map-seeded support links each atom to this many atoms nearest its
# image under the map
NEAR_ATOMS = 9
# marginal projection: at most this many row/column passes, stopping once
# both marginals are met to the tolerance
PROJECTION_PASSES = 50
PROJECTION_TOL = 1e-10
# node bump of the finite-difference gradient
FD_STEP = 1e-6


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at the first call."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


class AtomizedMeasure:
    """Weighted point masses; weights are nonnegative and sum to one."""

    __slots__ = ("points", "weights")

    def __init__(self, points: np.ndarray, weights: np.ndarray):
        points = np.ascontiguousarray(points, dtype=float).reshape(-1, 2)
        weights = np.ascontiguousarray(weights, dtype=float).ravel()
        if len(points) != len(weights):
            raise ValueError("points and weights length mismatch")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
        self.points = points
        self.weights = weights


class TransportPlan:
    """Nonnegative coupling matrix with prescribed row/column sums.

    ``rounds`` counts the restricted LPs solved for it (the coarse levels
    of a coarse-to-fine solve excluded) and ``priced_in`` the pairs that
    pricing added to the starting support.
    """

    __slots__ = ("plan", "dual_gap", "rounds", "priced_in")

    def __init__(
        self,
        plan: np.ndarray,
        source: AtomizedMeasure,
        target: AtomizedMeasure,
        dual_gap: float = np.nan,
        rounds: int = 0,
        priced_in: int = 0,
    ):
        plan = np.asarray(plan, dtype=float)
        if np.min(plan) < -1e-12:
            raise ValueError(f"plan has negative entry {plan.min()!r}")
        plan = np.maximum(plan, 0.0)
        row_err = np.max(np.abs(plan.sum(axis=1) - source.weights))
        col_err = np.max(np.abs(plan.sum(axis=0) - target.weights))
        if max(row_err, col_err) > 1e-9:
            raise ValueError(
                f"plan marginals deviate by {max(row_err, col_err):.3e}"
            )
        self.plan = plan
        self.dual_gap = float(dual_gap)
        self.rounds = int(rounds)
        self.priced_in = int(priced_in)


def atomize(d: Density2D, nx: int, ny: int) -> AtomizedMeasure:
    """Cell-centered atoms carrying the exact mass of the interpolated density.

    The domain splits into ``nx x ny`` equal cells; each cell's weight is
    the integral of the piecewise-bilinear interpolant over the cell,
    evaluated exactly by midpoint quadrature on the overlap segments with
    the underlying grid cells.
    """
    ex = np.linspace(d.gx.lo, d.gx.hi, nx + 1)
    ey = np.linspace(d.gy.lo, d.gy.hi, ny + 1)
    bx = np.union1d(ex, d.gx.nodes)
    by = np.union1d(ey, d.gy.nodes)
    mx = 0.5 * (bx[1:] + bx[:-1])
    my = 0.5 * (by[1:] + by[:-1])
    lx = np.diff(bx)
    ly = np.diff(by)
    MX, MY = np.meshgrid(mx, my, indexing="ij")
    seg_mass = np.outer(lx, ly) * bilinear(d, MX, MY)
    ix = np.clip(np.searchsorted(ex, mx) - 1, 0, nx - 1)
    iy = np.clip(np.searchsorted(ey, my) - 1, 0, ny - 1)
    W = np.zeros((nx, ny))
    np.add.at(W, (np.broadcast_to(ix[:, None], seg_mass.shape),
                  np.broadcast_to(iy[None, :], seg_mass.shape)), seg_mass)
    cx = 0.5 * (ex[1:] + ex[:-1])
    cy = 0.5 * (ey[1:] + ey[:-1])
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    pts = np.column_stack([CX.ravel(), CY.ravel()])
    w = W.ravel()
    return AtomizedMeasure(pts, w / w.sum())


def exact_ot(
    src: AtomizedMeasure, dst: AtomizedMeasure, near=None
) -> tuple[TransportPlan, float]:
    """Exact squared-distance transport between two atomized measures.

    Solves the transportation LP on a sparse support, grown by pricing.
    At most ``DENSE_PAIRS`` pairs, the support is every pair and one round
    settles. Above it, the starting support comes from one of two seeds:

    * ``near = (images, preimages)``, a guess of the optimal map: each
      source atom's image and each target atom's preimage, one row per
      atom, such as ``cost.transport_map`` gives for a solved candidate.
      The support is the ``NEAR_ATOMS`` target atoms nearest each image,
      the ``NEAR_ATOMS`` source atoms nearest each preimage, and the
      support of the north-west-corner plan, which makes it feasible
      whatever the guess.
    * Without ``near``, coarse to fine: each measure's atoms are binned
      into a k x k grid over its own bounding box (k = isqrt(min(n, m)) //
      2, at least 2); a bin's atom carries its members' mass at their
      weighted mean, and the coarse pair is solved the same way. The
      support is every fine pair whose bin pair (source bx, by, target bx,
      by) is a pair the coarse plan moves mass between, or one bin away
      from one along a single coordinate. It is feasible: spreading each
      coarse cell X_IJ as X_IJ (a_i/A_I) (b_j/B_J) meets both marginals.

    Each round solves the LP restricted to the support with the HiGHS
    interior-point method (crossover to a vertex included) and prices the
    reduced costs C - u - v of every pair. Off-support pairs priced below
    -tol join the support and the LP is solved again; in-support pairs are
    never priced, since the duals are feasible on them only to the solver's
    own tolerance. Past ``PRICING_ROUNDS`` rounds the solve fails with
    ``Infeasible``.

    The certificate: tol is ``GAP_TOL`` times the cost (at least 1e-12),
    and the primal-dual gap may not exceed it. Duals feasible to tol on
    every pair bound the distance to the optimum over every pair by
    gap + tol, because the total mass is one. So the cost does not depend
    on the seed. The cost is the squared optimum.
    """
    n, m = len(src.weights), len(dst.weights)
    if n * m > SIZE_GUARD:
        raise SizeGuard(f"{n} x {m} = {n * m} atom pairs exceed the guard of {SIZE_GUARD} pairs")
    if near is not None:
        near = tuple(np.asarray(a, dtype=float) for a in near)
        if [a.shape for a in near] != [(n, 2), (m, 2)]:
            raise ValueError(
                f"near: images and preimages must have shapes ({n}, 2) and ({m}, 2), "
                f"got {[a.shape for a in near]}"
            )
    return _transport(src, dst, near)


def _coarsen(am: AtomizedMeasure, k: int) -> tuple[AtomizedMeasure, np.ndarray, np.ndarray]:
    """Bin ``am`` into a k x k grid over its bounding box.

    Returns the measure of the nonempty bins (mass summed, point at the
    members' weighted mean), each atom's (bx, by) bin and each coarse
    atom's (bx, by) bin.
    """
    lo = am.points.min(axis=0)
    span = am.points.max(axis=0) - lo
    scaled = (am.points - lo) / np.where(span > 0.0, span, 1.0)
    fine_bins = np.minimum((scaled * k).astype(np.intp), k - 1)
    flat = fine_bins[:, 0] * k + fine_bins[:, 1]
    mass = np.bincount(flat, am.weights, minlength=k * k)
    kept = np.flatnonzero(mass > 0.0)
    centroid = np.column_stack(
        [np.bincount(flat, am.weights * am.points[:, d], minlength=k * k)[kept] for d in (0, 1)]
    ) / mass[kept, None]
    coarse = AtomizedMeasure(centroid, mass[kept] / mass[kept].sum())
    return coarse, fine_bins, np.column_stack([kept // k, kept % k])


def _neighbourhood(mask: np.ndarray) -> np.ndarray:
    """Add to a boolean bin-pair mask the pairs one bin away along one axis."""
    padded = np.pad(mask, 1)
    inner = (slice(1, -1),) * mask.ndim
    near = mask.copy()
    for axis in range(mask.ndim):
        for step in (-1, 1):
            near |= np.roll(padded, step, axis=axis)[inner]
    return near


def _seed_support(src: AtomizedMeasure, dst: AtomizedMeasure) -> np.ndarray:
    """Fine pairs near the support of the coarsened problem's plan."""
    k = max(2, math.isqrt(min(len(src.weights), len(dst.weights))) // 2)
    src_c, src_bins, src_cbins = _coarsen(src, k)
    dst_c, dst_bins, dst_cbins = _coarsen(dst, k)
    coarse_plan, _ = _transport(src_c, dst_c)
    I, J = np.nonzero(coarse_plan.plan > 0.0)
    bins = np.zeros((k, k, k, k), dtype=bool)
    bins[src_cbins[I, 0], src_cbins[I, 1], dst_cbins[J, 0], dst_cbins[J, 1]] = True
    near = _neighbourhood(bins)
    return near[
        src_bins[:, 0, None], src_bins[:, 1, None], dst_bins[None, :, 0], dst_bins[None, :, 1]
    ]


def _sq_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from each row of ``p`` (rows) to each row of ``q`` (columns)."""
    # per coordinate: an (n, m, 2) difference array is about ten times slower
    return (p[:, 0, None] - q[None, :, 0]) ** 2 + (p[:, 1, None] - q[None, :, 1]) ** 2


def _nearest(points: np.ndarray, atoms: np.ndarray, k: int) -> np.ndarray:
    """Mask of the ``k`` atoms nearest each point (more on ties), one row per point."""
    d2 = _sq_distances(points, atoms)
    return d2 <= np.partition(d2, k - 1, axis=1)[:, k - 1 : k]


def _north_west_corner(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support (I, J) of the north-west-corner plan between weights ``a`` and ``b``.

    Atom i of ``a`` covers the interval of cumulative mass between its
    predecessors' sum and its own; the plan moves the overlap of each such
    interval of ``a`` and of ``b``, so every gap between consecutive
    interval ends is one pair.
    """
    ca, cb = np.cumsum(a), np.cumsum(b)
    ends = np.concatenate([[0.0], np.union1d(ca[:-1], cb[:-1]), [1.0]])
    mid = 0.5 * (ends[1:] + ends[:-1])
    I = np.minimum(np.searchsorted(ca, mid), len(a) - 1)
    J = np.minimum(np.searchsorted(cb, mid), len(b) - 1)
    return I, J


def _map_support(
    src: AtomizedMeasure, dst: AtomizedMeasure, images: np.ndarray, preimages: np.ndarray
) -> np.ndarray:
    """Pairs near a guessed map, plus the north-west-corner plan's pairs."""
    n, m = len(src.weights), len(dst.weights)
    support = _nearest(images, dst.points, min(NEAR_ATOMS, m))
    support |= _nearest(preimages, src.points, min(NEAR_ATOMS, n)).T
    support[_north_west_corner(src.weights, dst.weights)] = True
    return support


def _transport(
    src: AtomizedMeasure, dst: AtomizedMeasure, near=None
) -> tuple[TransportPlan, float]:
    """``exact_ot`` without the size guard; recurses on the coarsened pair."""
    n, m = len(src.weights), len(dst.weights)
    C = _sq_distances(src.points, dst.points)
    if n * m <= DENSE_PAIRS:
        support = np.ones((n, m), dtype=bool)
    elif near is not None:
        support = _map_support(src, dst, *near)
    else:
        support = _seed_support(src, dst)
    # one redundant column constraint is dropped to keep the system full rank.
    # HiGHS's feasibility tolerance (1e-7) is absolute, and unscaled masses of
    # 24-37 atoms a side came back with plan entries near -1e-7; masses scaled
    # by n + m are of order one, so its vertex is nonnegative far more tightly
    scale = n + m
    b_eq = scale * np.concatenate([src.weights, dst.weights[:-1]])
    priced_in = 0
    for rounds in range(1, PRICING_ROUNDS + 1):
        I, J = np.nonzero(support)
        in_cols = np.flatnonzero(J < m - 1)
        rows = np.concatenate([I, n + J[in_cols]])
        cols = np.concatenate([np.arange(len(I)), in_cols])
        A_eq = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + m - 1, len(I)))
        res = linprog(C[I, J], A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs-ipm")
        if res.status != 0:
            raise Infeasible(f"transport LP failed: {res.message}")
        primal = float(res.fun) / scale
        u = res.eqlin.marginals[:n]
        v = np.concatenate([res.eqlin.marginals[n:], [0.0]])
        tol = max(GAP_TOL * abs(primal), 1e-12)
        entering = ~support & (C - u[:, None] - v[None, :] < -tol)
        if not entering.any():
            break
        priced_in += np.count_nonzero(entering)
        support |= entering
    else:
        raise Infeasible(
            f"pricing did not settle in {PRICING_ROUNDS} rounds: "
            f"{np.count_nonzero(entering)} pairs priced below {-tol:.3e} in the last"
        )
    dual = float(src.weights @ u + dst.weights @ v)
    gap = abs(primal - dual)
    if gap > tol:
        raise Infeasible(
            f"duality certificate failed: gap {gap:.3e} on cost {primal:.6e}"
        )
    X = np.zeros((n, m))
    X[I, J] = res.x / scale
    plan = TransportPlan(X, src, dst, dual_gap=gap, rounds=rounds, priced_in=priced_in)
    return plan, primal


def exact_ot_1d(
    src_weights: np.ndarray,
    src_points: np.ndarray,
    dst_weights: np.ndarray,
    dst_points: np.ndarray,
) -> float:
    """Squared 1D transport cost by north-west-corner quantile matching."""
    a = np.asarray(src_weights, dtype=float).ravel()
    b = np.asarray(dst_weights, dtype=float).ravel()
    p = np.asarray(src_points, dtype=float).ravel()
    q = np.asarray(dst_points, dtype=float).ravel()
    if np.any(np.diff(p) < 0.0) or np.any(np.diff(q) < 0.0):
        raise ValueError("point lists must be sorted ascending")
    i = j = 0
    wi = a[0] if len(a) else 0.0
    wj = b[0] if len(b) else 0.0
    cost = 0.0
    while i < len(a) and j < len(b):
        take = min(wi, wj)
        cost += take * (p[i] - q[j]) ** 2
        wi -= take
        wj -= take
        if wi <= 1e-16:
            i += 1
            if i < len(a):
                wi = a[i]
        if wj <= 1e-16:
            j += 1
            if j < len(b):
                wj = b[j]
    return float(cost)


# ---------------------------------------------------------------------------
# direct constrained minimization of the objective


def _project_marginals(
    vals: np.ndarray, t1: np.ndarray, t2: np.ndarray, hx: float, hy: float
) -> np.ndarray:
    """Alternating row/column rescaling onto the prescribed marginals."""
    wx = hx * trapz_weights(len(t1))
    wy = hy * trapz_weights(len(t2))
    v = np.maximum(vals, EPS_POS)
    err = np.inf
    for _ in range(PROJECTION_PASSES):
        rows = v @ wy
        v = v * (t1 / rows)[:, None]
        cols = wx @ v
        v = v * (t2 / cols)[None, :]
        v = np.maximum(v, EPS_POS)
        rows = v @ wy
        cols = wx @ v
        err = max(np.max(np.abs(rows - t1)), np.max(np.abs(cols - t2)))
        if err <= PROJECTION_TOL:
            break
    if err > 1e-6:
        raise FloorSaturation(
            f"marginal projection stalled at deviation {err:.3e}"
        )
    return v


def _fd_gradient(inst: Instance, q: np.ndarray, gx: Grid1D, gy: Grid1D) -> np.ndarray:
    """Forward-difference gradient of the objective in the nodal values.

    A bump at node (i, j) only changes column j of the first term and row
    i of the second, so each term re-evaluates its lines once per bump
    position along them: every bumped copy of every line goes into one
    ``_line_costs`` call per term, instead of recomputing the full
    functional per node.
    """
    grad = np.zeros(q.shape)
    # the first term's lines are columns, so it writes the transposed view
    for (cq, lines, nodes, conds, h, w), out in zip(_terms(inst, q, gx, gy), (grad.T, grad)):
        base = _line_costs(cq, lines, nodes, conds, h)
        n = len(nodes)
        # row k * n + j of the stack is line k bumped at its node j
        bumped = (lines[:, None, :] + np.eye(n) * FD_STEP).reshape(-1, n)
        vals = _line_costs(cq, bumped, nodes, np.repeat(conds, n), h).reshape(-1, n)
        out += w[:, None] * (vals - base[:, None]) / FD_STEP
    return grad


def minimize_objective_direct(
    inst: Instance, nx: int, ny: int, iters: int = 30
) -> tuple[CandidateQ, float]:
    """Projected descent on the objective over the marginal polytope.

    Starts from the product of the two prescribed marginals. Finite-
    difference gradient, backtracking line search, projection by
    alternating marginal rescaling with a positivity floor. Monotone by
    construction: the returned value never exceeds the starting one.
    """
    if nx > 33 or ny > 33:
        raise SizeGuard("direct minimization is restricted to grids of at most 33")
    gx = Grid1D(0.0, 1.0, nx)
    gy = Grid1D(1.0, 2.0, ny)
    t1 = inst.f1.density_at(gx.nodes)
    t1 = t1 / trapz1d(t1, gx.h)
    t2 = inst.f2_tilde.density_at(gy.nodes)
    t2 = t2 / trapz1d(t2, gy.h)
    q = _project_marginals(np.outer(t1, t2), t1, t2, gx.h, gy.h)
    best = _objective_value(inst, q, gx, gy)
    step = 1.0
    for _ in range(iters):
        g = _fd_gradient(inst, q, gx, gy)
        if not np.any(g):
            break
        alpha = step
        for _ in range(25):
            trial = _project_marginals(np.maximum(q - alpha * g, EPS_POS), t1, t2, gx.h, gy.h)
            val = _objective_value(inst, trial, gx, gy)
            if val < best - 1e-14:
                q, best = trial, val
                step = alpha * 2.0
                break
            alpha *= 0.5
        else:
            break
    tol = self_marginal_tol(inst, gx, gy, t1, t2)
    cand = make_candidate(inst, Density2D(gx, gy, q), marginal_tol=tol)
    return cand, float(objective(inst, cand))


def self_marginal_tol(inst, gx: Grid1D, gy: Grid1D, t1: np.ndarray, t2: np.ndarray) -> float:
    """Feasibility slack: projection tolerance plus coarse-grid resampling error."""
    e1 = float(np.max(np.abs(t1 - inst.f1.density_at(gx.nodes))))
    e2 = float(np.max(np.abs(t2 - inst.f2_tilde.density_at(gy.nodes))))
    return max(1e-8, 2.0 * max(e1, e2) + 1e-9)
