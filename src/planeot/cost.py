"""Transport-cost layer for the planar coupling problem.

Given a source density ``f`` on the unit square and a shifted target
density ``f~`` on [1,2] x [1,2], the squared coupling cost decomposes
through the intermediate vector ``Z = (X1, X~2)`` whose density ``q``
lives on [0,1] x [1,2] with prescribed marginals (``f``'s x-marginal and
``f~``'s y-marginal). This module evaluates:

    * the 1D quantile-coupling distance between two marginals;
    * the arithmetic relation moving costs between a shifted and an
      unshifted target;
    * the objective functional over admissible ``q``, through one
      per-line kernel, ``_line_costs``: the objective is a weighted sum of
      line costs, one per row of ``q`` (y given x) and one per column
      (x given y), so the direct-descent oracle's gradient and the
      stationarity criterion's perturbation deltas re-evaluate only the
      lines they change;
    * the mixed-derivative potential ``M`` whose stationarity
      characterizes the optimal ``q``, and its closed-form boundary-only
      expression;
    * marginal-preserving four-square corner perturbations, and the
      objective change of many of them at once;
    * reconstruction of coupled pairs (X, X~) from points of Z, and the
      transport map X -> X~ and its inverse that a candidate defines.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .conditional import (
    FIRST_GIVEN_SECOND,
    SECOND_GIVEN_FIRST,
    ConditionalQuantile,
)
from .errors import (
    GeometryInvalid,
    MarginalViolation,
    OutOfRange,
    PositivityViolated,
)
from .grids import (
    EPS_POS,
    Density2D,
    Grid1D,
    Marginal1D,
    ScalarField2D,
    _d1_edge3,
    cdf_levels,
    cumtrapz1d,
    interp1_monotone,
    marginal,
    normalize,
    trapz2d,
    trapz_weights,
)

DEFAULT_MARGINAL_TOL = 1e-8
# largest row or column trapezoid integral a perturbation field may carry;
# the corner rasters integrate to zero up to roundoff
MARGINAL_DRIFT_TOL = 1e-12


class Instance:
    """A source/target density pair with marginals and quantile evaluators.

    ``f`` lives on [0,1] x [0,1] and ``f_tilde`` on [1,2] x [1,2]; both are
    normalized at construction. The two conditional-quantile evaluators
    are the families the elliptic equation reads: ``cq_G2`` inverts ``f``
    along y given x, ``cq_G1_tilde`` inverts ``f~`` along x given y.
    """

    def __init__(self, f: Density2D, f_tilde: Density2D):
        for g, lo, hi, name in (
            (f.gx, 0.0, 1.0, "f.gx"),
            (f.gy, 0.0, 1.0, "f.gy"),
            (f_tilde.gx, 1.0, 2.0, "f_tilde.gx"),
            (f_tilde.gy, 1.0, 2.0, "f_tilde.gy"),
        ):
            if abs(g.lo - lo) > 1e-9 or abs(g.hi - hi) > 1e-9:
                raise ValueError(f"{name} must span [{lo}, {hi}], got [{g.lo}, {g.hi}]")
        self.f = normalize(f)
        self.f_tilde = normalize(f_tilde)
        self.cq_G2 = ConditionalQuantile(self.f, SECOND_GIVEN_FIRST)
        self.cq_G1_tilde = ConditionalQuantile(self.f_tilde, FIRST_GIVEN_SECOND)
        # each family's conditioning marginal is the one the equation reads
        self.f1 = self.cq_G2.marginal
        self.f2_tilde = self.cq_G1_tilde.marginal

    # the other two marginals only feed 1D distances, which a solve never reads
    @cached_property
    def f2(self) -> Marginal1D:
        return marginal(self.f, "y")

    @cached_property
    def f1_tilde(self) -> Marginal1D:
        return marginal(self.f_tilde, "x")


def build_instance(f: Density2D, f_tilde: Density2D) -> Instance:
    return Instance(f, f_tilde)


class CandidateQ:
    """A density on [0,1] x [1,2] admissible for the coupling objective.

    Feasibility (marginals matching the instance's ``f1`` and ``f2~``) is
    validated at construction; the achieved worst deviation is stored so
    operations can re-check the precondition cheaply. ``marginal_tol``
    defaults to 1e-8 for user-built candidates; solver-recovered ones pass
    their own discretization-level tolerance.
    """

    def __init__(
        self,
        q: Density2D,
        f1: Marginal1D,
        f2_tilde: Marginal1D,
        marginal_tol: float = DEFAULT_MARGINAL_TOL,
        floored_mass: float = 0.0,
    ):
        if abs(q.gx.lo) > 1e-9 or abs(q.gx.hi - 1.0) > 1e-9:
            raise ValueError("candidate x-grid must span [0, 1]")
        if abs(q.gy.lo - 1.0) > 1e-9 or abs(q.gy.hi - 2.0) > 1e-9:
            raise ValueError("candidate y-grid must span [1, 2]")
        self.q = q
        self.f1 = f1
        self.f2_tilde = f2_tilde
        self.marginal_tol = float(marginal_tol)
        self.floored_mass = float(floored_mass)
        mx = marginal(q, "x")
        my = marginal(q, "y")
        ex = np.max(np.abs(mx.values - f1.density_at(q.gx.nodes)))
        ey = np.max(np.abs(my.values - f2_tilde.density_at(q.gy.nodes)))
        self.max_marginal_error = float(max(ex, ey))
        if self.max_marginal_error > self.marginal_tol:
            raise MarginalViolation(
                f"candidate marginals deviate by {self.max_marginal_error:.3e} "
                f"(tolerance {self.marginal_tol:.3e})"
            )

    # the candidate's own conditional laws, read by reconstruction and the map
    @cached_property
    def cq_x(self) -> ConditionalQuantile:
        """The candidate's x-given-y family."""
        return ConditionalQuantile(self.q, FIRST_GIVEN_SECOND)

    @cached_property
    def cq_y(self) -> ConditionalQuantile:
        """The candidate's y-given-x family."""
        return ConditionalQuantile(self.q, SECOND_GIVEN_FIRST)


def make_candidate(
    inst: Instance,
    q: Density2D,
    marginal_tol: float = DEFAULT_MARGINAL_TOL,
    floored_mass: float = 0.0,
) -> CandidateQ:
    return CandidateQ(q, inst.f1, inst.f2_tilde, marginal_tol, floored_mass)


def product_candidate(inst: Instance) -> CandidateQ:
    """The independent coupling ``f1 (x) f2~`` as a feasible candidate."""
    gx, gy = inst.f.gx, inst.f_tilde.gy
    vals = np.outer(inst.f1.density_at(gx.nodes), inst.f2_tilde.density_at(gy.nodes))
    return make_candidate(inst, Density2D(gx, gy, vals))


# ---------------------------------------------------------------------------
# 1D quantile distance and the shift identity


# level-grid size of the 1D quantile-distance quadrature
KRW_LEVELS = 4096


def krw_1d_distance(m: Marginal1D, m_tilde: Marginal1D) -> float:
    """1D 2-Wasserstein distance via the quantile coupling.

    sqrt of the integral over levels t in [0,1] of the squared gap
    between the two inverse CDFs, by trapezoid on a ``KRW_LEVELS``-point
    level grid.
    """
    t = np.linspace(0.0, 1.0, KRW_LEVELS)
    qa = interp1_monotone(m.cdf, m.grid.nodes, t)
    qb = interp1_monotone(m_tilde.cdf, m_tilde.grid.nodes, t)
    gap2 = (qa - qb) ** 2
    val = np.trapezoid(gap2, dx=1.0 / (KRW_LEVELS - 1))
    return float(np.sqrt(max(val, 0.0)))


def shift_cost_relation(
    ex1: float, ey1: float, ex2: float, ey2: float, cost_shifted: float
) -> float:
    """Recover the unshifted squared cost from the shifted one.

    The target shifted by (+1, +1) changes the squared coupling cost by a
    coupling-independent amount, so the optimal values transform by the
    same arithmetic.
    """
    return cost_shifted + 2.0 * ex1 - 2.0 * ey1 + 2.0 * ex2 - 2.0 * ey2 - 2.0


def density_moments(d: Density2D) -> tuple[float, float]:
    """First moments (E[x], E[y]) of a normalized density, by trapezoid."""
    X, Y = np.meshgrid(d.gx.nodes, d.gy.nodes, indexing="ij")
    return (
        trapz2d(X * d.values, d.gx.h, d.gy.h),
        trapz2d(Y * d.values, d.gx.h, d.gy.h),
    )


# ---------------------------------------------------------------------------
# the objective functional


def _check_feasible(cand: CandidateQ):
    if cand.max_marginal_error > cand.marginal_tol:
        raise MarginalViolation(
            f"candidate infeasible: {cand.max_marginal_error:.3e} "
            f"> {cand.marginal_tol:.3e}"
        )


def _quantile_points(inst: Instance, v: np.ndarray, u: np.ndarray, gx: Grid1D, gy: Grid1D):
    """Quantile points of both families at levels ``v`` (y given x), ``u`` (x given y).

    Returns (level, quantile point, level derivative, conditioning
    derivative) for ``cq_G2`` first and ``cq_G1_tilde`` second, on the
    tensor grid ``gx`` x ``gy``. Each family is bracketed once; both
    derivatives are read at that bracket.
    """
    X = np.broadcast_to(gx.nodes[:, None], v.shape)
    Y = np.broadcast_to(gy.nodes[None, :], u.shape)
    # node-major (one conditioning node after another) searches fastest;
    # made C-contiguous again so later sums see the layout they always saw
    gu, ds_u, dc_u = (
        np.ascontiguousarray(a.T) for a in _point_and_derivatives(inst.cq_G1_tilde, u.T, Y.T)
    )
    return (v, *_point_and_derivatives(inst.cq_G2, v, X)), (u, gu, ds_u, dc_u)


def _point_and_derivatives(cq: ConditionalQuantile, s: np.ndarray, cond: np.ndarray):
    """Quantile point, level and conditioning derivative, all at one bracket."""
    g, b = cq.quantile(s, cond, bracket=True)
    ds = cq.quantile_ds(g, cond, bracket=b)
    return g, ds, cq.quantile_dcond(g, cond, bracket=b, ds=ds)


def _levels_and_points(inst: Instance, q: Density2D):
    """Conditional levels of ``q`` and their quantile points, as ``_quantile_points``."""
    V = cdf_levels(q.values, q.gy.h, axis=1)
    U = cdf_levels(q.values, q.gx.h, axis=0)
    return _quantile_points(inst, V, U, q.gx, q.gy)


def _composite_derivative(points, gx: Grid1D, gy: Grid1D, diff) -> np.ndarray:
    """d/dx G2(v, x) + d/dy G1~(u, y) of the two quantile composites.

    ``points`` as returned by ``_quantile_points``; the chain rule runs
    through the level derivative (the levels differenced by ``diff``) and
    the conditioning derivative of each quantile evaluator.
    """
    (v, _, ds_v, dc_v), (u, _, ds_u, dc_u) = points
    return ds_v * diff(v, gx.h, axis=0) + dc_v + ds_u * diff(u, gy.h, axis=1) + dc_u


def _line_costs(
    cq: ConditionalQuantile, lines: np.ndarray, nodes: np.ndarray, cond, h: float
) -> np.ndarray:
    """Objective contribution of each row of ``lines``: the one objective kernel.

    A row is the candidate along ``nodes`` at conditioning value ``cond``
    (one value for all rows, or one per row); its contribution is the
    trapezoid integral of the squared displacement to the quantile point
    of its own running level, weighted by the row.
    """
    levels = cdf_levels(lines, h, axis=1)
    G = cq.quantile(levels, np.reshape(cond, (-1, 1)))
    integ = (nodes - G) ** 2 * lines
    return h * (integ.sum(axis=1) - 0.5 * (integ[:, 0] + integ[:, -1]))


def _terms(inst: Instance, q: np.ndarray, gx: Grid1D, gy: Grid1D):
    """The two objective terms as (quantiles, lines, nodes, conds, h, weights).

    The first term integrates ``q`` along x at each fixed y, so its lines
    are the columns of ``q``; the second integrates along y at fixed x.
    Each term is its line costs dotted with ``weights``, the trapezoid
    weights of the conditioning grid.
    """
    return (
        (inst.cq_G1_tilde, q.T, gx.nodes, gy.nodes, gx.h, gy.h * trapz_weights(gy.n)),
        (inst.cq_G2, q, gy.nodes, gx.nodes, gy.h, gx.h * trapz_weights(gx.n)),
    )


def _objective_value(inst: Instance, q: np.ndarray, gx: Grid1D, gy: Grid1D) -> float:
    """The objective of nodal values ``q`` on ``gx`` x ``gy``, unchecked."""
    return float(sum(
        _line_costs(cq, lines, nodes, conds, h) @ w
        for cq, lines, nodes, conds, h, w in _terms(inst, q, gx, gy)
    ))


def objective(inst: Instance, cand: CandidateQ) -> float:
    """The coupling objective of an admissible density.

    Sum of the mean squared displacement of the first coordinate under
    the conditional quantile map into ``f~`` and of the second coordinate
    under the map into ``f``, both weighted by the candidate itself.
    """
    _check_feasible(cand)
    q = cand.q
    return _objective_value(inst, q.values, q.gx, q.gy)


def split_check(inst: Instance, coupling_sample: np.ndarray) -> float:
    """Worst violation of the pass-through-Z cost decomposition.

    Samples are rows (x1, x2, x1t, x2t); with Z = (x1, x2t) the identity
    |X - X~|^2 = |X - Z|^2 + |Z - X~|^2 holds algebraically, so the
    return value must sit at roundoff level. Kept as a permanent
    regression check of the decomposition.
    """
    pts = np.asarray(coupling_sample, dtype=float).reshape(-1, 4)
    x1, x2, x1t, x2t = pts.T
    z1, z2 = x1, x2t
    lhs = (x1 - x1t) ** 2 + (x2 - x2t) ** 2
    rhs = ((x1 - z1) ** 2 + (x2 - z2) ** 2) + ((z1 - x1t) ** 2 + (z2 - x2t) ** 2)
    return float(np.max(np.abs(lhs - rhs))) if pts.size else 0.0


# ---------------------------------------------------------------------------
# the potential M


def _m_pieces(inst: Instance, cand: CandidateQ):
    """Boundary curves of the potential M and the double integral of its integrand."""
    gx, gy = cand.q.gx, cand.q.gy
    points = _levels_and_points(inst, cand.q)
    (_, gV, _, _), (_, gU, _, _) = points
    # boundary integrals along the two low edges: the quantile points of
    # the first column and the first row
    b_x = -2.0 * cumtrapz1d(gU[:, 0], gx.h)
    b_y = -2.0 * cumtrapz1d(gV[0, :], gy.h)
    # interior integrand: total derivatives of the two quantile composites
    d = _composite_derivative(points, gx, gy, _d1_edge3)
    inner = cumtrapz1d(cumtrapz1d(d, gx.h, axis=0), gy.h, axis=1)
    return b_x, b_y, inner


def M_field(inst: Instance, cand: CandidateQ) -> ScalarField2D:
    """The potential whose mixed derivative vanishes at the optimal density.

    Assembled as x^2 + y^2 plus the two boundary quantile integrals minus
    twice the double integral of the total conditioning-derivatives of
    the two quantile composites (chain rule through the level and
    conditioning derivatives of the quantile evaluators).
    """
    _check_feasible(cand)
    q = cand.q
    b_x, b_y, inner = _m_pieces(inst, cand)
    X = q.gx.nodes[:, None]
    Y = q.gy.nodes[None, :]
    vals = X**2 + Y**2 + b_x[:, None] + b_y[None, :] - 2.0 * inner
    return ScalarField2D(q.gx, q.gy, vals)


def M_closed_form_residual(inst: Instance, cand: CandidateQ) -> float:
    """Gap between M and its boundary-only closed form; small at optimality."""
    _, _, inner = _m_pieces(inst, cand)
    return float(np.max(np.abs(2.0 * inner)))


# ---------------------------------------------------------------------------
# corner perturbations


class CornerPerturbation:
    """Four-square, marginal-preserving density perturbation.

    Adds ``+delta`` on the two aligned squares [a, a+eps] x [b, b+eps] and
    [a1, a1+eps] x [b1, b1+eps], ``-delta`` on the two cross squares. The
    pattern factorizes into two 1D profiles with zero integral, so both
    marginals are preserved exactly.
    """

    def __init__(self, a: float, a1: float, b: float, b1: float, eps: float, delta: float):
        ok = (
            eps > 0.0
            and 0.0 < a
            and a + eps < a1
            and a1 + eps < 1.0
            and 1.0 < b
            and b + eps < b1
            and b1 + eps < 2.0
        )
        if not ok:
            raise GeometryInvalid(
                f"invalid corner geometry a={a}, a1={a1}, b={b}, b1={b1}, eps={eps}"
            )
        self.a, self.a1, self.b, self.b1 = float(a), float(a1), float(b), float(b1)
        self.eps = float(eps)
        self.delta = float(delta)


def _hat_raster(grid: Grid1D, lo: float, hi: float) -> np.ndarray:
    """Nodal values reproducing the indicator of [lo, hi] under trapezoid.

    Projects the indicator onto the nodal hat functions and divides by
    the trapezoid weights; because the hats partition unity, the
    trapezoid integral of the result equals hi - lo exactly.
    """
    h = grid.h

    def ramp(z):
        # integral of the unit hat from -inf to z (support [-h, h])
        z = np.clip(z, -h, h)
        return np.where(z <= 0.0, (z + h) ** 2 / (2.0 * h), h - (h - z) ** 2 / (2.0 * h))

    overlap = ramp(hi - grid.nodes) - ramp(lo - grid.nodes)
    return overlap / (h * trapz_weights(grid.n))


def corner_profiles(pert: CornerPerturbation, gx: Grid1D, gy: Grid1D):
    """The 1D profiles (ux, wy) of a perturbation: its field is delta * outer(ux, wy)."""
    ux = _hat_raster(gx, pert.a, pert.a + pert.eps) - _hat_raster(
        gx, pert.a1, pert.a1 + pert.eps
    )
    wy = _hat_raster(gy, pert.b, pert.b + pert.eps) - _hat_raster(
        gy, pert.b1, pert.b1 + pert.eps
    )
    return ux, wy


def perturbation_field(pert: CornerPerturbation, gx: Grid1D, gy: Grid1D) -> np.ndarray:
    ux, wy = corner_profiles(pert, gx, gy)
    return pert.delta * np.outer(ux, wy)


def apply_perturbation(cand: CandidateQ, pert: CornerPerturbation) -> CandidateQ:
    """Add the rasterized perturbation; marginals are preserved to roundoff."""
    field = perturbation_field(pert, cand.q.gx, cand.q.gy)
    new_vals = cand.q.values + field
    if np.min(new_vals) < EPS_POS:
        raise PositivityViolated(
            f"perturbation drives density to {new_vals.min():.3e}"
        )
    q_new = Density2D(cand.q.gx, cand.q.gy, new_vals)
    return CandidateQ(
        q_new,
        cand.f1,
        cand.f2_tilde,
        marginal_tol=max(cand.marginal_tol, cand.max_marginal_error + 1e-10),
        floored_mass=cand.floored_mass,
    )


def perturbation_deltas(inst: Instance, cand: CandidateQ, profiles) -> np.ndarray:
    """Objective change of ``cand`` under each field ``outer(ux, wy)`` of ``profiles``.

    Each field is scored on its own, against the unperturbed candidate. A
    field touches only the rows where ux != 0 and the columns where
    wy != 0, so only those lines' costs change. Every field's touched
    lines, perturbed, are stacked behind the candidate's own lines into
    one ``_line_costs`` call per objective term; each line's weighted
    change is summed into its field by ``np.bincount``.

    Each field must keep both marginals, the invariant ``apply_perturbation``
    checks: its row and column trapezoid integrals must vanish to
    ``MARGINAL_DRIFT_TOL``, or ``MarginalViolation`` is raised. Positivity
    of the perturbed density is the caller's to check.
    """
    _check_feasible(cand)
    q = cand.q
    trap_x = q.gx.h * trapz_weights(q.gx.n)
    trap_y = q.gy.h * trapz_weights(q.gy.n)
    for t, (ux, wy) in enumerate(profiles):
        # row integrals are ux * (wy's integral), column integrals wy * (ux's)
        drift = max(np.max(np.abs(ux)) * abs(wy @ trap_y), np.max(np.abs(wy)) * abs(ux @ trap_x))
        if drift > MARGINAL_DRIFT_TOL:
            raise MarginalViolation(
                f"perturbation {t} moves a marginal by {drift:.3e} "
                f"(tolerance {MARGINAL_DRIFT_TOL:.1e})"
            )
    deltas = np.zeros(len(profiles))
    if len(profiles) == 0:
        return deltas
    # the first term's lines are columns, indexed by y: there the profile
    # across lines is wy and the one along them ux; the second term's are rows
    for (cq, lines, nodes, conds, h, w), across in zip(_terms(inst, q.values, q.gx, q.gy), (1, 0)):
        touched, owner, perturbed = [], [], []
        for t, prof in enumerate(profiles):
            idx = np.flatnonzero(prof[across])
            touched.append(idx)
            owner.append(np.full(len(idx), t))
            perturbed.append(lines[idx] + np.outer(prof[across][idx], prof[1 - across]))
        idx = np.concatenate(touched)
        costs = _line_costs(
            cq, np.concatenate([lines, *perturbed]), nodes, np.concatenate([conds, conds[idx]]), h
        )
        change = (costs[len(lines):] - costs[idx]) * w[idx]
        deltas += np.bincount(np.concatenate(owner), change, minlength=len(profiles))
    return deltas


# ---------------------------------------------------------------------------
# coupling reconstruction


def reconstruct_coupling(
    inst: Instance, cand: CandidateQ, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map points of Z to coupled pairs (X, X~).

    For Z = (x, y) distributed as the candidate, X matches the
    conditional law of ``f`` in its second coordinate and X~ matches the
    conditional law of ``f~`` in its first, through equal conditional
    ranks under the candidate.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    if np.any(~cand.q.gx.contains(x)) or np.any(~cand.q.gy.contains(y)):
        raise OutOfRange("reconstruction point outside [0,1] x [1,2]")
    s = cand.cq_x.cond_cdf(x, y)
    xt = inst.cq_G1_tilde.quantile(s, y)
    t = cand.cq_y.cond_cdf(y, x)
    x2 = inst.cq_G2.quantile(t, x)
    X = np.column_stack([x, x2])
    Xt = np.column_stack([xt, y])
    return X, Xt


def transport_map(
    inst: Instance, cand: CandidateQ, src_points, dst_points
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate's transport map at source points and its inverse at target points.

    Forward, a source point X = (x1, x2) has rank t = F2(x2 | x1) under
    ``f``; the candidate's y-given-x quantile at t gives Z = (x1, y), which
    ``reconstruct_coupling`` couples to the image X~. Backward, a target
    point X~ = (x~1, x~2) has rank s = F~1(x~1 | x~2) under ``f~``; the
    candidate's x-given-y quantile at s gives Z = (x1, x~2), coupled to the
    preimage X. Source points lie in [0,1]^2 and target points in [1,2]^2.
    Returns (images, preimages), one row per point.
    """
    src = np.asarray(src_points, dtype=float).reshape(-1, 2)
    dst = np.asarray(dst_points, dtype=float).reshape(-1, 2)
    t = inst.cq_G2.cond_cdf(src[:, 1], src[:, 0])
    y = cand.cq_y.quantile(t, src[:, 0])
    s = inst.cq_G1_tilde.cond_cdf(dst[:, 0], dst[:, 1])
    x = cand.cq_x.quantile(s, dst[:, 1])
    # both directions in one reconstruction: the forward points' X~ is the
    # image, the backward points' X the preimage
    z = np.column_stack([np.concatenate([src[:, 0], x]), np.concatenate([y, dst[:, 1]])])
    X, Xt = reconstruct_coupling(inst, cand, z)
    return Xt[: len(src)], X[len(src):]


def sample_candidate(cand: CandidateQ, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` points from the candidate by conditional inversion."""
    my = marginal(cand.q, "y")
    u = rng.random(n)
    v = rng.random(n)
    y = my.quantile_at(u)
    x = cand.cq_x.quantile(v, y)
    return np.column_stack([x, y])
