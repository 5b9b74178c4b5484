"""End-to-end acceptance suite behind ``planeot validate``.

Each criterion exercises the pipeline through its public operations and
reports one PASS/FAIL/SKIP line with the measured numbers. Oracle-backed
criteria (discrete transport cross-checks) are skipped when the oracle
is disabled. All randomness is drawn from one seeded generator, so a
fixed seed makes the whole report reproducible byte for byte.

Residual maxima are taken over the window at least ``RESIDUAL_MARGIN``
inside the boundary: the discrete Dirichlet solve carries a numerical
boundary layer a few nodes wide whose stationarity defect decays one
order slower than the bulk and would otherwise mask the interior
convergence rates the criteria are about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditional import ellipticity_margin
from .cost import (
    CornerPerturbation,
    apply_perturbation,
    corner_profiles,
    density_moments,
    krw_1d_distance,
    M_closed_form_residual,
    build_instance,
    perturbation_deltas,
    shift_cost_relation,
    split_check,
    transport_map,
)
from .errors import PlaneOTError
from .grids import EPS_POS, Density2D, Grid1D, Marginal1D, ScalarField2D
from .oracle import atomize, exact_ot, exact_ot_1d, minimize_objective_direct
from .pde import (
    RESIDUAL_MARGIN,
    PdeCoefficients,
    SolverConfig,
    linear_elliptic_solve,
    picard_solve,
)
from .presets import build_preset

PRESET_NAMES = ("uniform", "product-gauss", "bilinear")


@dataclass
class CriterionResult:
    key: str
    status: str  # PASS, FAIL or SKIP
    detail: str
    clauses: dict | None = None  # named sub-checks, True = satisfied


class Workspace:
    """Caches instances and their solves across criteria."""

    def __init__(self, seed: int, omega: float):
        self.seed = int(seed)
        self.omega = float(omega)
        self._solves: dict = {}

    def solve(self, preset: str, n: int):
        key = (preset, n)
        if key not in self._solves:
            f, ft = build_preset(preset, n, n)
            inst = build_instance(f, ft)
            F, report = picard_solve(inst, SolverConfig(nx=n, ny=n, omega=self.omega))
            self._solves[key] = (inst, F, report)
        return self._solves[key]


def _pass(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _map_seed(inst, rep, src, dst, shift: float = 0.0):
    """The solve's transport map at the atoms, as ``exact_ot``'s ``near`` seed.

    None when the solve recovered no candidate. ``shift`` moves the target
    atoms onto the solved target's square and their images back.
    """
    if rep.candidate is None:
        return None
    images, preimages = transport_map(inst, rep.candidate, src.points, dst.points + shift)
    return images - shift, preimages


# ---------------------------------------------------------------------------
# criteria


def criterion_uniform_pde(ws: Workspace) -> CriterionResult:
    """Uniform instance at 33x33 reproduces the translation optimum."""
    inst, F, rep = ws.solve("uniform", 33)
    X, Y = np.meshgrid(F.gx.nodes, F.gy.nodes, indexing="ij")
    f_err = float(np.max(np.abs(F.values - X * (Y - 1.0))))
    ok = rep.converged and rep.iterations <= 5 and f_err <= 1e-6 and abs(rep.cost - 2.0) <= 1e-3
    return CriterionResult(
        "uniform-pde",
        _pass(ok),
        f"iters={rep.iterations} F_err={f_err:.3e} cost={rep.cost:.6f}",
    )


def criterion_product_recovery(ws: Workspace) -> CriterionResult:
    """Product instance at 65x65: recovered density and cost vs the 1D split."""
    inst, F, rep = ws.solve("product-gauss", 65)
    target = np.outer(inst.f1.density_at(F.gx.nodes), inst.f2_tilde.density_at(F.gy.nodes))
    p_err = float(np.max(np.abs(rep.candidate.q.values - target)))
    ksum = (
        krw_1d_distance(inst.f1, inst.f1_tilde) ** 2
        + krw_1d_distance(inst.f2, inst.f2_tilde) ** 2
    )
    cost_gap = abs(rep.cost - ksum) / ksum
    clauses = {"p_max_norm": p_err <= 1e-3, "cost_gap": cost_gap <= 0.01}
    return CriterionResult(
        "product-gauss-recovery",
        _pass(all(clauses.values())),
        f"p_err={p_err:.3e} (tol 1e-3) cost={rep.cost:.6f} vs krw_sum={ksum:.6f} "
        f"gap={cost_gap:.4%} (tol 1%)",
        clauses,
    )


def criterion_bilinear_triangulation(ws: Workspace, oracle: bool, oracle_atoms: int) -> CriterionResult:
    """Bilinear at 33x33: PDE cost vs exact transport and direct descent."""
    if not oracle:
        return CriterionResult("bilinear-triangulation", "SKIP", "oracle disabled")
    inst, F, rep = ws.solve("bilinear", 33)
    src = atomize(inst.f, oracle_atoms, oracle_atoms)
    dst = atomize(inst.f_tilde, oracle_atoms, oracle_atoms)
    _, ot_cost = exact_ot(src, dst, _map_seed(inst, rep, src, dst))
    _, direct_val = minimize_objective_direct(inst, 33, 33, iters=25)
    gap_ot = abs(rep.cost - ot_cost) / ot_cost
    gap_direct = abs(rep.cost - direct_val) / direct_val
    ok = gap_ot <= 0.02 and gap_direct <= 0.02
    return CriterionResult(
        "bilinear-triangulation",
        _pass(ok),
        f"pde={rep.cost:.6f} ot={ot_cost:.6f} gap={gap_ot:.4%} "
        f"direct={direct_val:.6f} gap={gap_direct:.4%} (tol 2%)",
    )


def draw_perturbation(rng: np.random.Generator, delta: float) -> CornerPerturbation:
    eps = rng.uniform(0.02, 0.12)
    a = rng.uniform(0.01, 1.0 - 2.0 * eps - 0.03)
    a1 = rng.uniform(a + eps + 0.005, 1.0 - eps - 0.005)
    b = rng.uniform(1.01, 2.0 - 2.0 * eps - 0.03)
    b1 = rng.uniform(b + eps + 0.005, 2.0 - eps - 0.005)
    return CornerPerturbation(a, a1, b, b1, eps, delta)


def criterion_stationarity(ws: Workspace, rng: np.random.Generator) -> CriterionResult:
    """Both-sign corner perturbations never improve the converged objective.

    Per preset at 65x65, trials are drawn in pairs, a +1e-3 perturbation
    and then a -1e-3 one, until 100 pairs pass or 2000 pairs were tried. A
    trial fails when it would drive the density below ``EPS_POS``, as
    ``apply_perturbation`` would refuse it. A pair whose + trial fails
    draws no - trial. A + trial whose - partner fails is still scored, and
    can set the worst delta, but its pair does not count as passed.

    Trials are scored together: ``perturbation_deltas`` re-evaluates only
    the objective lines each trial touches, in one kernel call per
    objective term and preset, against the solve's own line costs.
    """
    worst_overall = np.inf
    parts = []
    for preset in PRESET_NAMES:
        inst, F, rep = ws.solve(preset, 65)
        q = rep.candidate.q
        profiles = []
        done = tries = 0
        while done < 100 and tries < 2000:
            tries += 1
            for sign in (1.0, -1.0):
                pert = draw_perturbation(rng, sign * 1e-3)
                ux, wy = corner_profiles(pert, q.gx, q.gy)
                ux = pert.delta * ux
                if np.min(q.values + np.outer(ux, wy)) < EPS_POS:
                    break
                profiles.append((ux, wy))
            else:
                done += 1
        worst = float(np.min(perturbation_deltas(inst, rep.candidate, profiles), initial=np.inf))
        worst_overall = min(worst_overall, worst)
        parts.append(f"{preset}:{worst:.2e}({done})")
    ok = worst_overall >= -1e-6
    return CriterionResult(
        "stationarity", _pass(ok), "worst deltas " + " ".join(parts) + " (floor -1e-6)"
    )


def criterion_residual_refinement(ws: Workspace) -> CriterionResult:
    """hh and mixed-M residuals are small and shrink >= 3x from 33 to 65.

    The size clause accepts either the 1e-3 floor or second-order scaling
    at the constant measured on the finer grid (with 25% slack).
    """
    parts = []
    clauses = {}
    for preset in PRESET_NAMES:
        vals = {}
        for n in (33, 65):
            _, F, rep = ws.solve(preset, n)
            vals[n] = (rep.hh_residual_max, rep.mixed_M_residual_max, F.gx.h)
        for label, idx in (("hh", 0), ("mm", 1)):
            r33, r65 = vals[33][idx], vals[65][idx]
            h33, h65 = vals[33][2], vals[65][2]
            if r33 <= 1e-12 and r65 <= 1e-12:
                parts.append(f"{preset}.{label}:exact")
                clauses[f"{preset}.{label}.size"] = True
                clauses[f"{preset}.{label}.shrink"] = True
                continue
            c_fine = r65 / h65**2
            size_ok = r33 <= max(1e-3, 1.25 * c_fine * h33**2) and r65 <= max(
                1e-3, 1.25 * c_fine * h65**2
            )
            shrink = r33 / max(r65, 1e-300)
            shrink_ok = shrink >= 3.0
            clauses[f"{preset}.{label}.size"] = size_ok
            clauses[f"{preset}.{label}.shrink"] = shrink_ok
            parts.append(
                f"{preset}.{label}:{r33:.2e}->{r65:.2e} shrink={shrink:.2f}"
                + ("" if (size_ok and shrink_ok) else "!")
            )
    return CriterionResult(
        "residual-refinement", _pass(all(clauses.values())), " ".join(parts), clauses
    )


def criterion_closed_form_m(ws: Workspace) -> CriterionResult:
    """Closed-form M residual is small at the optimum, large when perturbed."""
    parts = []
    clauses = {}
    pert = CornerPerturbation(a=0.3, a1=0.55, b=1.3, b1=1.55, eps=0.1, delta=0.05)
    for preset in PRESET_NAMES:
        inst, F, rep = ws.solve(preset, 65)
        r_opt = M_closed_form_residual(inst, rep.candidate)
        r_pert = M_closed_form_residual(inst, apply_perturbation(rep.candidate, pert))
        ratio = r_pert / max(r_opt, 1e-12)
        clauses[f"{preset}.residual"] = r_opt <= 1e-3
        clauses[f"{preset}.discrimination"] = ratio >= 10.0
        this_ok = r_opt <= 1e-3 and ratio >= 10.0
        parts.append(f"{preset}:opt={r_opt:.2e} ratio={ratio:.3g}" + ("" if this_ok else "!"))
    return CriterionResult(
        "closed-form-m",
        _pass(all(clauses.values())),
        " ".join(parts) + " (tol 1e-3, 10x)",
        clauses,
    )


def criterion_identities(
    ws: Workspace, rng: np.random.Generator, oracle: bool, oracle_atoms: int
) -> CriterionResult:
    """Split identity at roundoff; shift relation matches the transport oracle.

    The oracle side extrapolates the exact-transport cost from two
    atomization resolutions: a single resolution carries a quantization
    bias of about a third of the squared cell width, well above the gap
    being certified on this nearly-coupled pair.
    """
    pts = np.column_stack(
        [
            rng.uniform(0.0, 1.0, 1000),
            rng.uniform(0.0, 1.0, 1000),
            rng.uniform(1.0, 2.0, 1000),
            rng.uniform(1.0, 2.0, 1000),
        ]
    )
    inst0, _, _ = ws.solve("uniform", 33)
    split = split_check(inst0, pts)
    split_ok = split <= 1e-12
    if not oracle:
        return CriterionResult(
            "algebraic-identities",
            _pass(split_ok),
            f"split={split:.2e} (tol 1e-12); shift-vs-oracle skipped (oracle disabled)",
        )
    inst, F, rep = ws.solve("bilinear", 65)
    ex1, ex2 = density_moments(inst.f)
    ext1, ext2 = density_moments(inst.f_tilde)
    cost_pq = shift_cost_relation(ex1, ext1 - 1.0, ex2, ext2 - 1.0, rep.cost)
    q_orig = Density2D(
        Grid1D(0.0, 1.0, inst.f_tilde.gx.n),
        Grid1D(0.0, 1.0, inst.f_tilde.gy.n),
        inst.f_tilde.values,
    )
    coarse = max(8, oracle_atoms // 2)
    w2 = []
    for na in (coarse, oracle_atoms):
        src, dst = atomize(inst.f, na, na), atomize(q_orig, na, na)
        # the map runs from f to f~, and q_orig is f~ moved back by (1, 1)
        w2.append(exact_ot(src, dst, _map_seed(inst, rep, src, dst, shift=1.0))[1])
    w2_c, w2_f = w2
    r = (oracle_atoms / coarse) ** 2
    w2_extrap = (r * w2_f - w2_c) / (r - 1.0)
    gap = abs(cost_pq - w2_extrap) / abs(w2_extrap)
    ok = split_ok and gap <= 0.02
    return CriterionResult(
        "algebraic-identities",
        _pass(ok),
        f"split={split:.2e} (tol 1e-12); shift cost_pq={cost_pq:.6e} "
        f"oracle_extrap={w2_extrap:.6e} gap={gap:.4%} (tol 2%)",
    )


def criterion_one_d_agreement(ws: Workspace, oracle: bool) -> CriterionResult:
    """Quantile-quadrature 1D distance matches atom matching to 0.5%."""
    if not oracle:
        return CriterionResult("one-d-agreement", "SKIP", "oracle disabled")
    n = 2001
    g = Grid1D(0.0, 1.0, n)
    m_uniform = Marginal1D(g, np.ones(n))
    m_tri = Marginal1D(g, np.maximum(2.0 * g.nodes, 1e-12))
    k2 = krw_1d_distance(m_uniform, m_tri) ** 2
    atoms = 1000
    centers = (np.arange(atoms) + 0.5) / atoms
    w_uniform = np.full(atoms, 1.0 / atoms)
    edges = np.arange(atoms + 1) / atoms
    w_tri = np.diff(edges**2)
    c1d = exact_ot_1d(w_uniform, centers, w_tri, centers)
    gap = abs(k2 - c1d) / c1d
    ok = gap <= 0.005
    return CriterionResult(
        "one-d-agreement",
        _pass(ok),
        f"krw^2={k2:.8f} atoms={c1d:.8f} gap={gap:.4%} (tol 0.5%)",
    )


def criterion_ellipticity(ws: Workspace) -> CriterionResult:
    """Coefficient fields stay positive on the data and along every run."""
    ok = True
    parts = []
    for preset in PRESET_NAMES:
        inst, F, rep = ws.solve(preset, 33)
        _, _, rep65 = ws.solve(preset, 65)
        margin = ellipticity_margin(inst.cq_G1_tilde, inst.cq_G2)
        run_min = min(rep.ellipticity_margin, rep65.ellipticity_margin)
        this_ok = margin > 0.0 and run_min > 0.0
        ok = ok and this_ok
        parts.append(f"{preset}:data={margin:.4f} run={run_min:.4f}")
    return CriterionResult("ellipticity", _pass(ok), " ".join(parts))


def criterion_manufactured(ws: Workspace) -> CriterionResult:
    """Quadratic data is reproduced exactly; sine data converges at order 2."""
    n = 33
    gx = Grid1D(0.0, 1.0, n)
    gy = Grid1D(1.0, 2.0, n)
    X, Y = np.meshgrid(gx.nodes, gy.nodes, indexing="ij")
    Fq = X**2 + (Y - 1.0) ** 2
    ones = ScalarField2D(gx, gy, np.ones((n, n)))
    four = ScalarField2D(gx, gy, np.full((n, n), 4.0))
    sol = linear_elliptic_solve(
        PdeCoefficients(ones, ones, four),
        ScalarField2D(gx, gy, Fq),
        linear_tol=1e-12,
    )
    quad_err = float(np.max(np.abs(sol.values - Fq)))
    errs = []
    for m in (33, 65, 129):
        gxm = Grid1D(0.0, 1.0, m)
        gym = Grid1D(1.0, 2.0, m)
        Xm, Ym = np.meshgrid(gxm.nodes, gym.nodes, indexing="ij")
        Fs = np.sin(np.pi * Xm) * np.sin(np.pi * (Ym - 1.0))
        one_m = ScalarField2D(gxm, gym, np.ones((m, m)))
        rhs = ScalarField2D(gxm, gym, -2.0 * np.pi**2 * Fs)
        solm = linear_elliptic_solve(
            PdeCoefficients(one_m, one_m, rhs),
            ScalarField2D(gxm, gym, np.zeros((m, m))),
            linear_tol=1e-12,
        )
        errs.append(float(np.max(np.abs(solm.values - Fs))))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = quad_err <= 1e-10 and min(orders) >= 1.9
    return CriterionResult(
        "manufactured-solutions",
        _pass(ok),
        f"quad_err={quad_err:.2e} (tol 1e-10) sine_orders={orders[0]:.3f},{orders[1]:.3f} (min 1.9)",
    )


def criterion_determinism(ws: Workspace) -> CriterionResult:
    """Recomputing a representative slice twice yields identical text."""
    snapshots = []
    for _ in range(2):
        fresh = Workspace(seed=ws.seed, omega=ws.omega)
        rng = np.random.default_rng(ws.seed)
        lines = [criterion_uniform_pde(fresh).detail]
        inst, F, rep = fresh.solve("bilinear", 33)
        lines.append(f"cost={rep.cost!r} hh={rep.hh_residual_max!r}")
        pts = np.column_stack([rng.random(100), rng.random(100), 1 + rng.random(100), 1 + rng.random(100)])
        lines.append(f"split={split_check(inst, pts)!r}")
        snapshots.append("\n".join(lines))
    ok = snapshots[0] == snapshots[1]
    return CriterionResult(
        "determinism", _pass(ok), "repeated solve and identity slices byte-identical"
        if ok else "repeated runs differ"
    )


def run_criteria(
    seed: int, oracle: bool, oracle_atoms: int, omega: float = SolverConfig.omega
) -> list[CriterionResult]:
    """Run all acceptance criteria and return one result per criterion.

    A criterion that raises a ``PlaneOTError`` becomes a FAIL row whose
    detail names the error; the criteria after it still run.
    """
    ws = Workspace(seed=seed, omega=omega)
    rng = np.random.default_rng(seed)
    criteria = [
        ("uniform-pde", lambda: criterion_uniform_pde(ws)),
        ("product-gauss-recovery", lambda: criterion_product_recovery(ws)),
        (
            "bilinear-triangulation",
            lambda: criterion_bilinear_triangulation(ws, oracle, oracle_atoms),
        ),
        ("stationarity", lambda: criterion_stationarity(ws, rng)),
        ("residual-refinement", lambda: criterion_residual_refinement(ws)),
        ("closed-form-m", lambda: criterion_closed_form_m(ws)),
        ("algebraic-identities", lambda: criterion_identities(ws, rng, oracle, oracle_atoms)),
        ("one-d-agreement", lambda: criterion_one_d_agreement(ws, oracle)),
        ("ellipticity", lambda: criterion_ellipticity(ws)),
        ("manufactured-solutions", lambda: criterion_manufactured(ws)),
        ("determinism", lambda: criterion_determinism(ws)),
    ]
    results = []
    for key, criterion in criteria:
        try:
            results.append(criterion())
        except PlaneOTError as e:
            # one line, so the report's table stays one row per criterion
            message = " ".join(str(e).split())
            results.append(CriterionResult(key, "FAIL", f"{type(e).__name__}: {message}"))
    return results
