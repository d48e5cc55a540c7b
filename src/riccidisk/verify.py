"""Independent verification of the monotonicity formulas and lemmas.

Every check compares two independently computed quantities: a finite
difference in time over recorded snapshots against an analytic right-hand
side, or two integral forms of the same identity.  A report passes under
the two-parameter tolerance model

    tol = (C1 dt^2 + C2 h^2) * scale,   scale = max(1, |lhs|, |rhs|),

with constants calibrated once on the reference configurations (hemisphere
flows and manufactured static fields) and frozen; static checks use dt = 0.
Negative controls deliberately violate a hypothesis and are expected to
fail the same model.
"""

import json
from dataclasses import dataclass, replace
from math import log

import numpy as np

from .entropy import WParams, dE_dt_analytic, relation_residual, w_functional
from .errors import UsageError
from .geometry import (
    ConformalMetric,
    boundary_gradient_inner,
    boundary_laplacian,
    hessian,
    laplace_beltrami,
    make_metric,
    metric_grad_norm_sq,
    normal_derivative,
    scalar_curvature,
    shifted_hessian,
    tensor_norm_sq,
)
from .grid import (
    GridSpec,
    PolarGrid,
    boundary_value,
    build_grid,
    integrate_boundary,
    integrate_volume,
    radial_derivative_at_boundary_interior,
)

# frozen tolerance constants; C1 absorbs the early-time third derivatives
# of the entropies seen by the centered differences over records
C1 = 1000.0
C2 = 20.0


@dataclass
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    grid: GridSpec
    dt: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "lhs": self.lhs,
                "rhs": self.rhs,
                "abs_err": self.abs_err,
                "rel_err": self.rel_err,
                "n_r": self.grid.n_r,
                "n_theta": self.grid.n_theta,
                "dt": self.dt,
                "pass": self.passed,
            }
        )


@dataclass
class ConvergenceReport:
    levels: list              # (h, dt, err) triples, coarse to fine
    observed_order: float

    def __post_init__(self):
        if len(self.levels) < 3:
            raise UsageError("a convergence report needs at least 3 levels")


def grid_h(grid: PolarGrid) -> float:
    """Mesh parameter of the tolerance model: the coarser of the spacings."""
    return grid.dr if grid.n_theta == 1 else max(grid.dr, grid.dtheta)


def tolerance(dt: float, h: float, scale: float) -> float:
    return (C1 * dt * dt + C2 * h * h) * scale


def _report(name, lhs, rhs, grid, dt, extra_ok=True, scale_hint=0.0) -> IdentityReport:
    """Build a report; ``scale_hint`` is the magnitude of the terms that the
    identity cancels, so near-zero identities are not held to an absolute
    tolerance finer than the computation that produced them."""
    lhs = float(lhs)
    rhs = float(rhs)
    abs_err = abs(lhs - rhs)
    scale = max(1.0, abs(lhs), abs(rhs), float(scale_hint))
    rel_err = abs_err / scale
    passed = bool(abs_err <= tolerance(dt, grid_h(grid), scale)) and bool(extra_ok)
    return IdentityReport(name, lhs, rhs, abs_err, rel_err, grid.spec, dt, passed)


# ---------------------------------------------------------------------------
# finite differences over (possibly unevenly spaced) records


def _fd1(ym, y0, yp, h1, h2):
    """First derivative at the middle of three samples, spacings h1, h2."""
    return (h1 * h1 * yp - h2 * h2 * ym + (h2 * h2 - h1 * h1) * y0) / (
        h1 * h2 * (h1 + h2)
    )


def _fd2(ym, y0, yp, h1, h2):
    """Second derivative at the middle of three samples."""
    return 2.0 * (h1 * yp + h2 * ym - (h1 + h2) * y0) / (h1 * h2 * (h1 + h2))


def _probe(traj):
    """Interior record index and the FD spacings around it."""
    if len(traj.records) < 3:
        raise UsageError(
            f"need at least 3 records for time differencing, got {len(traj.records)}"
        )
    k = len(traj.records) // 2
    if k == len(traj.records) - 1:
        k -= 1
    ts = [r.t for r in traj.records]
    return k, ts[k] - ts[k - 1], ts[k + 1] - ts[k]


# ---------------------------------------------------------------------------
# monotonicity formulas


def check_theorem_hamilton(traj) -> IdentityReport:
    """Centered FD of E against the dissipative right-hand side."""
    k, h1, h2 = _probe(traj)
    rs = traj.records
    lhs = _fd1(rs[k - 1].E_partial, rs[k].E_partial, rs[k + 1].E_partial, h1, h2)
    rhs = rs[k].dE_dt_rhs
    grid = traj.snapshots[k].metric.grid
    return _report("theorem_hamilton", lhs, rhs, grid, max(h1, h2))


def check_theorem_guo(traj, wp: WParams) -> IdentityReport:
    """Centered FD of W against the soliton-residual right-hand side."""
    k, h1, h2 = _probe(traj)
    rs = traj.records
    lhs = _fd1(rs[k - 1].W_partial, rs[k].W_partial, rs[k + 1].W_partial, h1, h2)
    rhs = rs[k].dW_dt_rhs
    grid = traj.snapshots[k].metric.grid
    return _report("theorem_guo", lhs, rhs, grid, max(h1, h2))


# ---------------------------------------------------------------------------
# static integral identities


def check_reilly(m: ConformalMetric, f) -> IdentityReport:
    """Reilly formula on the disk; f need not satisfy any boundary condition.

    lhs = int ((lap f)^2 - R |grad f|^2 / 2 - |Hess f|^2) dv
    rhs = int (2 f_nu lap_dM(f|dM) + kappa f_nu^2 + kappa |grad_dM f|^2) ds
    """
    lap_f = laplace_beltrami(f, m)
    R = m.R
    grad_sq = metric_grad_norm_sq(f, m)
    hess_sq = tensor_norm_sq(hessian(f, m), m)
    lhs = integrate_volume(lap_f**2 - 0.5 * R * grad_sq - hess_sq, m)
    f_b = boundary_value(f)
    f_nu = normal_derivative(f, m)
    kappa = m.kappa
    lap_b = boundary_laplacian(f_b, m)
    grad_b = boundary_gradient_inner(f_b, f_b, m)
    rhs = integrate_boundary(2.0 * f_nu * lap_b + kappa * f_nu**2 + kappa * grad_b, m)
    hint = max(
        integrate_volume(lap_f**2 + np.abs(0.5 * R * grad_sq) + hess_sq, m),
        integrate_boundary(
            np.abs(2.0 * f_nu * lap_b) + np.abs(kappa) * (f_nu**2 + np.abs(grad_b)), m
        ),
    )
    return _report("reilly", lhs, rhs, m.grid, 0.0, scale_hint=hint)


def _extract_cubic(field, grid, deriv):
    """Boundary value (deriv=0) or d_r (deriv=1) at r = 1, ghost-free.

    Cubic fit through the rings n-2 .. n-5; skipping the outermost ring
    avoids the ghost-closure error spike there, and the extra polynomial
    order buys back the accuracy the wider offsets would otherwise cost.
    """
    npts = 4
    offs = (np.arange(npts) + 1.5) * grid.dr
    rows = np.stack([field[-2 - k] for k in range(npts)])
    vand = np.vander(offs, npts, increasing=True)
    coef = np.linalg.solve(vand, rows)
    # coordinates run inward: d_r = -d/ds at s = 0
    return coef[0] if deriv == 0 else -coef[1]


def check_lemma_useful(m: ConformalMetric, f) -> IdentityReport:
    """Pointwise boundary identity for the normal derivative of |grad f|^2.

    Both sides are boundary fields; the report takes the node where the
    pointwise residual is largest, so abs_err is the max-norm residual.
    """
    grad_sq = metric_grad_norm_sq(f, m)
    u_b = boundary_value(m.u)
    left = np.exp(-0.5 * u_b) * _extract_cubic(grad_sq, m.grid, deriv=1)

    f_b = boundary_value(f)
    f_nu = normal_derivative(f, m)
    lap_b = _extract_cubic(laplace_beltrami(f, m), m.grid, deriv=0)
    kappa = m.kappa
    lap_dm = boundary_laplacian(f_b, m)
    cross = boundary_gradient_inner(f_b, f_nu, m)
    grad_b = boundary_gradient_inner(f_b, f_b, m)
    right = (
        2.0 * f_nu * (lap_b - lap_dm - f_nu * kappa)
        + 2.0 * cross
        - 2.0 * kappa * grad_b
    )
    j = int(np.argmax(np.abs(left - right)))
    hint = float(
        np.max(
            np.abs(left)
            + 2.0 * np.abs(f_nu) * (np.abs(lap_b) + np.abs(lap_dm) + np.abs(f_nu * kappa))
            + 2.0 * np.abs(cross)
            + 2.0 * np.abs(kappa * grad_b)
        )
    )
    return _report("lemma_useful", left[j], right[j], m.grid, 0.0, scale_hint=hint)


def check_lemma_time2(m: ConformalMetric) -> IdentityReport:
    """Two integral forms of dN/dt, equal by parts when d_r R(1) = 0.

    lhs = int ((lap R) log R + R^2) dv,  rhs = int (R - |grad log R|^2) R dv.
    On an incompatible metric they differ by the boundary flux of R, which
    is what the negative control exploits.
    """
    R, log_r = m.R, m.log_R
    lhs = integrate_volume(laplace_beltrami(R, m) * log_r + R * R, m)
    rhs = integrate_volume((R - metric_grad_norm_sq(log_r, m)) * R, m)
    return _report("lemma_time2", lhs, rhs, m.grid, 0.0)


def check_relation(m: ConformalMetric, wp: WParams, t: float) -> IdentityReport:
    """Algebraic W-E relation residual (should be quadrature-exact)."""
    res = relation_residual(m, wp, t, dE_dt_analytic(m))
    rep = _report("relation", res, 0.0, m.grid, 0.0)
    # residual of an exact algebraic identity: hold it to quadrature scale,
    # not to the generic h^2 model
    w_scale = max(1.0, abs(w_functional(m, wp, t)))
    passed = res <= 1.0e-10 * w_scale
    return replace(rep, passed=bool(passed))


# ---------------------------------------------------------------------------
# evolution laws over records


def check_avg_evolution(traj) -> IdentityReport:
    """d Rbar / dt = Rbar^2, and d(log Rbar int R dv)/dt = v(M) Rbar^2."""
    k, h1, h2 = _probe(traj)
    rs = traj.records
    lhs = _fd1(rs[k - 1].R_bar, rs[k].R_bar, rs[k + 1].R_bar, h1, h2)
    rhs = rs[k].R_bar ** 2

    lhs2 = _fd1(rs[k - 1].R_partial, rs[k].R_partial, rs[k + 1].R_partial, h1, h2)
    rhs2 = rs[k].v_M * rs[k].R_bar ** 2
    grid = traj.snapshots[k].metric.grid
    dt = max(h1, h2)
    scale2 = max(1.0, abs(lhs2), abs(rhs2))
    extra_ok = abs(lhs2 - rhs2) <= tolerance(dt, grid_h(grid), scale2)
    return _report("avg_evolution", lhs, rhs, grid, dt, extra_ok=extra_ok)


def check_kappa_evolution(traj) -> IdentityReport:
    """kappa(t) = kappa(0) exp(int_0^t R/2 ds) per boundary node.

    The exponent uses trapezoidal quadrature of the boundary trace of R
    over the records; comparison is at the final record, at the node of
    largest pointwise deviation.
    """
    if len(traj.records) < 2:
        raise UsageError("kappa evolution needs at least 2 records")
    ts = np.array([s.t for s in traj.snapshots])
    R_b = np.array(
        [boundary_value(scalar_curvature(s.metric)) for s in traj.snapshots]
    )
    kappa0 = traj.snapshots[0].metric.kappa
    kappa_end = traj.snapshots[-1].metric.kappa
    exponent = 0.5 * np.trapezoid(R_b, x=ts, axis=0)
    predicted = kappa0 * np.exp(exponent)
    j = int(np.argmax(np.abs(kappa_end - predicted)))
    dt = float(np.max(np.diff(ts)))
    grid = traj.snapshots[0].metric.grid
    return _report("kappa_evolution", kappa_end[j], predicted[j], grid, dt)


def check_normal_lemmas(traj) -> IdentityReport:
    """Normal-frame law and the flux of lap R at the boundary.

    (a) the unit normal is exp(-u/2) d_r, so d_t exp(-u/2) = R exp(-u/2)/2
        on the boundary; checked by centered FD of the recorded u trace;
    (b) |d_r (lap R)| at r = 1 on the final snapshot, which converges to 0
        at first order (one-sided third-derivative estimate).
    """
    k, h1, h2 = _probe(traj)
    snaps = traj.snapshots
    nu = [np.exp(-0.5 * boundary_value(s.metric.u)) for s in (snaps[k - 1], snaps[k], snaps[k + 1])]
    lhs_field = _fd1(nu[0], nu[1], nu[2], h1, h2)
    R_b = boundary_value(snaps[k].metric.R)
    rhs_field = 0.5 * R_b * nu[1]
    j = int(np.argmax(np.abs(lhs_field - rhs_field)))

    m_end = snaps[-1].metric
    lap_R = laplace_beltrami(m_end.R, m_end)
    # interior stencil: the ghost-closure error on the outermost ring would
    # otherwise dominate the one-sided derivative
    flux = float(np.max(np.abs(radial_derivative_at_boundary_interior(lap_R, m_end.grid))))
    flux_scale = max(1.0, float(np.max(np.abs(lap_R))))
    # first-order quantity: one power of h in the model
    extra_ok = flux <= C2 * grid_h(m_end.grid) * flux_scale

    grid = snaps[k].metric.grid
    return _report(
        "normal_lemmas", lhs_field[j], rhs_field[j], grid, max(h1, h2), extra_ok=extra_ok
    )


def check_second_derivative_N(traj) -> IdentityReport:
    """Second time derivative of N against its Bochner-type expansion.

    lhs = centered second FD of N over records;
    rhs = 2 int R |R g / 2 + Hess log R|^2 dv
          + 2 int kappa R |grad_dM log R|^2 ds.
    Also checks the first-derivative form dN/dt = int ((lap R) log R + R^2) dv
    as part of the pass criterion.
    """
    k, h1, h2 = _probe(traj)
    rs = traj.records
    lhs = _fd2(rs[k - 1].N_partial, rs[k].N_partial, rs[k + 1].N_partial, h1, h2)

    m = traj.snapshots[k].metric
    R, log_r, kappa = m.R, m.log_R, m.kappa
    T = shifted_hessian(log_r, m, 0.5 * R)
    R_b = boundary_value(R)
    db = boundary_value(log_r)
    rhs = 2.0 * integrate_volume(R * tensor_norm_sq(T, m), m) + 2.0 * integrate_boundary(
        kappa * R_b * boundary_gradient_inner(db, db, m), m
    )

    lhs1 = _fd1(rs[k - 1].N_partial, rs[k].N_partial, rs[k + 1].N_partial, h1, h2)
    rhs1 = integrate_volume(laplace_beltrami(R, m) * log_r + R * R, m)
    dt = max(h1, h2)
    scale1 = max(1.0, abs(lhs1), abs(rhs1))
    extra_ok = abs(lhs1 - rhs1) <= tolerance(dt, grid_h(m.grid), scale1)
    return _report("second_derivative_N", lhs, rhs, m.grid, dt, extra_ok=extra_ok)


# ---------------------------------------------------------------------------
# negative controls


def negctrl_incompatible_bc(grid: PolarGrid) -> IdentityReport:
    """Integration-by-parts check on a metric violating d_r R(1) = 0.

    The unprojected radial term makes the boundary flux of R order one, so
    the two forms of dN/dt disagree; the control passes iff the check fails.
    """
    r = grid.r[:, None]
    u = np.log(4.0) - 2.0 * np.log1p(0.5 * r * r) + 1.5 * (1.0 - r * r)
    m = make_metric(np.broadcast_to(u, (grid.n_r, grid.n_theta)).copy(), grid)
    rep = check_lemma_time2(m)
    return replace(rep, name="negctrl_incompatible_bc")


def negctrl_relation_corrupt(m: ConformalMetric, wp: WParams, t: float) -> IdentityReport:
    """W-E relation fed a corrupted dE/dt; must be flagged as a failure."""
    bad = 2.0 * dE_dt_analytic(m) + 1.0
    res = relation_residual(m, wp, t, bad)
    rep = _report("negctrl_relation_corrupt", res, 0.0, m.grid, 0.0)
    w_scale = max(1.0, abs(w_functional(m, wp, t)))
    return replace(rep, passed=bool(res <= 1.0e-10 * w_scale))


# ---------------------------------------------------------------------------
# manufactured fields and convergence studies


def manufactured_fields(grid: PolarGrid) -> dict:
    """Smooth test fields for the Reilly and boundary-lemma checks."""
    r = grid.r[:, None]
    th = grid.theta[None, :]
    shape = (grid.n_r, grid.n_theta)
    out = {
        "radial_quadratic": np.broadcast_to(r * r, shape).copy(),
        "radial_bump": np.broadcast_to((1.0 - r * r) * r * r, shape).copy(),
        "radial_quartic": np.broadcast_to(r**4, shape).copy(),
    }
    if grid.n_theta > 1:
        out["coord_x"] = r * np.cos(th) * np.ones(shape)
        out["mode2"] = r * r * np.cos(2.0 * th) * np.ones(shape)
        out["mode3"] = r**3 * np.cos(3.0 * th) * np.ones(shape)
    return out


def _study_metric(name, grid):
    # deferred import: initial_data depends on flow, which imports entropy
    from .initial_data import CapParams, PerturbationParams, perturbed_cap, spherical_cap

    if name in ("reilly", "lemma_useful"):
        return spherical_cap(CapParams(1.0), grid)
    mode = 2 if grid.n_theta > 1 else 0
    return perturbed_cap(CapParams(0.5), PerturbationParams(0.05, mode), grid)


def _study_error(name, grid):
    from .flow import FlowSchedule, run
    from .initial_data import CapParams, spherical_cap

    if name in ("reilly", "lemma_useful"):
        m = _study_metric(name, grid)
        f_name = "mode2" if grid.n_theta > 1 else "radial_bump"
        f = manufactured_fields(grid)[f_name]
        check = check_reilly if name == "reilly" else check_lemma_useful
        return check(m, f).abs_err, 0.0
    if name == "lemma_time2":
        return check_lemma_time2(_study_metric(name, grid)).abs_err, 0.0
    if name == "entropy_constancy":
        m0 = spherical_cap(CapParams(1.0), grid)
        traj = run(m0, FlowSchedule(t_end=0.01, record_every=5), w_horizon=0.5)
        return max(abs(r.E_partial) for r in traj.records), traj.records[1].t
    if name == "hamilton":
        m0 = _study_metric(name, grid)
        traj = run(m0, FlowSchedule(t_end=0.005, record_every=5), w_horizon=0.5)
        return check_theorem_hamilton(traj).abs_err, traj.records[1].t
    raise UsageError(f"no convergence study named {name!r}")


def convergence_study(name: str, base: GridSpec, n_levels: int = 3) -> ConvergenceReport:
    """Run a named check over successively refined grids and fit the order."""
    if n_levels < 3:
        raise UsageError("a convergence study needs at least 3 levels")
    levels = []
    for lvl in range(n_levels):
        factor = 2**lvl
        spec = GridSpec(
            base.n_r * factor, 1 if base.n_theta == 1 else base.n_theta * factor
        )
        grid = build_grid(spec)
        err, dt = _study_error(name, grid)
        levels.append((grid_h(grid), dt, err))
    hs = np.log([lv[0] for lv in levels])
    errs = np.log([max(lv[2], 1.0e-300) for lv in levels])
    order = float(np.polyfit(hs, errs, 1)[0])
    return ConvergenceReport(levels, order)
