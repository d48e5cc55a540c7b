"""Independent verification of the monotonicity formulas and lemmas.

Every check compares two independently computed quantities: a finite
difference in time over records against an analytic right-hand side, or
two integral forms of the same identity.  A report passes under the
two-parameter tolerance model

    tol = (C1 dt^2 + C2 h^2) * scale,   scale = max(1, |lhs|, |rhs|),

with constants calibrated once on the reference configurations (hemisphere
flows and manufactured static fields) and frozen; static checks use dt = 0.
Negative controls deliberately violate a hypothesis and are expected to
fail the same model.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .entropy import dE_dt_analytic, dN_dt, relation_residual, require_finite
from .errors import UsageError
from .flow import FlowSchedule, run
from .geometry import (
    ConformalMetric,
    boundary_gradient_inner,
    boundary_laplacian,
    grad_norm_sq,
    laplace_beltrami,
    make_metric,
    normal_derivative,
    shifted_hessian_norm_sq,
)
from .grid import (
    GridSpec,
    PolarGrid,
    boundary_value,
    build_grid,
    gradient0,
    integrate_boundary,
    integrate_volume,
    radial_derivative_at_boundary_interior,
)
from .initial_data import CapParams, PerturbationParams, cap_u, perturbed_cap, spherical_cap

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

    def __post_init__(self):
        require_finite(self, f"{self.name} report")

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


def grid_h(grid: PolarGrid) -> float:
    """Mesh parameter of the tolerance model: the coarser of the spacings."""
    return grid.dr if grid.n_theta == 1 else max(grid.dr, grid.dtheta)


def tolerance(dt: float, h: float, scale: float) -> float:
    return (C1 * dt * dt + C2 * h * h) * scale


def _scale(lhs, rhs, scale_hint):
    return max(1.0, abs(lhs), abs(rhs), float(scale_hint))


def _within(lhs, rhs, grid, dt, scale_hint=0.0) -> bool:
    """The tolerance model: |lhs - rhs| <= (C1 dt^2 + C2 h^2) * scale.

    ``scale_hint`` is the magnitude of the terms that the identity cancels,
    so near-zero identities are not held to an absolute tolerance finer
    than the computation that produced them.
    """
    scale = _scale(lhs, rhs, scale_hint)
    return bool(abs(lhs - rhs) <= tolerance(dt, grid_h(grid), scale))


def _report(name, lhs, rhs, grid, dt, extra_ok=True, scale_hint=0.0) -> IdentityReport:
    """Build a report that passes iff :func:`_within` and ``extra_ok`` hold."""
    lhs = float(lhs)
    rhs = float(rhs)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / _scale(lhs, rhs, scale_hint)
    passed = _within(lhs, rhs, grid, dt, scale_hint) and bool(extra_ok)
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
    """The trajectory's probe record k (see ``flow.run``) and the FD spacings around it."""
    if len(traj.records) < 3:
        raise UsageError(
            f"need at least 3 records for time differencing, got {len(traj.records)}"
        )
    k = traj.probe
    ts = [r.t for r in traj.records]
    return k, ts[k] - ts[k - 1], ts[k + 1] - ts[k]


def _ddt(traj, field, fd=_fd1):
    """FD time derivative of a record field at the probe record.

    Returns ``(value, k, dt, grid)``: the derivative, the probe index, the
    larger of the two spacings around it and the grid (the first state's).
    """
    k, h1, h2 = _probe(traj)
    ym, y0, yp = (getattr(r, field) for r in traj.records[k - 1 : k + 2])
    return fd(ym, y0, yp, h1, h2), k, max(h1, h2), traj.snapshots[0].metric.grid


# ---------------------------------------------------------------------------
# monotonicity formulas


def check_theorem_hamilton(traj) -> IdentityReport:
    """Centered FD of E against the dissipative right-hand side."""
    lhs, k, dt, grid = _ddt(traj, "E_partial")
    return _report("theorem_hamilton", lhs, traj.records[k].dE_dt_rhs, grid, dt)


def check_theorem_guo(traj) -> IdentityReport:
    """Centered FD of W against the soliton-residual right-hand side."""
    lhs, k, dt, grid = _ddt(traj, "W_partial")
    return _report("theorem_guo", lhs, traj.records[k].dW_dt_rhs, grid, dt)


# ---------------------------------------------------------------------------
# static integral identities


def check_reilly(m: ConformalMetric, f) -> IdentityReport:
    """Reilly formula on the disk; f need not satisfy any boundary condition.

    lhs = int ((lap f)^2 - R |grad f|^2 / 2 - |Hess f|^2) dv
    rhs = int (2 f_nu lap_dM(f|dM) + kappa f_nu^2 + kappa |grad_dM f|^2) ds
    """
    lap_f = laplace_beltrami(f, m)
    R = m.R
    grad = gradient0(f, m.grid)
    grad_sq = grad_norm_sq(*grad, m)
    hess_sq = shifted_hessian_norm_sq(f, m, 0.0, grad)
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


_CUBIC_VALUE = np.array([105.0, -189.0, 135.0, -35.0]) / 16.0
_CUBIC_DR_D_R = np.array([143.0 / 24.0, -111.0 / 8.0, 87.0 / 8.0, -71.0 / 24.0])


def _extract_cubic(field, grid, deriv):
    """Boundary value (deriv=0) or d_r (deriv=1) at r = 1, ghost-free.

    Cubic fit through the rings n-2 .. n-5, (k + 1.5) dr inside r = 1
    (k = 0 .. 3), as fixed weights; skipping the outermost ring avoids the
    ghost-closure error spike there, and the extra polynomial order buys
    back the accuracy the wider offsets would otherwise cost.
    """
    weights = _CUBIC_VALUE if deriv == 0 else _CUBIC_DR_D_R / grid.dr
    return weights @ field[-2:-6:-1]


def check_lemma_useful(m: ConformalMetric, f) -> IdentityReport:
    """Pointwise boundary identity for the normal derivative of |grad f|^2.

    Both sides are boundary fields; the report takes the node where the
    pointwise residual is largest, so abs_err is the max-norm residual.
    """
    grad_sq = grad_norm_sq(*gradient0(f, m.grid), m)
    left = np.exp(-0.5 * m.u_b) * _extract_cubic(grad_sq, m.grid, deriv=1)

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


def _dN_dt_by_parts(m: ConformalMetric) -> float:
    """dN/dt = int ((lap R) log R + R^2) dv, before integration by parts."""
    return integrate_volume(laplace_beltrami(m.R, m) * m.log_R + m.R * m.R, m)


def check_lemma_time2(m: ConformalMetric) -> IdentityReport:
    """Two integral forms of dN/dt, equal by parts when d_r R(1) = 0.

    lhs = int ((lap R) log R + R^2) dv,  rhs = int (R - |grad log R|^2) R dv.
    On an incompatible metric they differ by the boundary flux of R, which
    is what the negative control exploits.
    """
    return _report("lemma_time2", _dN_dt_by_parts(m), dN_dt(m), m.grid, 0.0)


def _relation_report(name, m: ConformalMetric, tau: float, dE_dt: float) -> IdentityReport:
    """W-E relation residual, held to quadrature scale 1e-10 max(1, |W|):
    the relation is an exact algebraic identity, so the generic h^2 model
    does not apply."""
    res, w = relation_residual(m, tau, dE_dt)
    rep = _report(name, res, 0.0, m.grid, 0.0)
    return replace(rep, passed=bool(res <= 1.0e-10 * max(1.0, abs(w))))


def check_relation(m: ConformalMetric, tau: float) -> IdentityReport:
    """Algebraic W-E relation residual (should be quadrature-exact)."""
    return _relation_report("relation", m, tau, dE_dt_analytic(m))


# ---------------------------------------------------------------------------
# evolution laws over records


def check_avg_evolution(traj) -> IdentityReport:
    """d Rbar / dt = Rbar^2, and d(log Rbar int R dv)/dt = v(M) Rbar^2."""
    lhs, k, dt, grid = _ddt(traj, "R_bar")
    lhs2 = _ddt(traj, "R_partial")[0]
    rec = traj.records[k]
    extra_ok = _within(lhs2, rec.v_M * rec.R_bar**2, grid, dt)
    return _report("avg_evolution", lhs, rec.R_bar**2, grid, dt, extra_ok=extra_ok)


def check_kappa_evolution(traj) -> IdentityReport:
    """kappa(t) = kappa(0) exp(int_0^t R/2 ds) per boundary node.

    The exponent uses trapezoidal quadrature of the recorded boundary
    traces of R; comparison is at the final record, at the node of largest
    pointwise deviation.
    """
    if len(traj.records) < 2:
        raise UsageError("kappa evolution needs at least 2 records")
    ts = np.array([r.t for r in traj.records])
    R_b = np.array(traj.boundary_R)
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
        on the boundary; checked by centered FD of the u trace of the probe
        triple's states;
    (b) |d_r (lap R)| at r = 1 on the latest state, which converges to 0
        at first order (one-sided third-derivative estimate).

    (b) needs initial data with (lap R)_nu = 0: on perturbations of
    profile (1 - r^2)^4 it failed on the 64x32 caps of modes 2 and 3
    flowed to t = 2e-3, and on the (1 - r^2)^8 profile of
    ``initial_data.perturbed_cap`` it passes on them (ROADMAP item C).
    """
    k, h1, h2 = _probe(traj)
    nu = [np.exp(-0.5 * traj.states[i].metric.u_b) for i in (k - 1, k, k + 1)]
    lhs_field = _fd1(nu[0], nu[1], nu[2], h1, h2)
    rhs_field = 0.5 * traj.boundary_R[k] * nu[1]
    j = int(np.argmax(np.abs(lhs_field - rhs_field)))

    m_end = traj.snapshots[-1].metric
    lap_R = laplace_beltrami(m_end.R, m_end)
    # interior stencil: the ghost-closure error on the outermost ring would
    # otherwise dominate the one-sided derivative
    flux = float(np.max(np.abs(radial_derivative_at_boundary_interior(lap_R, m_end.grid))))
    flux_scale = max(1.0, float(np.max(np.abs(lap_R))))
    # first-order quantity: one power of h in the model
    extra_ok = flux <= C2 * grid_h(m_end.grid) * flux_scale

    grid = traj.states[k].metric.grid
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
    lhs, k, dt, grid = _ddt(traj, "N_partial", fd=_fd2)
    m = traj.states[k].metric
    norm_sq = shifted_hessian_norm_sq(m.log_R, m, 0.5 * m.R, m.dlog_R)
    db = boundary_value(m.log_R)
    rhs = 2.0 * integrate_volume(m.R * norm_sq, m) + 2.0 * integrate_boundary(
        m.kappa * boundary_value(m.R) * boundary_gradient_inner(db, db, m), m
    )
    extra_ok = _within(_ddt(traj, "N_partial")[0], _dN_dt_by_parts(m), grid, dt)
    return _report("second_derivative_N", lhs, rhs, grid, dt, extra_ok=extra_ok)


# ---------------------------------------------------------------------------
# negative controls


def negctrl_incompatible_bc(grid: PolarGrid) -> IdentityReport:
    """Integration-by-parts check on a metric violating d_r R(1) = 0.

    The radial term 1.5 (1 - r^2), with an extrapolated rather than closed
    ghost ring, makes the boundary flux of R order one, so the two forms of
    dN/dt disagree; the control passes iff the check fails.
    """
    r = grid.r[:, None]
    u = cap_u(0.5, r) + 1.5 * (1.0 - r * r)
    m = make_metric(np.broadcast_to(u, (grid.n_r, grid.n_theta)).copy(), grid)
    rep = check_lemma_time2(m)
    return replace(rep, name="negctrl_incompatible_bc")


def negctrl_relation_corrupt(m: ConformalMetric, tau: float) -> IdentityReport:
    """W-E relation fed a corrupted dE/dt; must be flagged as a failure."""
    bad = 2.0 * dE_dt_analytic(m) + 1.0
    return _relation_report("negctrl_relation_corrupt", m, tau, bad)


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


def _manufactured_f(grid: PolarGrid):
    """The field of the static checks: mode2 on a 2-d grid, else radial_bump."""
    return manufactured_fields(grid)["mode2" if grid.n_theta > 1 else "radial_bump"]


# check name -> (needs a trajectory, report builder(initial, traj, tau)); each
# builder names its check, so the check is looked up when the builder runs
CHECKS = {
    "hamilton": (True, lambda m, traj, tau: check_theorem_hamilton(traj)),
    "guo": (True, lambda m, traj, tau: check_theorem_guo(traj)),
    "avg_evolution": (True, lambda m, traj, tau: check_avg_evolution(traj)),
    "kappa_evolution": (True, lambda m, traj, tau: check_kappa_evolution(traj)),
    "normal_lemmas": (True, lambda m, traj, tau: check_normal_lemmas(traj)),
    "second_derivative_N": (True, lambda m, traj, tau: check_second_derivative_N(traj)),
    "reilly": (False, lambda m, traj, tau: check_reilly(m, _manufactured_f(m.grid))),
    "lemma_useful": (
        False, lambda m, traj, tau: check_lemma_useful(m, _manufactured_f(m.grid))
    ),
    "lemma_time2": (False, lambda m, traj, tau: check_lemma_time2(m)),
    "relation": (False, lambda m, traj, tau: check_relation(m, tau)),
    "negctrl_incompatible_bc": (
        False, lambda m, traj, tau: negctrl_incompatible_bc(m.grid)
    ),
    "negctrl_relation_corrupt": (
        False, lambda m, traj, tau: negctrl_relation_corrupt(m, tau)
    ),
}


def _cap_study_metric(grid):
    """The c = 0.5 cap with a 5% mode-2 perturbation (radial on a 1-d grid)."""
    mode = 2 if grid.n_theta > 1 else 0
    return perturbed_cap(CapParams(0.5), PerturbationParams(0.05, mode), grid)


def _hemisphere(grid):
    return spherical_cap(CapParams(1.0), grid)


def _study_entropy_constancy(grid):
    traj = run(_hemisphere(grid), FlowSchedule(t_end=0.01, record_every=5), w_horizon=0.5)
    return max(abs(r.E_partial) for r in traj.records), traj.records[1].t


def _study_hamilton(grid):
    traj = run(_cap_study_metric(grid), FlowSchedule(t_end=0.005, record_every=5), w_horizon=0.5)
    return check_theorem_hamilton(traj).abs_err, traj.records[1].t


# study name -> builder(grid) of (error, dt) on one level of the refinement
STUDIES = {
    "reilly": lambda g: (check_reilly(_hemisphere(g), _manufactured_f(g)).abs_err, 0.0),
    "lemma_useful": lambda g: (
        check_lemma_useful(_hemisphere(g), _manufactured_f(g)).abs_err, 0.0
    ),
    "lemma_time2": lambda g: (check_lemma_time2(_cap_study_metric(g)).abs_err, 0.0),
    "entropy_constancy": _study_entropy_constancy,
    "hamilton": _study_hamilton,
}


def convergence_study(name: str, base: GridSpec) -> ConvergenceReport:
    """Run a named check on the base grid refined by 1, 2 and 4; fit the order."""
    if name not in STUDIES:
        raise UsageError(f"no convergence study named {name!r}")
    levels = []
    for factor in (1, 2, 4):
        spec = GridSpec(
            base.n_r * factor, 1 if base.n_theta == 1 else base.n_theta * factor
        )
        grid = build_grid(spec)
        err, dt = STUDIES[name](grid)
        levels.append((grid_h(grid), dt, err))
    hs = np.log([lv[0] for lv in levels])
    errs = np.log([max(lv[2], 1.0e-300) for lv in levels])
    order = float(np.polyfit(hs, errs, 1)[0])
    return ConvergenceReport(levels, order)
