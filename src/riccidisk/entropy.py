"""Entropy functionals and monotonicity right-hand sides.

Implements, for the evolving disk metric:

    E(t)  = int R log R dv - log Rbar int R dv        (Hamilton type)
    N(t)  = int R log R dv,   Rd(t) = log Rbar int R dv,   N = E + Rd
    W(t)  = int [tau (R - |grad log R|^2) - log R - log tau] R dv
            - 2 log tau int kappa ds                  (Guo type, tau = T - t)

together with the analytic expressions for dE/dt and dW/dt whose agreement
with finite differences in time is what the verification suite checks.
"""

from dataclasses import dataclass
from math import log, pi, sqrt

import numpy as np

from .elliptic import potential_f
from .errors import DomainError
from .geometry import (
    ConformalMetric,
    EULER_CHARACTERISTIC,
    geodesic_curvature,
    grad_diff_norm_sq,
    metric_grad_norm_sq,
    scalar_curvature,
    shifted_hessian,
    tensor_norm_sq,
    volume,
)
from .grid import (
    boundary_tangential_derivative,
    boundary_value,
    integrate_boundary,
    integrate_volume,
)


@dataclass
class WParams:
    """Backward-time horizon T; tau = T - t must stay positive."""

    w_horizon: float


@dataclass
class EntropyRecord:
    t: float
    tau: float
    v_M: float
    R_bar: float
    E_partial: float
    N_partial: float
    R_partial: float
    W_partial: float
    min_R: float
    gauss_bonnet_res: float
    dE_dt_rhs: float
    dW_dt_rhs: float
    soliton_residual_L2: float
    kappa_min: float
    kappa_max: float


def average_R(m: ConformalMetric) -> float:
    R = scalar_curvature(m)
    return integrate_volume(R, m) / volume(m)


@dataclass(frozen=True)
class _Snapshot:
    """Curvature quantities of one metric, evaluated once and shared.

    Every functional below accepts a metric or a snapshot of it, so
    :func:`make_record` evaluates R, kappa and their integrals once per
    record instead of once per functional.
    """

    metric: ConformalMetric
    R: np.ndarray
    log_R: np.ndarray
    v_M: float
    int_R: float
    R_bar: float
    kappa: np.ndarray
    int_kappa: float


def _snapshot(m) -> _Snapshot:
    if isinstance(m, _Snapshot):
        return m
    R = scalar_curvature(m)
    r_min = float(R.min())
    # written so that a NaN curvature fails too
    if not r_min > 0.0:
        raise DomainError(f"min R = {r_min:.3e} is not positive: log R undefined")
    v_m = volume(m)
    int_r = integrate_volume(R, m)
    kappa = geodesic_curvature(m)
    return _Snapshot(
        m, R, np.log(R), v_m, int_r, int_r / v_m, kappa, integrate_boundary(kappa, m)
    )


def _tau(wp: WParams, t: float) -> float:
    tau = wp.w_horizon - t
    if tau <= 0.0:
        raise DomainError(f"tau = {tau:.3e} <= 0")
    return tau


def hamilton_entropy(m: ConformalMetric) -> float:
    """E = int R log(R / Rbar) dv; nonnegative by the discrete Jensen gap."""
    s = _snapshot(m)
    return integrate_volume(s.R * s.log_R, s.metric) - log(s.R_bar) * s.int_R


def w_functional(m: ConformalMetric, wp: WParams, t: float) -> float:
    tau = _tau(wp, t)
    s = _snapshot(m)
    grad_log_r_sq = metric_grad_norm_sq(s.log_R, s.metric)
    integrand = (tau * (s.R - grad_log_r_sq) - s.log_R - log(tau)) * s.R
    return integrate_volume(integrand, s.metric) - 2.0 * log(tau) * s.int_kappa


def _soliton_norm_sq(s: _Snapshot, f) -> float:
    """int |R g/2 + Hess f - Rbar g/2|^2 dv, with the zero-flux closure of f."""
    T = shifted_hessian(f, s.metric, 0.5 * (s.R - s.R_bar), ghost="mirror")
    return integrate_volume(tensor_norm_sq(T, s.metric), s.metric)


def _boundary_grad_norm_sq(field, m):
    """|grad_{dM} (field|_dM)|^2 in the induced boundary metric."""
    b = boundary_value(field)
    db = boundary_tangential_derivative(b, m.grid)
    u_b = boundary_value(m.u)
    return np.exp(-u_b) * db**2


def dE_dt_rhs(m: ConformalMetric, f) -> float:
    """Right-hand side of the Hamilton-type monotonicity formula.

    -int (R |grad f - grad log R|^2 + 2 |R g/2 + Hess f - Rbar g/2|^2) dv
    - 2 int kappa |grad_{dM} (f|_dM)|^2 ds.

    ``f`` is the Neumann potential from the elliptic module; its zero-flux
    ghost closure matches the boundary condition it was solved under.
    """
    s = _snapshot(m)
    m = s.metric
    term1 = integrate_volume(s.R * grad_diff_norm_sq(f, s.log_R, m, ghost_a="mirror"), m)
    term2 = 2.0 * _soliton_norm_sq(s, f)
    term3 = 2.0 * integrate_boundary(s.kappa * _boundary_grad_norm_sq(f, m), m)
    return -(term1 + term2) - term3


def dW_dt_rhs(m: ConformalMetric, wp: WParams, t: float) -> float:
    """Right-hand side of the Guo-type monotonicity formula.

    2 tau int R |R g/2 + Hess log R - g/(2 tau)|^2 dv
    + 2 tau int kappa (R |grad_{dM} (log R)|_dM|^2 + 1/tau^2) ds.
    """
    tau = _tau(wp, t)
    s = _snapshot(m)
    m = s.metric
    T = shifted_hessian(s.log_R, m, 0.5 * s.R - 0.5 / tau)
    interior = 2.0 * tau * integrate_volume(s.R * tensor_norm_sq(T, m), m)
    R_b = boundary_value(s.R)
    bnd = 2.0 * tau * integrate_boundary(
        s.kappa * (R_b * _boundary_grad_norm_sq(s.log_R, m) + 1.0 / tau**2), m
    )
    return interior + bnd


def dE_dt_analytic(m: ConformalMetric) -> float:
    """dE/dt in the integrated-by-parts form int (R - |grad log R|^2) R dv - v Rbar^2."""
    s = _snapshot(m)
    grad_log_r_sq = metric_grad_norm_sq(s.log_R, s.metric)
    return integrate_volume((s.R - grad_log_r_sq) * s.R, s.metric) - s.v_M * s.R_bar**2


def soliton_residual_L2(m: ConformalMetric, f) -> float:
    """L2(dv) norm of R g/2 + Hess f - Rbar g/2 (vanishes on shrinking solitons)."""
    return sqrt(max(_soliton_norm_sq(_snapshot(m), f), 0.0))


def relation_residual(m: ConformalMetric, wp: WParams, t: float, dE_dt: float) -> float:
    """Residual of the W-E relation

    W = tau dE/dt - E - 4 pi chi log tau + tau v Rbar^2 - log Rbar int R dv.

    ``dE_dt`` is supplied by the caller (analytic form or a finite-difference
    estimate); by default use :func:`dE_dt_analytic` so the residual isolates
    the algebraic identity from time-discretization error.
    """
    tau = _tau(wp, t)
    s = _snapshot(m)
    rhs_val = (
        tau * dE_dt
        - hamilton_entropy(s)
        - 4.0 * pi * EULER_CHARACTERISTIC * log(tau)
        + tau * s.v_M * s.R_bar**2
        - log(s.R_bar) * s.int_R
    )
    return abs(w_functional(s, wp, t) - rhs_val)


def entropy_euler_form(traj) -> list:
    """Gauss-Bonnet rewriting of E(t) for trajectories with v(0) = 4 pi chi.

    Evaluates, per record,

        int R log R dv + 4 pi chi (1 - K/(2 pi chi))
            * log( ((1 - t) + (1/(2 pi chi)) int_0^t K dxi) / (1 - K/(2 pi chi)) )

    with K(t) = int kappa ds and trapezoidal time quadrature over records.
    """
    chi = EULER_CHARACTERISTIC
    if not traj.snapshots:
        raise DomainError("trajectory has no snapshots")
    v0 = traj.records[0].v_M
    if abs(v0 - 4.0 * pi * chi) > 0.01 * 4.0 * pi * chi:
        raise DomainError(
            f"initial volume {v0:.6g} is not within 1% of 4 pi chi = {4 * pi * chi:.6g}"
        )

    times = [s.t for s in traj.snapshots]
    k_int = []
    for s in traj.snapshots:
        kappa = geodesic_curvature(s.metric)
        k_int.append(integrate_boundary(kappa, s.metric))

    out = []
    cumulative = 0.0
    for k in range(len(times)):
        if k > 0:
            cumulative += 0.5 * (k_int[k] + k_int[k - 1]) * (times[k] - times[k - 1])
        t = times[k]
        K = k_int[k]
        prefactor = 4.0 * pi * chi * (1.0 - K / (2.0 * pi * chi))
        num = (1.0 - t) + cumulative / (2.0 * pi * chi)
        den = 1.0 - K / (2.0 * pi * chi)
        out.append(traj.records[k].N_partial + prefactor * log(num / den))
    return out


def make_record(m: ConformalMetric, t: float, w_horizon: float) -> EntropyRecord:
    """Assemble the per-snapshot diagnostics used by the flow and CLI."""
    wp = WParams(w_horizon)
    s = _snapshot(m)
    n_partial = integrate_volume(s.R * s.log_R, m)
    r_partial = log(s.R_bar) * s.int_R
    sol = potential_f(m)
    return EntropyRecord(
        t=t,
        tau=w_horizon - t,
        v_M=s.v_M,
        R_bar=s.R_bar,
        E_partial=n_partial - r_partial,
        N_partial=n_partial,
        R_partial=r_partial,
        W_partial=w_functional(s, wp, t),
        min_R=float(s.R.min()),
        # geometry.gauss_bonnet_residual, from the integrals already at hand
        gauss_bonnet_res=abs(s.int_R + 2.0 * s.int_kappa - 4.0 * pi * EULER_CHARACTERISTIC),
        dE_dt_rhs=dE_dt_rhs(s, sol.f),
        dW_dt_rhs=dW_dt_rhs(s, wp, t),
        soliton_residual_L2=soliton_residual_L2(s, sol.f),
        kappa_min=float(s.kappa.min()),
        kappa_max=float(s.kappa.max()),
    )
