"""Entropy functionals and monotonicity right-hand sides.

Implements, for the evolving disk metric:

    E(t)  = int R log R dv - log Rbar int R dv        (Hamilton type)
    N(t)  = int R log R dv,   Rd(t) = log Rbar int R dv,   N = E + Rd
    W(t)  = int [tau (R - |grad log R|^2) - log R - log tau] R dv
            - 2 log tau int kappa ds                  (Guo type, tau = T - t)

together with the analytic expressions for dE/dt and dW/dt whose agreement
with finite differences in time is what the verification suite checks.

Every functional takes a :class:`~riccidisk.geometry.ConformalMetric` and
reads R, log R, v(M), int R dv, Rbar, kappa and int kappa ds from it; the
metric evaluates each once, so a record built by :func:`make_record` costs
one curvature evaluation however many functionals it holds.  ``m.log_R``
is the single positivity check: a metric with min R <= 0 (or NaN) raises
``DomainError`` from every functional that takes log R.
"""

from dataclasses import dataclass
from math import log, pi, sqrt

import numpy as np

from .elliptic import potential_f
from .errors import DomainError
from .geometry import (
    ConformalMetric,
    EULER_CHARACTERISTIC,
    gauss_bonnet_residual,
    geodesic_curvature,
    grad_diff_norm_sq,
    metric_grad_norm_sq,
    shifted_hessian,
    tensor_norm_sq,
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


def _tau(wp: WParams, t: float) -> float:
    tau = wp.w_horizon - t
    if not tau > 0.0:  # NaN fails too
        raise DomainError(f"tau = {tau:.3e} is not positive")
    return tau


def hamilton_entropy(m: ConformalMetric) -> float:
    """E = int R log(R / Rbar) dv; nonnegative by the discrete Jensen gap."""
    return integrate_volume(m.R * m.log_R, m) - log(m.R_bar) * m.int_R


def w_functional(m: ConformalMetric, wp: WParams, t: float) -> float:
    tau = _tau(wp, t)
    grad_log_r_sq = metric_grad_norm_sq(m.log_R, m)
    integrand = (tau * (m.R - grad_log_r_sq) - m.log_R - log(tau)) * m.R
    return integrate_volume(integrand, m) - 2.0 * log(tau) * m.int_kappa


def _soliton_norm_sq(m: ConformalMetric, f) -> float:
    """int |R g/2 + Hess f - Rbar g/2|^2 dv, with the zero-flux closure of f."""
    T = shifted_hessian(f, m, 0.5 * (m.R - m.R_bar), ghost="mirror")
    return integrate_volume(tensor_norm_sq(T, m), m)


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
    term1 = integrate_volume(m.R * grad_diff_norm_sq(f, m.log_R, m, ghost_a="mirror"), m)
    term2 = 2.0 * _soliton_norm_sq(m, f)
    term3 = 2.0 * integrate_boundary(m.kappa * _boundary_grad_norm_sq(f, m), m)
    return -(term1 + term2) - term3


def dW_dt_rhs(m: ConformalMetric, wp: WParams, t: float) -> float:
    """Right-hand side of the Guo-type monotonicity formula.

    2 tau int R |R g/2 + Hess log R - g/(2 tau)|^2 dv
    + 2 tau int kappa (R |grad_{dM} (log R)|_dM|^2 + 1/tau^2) ds.
    """
    tau = _tau(wp, t)
    T = shifted_hessian(m.log_R, m, 0.5 * m.R - 0.5 / tau)
    interior = 2.0 * tau * integrate_volume(m.R * tensor_norm_sq(T, m), m)
    R_b = boundary_value(m.R)
    bnd = 2.0 * tau * integrate_boundary(
        m.kappa * (R_b * _boundary_grad_norm_sq(m.log_R, m) + 1.0 / tau**2), m
    )
    return interior + bnd


def dE_dt_analytic(m: ConformalMetric) -> float:
    """dE/dt in the integrated-by-parts form int (R - |grad log R|^2) R dv - v Rbar^2."""
    grad_log_r_sq = metric_grad_norm_sq(m.log_R, m)
    return integrate_volume((m.R - grad_log_r_sq) * m.R, m) - m.v_M * m.R_bar**2


def soliton_residual_L2(m: ConformalMetric, f) -> float:
    """L2(dv) norm of R g/2 + Hess f - Rbar g/2 (vanishes on shrinking solitons)."""
    return sqrt(max(_soliton_norm_sq(m, f), 0.0))


def relation_residual(m: ConformalMetric, wp: WParams, t: float, dE_dt: float) -> float:
    """Residual of the W-E relation

    W = tau dE/dt - E - 4 pi chi log tau + tau v Rbar^2 - log Rbar int R dv.

    ``dE_dt`` is supplied by the caller (analytic form or a finite-difference
    estimate); by default use :func:`dE_dt_analytic` so the residual isolates
    the algebraic identity from time-discretization error.
    """
    tau = _tau(wp, t)
    rhs_val = (
        tau * dE_dt
        - hamilton_entropy(m)
        - 4.0 * pi * EULER_CHARACTERISTIC * log(tau)
        + tau * m.v_M * m.R_bar**2
        - log(m.R_bar) * m.int_R
    )
    return abs(w_functional(m, wp, t) - rhs_val)


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
    n_partial = integrate_volume(m.R * m.log_R, m)
    r_partial = log(m.R_bar) * m.int_R
    sol = potential_f(m)
    return EntropyRecord(
        t=t,
        tau=w_horizon - t,
        v_M=m.v_M,
        R_bar=m.R_bar,
        E_partial=n_partial - r_partial,
        N_partial=n_partial,
        R_partial=r_partial,
        W_partial=w_functional(m, wp, t),
        min_R=float(m.R.min()),
        gauss_bonnet_res=gauss_bonnet_residual(m),
        dE_dt_rhs=dE_dt_rhs(m, sol.f),
        dW_dt_rhs=dW_dt_rhs(m, wp, t),
        soliton_residual_L2=soliton_residual_L2(m, sol.f),
        kappa_min=float(m.kappa.min()),
        kappa_max=float(m.kappa.max()),
    )
