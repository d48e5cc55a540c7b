"""Entropy functionals and monotonicity right-hand sides.

Implements, for the evolving disk metric:

    E(t)  = int R log R dv - log Rbar int R dv        (Hamilton type)
    N(t)  = int R log R dv,   Rd(t) = log Rbar int R dv,   N = E + Rd
    W(t)  = int [tau (R - |grad log R|^2) - log R - log tau] R dv
            - 2 log tau int kappa ds                  (Guo type, tau = T - t)

together with the analytic expressions for dE/dt and dW/dt whose agreement
with finite differences in time is what the verification suite checks.
W and dW/dt depend on time only through tau = T - t, so the Guo-type
functionals take tau itself, which must be positive.

Every functional takes a :class:`~riccidisk.geometry.ConformalMetric` and
reads R, log R, v(M), int R dv, Rbar, kappa and int kappa ds, the factors
exp(u), exp(-u) and exp(-2u) and the first derivatives of u and log R from
it; the metric evaluates each once, so a record built by
:func:`make_record` costs one curvature evaluation, one exponential of
each kind and one differentiation of u and of log R however many
functionals it holds.  The record also differentiates the potential f
once and integrates the soliton norm once (:func:`_potential_terms`), for
both dE/dt and the soliton residual.  ``m.log_R`` is the single positivity
check: a metric with min R <= 0 (or NaN) raises ``DomainError`` from every
functional that takes log R.
"""

import sys
from dataclasses import dataclass, fields
from math import isfinite, log, pi, sqrt

import numpy as np

from .elliptic import potential_f
from .errors import DomainError
from .geometry import (
    ConformalMetric,
    EULER_CHARACTERISTIC,
    boundary_gradient_inner,
    gauss_bonnet_residual,
    grad_norm_sq,
    shifted_hessian_norm_sq,
)
from .grid import (
    boundary_value,
    ghost_mirror,
    gradient0,
    integrate_boundary,
    integrate_volume,
)

_SQRT_DBL_MAX = sqrt(sys.float_info.max)


@dataclass
class EntropyRecord:
    """One row of the trajectory CSV; the field order is the column order."""

    t: float
    tau: float
    v_M: float
    R_bar: float
    min_R: float
    E_partial: float
    N_partial: float
    R_partial: float
    W_partial: float
    dE_dt_rhs: float
    dW_dt_rhs: float
    gauss_bonnet_res: float
    kappa_min: float
    kappa_max: float
    soliton_residual_L2: float

    def __post_init__(self):
        require_finite(self, f"record at t = {self.t!r}")


def require_finite(obj, what: str):
    """Refuse a dataclass whose float fields hold an infinity or a NaN."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not isfinite(value):
            raise DomainError(f"{what}: {f.name} = {value} is not finite")


def _tau(tau: float) -> float:
    if not tau > 0.0:  # NaN fails too
        raise DomainError(f"tau = {tau:.3e} is not positive")
    return tau


def hamilton_entropy(m: ConformalMetric) -> float:
    """E = int R log(R / Rbar) dv; nonnegative by the discrete Jensen gap."""
    return integrate_volume(m.R * m.log_R, m) - log(m.R_bar) * m.int_R


def w_functional(m: ConformalMetric, tau: float) -> float:
    tau = _tau(tau)
    # (tau (R - |grad log R|^2) - log R - log tau) R, in place
    integrand = grad_norm_sq(*m.dlog_R, m)
    np.subtract(m.R, integrand, out=integrand)
    integrand *= tau
    integrand -= m.log_R
    integrand -= log(tau)
    integrand *= m.R
    return integrate_volume(integrand, m) - 2.0 * log(tau) * m.int_kappa


def _potential_terms(m: ConformalMetric, f) -> tuple:
    """(d_r f, d_theta f) and int |R g/2 + Hess f - Rbar g/2|^2 dv.

    Both use the zero-flux closure of f; dE/dt reads both and the soliton
    residual the norm, so a record evaluates them once for the two.
    """
    ghost = ghost_mirror(f)
    grad = gradient0(f, m.grid, ghost)
    norm_sq = shifted_hessian_norm_sq(f, m, 0.5 * (m.R - m.R_bar), grad, ghost)
    return grad, integrate_volume(norm_sq, m)


def dE_dt_rhs(m: ConformalMetric, f, terms=None) -> float:
    """Right-hand side of the Hamilton-type monotonicity formula.

    -int (R |grad f - grad log R|^2 + 2 |R g/2 + Hess f - Rbar g/2|^2) dv
    - 2 int kappa |grad_{dM} (f|_dM)|^2 ds.

    ``f`` is the Neumann potential from the elliptic module; its zero-flux
    ghost closure matches the boundary condition it was solved under.
    ``terms`` is ``_potential_terms(m, f)`` when the caller has it.
    """
    grad_f, soliton_sq = _potential_terms(m, f) if terms is None else terms
    (f_r, f_t), (l_r, l_t) = grad_f, m.dlog_R
    integrand = grad_norm_sq(f_r - l_r, f_t - l_t, m)
    integrand *= m.R
    term1 = integrate_volume(integrand, m)
    term2 = 2.0 * soliton_sq
    f_b = boundary_value(f)
    term3 = 2.0 * integrate_boundary(m.kappa * boundary_gradient_inner(f_b, f_b, m), m)
    return -(term1 + term2) - term3


def dW_dt_rhs(m: ConformalMetric, tau: float) -> float:
    """Right-hand side of the Guo-type monotonicity formula.

    2 tau int R |R g/2 + Hess log R - g/(2 tau)|^2 dv
    + 2 tau int kappa (R |grad_{dM} (log R)|_dM|^2 + 1/tau^2) ds.
    """
    tau = _tau(tau)
    norm_sq = shifted_hessian_norm_sq(m.log_R, m, 0.5 * m.R - 0.5 / tau, m.dlog_R)
    norm_sq *= m.R
    interior = 2.0 * tau * integrate_volume(norm_sq, m)
    R_b = boundary_value(m.R)
    log_R_b = boundary_value(m.log_R)
    grad_b_sq = boundary_gradient_inner(log_R_b, log_R_b, m)
    # tau^2 overflows (a Python float raises) past the square root of the
    # largest double, where 1 / tau^2 is subnormal
    inv_tau_sq = 1.0 / tau**2 if tau < _SQRT_DBL_MAX else 1.0 / tau / tau
    bnd = 2.0 * tau * integrate_boundary(m.kappa * (R_b * grad_b_sq + inv_tau_sq), m)
    return interior + bnd


def dN_dt(m: ConformalMetric) -> float:
    """dN/dt in the integrated-by-parts form int (R - |grad log R|^2) R dv."""
    integrand = grad_norm_sq(*m.dlog_R, m)
    np.subtract(m.R, integrand, out=integrand)
    integrand *= m.R
    return integrate_volume(integrand, m)


def dE_dt_analytic(m: ConformalMetric) -> float:
    """dE/dt = dN/dt - v Rbar^2, with dN/dt in its integrated-by-parts form."""
    return dN_dt(m) - m.v_M * m.R_bar**2


def soliton_residual_L2(m: ConformalMetric, f, terms=None) -> float:
    """L2(dv) norm of R g/2 + Hess f - Rbar g/2 (vanishes on shrinking solitons).

    ``terms`` is ``_potential_terms(m, f)`` when the caller has it.
    """
    _, norm_sq = _potential_terms(m, f) if terms is None else terms
    return sqrt(max(norm_sq, 0.0))


def relation_residual(m: ConformalMetric, tau: float, dE_dt: float) -> tuple:
    """Residual of the W-E relation, returned with W as ``(residual, W)``:

    W = tau dE/dt - E - 4 pi chi log tau + tau v Rbar^2 - log Rbar int R dv.

    ``dE_dt`` is supplied by the caller (analytic form or a finite-difference
    estimate); by default use :func:`dE_dt_analytic` so the residual isolates
    the algebraic identity from time-discretization error.
    """
    tau = _tau(tau)
    rhs_val = (
        tau * dE_dt
        - hamilton_entropy(m)
        - 4.0 * pi * EULER_CHARACTERISTIC * log(tau)
        + tau * m.v_M * m.R_bar**2
        - log(m.R_bar) * m.int_R
    )
    w = w_functional(m, tau)
    return abs(w - rhs_val), w


def entropy_euler_form(traj) -> list:
    """Gauss-Bonnet rewriting of E(t) for trajectories with v(0) = 4 pi chi.

    Evaluates, per record,

        int R log R dv + 4 pi chi (1 - K/(2 pi chi))
            * log( ((1 - t) + (1/(2 pi chi)) int_0^t K dxi) / (1 - K/(2 pi chi)) )

    with K(t) = int kappa ds, as recorded, and trapezoidal time quadrature
    over records.
    """
    chi = EULER_CHARACTERISTIC
    if not traj.records:
        raise DomainError("trajectory has no records")
    v0 = traj.records[0].v_M
    if abs(v0 - 4.0 * pi * chi) > 0.01 * 4.0 * pi * chi:
        raise DomainError(
            f"initial volume {v0:.6g} is not within 1% of 4 pi chi = {4 * pi * chi:.6g}"
        )

    times = [r.t for r in traj.records]
    k_int = traj.int_kappa

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
    tau = w_horizon - t
    n_partial = integrate_volume(m.R * m.log_R, m)
    r_partial = log(m.R_bar) * m.int_R
    f = potential_f(m).f
    terms = _potential_terms(m, f)
    return EntropyRecord(
        t=t,
        tau=tau,
        v_M=m.v_M,
        R_bar=m.R_bar,
        min_R=float(m.R.min()),
        E_partial=n_partial - r_partial,
        N_partial=n_partial,
        R_partial=r_partial,
        W_partial=w_functional(m, tau),
        dE_dt_rhs=dE_dt_rhs(m, f, terms),
        dW_dt_rhs=dW_dt_rhs(m, tau),
        gauss_bonnet_res=gauss_bonnet_residual(m),
        kappa_min=float(m.kappa.min()),
        kappa_max=float(m.kappa.max()),
        soliton_residual_L2=soliton_residual_L2(m, f, terms),
    )
