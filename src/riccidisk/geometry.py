"""Conformal-metric geometry on the disk: g = exp(u) g0 with flat base g0.

All geometric quantities enter through the log conformal factor u.  The
flat base has R0 = 0 and boundary curvature kappa0 = 1, so

    R     = -exp(-u) lap0(u)
    kappa = exp(-u/2) (1 + d_r u / 2)   at r = 1.

The Euler characteristic of the only supported domain (the disk) is 1.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels, grid as _grid
from ._kernels import roll_theta
from .errors import DomainError, UsageError
from .grid import (
    PolarGrid,
    boundary_value,
    d2_r,
    d2_theta,
    d_r,
    d_theta,
    integrate_boundary,
    integrate_volume,
    radial_derivative_at_boundary,
)

EULER_CHARACTERISTIC = 1


@dataclass(frozen=True)
class ConformalMetric:
    """Immutable metric g = exp(u) g0 with a ghost ring for u at r = 1 + dr/2.

    The ghost ring is the metric's boundary closure: metrics emitted by the
    initial-data and flow modules carry the curvature-Neumann ghost, while
    ad-hoc metrics default to smooth extrapolation of u.

    The curvature quantities every diagnostic reads (R, log R, v(M),
    int R dv, Rbar, kappa, int kappa ds) are evaluated on first use and
    kept on the metric.  The arrays u and u_ghost must not be modified in
    place once the metric exists.
    """

    u: np.ndarray
    grid: PolarGrid
    u_ghost: np.ndarray

    def __post_init__(self):
        if self.u.shape != (self.grid.n_r, self.grid.n_theta):
            raise UsageError(
                f"u shape {self.u.shape} does not match grid "
                f"({self.grid.n_r}, {self.grid.n_theta})"
            )
        if not np.isfinite(self.u).all():
            raise DomainError("u must be finite everywhere")

    @cached_property
    def R(self) -> np.ndarray:
        return scalar_curvature(self)

    @cached_property
    def log_R(self) -> np.ndarray:
        """log R; the one positivity check of every R log R functional."""
        r_min = float(self.R.min())
        # written so that a NaN curvature fails too
        if not r_min > 0.0:
            raise DomainError(f"min R = {r_min:.3e} is not positive: log R undefined")
        return np.log(self.R)

    @cached_property
    def v_M(self) -> float:
        return integrate_volume(np.ones_like(self.u), self)

    @cached_property
    def int_R(self) -> float:
        return integrate_volume(self.R, self)

    @cached_property
    def R_bar(self) -> float:
        return self.int_R / self.v_M

    @cached_property
    def kappa(self) -> np.ndarray:
        return geodesic_curvature(self)

    @cached_property
    def int_kappa(self) -> float:
        return integrate_boundary(self.kappa, self)


def make_metric(u, grid, ghost=None) -> ConformalMetric:
    """Wrap a log conformal factor with its ghost ring (array, default extrapolated)."""
    u = np.asarray(u, dtype=np.float64)
    return ConformalMetric(u, grid, _grid._resolve_ghost(u, ghost))


def scalar_curvature(m: ConformalMetric):
    """R = -exp(-u) lap0(u), using the metric's ghost closure."""
    return _kernels.curvature(m.u, m.u_ghost, *m.grid.stencil)


def geodesic_curvature(m: ConformalMetric):
    """kappa = exp(-u/2)(1 + d_r u / 2) at r = 1; equals the mean curvature H.

    d_r u is the centered difference between the ghost ring and the last
    interior ring, which sits exactly at r = 1.  This is also the outer face
    flux of the discrete Laplacian, so int R dv + 2 int kappa ds = 4 pi
    holds to rounding for every ghost ring, not just asymptotically.
    """
    u_b = boundary_value(m.u)
    du = (m.u_ghost - m.u[-1]) / m.grid.dr
    return np.exp(-0.5 * u_b) * (1.0 + 0.5 * du)


def hessian(f, m: ConformalMetric, ghost=None):
    """Covariant Hessian of f in polar coordinates, as (H_rr, H_rt, H_tt).

    Components are dd_ij f - Gamma^k_ij d_k f with the Christoffel symbols
    of exp(u) g0 written out explicitly:

        H_rr = f_rr - u_r f_r / 2 + u_t f_t / (2 r^2)
        H_rt = f_rt - u_t f_r / 2 - (1/r + u_r / 2) f_t
        H_tt = f_tt + (r + r^2 u_r / 2) f_r - u_t f_t / 2
    """
    g = m.grid
    r = g.r[:, None]
    u_r = d_r(m.u, g, m.u_ghost)
    u_t = d_theta(m.u, g)
    f_r = d_r(f, g, ghost)
    f_t = d_theta(f, g)
    f_rr = d2_r(f, g, ghost)
    f_tt = d2_theta(f, g)
    f_rt = d_theta(f_r, g)
    h_rr = f_rr - 0.5 * u_r * f_r + 0.5 * u_t * f_t / r**2
    h_rt = f_rt - 0.5 * u_t * f_r - (1.0 / r + 0.5 * u_r) * f_t
    h_tt = f_tt + (r + 0.5 * r**2 * u_r) * f_r - 0.5 * u_t * f_t
    return h_rr, h_rt, h_tt


def shifted_hessian_norm_sq(f, m: ConformalMetric, c, ghost=None):
    """|T|^2_g = exp(-2u)(T_rr^2 + 2 T_rt^2 / r^2 + T_tt^2 / r^4) of T = Hess f + c g.

    c is a scalar or a pointwise field.  This is the norm of every
    soliton-type term: c = (R - Rbar)/2 for the Hamilton entropy,
    R/2 - 1/(2 tau) for W, R/2 for d^2 N/dt^2 and 0 for the Reilly formula.
    """
    h_rr, h_rt, h_tt = hessian(f, m, ghost=ghost)
    r2 = m.grid.r[:, None] ** 2
    cg = c * np.exp(m.u)
    h_rr += cg
    h_tt += cg * r2
    return np.exp(-2.0 * m.u) * (h_rr**2 + 2.0 * h_rt**2 / r2 + h_tt**2 / r2**2)


def metric_grad_norm_sq(f, m: ConformalMetric, ghost=None):
    """|grad f|^2_g = exp(-u)(f_r^2 + f_t^2 / r^2), pointwise nonnegative."""
    g = m.grid
    f_r = d_r(f, g, ghost)
    f_t = d_theta(f, g)
    return np.exp(-m.u) * (f_r**2 + f_t**2 / g.r[:, None] ** 2)


def grad_diff_norm_sq(a, b, m: ConformalMetric, ghost_a=None):
    """|grad a - grad b|^2_g, used for the |grad f - grad log R|^2 integrand."""
    g = m.grid
    dr_ = d_r(a, g, ghost_a) - d_r(b, g)
    dt_ = d_theta(a, g) - d_theta(b, g)
    return np.exp(-m.u) * (dr_**2 + dt_**2 / g.r[:, None] ** 2)


def laplace_beltrami(f, m: ConformalMetric, ghost=None):
    """lap_g f = exp(-u) lap0 f."""
    return np.exp(-m.u) * _grid.laplacian0(f, m.grid, ghost)


def normal_derivative(field, m: ConformalMetric):
    """f_nu = exp(-u/2) d_r f at r = 1 (outward unit normal of g)."""
    u_b = boundary_value(m.u)
    return np.exp(-0.5 * u_b) * radial_derivative_at_boundary(field, m.grid)


def boundary_gradient_inner(a_b, b_b, m: ConformalMetric):
    """<grad_dM a, grad_dM b> for boundary traces, metric exp(u) dtheta^2."""
    g = m.grid
    u_b = boundary_value(m.u)
    da = d_theta(a_b, g)
    db = d_theta(b_b, g)
    return np.exp(-u_b) * (da * db)


def boundary_laplacian(b, m: ConformalMetric):
    """Laplace-Beltrami of a boundary trace on the circle r = 1.

    Flux form of exp(-u/2) d_theta (exp(-u/2) d_theta b) with face-averaged
    coefficients; identically zero on one angle.
    """
    g = m.grid
    u_b = boundary_value(m.u)
    a = np.exp(-0.5 * u_b)
    a_plus = 0.5 * (a + roll_theta(a, -1))
    a_minus = roll_theta(a_plus, 1)
    flux = a_plus * (roll_theta(b, -1) - b) - a_minus * (b - roll_theta(b, 1))
    return a * flux / g.dtheta**2


def gauss_bonnet_residual(m: ConformalMetric) -> float:
    """|int R dv + 2 int kappa ds - 4 pi| for the disk (chi = 1)."""
    total = m.int_R + 2.0 * m.int_kappa
    return abs(total - 4.0 * np.pi * EULER_CHARACTERISTIC)
