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
    d_theta,
    gradient0,
    integrate_boundary,
    integrate_volume,
    radial_derivative_at_boundary,
)

EULER_CHARACTERISTIC = 1


@dataclass(frozen=True)
class ConformalMetric:
    """Immutable metric g = exp(u) g0 with a ghost ring for u at r = 1 + dr/2.

    The ghost ring is the metric's boundary closure: metrics emitted by the
    initial-data module carry the curvature-Neumann ghost, those of the
    flow keep the offset u_ghost - u[-1] of its t = 0 state (u's frozen
    boundary flux), while those of :func:`make_metric` carry the smooth
    extrapolation of u.

    What every diagnostic reads is evaluated on first use and kept on the
    metric: the curvature quantities R, log R, v(M), int R dv, Rbar, kappa
    and int kappa ds; the boundary trace u_b of u, which every boundary
    operator and ``grid.integrate_boundary`` read; the conformal factors
    exp(u), exp(-u) and exp(-2u); and the flat first derivatives (d_r,
    d_theta) of u (with its ghost ring) and of log R (extrapolated ghost).
    Metrics built by the curvature-Neumann closure
    (:func:`enforce_curvature_neumann`, which the initial-data module and
    a run's t = 0 state use) arrive with R already cached: the closure and
    :func:`scalar_curvature` share one flux-Laplacian body in ``_kernels``
    and finish its last ring alike, so the cached R is bit-identical to
    what :func:`scalar_curvature` returns.
    The factors and derivatives are read-only.  The arrays u and u_ghost
    must not be modified in place once the metric exists.
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
    def u_b(self) -> np.ndarray:
        """u extrapolated to r = 1 (``grid.boundary_value``)."""
        return _read_only(boundary_value(self.u))

    @cached_property
    def exp_u(self) -> np.ndarray:
        return _read_only(np.exp(self.u))

    @cached_property
    def exp_neg_u(self) -> np.ndarray:
        return _read_only(np.exp(-self.u))

    @cached_property
    def exp_neg_2u(self) -> np.ndarray:
        return _read_only(np.exp(-2.0 * self.u))

    @cached_property
    def du(self) -> tuple:
        """(d_r u, d_theta u), with the metric's ghost ring."""
        return tuple(map(_read_only, gradient0(self.u, self.grid, self.u_ghost)))

    @cached_property
    def dlog_R(self) -> tuple:
        """(d_r log R, d_theta log R), with the extrapolated ghost ring."""
        return tuple(map(_read_only, gradient0(self.log_R, self.grid)))

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


def _read_only(a):
    a.flags.writeable = False
    return a


def make_metric(u, grid) -> ConformalMetric:
    """Wrap a log conformal factor with the extrapolated ghost ring."""
    u = np.asarray(u, dtype=np.float64)
    return ConformalMetric(u, grid, _grid.ghost_extrapolate(u))


def scalar_curvature(m: ConformalMetric):
    """R = -exp(-u) lap0(u), using the metric's ghost closure."""
    return _kernels.curvature(m.u, m.u_ghost, *m.grid.stencil)


def enforce_curvature_neumann(u, grid) -> ConformalMetric:
    """The metric exp(u) g0 with its ghost ring set so that d_r R(1) = 0.

    Only the outermost ring of R depends on the ghost, and linearly, so the
    closure is a direct solve per boundary node; u is taken as it is.  The
    closure evaluates R on the way, with the flux-Laplacian body that
    :func:`scalar_curvature` uses, so the metric arrives with its R,
    bit-identical to what that function would return.  A non-finite ghost
    raises ``DomainError``.

    It closes initial data and a run's t = 0 state; the stages of the flow
    keep that state's offset u_ghost - u[-1] and do not call it.
    """
    ghost, R = _kernels.curvature_neumann_ghost(u, *grid.stencil)
    if not np.isfinite(ghost).all():
        raise DomainError("curvature ghost closure produced non-finite values")
    m = ConformalMetric(u, grid, ghost)
    vars(m)["R"] = R  # fills the cache of the lazy ConformalMetric.R
    return m


def geodesic_curvature(m: ConformalMetric):
    """kappa = exp(-u/2)(1 + d_r u / 2) at r = 1; equals the mean curvature H.

    d_r u is the centered difference between the ghost ring and the last
    interior ring, which sits exactly at r = 1.  This is also the outer face
    flux of the discrete Laplacian, so int R dv + 2 int kappa ds = 4 pi
    holds to rounding for every ghost ring, not just asymptotically.
    """
    du = (m.u_ghost - m.u[-1]) / m.grid.dr
    return np.exp(-0.5 * m.u_b) * (1.0 + 0.5 * du)


def hessian(f, m: ConformalMetric, grad, ghost=None):
    """Covariant Hessian of f in polar coordinates, as (H_rr, H_rt, H_tt).

    Components are dd_ij f - Gamma^k_ij d_k f with the Christoffel symbols
    of exp(u) g0 written out explicitly:

        H_rr = f_rr - u_r f_r / 2 + u_t f_t / (2 r^2)
        H_rt = f_rt - u_t f_r / 2 - (1/r + u_r / 2) f_t
        H_tt = f_tt + (r + r^2 u_r / 2) f_r - u_t f_t / 2

    ``grad`` is ``gradient0(f, m.grid, ghost)``, which the caller shares
    with its other terms.  Each product is formed in place in the order of
    these formulas, so the components are bit-identical to evaluating the
    expressions as written.
    """
    # in place, not as plain expressions, which cost make_record about 0.2 ms at 128x1
    # and 2.3-3.3x the page faults per record at 128x64 to 256x128 (shared 2-CPU VM)
    g = m.grid
    r = g.r[:, None]
    u_r, u_t = m.du
    f_r, f_t = grad
    h_rr = d2_r(f, g, ghost)
    h_rt = d_theta(f_r, g)
    h_tt = d2_theta(f, g)
    half_ut_ft = np.multiply(0.5, u_t)  # u_t f_t / 2, in H_rr and H_tt
    half_ut_ft *= f_t
    t = np.multiply(0.5, u_r)
    t *= f_r
    h_rr -= t

    np.multiply(0.5, u_t, out=t)
    t *= f_r
    h_rt -= t
    np.multiply(0.5, u_r, out=t)
    t += 1.0 / r
    t *= f_t
    h_rt -= t

    np.multiply(0.5 * r**2, u_r, out=t)
    t += r
    t *= f_r
    h_tt += t
    h_tt -= half_ut_ft

    half_ut_ft /= r**2
    h_rr += half_ut_ft
    return h_rr, h_rt, h_tt


def shifted_hessian_norm_sq(f, m: ConformalMetric, c, grad, ghost=None):
    """|T|^2_g = exp(-2u)(T_rr^2 + 2 T_rt^2 / r^2 + T_tt^2 / r^4) of T = Hess f + c g.

    c is a scalar or a pointwise field.  This is the norm of every
    soliton-type term: c = (R - Rbar)/2 for the Hamilton entropy,
    R/2 - 1/(2 tau) for W, R/2 for d^2 N/dt^2 and 0 for the Reilly formula.
    ``grad`` is as in :func:`hessian`.
    """
    t_rr, t_rt, t_tt = hessian(f, m, grad, ghost)
    r2 = m.grid.r[:, None] ** 2
    cg = c * m.exp_u
    t_rr += cg
    cg *= r2
    t_tt += cg
    t_rr *= t_rr
    t_rt *= t_rt
    t_rt *= 2.0
    t_rt /= r2
    t_rr += t_rt
    t_tt *= t_tt
    t_tt /= r2**2
    t_rr += t_tt
    t_rr *= m.exp_neg_2u
    return t_rr


def grad_norm_sq(v_r, v_t, m: ConformalMetric):
    """|v|^2_g = exp(-u)(v_r^2 + v_t^2 / r^2) of flat coordinate components.

    (v_r, v_t) is a flat gradient ``gradient0(f, m.grid)`` for |grad f|^2_g,
    or a difference of two for |grad a - grad b|^2_g; pointwise nonnegative.
    """
    out = v_t**2
    out /= m.grid.r[:, None] ** 2
    out += v_r**2
    out *= m.exp_neg_u
    return out


def laplace_beltrami(f, m: ConformalMetric):
    """lap_g f = exp(-u) lap0 f, with the extrapolated ghost ring of f."""
    lap = _grid.laplacian0(f, m.grid)
    lap *= m.exp_neg_u
    return lap


def normal_derivative(field, m: ConformalMetric):
    """f_nu = exp(-u/2) d_r f at r = 1 (outward unit normal of g)."""
    return np.exp(-0.5 * m.u_b) * radial_derivative_at_boundary(field, m.grid)


def boundary_gradient_inner(a_b, b_b, m: ConformalMetric):
    """<grad_dM a, grad_dM b> for boundary traces, metric exp(u) dtheta^2."""
    g = m.grid
    da = d_theta(a_b, g)
    db = d_theta(b_b, g)
    return np.exp(-m.u_b) * (da * db)


def boundary_laplacian(b, m: ConformalMetric):
    """Laplace-Beltrami of a boundary trace on the circle r = 1.

    Flux form of exp(-u/2) d_theta (exp(-u/2) d_theta b) with face-averaged
    coefficients; identically zero on one angle.
    """
    g = m.grid
    a = np.exp(-0.5 * m.u_b)
    a_plus = 0.5 * (a + roll_theta(a, -1))
    a_minus = roll_theta(a_plus, 1)
    flux = a_plus * (roll_theta(b, -1) - b) - a_minus * (b - roll_theta(b, 1))
    return a * flux / g.dtheta**2


def gauss_bonnet_residual(m: ConformalMetric) -> float:
    """|int R dv + 2 int kappa ds - 4 pi| for the disk (chi = 1)."""
    total = m.int_R + 2.0 * m.int_kappa
    return abs(total - 4.0 * np.pi * EULER_CHARACTERISTIC)
