"""Admissible initial metrics: constant-curvature caps and perturbations.

The cap family is u_c = log 4 - 2 log(1 + c r^2), the round metric of a
spherical cap pulled back to the unit disk:

    R = 2c,   kappa = (1 - c)/2,   v(M) = 4 pi / (1 + c).

c = 1 is the hemisphere (geodesic boundary), c < 1 has convex boundary.
Perturbations add eps * r^m (1 - r^2)^4 cos(m theta); the profile vanishes
to fourth order at r = 1, which makes the perturbed metric satisfy
d_r R(1) = 0 exactly in the continuum (both the conformal factor and the
flat Laplacian of the perturbation, together with their radial derivatives,
vanish on the boundary).  The discrete projection then only has to remove
an O(h^2) truncation residual, so the correction shrinks under refinement
instead of forcing a mesh-width boundary layer into R.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeError, CompatibilityError, PositivityError, UsageError
from .flow import enforce_curvature_neumann
from .geometry import ConformalMetric, make_metric, scalar_curvature
from .grid import (
    PolarGrid,
    radial_derivative_at_boundary,
    radial_derivative_at_boundary_interior,
)


@dataclass(frozen=True)
class CapParams:
    """Curvature scale c > 0; boundary is convex iff c <= 1."""

    c: float

    def __post_init__(self):
        if not self.c > 0.0:  # NaN fails too
            raise UsageError(f"cap parameter c must be positive, got {self.c}")


@dataclass(frozen=True)
class PerturbationParams:
    epsilon: float
    mode: int = 0

    def __post_init__(self):
        if self.mode < 0:
            raise UsageError(f"angular mode must be nonnegative, got {self.mode}")


def cap_u(c, r):
    """The cap profile u_c = log 4 - 2 log(1 + c r^2) at the radii ``r``."""
    return np.log(4.0) - 2.0 * np.log1p(c * r * r)


def spherical_cap(p: CapParams, grid: PolarGrid, normalize_volume=False) -> ConformalMetric:
    """Constant-curvature cap; ``normalize_volume`` rescales to v(M) = 4 pi.

    The rescaled metric (1 + c) g_c has R = 2c/(1 + c) and remains convex
    for c < 1; it is the admissible family for the Euler-characteristic
    form of the entropy, which requires initial volume 4 pi chi.
    """
    u = np.broadcast_to(cap_u(p.c, grid.r)[:, None], (grid.n_r, grid.n_theta)).copy()
    if normalize_volume:
        u += np.log(1.0 + p.c)
    return enforce_curvature_neumann(u, grid)


def perturbed_cap(base: CapParams, p: PerturbationParams, grid: PolarGrid) -> ConformalMetric:
    """Cap plus a compatibility-projected angular perturbation.

    Raises AmplitudeError (with the bisected maximal admissible amplitude)
    when the requested epsilon destroys curvature positivity, and
    PositivityError when the unperturbed cap has none on the grid.
    """
    if p.mode > grid.n_theta // 2:
        raise UsageError(f"angular mode {p.mode} is above n_theta // 2 = {grid.n_theta // 2}")

    def build(eps):
        r = grid.r[:, None]
        u = cap_u(base.c, grid.r)[:, None] + eps * r**p.mode * (1.0 - r * r) ** 4 * np.cos(
            p.mode * grid.theta
        )[None, :]
        m, _ = project_compatibility(make_metric(u, grid))
        return m

    m = build(p.epsilon)
    if float(m.R.min()) > 0.0:
        return m
    cap = m if p.epsilon == 0.0 else build(0.0)
    cap_min_r = float(cap.R.min())
    if not cap_min_r > 0.0:  # NaN fails too
        raise PositivityError(
            f"cap c = {base.c} has no positive curvature on this grid: min R = {cap_min_r:.3e}",
            min_r=cap_min_r,
        )

    # bisect for the largest admissible amplitude to report in the error
    lo, hi = 0.0, abs(p.epsilon)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        trial = build(mid if p.epsilon >= 0 else -mid)
        if float(trial.R.min()) > 0.0:
            lo = mid
        else:
            hi = mid
    raise AmplitudeError(
        f"epsilon = {p.epsilon} destroys curvature positivity; "
        f"max admissible |epsilon| is about {lo:.4g}",
        max_epsilon=lo,
    )


PROJECTION_TOL = 1.0e-8
PROJECTION_MAX_ITER = 20
_BAND_RINGS = 4


def _band_profile(grid):
    """Smooth quintic ramp supported on the last 4 radial rings.

    The profile and its first two derivatives vanish at the inner band
    edge, so the correction does not kink R there; its third derivative
    at r = 1 is what actually moves d_r R(1).
    """
    x = (grid.r - (1.0 - _BAND_RINGS * grid.dr)) / (_BAND_RINGS * grid.dr)
    x = np.clip(x, 0.0, 1.0)
    return x**3 * (10.0 - 15.0 * x + 6.0 * x * x)


def _smooth_residual(u, grid):
    """Ghost-independent one-sided d_r R at r = 1.

    Uses the rings n-2, n-3, n-4 of R, which do not touch the ghost ring,
    so this measures the incompatibility of the metric itself rather than
    of any particular closure.
    """
    R = scalar_curvature(make_metric(u, grid))
    return radial_derivative_at_boundary_interior(R, grid)


def _colours(n_t):
    """Columns of the ring in groups whose members lie at least 3 apart.

    j mod 3 colours the first 3 (n_t // 3) columns; the one or two columns
    left over take a colour each, so there are at most 5 groups.
    """
    m = 3 * (n_t // 3)
    return [np.arange(c, m, 3) for c in range(min(3, m))] + [
        np.array([j]) for j in range(m, n_t)
    ]


def _jacobian(base_u, res, profile, grid):
    """Forward-difference Jacobian of the residual w.r.t. psi, by column colouring.

    Residual j reads u only in the columns j-1, j, j+1, so columns at
    least 3 apart can share one bumped residual evaluation: each row of it
    sees a single bumped column, the same inputs as a bump of that column
    alone, so every entry is the double the column-by-column loop gives
    (and the rows outside the band are that loop's exact zeros).
    """
    n_t = grid.n_theta
    jac = np.zeros((n_t, n_t))
    h = 1.0e-7
    for cols in _colours(n_t):
        bump = np.zeros(n_t)
        bump[cols] = h
        diff = (_smooth_residual(base_u + bump[None, :] * profile, grid) - res) / h
        rows = (cols[:, None] + np.array([-1, 0, 1])) % n_t
        jac[rows, cols[:, None]] = diff[rows]
    return jac


def project_compatibility(m: ConformalMetric):
    """Minimal smooth correction making the metric discretely compatible.

    Adds psi(theta) * B(r) to u, with B a fixed smooth ramp on the band
    r in [1 - 4 dr, 1], and solves for psi by Newton so that the one-sided
    d_r R(1) of the smoothly extended metric vanishes below PROJECTION_TOL;
    the ghost ring is then re-enforced.  Returns (metric, correction norm);
    idempotent within tolerance.
    """
    grid = m.grid
    profile = _band_profile(grid)[:, None]
    psi = np.zeros(grid.n_theta)

    res = _smooth_residual(m.u, grid)
    scale = 1.0 + float(np.max(np.abs(res)))
    # the residual is computed through /dr^2 (curvature) and /dr (stencil),
    # so its roundoff floor scales like eps / dr^3
    floor = 20.0 * np.finfo(np.float64).eps / grid.dr**3
    tol = PROJECTION_TOL * scale + floor
    for _ in range(PROJECTION_MAX_ITER):
        res_max = float(np.max(np.abs(res)))
        if not np.isfinite(res_max):
            raise CompatibilityError(
                "compatibility residual is not finite", residual=res_max
            )
        if res_max <= tol:
            break
        jac = _jacobian(m.u + psi[None, :] * profile, res, profile, grid)
        if not np.isfinite(jac).all():
            raise CompatibilityError(
                "compatibility Jacobian is not finite", residual=res_max
            )
        try:
            psi = psi - np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            raise CompatibilityError(
                "compatibility Jacobian is singular", residual=res_max
            ) from None
        res = _smooth_residual(m.u + psi[None, :] * profile, grid)
    else:
        raise CompatibilityError(
            f"compatibility projection did not converge in {PROJECTION_MAX_ITER} "
            f"Newton iterations (residual {float(np.max(np.abs(res))):.3e})",
            residual=float(np.max(np.abs(res))),
        )

    u_new = m.u + psi[None, :] * profile
    projected = enforce_curvature_neumann(u_new, grid)
    correction = float(np.max(np.abs(psi)))
    return projected, correction


def compatibility_residual(m: ConformalMetric) -> float:
    """max over boundary nodes of |d_r R| at r = 1 (one-sided stencil)."""
    return float(np.max(np.abs(radial_derivative_at_boundary(m.R, m.grid))))
