"""Admissible initial metrics: constant-curvature caps and perturbations.

The cap family is u_c = log 4 - 2 log(1 + c r^2), the round metric of a
spherical cap pulled back to the unit disk:

    R = 2c,   kappa = (1 - c)/2,   v(M) = 4 pi / (1 + c).

c = 1 is the hemisphere (geodesic boundary), c < 1 has convex boundary.
Perturbations add eps * r^m (1 - r^2)^8 cos(m theta); the profile vanishes
to eighth order at r = 1.  Near the boundary R - 2c ~ (1 - r^2)^6, so
lap^j R ~ (1 - r^2)^(6 - 2j), and R_nu, (lap R)_nu and (lap^2 R)_nu vanish
at r = 1 in the continuum: the data satisfy the curvature Neumann
condition and the compatibility conditions that the flow then keeps, such
as (lap R)_nu = 0 for t > 0, which ``verify.check_normal_lemmas`` tests.
On the grid, what is left is a truncation residual: the one-sided d_r R(1)
of the interior rings, which no ghost touches, falls at order >= 3 under
refinement.  The curvature-Neumann closure alone therefore closes the data:
it sets the discrete d_r R(1) to 0 through the ghost ring without moving u,
and so moves only the outermost ring of R, by about dr times that residual,
instead of forcing a mesh-width boundary layer into R.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeError, DomainError, PositivityError, UsageError
from .geometry import ConformalMetric, enforce_curvature_neumann
from .grid import PolarGrid


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
        if not np.isfinite(self.epsilon):
            raise UsageError(f"perturbation amplitude must be finite, got {self.epsilon}")
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
    """Cap plus the angular perturbation eps r^m (1 - r^2)^8 cos(m theta).

    The data are closed by :func:`geometry.enforce_curvature_neumann`
    only; the profile makes them compatible (see the module docstring).  At
    epsilon = 0 the result is :func:`spherical_cap`'s, bit for bit.

    Raises AmplitudeError (with the bisected maximal admissible amplitude)
    when the requested epsilon destroys curvature positivity, and
    PositivityError when the unperturbed cap has none on the grid; data
    whose u or ghost ring overflows count as having no positive curvature.
    """
    if p.mode > grid.n_theta // 2:
        raise UsageError(f"angular mode {p.mode} is above n_theta // 2 = {grid.n_theta // 2}")

    def build(eps):
        r = grid.r[:, None]
        with np.errstate(all="ignore"):  # an overflow ends as a non-finite u or ghost
            u = cap_u(base.c, grid.r)[:, None] + eps * r**p.mode * (1.0 - r * r) ** 8 * np.cos(
                p.mode * grid.theta
            )[None, :]
            try:
                m = enforce_curvature_neumann(u, grid)
            except DomainError:
                return None, float("nan")
        return m, float(m.R.min())

    m, r_min = build(p.epsilon)
    if r_min > 0.0:
        return m
    cap_min_r = r_min if p.epsilon == 0.0 else build(0.0)[1]
    if not cap_min_r > 0.0:  # NaN fails too
        raise PositivityError(
            f"cap c = {base.c} has no positive curvature on this grid: min R = {cap_min_r:.3e}",
            min_r=cap_min_r,
        )

    # bisect the bit patterns of the doubles in [0, |epsilon|], which are
    # ordered as the doubles: two adjacent doubles within 64 steps
    lo, hi = 0, int(np.float64(abs(p.epsilon)).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if build(np.copysign(np.int64(mid).view(np.float64), p.epsilon))[1] > 0.0:
            lo = mid
        else:
            hi = mid
    bound = float(np.int64(lo).view(np.float64))
    raise AmplitudeError(
        f"epsilon = {p.epsilon} destroys curvature positivity; "
        f"max admissible |epsilon| is about {bound:.4g}",
        max_epsilon=bound,
    )
