"""Polar grid over the unit disk and flat-metric discrete operators.

The radial direction is cell-centered, r_i = (i + 1/2) dr with dr = 1/n_r,
so no node sits on the pole; the angular direction is uniform periodic,
theta_j = j dtheta with dtheta = 2 pi / n_theta.  ``n_theta == 1`` selects
the rotationally symmetric fast path (all theta derivatives vanish and the
angular quadrature weight is 2 pi).

Scalar fields are float64 arrays of shape (n_r, n_theta), boundary fields
of shape (n_theta,).  Stencils are second-order centered; values or
derivatives at the physical boundary r = 1 come from one-sided quadratic
extrapolation through the last three rings.  Operators that reach past
r = 1 take the values at r = 1 + dr/2 as a ghost ring (array, default
extrapolated).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import roll_theta
from .errors import UsageError

# quadratic extrapolation through the last three rings, evaluated at r = 1
_BVAL_W = (1.875, -1.25, 0.375)
# ... and its radial derivative at r = 1 (divide by dr)
_BDER_W = (2.0, -3.0, 1.0)
# ... evaluated at the ghost radius r = 1 + dr/2
_GHOST_W = (3.0, -3.0, 1.0)


@dataclass(frozen=True)
class GridSpec:
    n_r: int
    n_theta: int = 1

    def __post_init__(self):
        if self.n_r < 8:
            raise UsageError(f"n_r must be >= 8, got {self.n_r}")
        if self.n_theta != 1 and (self.n_theta < 8 or self.n_theta % 2 != 0):
            raise UsageError(
                f"n_theta must be 1 or an even integer >= 8, got {self.n_theta}"
            )


# eq=False: a grid compares and hashes by identity, so it keys elliptic._operator's cache
@dataclass(frozen=True, eq=False)
class PolarGrid:
    """Node coordinates and quadrature weights for the flat unit disk."""

    n_r: int
    n_theta: int
    dr: float
    dtheta: float
    r: np.ndarray        # (n_r,)
    theta: np.ndarray    # (n_theta,)
    w_vol: np.ndarray    # (n_r, n_theta), flat measure r dr dtheta
    # flux-Laplacian coefficients: the columns of _kernels.flux_stencil as
    # C-contiguous (n_r, n_theta) planes, so no stage broadcasts a column
    stencil: tuple

    @property
    def spec(self):
        return GridSpec(self.n_r, self.n_theta)


def build_grid(spec: GridSpec) -> PolarGrid:
    n_r, n_t = spec.n_r, spec.n_theta
    try:
        dr = 1.0 / n_r
        dtheta = 2.0 * np.pi / n_t
        r = (np.arange(n_r) + 0.5) * dr
        theta = np.arange(n_t) * dtheta
        w_vol = np.broadcast_to((r * dr * dtheta)[:, None], (n_r, n_t)).copy()
        stencil = tuple(
            np.broadcast_to(c, (n_r, n_t)).copy()
            for c in _kernels.flux_stencil(r, dr, dtheta)
        )
    # ValueError: beyond numpy's size limits; OverflowError: beyond a float
    except (MemoryError, ValueError, OverflowError):
        raise UsageError(
            f"grid n_r x n_theta = {n_r} x {n_t} does not fit in memory "
            f"({n_r * n_t * 8:,} bytes per field)"
        ) from None
    # every metric on the grid shares these: a write into one must fail
    for a in (r, theta, w_vol, *stencil):
        a.flags.writeable = False
    return PolarGrid(n_r, n_t, dr, dtheta, r, theta, w_vol, stencil)


# ---------------------------------------------------------------------------
# ghost rings

def ghost_extrapolate(phi):
    """Quadratic extrapolation of the field to the ghost radius 1 + dr/2."""
    a, b, c = _GHOST_W
    return a * phi[-1] + b * phi[-2] + c * phi[-3]


def ghost_mirror(phi):
    """Ghost ring for a zero-flux (Neumann) closure at the r = 1 face."""
    return phi[-1].copy()


def _resolve_ghost(phi, ghost):
    """The ghost ring itself, or the extrapolated ring when ``ghost`` is None."""
    if ghost is None:
        return ghost_extrapolate(phi)
    return np.asarray(ghost, dtype=np.float64)


def _pole_ring(phi, grid):
    """Values of the field at radius -dr/2, i.e. across the pole."""
    if grid.n_theta == 1:
        return phi[0]
    return roll_theta(phi[0], grid.n_theta // 2)


# ---------------------------------------------------------------------------
# differential operators (flat base metric)

def laplacian0(phi, grid, ghost=None):
    """Second-order flat Laplacian d_rr + r^-1 d_r + r^-2 d_tt in flux form."""
    g = _resolve_ghost(phi, ghost)
    return _kernels.flux_laplacian(phi, g, *grid.stencil)


def gradient0(phi, grid, ghost=None):
    """The flat coordinate derivatives (d_r phi, d_theta phi)."""
    return d_r(phi, grid, ghost), d_theta(phi, grid)


def d_r(phi, grid, ghost=None):
    """Centered radial derivative; crosses the pole on the innermost ring."""
    g = _resolve_ghost(phi, ghost)
    out = np.empty_like(phi)
    np.subtract(phi[2:], phi[:-2], out=out[1:-1])
    np.subtract(phi[1], _pole_ring(phi, grid), out=out[0])
    np.subtract(g, phi[-2], out=out[-1])
    out /= 2.0 * grid.dr
    return out


def d_theta(phi, grid):
    """Centered periodic angular derivative (zero on the symmetric path).

    Acts on the last axis, so it also differentiates a boundary field.
    """
    if grid.n_theta == 1:
        return np.zeros_like(phi)
    out = roll_theta(phi, -1)
    out -= roll_theta(phi, 1)
    out /= 2.0 * grid.dtheta
    return out


def d2_r(phi, grid, ghost=None):
    """Centered second radial difference, (up - 2 phi + down) / dr^2."""
    g = _resolve_ghost(phi, ghost)
    out = np.multiply(phi, -2.0)
    out[1:-1] += phi[2:]
    out[1:-1] += phi[:-2]
    out[0] += phi[1]
    out[0] += _pole_ring(phi, grid)
    out[-1] += g
    out[-1] += phi[-2]
    out /= grid.dr**2
    return out


def d2_theta(phi, grid):
    if grid.n_theta == 1:
        return np.zeros_like(phi)
    return _kernels.theta_term(phi, grid.dtheta**2)


# ---------------------------------------------------------------------------
# boundary extraction

def boundary_value(phi):
    """Field extrapolated to r = 1, one value per boundary node."""
    a, b, c = _BVAL_W
    return a * phi[-1] + b * phi[-2] + c * phi[-3]


def radial_derivative_at_boundary(phi, grid):
    """One-sided second-order d_r phi at r = 1."""
    a, b, c = _BDER_W
    return (a * phi[-1] + b * phi[-2] + c * phi[-3]) / grid.dr


def radial_derivative_at_boundary_interior(phi, grid):
    """One-sided d_r phi at r = 1 from the rings n-2, n-3, n-4 only.

    Skips the outermost ring, whose value may carry a ghost-closure error
    spike that the 1/dr amplification of the default stencil would promote
    to first order; on smooth data this variant stays second order.
    """
    return (3.0 * phi[-2] - 5.0 * phi[-3] + 2.0 * phi[-4]) / grid.dr


# ---------------------------------------------------------------------------
# quadrature

def integrate_volume(phi, metric):
    """Integral of a scalar field against dv_g = exp(u) r dr dtheta.

    Summed by numpy's pairwise ``np.sum``, not exactly rounded: no reported
    pass/fail or rounding-level residual reads the last bits of a quadrature.
    The sum of n terms is within n eps sum|terms| of the exact one, and it
    is deterministic for one machine and numpy build.
    """
    return float(np.sum(phi * metric.dv))


def integrate_boundary(psi, metric):
    """Integral of a boundary field against ds = exp(u/2) dtheta at r = 1.

    Summed like :func:`integrate_volume`.
    """
    return float(np.sum(psi * np.exp(0.5 * metric.u_b) * metric.grid.dtheta))
