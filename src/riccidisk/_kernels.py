"""Hot numeric kernels for the flow inner loop, vectorized with numpy.

Reductions go through ``math.fsum``, which is exactly rounded and so
independent of summation order; results are bit-reproducible across runs.

Array conventions: scalar fields are C-contiguous float64 arrays of shape
(n_r, n_theta); ghost rings and boundary fields have shape (n_theta,).
"""

import math

import numpy as np

# kept for tools that record the environment; there is no other backend
USING_NUMBA = False


def kahan_sum(values):
    """Exactly rounded sum of a 1-d float64 array (``math.fsum``).

    Exact rounding is at least as strong as compensated summation and does
    not depend on the order of the terms.
    """
    return math.fsum(np.ascontiguousarray(values, dtype=np.float64))


def flux_laplacian(phi, ghost, r, dr, dtheta):
    """Flat polar Laplacian in conservative flux form.

    Zero flux area at the pole closes the inner edge; ``ghost`` supplies
    the value ring at r = 1 + dr/2.
    """
    n_r, n_t = phi.shape
    rp = r + 0.5 * dr
    rm = r - 0.5 * dr
    rm[0] = 0.0  # no flux area at the pole

    up = np.empty_like(phi)
    up[:-1] = phi[1:]
    up[-1] = ghost
    down = np.zeros_like(phi)
    down[1:] = phi[:-1]

    lap = (rp[:, None] * (up - phi) - rm[:, None] * (phi - down)) / (
        r[:, None] * dr * dr
    )
    if n_t > 1:
        lap = lap + (np.roll(phi, -1, axis=1) - 2.0 * phi + np.roll(phi, 1, axis=1)) / (
            (r[:, None] ** 2) * dtheta * dtheta
        )
    return lap


def curvature(u, ghost, r, dr, dtheta):
    """Scalar curvature R = -exp(-u) * lap0(u) of the metric exp(u) g0."""
    return -np.exp(-u) * flux_laplacian(u, ghost, r, dr, dtheta)


def _laplacian_row(phi, i, r, dr, dtheta):
    """Flux-form Laplacian restricted to interior row i (no ghost needed).

    The ghost closure needs only two rows; slicing them out of a full
    ``flux_laplacian`` would give the same bytes at a higher cost per step.
    """
    n_r, n_t = phi.shape
    rp = r[i] + 0.5 * dr
    rm = r[i] - 0.5 * dr if i > 0 else 0.0
    down = phi[i - 1] if i > 0 else 0.0
    row = (rp * (phi[i + 1] - phi[i]) - rm * (phi[i] - down)) / (r[i] * dr * dr)
    if n_t > 1:
        row = row + (np.roll(phi[i], -1) - 2.0 * phi[i] + np.roll(phi[i], 1)) / (
            r[i] ** 2 * dtheta * dtheta
        )
    return row


def curvature_neumann_ghost(u, r, dr, dtheta):
    """Ghost ring of u enforcing the discrete curvature Neumann condition.

    The outward derivative of R at r=1 is extrapolated from the last three
    interior rings; only R on the outermost ring depends on the ghost, and
    it does so linearly, so the closure is a direct per-node solve.
    """
    n_r, n_t = u.shape
    r_m2 = -np.exp(-u[n_r - 2]) * _laplacian_row(u, n_r - 2, r, dr, dtheta)
    r_m3 = -np.exp(-u[n_r - 3]) * _laplacian_row(u, n_r - 3, r, dr, dtheta)
    r_target = 1.5 * r_m2 - 0.5 * r_m3

    i = n_r - 1
    lap_target = -r_target * np.exp(u[i])
    rm = r[i] - 0.5 * dr
    ang = 0.0
    if n_t > 1:
        ang = (np.roll(u[i], -1) - 2.0 * u[i] + np.roll(u[i], 1)) / (
            r[i] ** 2 * dtheta * dtheta
        )
    # rp = 1 at the r=1 cell face
    return u[i] + r[i] * dr * dr * (lap_target - ang) + rm * (u[i] - u[i - 1])
