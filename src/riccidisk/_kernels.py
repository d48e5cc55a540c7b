"""Hot numeric kernels for the flow inner loop, vectorized with numpy.

The flat flux Laplacian has one body, ``_neg_lap_inner``: it forms
-lap0 phi term by term on every ring but the last, the one ring that reads
the ghost, and returns that ring's inward flux and angular terms.
:func:`flux_laplacian` and :func:`curvature` finish the last ring from a
given ghost; every RKL2 stage calls :func:`curvature` with the ghost of
the frozen boundary flux, one flux-Laplacian pass.  The ghost closure
:func:`curvature_neumann_ghost` first solves the last ring for the ghost
that closes R_nu = 0; ``geometry.enforce_curvature_neumann`` calls it to
close initial data and the t = 0 state of a run.  The stencil
coefficients come precomputed as full planes (the columns of
:func:`flux_stencil`, copied once per grid), so no operation broadcasts
a column, and periodic neighbours in theta come from :func:`roll_theta`
(two slice copies; ``np.roll`` spends microseconds of Python per call).

:func:`kahan_sum` is a plain ``np.sum``, the pairwise sum that every
quadrature uses (``grid.integrate_volume``, ``grid.integrate_boundary``);
it is deterministic for one machine and numpy build.

Array conventions: scalar fields are float64 arrays of shape (n_r, n_theta),
of any strides; ghost rings and boundary fields have shape (n_theta,);
stencil coefficients are (n_r, n_theta) planes (``PolarGrid.stencil``),
or any arrays that broadcast to the field's shape.
"""

import numpy as np

# kept for tools that record the environment; there is no other backend
USING_NUMBA = False


def kahan_sum(values):
    """Pairwise ``np.sum`` of a float64 array, as a Python float.

    The name is kept only because ``perfbench/probe.py`` wraps
    ``_kernels.kahan_sum`` and ``elliptic.kahan_sum``, and
    ``perfbench/test_perfbench.py`` requires ``kernels.kahan_sum.calls > 0``;
    ``elliptic._solve_neumann`` therefore calls it through its module global.
    """
    return float(np.sum(values))


def roll_theta(a, shift):
    """``np.roll(a, shift, axis=-1)`` by two slice copies."""
    n = a.shape[-1]
    s = shift % n
    out = np.empty_like(a)
    out[..., s:] = a[..., :n - s]
    out[..., :s] = a[..., n - s:]
    return out


def flux_stencil(r, dr, dtheta):
    """Grid-constant coefficients of :func:`flux_laplacian`, as (n_r, 1) columns.

    Returns (r + dr/2, r - dr/2, r dr^2, r^2 dtheta^2): the outer and inner
    face radii (the inner one zero at the pole, which closes the inner
    edge) and the radial and angular denominators.  ``build_grid`` copies
    each column across theta into the (n_r, n_theta) planes the kernels
    take; an operation against a plane costs what a contiguous operation
    costs, one against a column several times that.
    """
    r_out = r + 0.5 * dr
    r_in = r - 0.5 * dr
    r_in[0] = 0.0  # no flux area at the pole
    r_dr2 = r * dr * dr
    r2_dtheta2 = (r**2) * dtheta * dtheta
    return tuple(c[:, None] for c in (r_out, r_in, r_dr2, r2_dtheta2))


def theta_term(phi, denom):
    """Periodic second difference in theta over ``denom``, on n_theta > 1.

    ``denom`` is r^2 dtheta^2 in the flat Laplacian and dtheta^2 in d_tt.
    """
    ang = roll_theta(phi, -1)
    ang -= 2.0 * phi
    ang += roll_theta(phi, 1)
    ang /= denom
    return ang


def _neg_lap_inner(phi, r_out, r_in, r_dr2, r2_dtheta2):
    """-lap0 phi, term by term, on rings 0 .. n-2, which never read the ghost.

    Returns ``(neg_lap, inward, ang)``: an (n_r, n_theta) array whose last
    ring ``_neg_lap_last`` fills once the ghost is known, and that ring's
    inward flux term r_in (phi[-1] - phi[-2]) and angular term (None when
    n_theta == 1).
    """
    n_r, n_t = phi.shape
    # jump[k] = phi[k] - phi[k - 1] across the face below ring k, zero below
    # the pole (where r_in is zero)
    jump = np.empty((n_r, n_t))
    jump[0] = phi[0]
    np.subtract(phi[1:], phi[:-1], out=jump[1:])
    neg_lap = np.empty((n_r, n_t))
    inner = np.multiply(r_out[:-1], jump[1:], out=neg_lap[:-1])  # outward flux
    inward = np.multiply(r_in, jump, out=jump)
    np.subtract(inward[:-1], inner, out=inner)
    inner /= r_dr2[:-1]
    ang = None
    if n_t > 1:
        ang = theta_term(phi, r2_dtheta2)
        inner -= ang[:-1]
        ang = ang[-1]
    return neg_lap, inward[-1], ang


def _neg_lap_last(phi, ghost, inward, ang, r_out, r_dr2):
    """-lap0 phi on the last ring, out of place (cheaper on a short row)."""
    last = (inward - r_out[-1] * (ghost - phi[-1])) / r_dr2[-1]
    return last if ang is None else last - ang


def flux_laplacian(phi, ghost, r_out, r_in, r_dr2, r2_dtheta2):
    """Flat polar Laplacian in conservative flux form.

    Zero flux area at the pole closes the inner edge; ``ghost`` supplies
    the value ring at r = 1 + dr/2.
    """
    neg_lap, inward, ang = _neg_lap_inner(phi, r_out, r_in, r_dr2, r2_dtheta2)
    neg_lap[-1] = _neg_lap_last(phi, ghost, inward, ang, r_out, r_dr2)
    # 0 - x is -x exactly, and keeps a zero Laplacian +0
    return np.subtract(0.0, neg_lap, out=neg_lap)


def curvature(u, ghost, r_out, r_in, r_dr2, r2_dtheta2):
    """Scalar curvature R = exp(-u) (-lap0 u) of the metric exp(u) g0."""
    neg_lap, inward, ang = _neg_lap_inner(u, r_out, r_in, r_dr2, r2_dtheta2)
    neg_lap[-1] = _neg_lap_last(u, ghost, inward, ang, r_out, r_dr2)
    R = np.exp(-u)
    R *= neg_lap
    return R


def curvature_neumann_ghost(u, r_out, r_in, r_dr2, r2_dtheta2):
    """Ghost ring of u enforcing the discrete curvature Neumann condition, and R.

    Returns ``(ghost, R)``, with R bit-identical to ``curvature(u, ghost,
    ...)``.  The outward derivative of R at r=1 is extrapolated from the
    last three interior rings; only R on the last ring depends on the
    ghost, linearly, so the closure is a direct per-node solve.
    """
    neg_lap, inward, ang = _neg_lap_inner(u, r_out, r_in, r_dr2, r2_dtheta2)
    R = np.exp(-u)
    R[:-1] *= neg_lap[:-1]
    r_target = 1.5 * R[-2] - 0.5 * R[-3]
    u_b = u[-1]
    # the radial part of -lap0 u that gives the last ring the target R
    neg_radial = r_target * np.exp(u_b)
    if ang is not None:
        neg_radial = neg_radial + ang
    # the outer face radius of the last ring is 1
    ghost = u_b - r_dr2[-1] * neg_radial + inward
    R[-1] = R[-1] * _neg_lap_last(u, ghost, inward, ang, r_out, r_dr2)
    return ghost, R
