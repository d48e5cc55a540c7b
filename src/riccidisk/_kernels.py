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

:func:`kahan_sum` is the exactly rounded sum, for the one reduction whose
last bits are read: the Poisson compatibility total, a reported
rounding-level residual.  It does not depend on summation order.  A large
array is summed exactly in numpy, per binary exponent, and rounded once;
``math.fsum`` handles the small and the exceptional arrays.  The
quadratures (``grid.integrate_volume``, ``grid.integrate_boundary``) use
``np.sum``, which is deterministic for one machine and numpy build.

Array conventions: scalar fields are float64 arrays of shape (n_r, n_theta),
of any strides; ghost rings and boundary fields have shape (n_theta,);
stencil coefficients are (n_r, n_theta) planes (``PolarGrid.stencil``),
or any arrays that broadcast to the field's shape.
"""

import math

import numpy as np

# kept for tools that record the environment; there is no other backend
USING_NUMBA = False


# below this many terms math.fsum is the faster exact sum
_FSUM_BELOW = 1000
# bincount adds the 26-bit halves of the significands exactly while the
# partial sums stay below 2^53, that is for fewer than 2^26 terms
_BUCKET_MAX_TERMS = 2**26
# m + _SPLIT - _SPLIT rounds a significand m in (-1, 1) to a multiple of 2^-26
_SPLIT = 1.5 * 2.0**26
# terms per block: every temporary of a block stays under glibc's 128 KiB
# mmap threshold, so a large sum reuses heap memory instead of faulting
# fresh pages in on every call
_BLOCK = 8192
# np.frexp exponents of doubles (subnormals, zero, inf and NaN included)
_EXP_LO, _EXP_HI = -1073, 1024


def kahan_sum(values):
    """Exactly rounded sum of a 1-d float64 array, bit-identical to ``math.fsum``.

    Exact rounding is at least as strong as compensated summation and does
    not depend on the order of the terms.  Each term is m 2^e with a 53-bit
    significand m (``np.frexp``); the two 26-bit halves of m are summed
    exactly per exponent e with ``np.bincount``, block by block, the buckets
    are combined into one Python integer, and that integer is rounded once
    by the correctly rounded ``int / int``.  No Python list of the terms is
    built.

    ``math.fsum`` itself sums the arrays where it is faster (fewer than
    ``_FSUM_BELOW`` terms) and those where its result is not simply the
    rounded exact sum: NaN or infinite terms (NaN, inf, or ``ValueError``
    on inf + -inf), terms so large that ``n 2^max(e) >= 2^1023`` (fsum may
    raise ``OverflowError`` on them although the exact sum is finite) and an
    exact sum of zero (fsum decides its sign).
    """
    # bucketed, not math.fsum alone: on a shared 2-CPU VM fsum took 418 us against
    # 72 us at 8,192 terms, about 6.6 ms more per cap-2d-records run
    x = np.ascontiguousarray(values, dtype=np.float64)
    n = x.size
    if n < _FSUM_BELOW or n >= _BUCKET_MAX_TERMS:
        return math.fsum(x.tolist())
    # per exponent e, at column e - _EXP_LO, the bucket sums of the high and
    # the low halves; adding a block's buckets to them is exact
    sums = np.zeros((2, _EXP_HI - _EXP_LO + 1))
    e_min, e_max = _EXP_HI, _EXP_LO
    for start in range(0, n, _BLOCK):
        mant, exp = np.frexp(x[start:start + _BLOCK])
        lo_e, hi_e = int(exp.min()), int(exp.max())
        e_min, e_max = min(e_min, lo_e), max(e_max, hi_e)
        bucket = np.subtract(exp, lo_e, dtype=np.intp)
        cols = slice(lo_e - _EXP_LO, hi_e - _EXP_LO + 1)
        half = mant + _SPLIT
        half -= _SPLIT
        hi_sum = np.bincount(bucket, weights=half)
        if not np.isfinite(hi_sum).all():  # a NaN or infinite term
            return math.fsum(x.tolist())
        sums[0, cols] += hi_sum
        mant -= half
        sums[1, cols] += np.bincount(bucket, weights=mant)
    # |sum| <= n 2^e_max < 2^(e_max + bit_length(n)) <= 2^1023 < DBL_MAX
    if e_max + n.bit_length() > 1023:
        return math.fsum(x.tolist())
    sums = sums[:, e_min - _EXP_LO:e_max - _EXP_LO + 1]
    # bucket sums, as integer multiples of 2^(e - 53)
    sums *= 2.0**53
    total = 0
    for h, lo in zip(*sums[:, ::-1].tolist()):
        total = (total << 1) + int(h) + int(lo)
    if not total:
        return math.fsum(x.tolist())
    shift = e_min - 53
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


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
