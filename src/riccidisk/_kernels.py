"""Hot numeric kernels for the flow inner loop, vectorized with numpy.

Every RK4 stage calls the ghost closure and then the curvature, so both
are written to cost their arithmetic and little else: the grid-constant
stencil coefficients come precomputed from :func:`flux_stencil` (built
once per grid), periodic neighbours in theta come from :func:`roll_theta`
(two slice copies; ``np.roll`` spends microseconds of Python per call
whatever the array size), and the closure evaluates the curvature of its
two interior rings as one block.

Reductions are exactly rounded (:func:`kahan_sum`), so they do not depend
on summation order and results are bit-reproducible across runs.  A large
array is summed exactly in numpy, per binary exponent, and rounded once;
``math.fsum`` handles the small and the exceptional arrays.

Array conventions: scalar fields are float64 arrays of shape (n_r, n_theta),
of any strides; ghost rings and boundary fields have shape (n_theta,);
stencil coefficients are (n_r, 1) columns.
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


def kahan_sum(values):
    """Exactly rounded sum of a 1-d float64 array, bit-identical to ``math.fsum``.

    Exact rounding is at least as strong as compensated summation and does
    not depend on the order of the terms.  Each term is m 2^e with a 53-bit
    significand m (``np.frexp``); the two 26-bit halves of m are summed
    exactly per exponent e with ``np.bincount``, the buckets are combined
    into one Python integer, and that integer is rounded once by the
    correctly rounded ``int / int``.  No Python list of the terms is built.

    ``math.fsum`` itself sums the arrays where it is faster (fewer than
    ``_FSUM_BELOW`` terms) and those where its result is not simply the
    rounded exact sum: NaN or infinite terms (NaN, inf, or ``ValueError``
    on inf + -inf), terms so large that ``n 2^max(e) >= 2^1023`` (fsum may
    raise ``OverflowError`` on them although the exact sum is finite) and an
    exact sum of zero (fsum decides its sign).
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    n = x.size
    if n < _FSUM_BELOW or n >= _BUCKET_MAX_TERMS:
        return math.fsum(x.tolist())
    mant, exp = np.frexp(x)
    e_min, e_max = int(exp.min()), int(exp.max())
    # |sum| <= n 2^e_max < 2^(e_max + bit_length(n)) <= 2^1023 < DBL_MAX
    if e_max + n.bit_length() > 1023:
        return math.fsum(x.tolist())
    hi = mant + _SPLIT
    hi -= _SPLIT
    bucket = np.subtract(exp, e_min, dtype=np.intp)
    # bucket sums, as integer multiples of 2^(e_min + bucket - 53)
    hi_sum = np.bincount(bucket, weights=hi)
    if not np.isfinite(hi_sum).all():  # a NaN or infinite term
        return math.fsum(x.tolist())
    hi_sum *= 2.0**53
    mant -= hi
    lo_sum = np.bincount(bucket, weights=mant)
    lo_sum *= 2.0**53
    total = 0
    for h, lo in zip(reversed(hi_sum.tolist()), reversed(lo_sum.tolist())):
        total = (total << 1) + int(h) + int(lo)
    if not total:
        return math.fsum(x.tolist())
    shift = e_min - 53
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def roll_theta(a, shift, out=None):
    """``np.roll(a, shift, axis=-1)`` by two slice copies, into ``out`` if given."""
    n = a.shape[-1]
    s = shift % n
    if out is None:
        out = np.empty_like(a)
    out[..., s:] = a[..., :n - s]
    out[..., :s] = a[..., n - s:]
    return out


def flux_stencil(r, dr, dtheta):
    """Grid-constant coefficients of :func:`flux_laplacian`, as (n_r, 1) columns.

    Returns (r + dr/2, r - dr/2, r dr^2, r^2 dtheta^2): the outer and inner
    face radii (the inner one zero at the pole, which closes the inner
    edge) and the radial and angular denominators.
    """
    r_out = r + 0.5 * dr
    r_in = r - 0.5 * dr
    r_in[0] = 0.0  # no flux area at the pole
    r_dr2 = r * dr * dr
    r2_dtheta2 = (r**2) * dtheta * dtheta
    return tuple(c[:, None] for c in (r_out, r_in, r_dr2, r2_dtheta2))


def theta_term(phi, denom, out=None):
    """Periodic second difference in theta over ``denom``, on n_theta > 1.

    ``denom`` is r^2 dtheta^2 in the flat Laplacian and dtheta^2 in d_tt.
    """
    ang = roll_theta(phi, -1, out)
    ang -= 2.0 * phi
    ang += roll_theta(phi, 1)
    ang /= denom
    return ang


def flux_laplacian(phi, ghost, r_out, r_in, r_dr2, r2_dtheta2):
    """Flat polar Laplacian in conservative flux form.

    The coefficients are the columns of :func:`flux_stencil`.  Zero flux
    area at the pole closes the inner edge; ``ghost`` supplies the value
    ring at r = 1 + dr/2.
    """
    n_r, n_t = phi.shape
    # jump[k] = phi[k] - phi[k - 1] across the face below ring k, with the
    # ghost as ring n_r and zero below the pole (where r_in is zero)
    jump = np.empty((n_r + 1, n_t))
    jump[0] = phi[0]
    np.subtract(phi[1:], phi[:-1], out=jump[1:n_r])
    np.subtract(ghost, phi[-1], out=jump[n_r])
    lap = r_out * jump[1:]
    # jump is then scratch: with fewer live temporaries, a large grid does
    # not hand its heap back to the OS and fault it in again on every call
    lap -= np.multiply(r_in, jump[:-1], out=jump[:-1])
    lap /= r_dr2
    if n_t > 1:
        lap += theta_term(phi, r2_dtheta2, out=jump[1:])
    return lap


def curvature(u, ghost, r_out, r_in, r_dr2, r2_dtheta2):
    """Scalar curvature R = -exp(-u) * lap0(u) of the metric exp(u) g0."""
    lap = flux_laplacian(u, ghost, r_out, r_in, r_dr2, r2_dtheta2)
    R = np.exp(-u)
    np.negative(R, out=R)  # in place, like the temporaries of flux_laplacian
    R *= lap
    return R


def curvature_neumann_ghost(u, r_out, r_in, r_dr2, r2_dtheta2):
    """Ghost ring of u enforcing the discrete curvature Neumann condition.

    The outward derivative of R at r=1 is extrapolated from the last three
    interior rings; only R on the outermost ring depends on the ghost, and
    it does so linearly, so the closure is a direct per-node solve.  R on
    rings n-3 and n-2 needs no ghost and is evaluated as one block.
    """
    n_r, n_t = u.shape
    rows = slice(n_r - 3, n_r - 1)
    top = u[n_r - 4:]                # rings n-4 .. n-1
    jump = top[1:] - top[:-1]        # across the faces below rings n-3 .. n-1
    lap = r_out[rows] * jump[1:]
    lap -= r_in[rows] * jump[:-1]
    lap /= r_dr2[rows]
    if n_t > 1:
        ang = theta_term(top[1:], r2_dtheta2[n_r - 3:])
        lap += ang[:2]
    R = -np.exp(-top[1:3]) * lap
    r_target = 1.5 * R[1] - 0.5 * R[0]

    lap_target = -r_target * np.exp(u[-1])
    if n_t > 1:
        lap_target -= ang[2]
    # the outer face radius of the last ring is 1
    return u[-1] + r_dr2[-1, 0] * lap_target + r_in[-1, 0] * jump[2]
