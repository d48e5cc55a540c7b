import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccidisk import _kernels as K
from riccidisk.grid import GridSpec, build_grid
from riccidisk.initial_data import CapParams, PerturbationParams, perturbed_cap, spherical_cap


# Reference kernels: the np.roll formulation the fast kernels replace, kept
# as the oracle they must reproduce bit for bit.  The closure squares the
# radius with the scalar power r[i] ** 2 (libm pow) where the fast kernels
# use r * r; the two round differently at a few rare n_r (the first is 377),
# all outside the range the property covers.

def _ref_flux_laplacian(phi, ghost, r, dr, dtheta):
    n_r, n_t = phi.shape
    rp = r + 0.5 * dr
    rm = r - 0.5 * dr
    rm[0] = 0.0

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


def _ref_curvature(u, ghost, r, dr, dtheta):
    return -np.exp(-u) * _ref_flux_laplacian(u, ghost, r, dr, dtheta)


def _ref_laplacian_row(phi, i, r, dr, dtheta):
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


def _ref_curvature_neumann_ghost(u, r, dr, dtheta):
    n_r, n_t = u.shape
    r_m2 = -np.exp(-u[n_r - 2]) * _ref_laplacian_row(u, n_r - 2, r, dr, dtheta)
    r_m3 = -np.exp(-u[n_r - 3]) * _ref_laplacian_row(u, n_r - 3, r, dr, dtheta)
    r_target = 1.5 * r_m2 - 0.5 * r_m3

    i = n_r - 1
    lap_target = -r_target * np.exp(u[i])
    rm = r[i] - 0.5 * dr
    ang = 0.0
    if n_t > 1:
        ang = (np.roll(u[i], -1) - 2.0 * u[i] + np.roll(u[i], 1)) / (
            r[i] ** 2 * dtheta * dtheta
        )
    return u[i] + r[i] * dr * dr * (lap_target - ang) + rm * (u[i] - u[i - 1])


def _ref_column_closure(u, r_out, r_in, r_dr2, r2_dtheta2):
    """The closure on (n_r, 1) stencil columns, with R negated in a pass of
    its own: the form the plane kernel replaces, kept as its oracle."""
    n_r, n_t = u.shape
    jump = np.empty((n_r, n_t))
    jump[0] = u[0]
    np.subtract(u[1:], u[:-1], out=jump[1:])
    inner = r_out[:-1] * jump[1:]
    inner -= np.multiply(r_in, jump, out=jump)[:-1]
    inner /= r_dr2[:-1]
    if n_t > 1:
        ang = K.theta_term(u, r2_dtheta2)
        inner += ang[:-1]
    R = np.exp(-u)
    np.negative(R, out=R)
    R[:-1] *= inner
    r_target = 1.5 * R[-2] - 0.5 * R[-3]

    lap_target = -r_target * np.exp(u[-1])
    if n_t > 1:
        lap_target -= ang[-1]
    ghost = u[-1] + r_dr2[-1, 0] * lap_target + jump[-1]
    last = r_out[-1] * (ghost - u[-1])
    last -= jump[-1]
    last /= r_dr2[-1]
    if n_t > 1:
        last += ang[-1]
    R[-1] *= last
    return ghost, R


def _sample(seed=0, n_r=48, n_theta=24):
    rng = np.random.default_rng(seed)
    g = build_grid(GridSpec(n_r, n_theta))
    u = 0.1 * rng.standard_normal((n_r, n_theta))
    ghost = 0.1 * rng.standard_normal(n_theta)
    return g, np.ascontiguousarray(u), np.ascontiguousarray(ghost)


def _sum_outcome(fn, values):
    """The sum as (value, sign bit), or the type of the error it raised."""
    try:
        s = fn(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return s, math.copysign(1.0, s)


def _fsum(values):
    return math.fsum(np.asarray(values).tolist())


def test_kahan_matches_fsum():
    rng = np.random.default_rng(1)
    values = rng.standard_normal(10_001) * 10.0 ** rng.integers(-8, 8, 10_001)
    assert K.kahan_sum(values) == math.fsum(values)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.one_of(st.integers(1, 40_000), st.integers(900, 1100), st.just(1)),
    e_lo=st.integers(-1074, 1023),
    e_span=st.integers(0, 2100),
    zeros=st.sampled_from([0.0, 0.05, 1.0]),
    cancel=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kahan_is_fsum_bit_for_bit(n, e_lo, e_span, zeros, cancel, seed):
    # random signs and significands with binary exponents in
    # [e_lo, e_lo + e_span] clipped to the double range (subnormals
    # included), a share of +-0.0, and optionally the array followed by its
    # own negation in shuffled order, so that the exact sum is zero
    rng = np.random.default_rng(seed)
    exps = rng.integers(e_lo, min(e_lo + e_span, 1023) + 1, n)
    values = np.ldexp(rng.uniform(-1.0, 1.0, n), exps)
    values[rng.random(n) < zeros] = 0.0
    values[rng.random(n) < 0.5 * zeros] = -0.0
    if cancel and n > 1:
        values = np.concatenate([values[: n // 2], -values[: n // 2]])
        rng.shuffle(values)
    assert _sum_outcome(K.kahan_sum, values) == _sum_outcome(_fsum, values)


@pytest.mark.parametrize("n", [5, 5000])
@pytest.mark.parametrize(
    "special, fsum_outcome",
    [
        ("nan", None),
        ("inf", (np.inf, 1.0)),
        ("-inf", (-np.inf, -1.0)),
        ("inf-inf", ValueError),
        ("near-max", OverflowError),
    ],
)
def test_kahan_matches_fsum_on_exceptional_input(n, special, fsum_outcome):
    values = np.random.default_rng(4).standard_normal(n)
    if special == "inf-inf":
        values[1], values[-2] = np.inf, -np.inf
    elif special == "near-max":
        # finite terms with a finite exact sum on which fsum's running sum
        # overflows: it raises "intermediate overflow"
        values[:] = 0.0
        values[:3] = (1.5e308, 1.5e308, -1.5e308)
    else:
        values[n // 2] = float(special)
    got = _sum_outcome(K.kahan_sum, values)
    if special == "nan":
        assert math.isnan(_fsum(values)) and math.isnan(got[0])
    else:
        assert _sum_outcome(_fsum, values) == fsum_outcome
        assert got == fsum_outcome


@pytest.mark.parametrize("kind", ["cancelling", "heavy_tailed"])
def test_kahan_is_exactly_fsum(kind):
    if kind == "cancelling":
        values = np.array([1e100, 1.0, -1e100])
    else:
        rng = np.random.default_rng(3)
        values = rng.standard_cauchy(8192) * 10.0 ** rng.integers(-150, 150, 8192)
    assert K.kahan_sum(values) == math.fsum(values)


def test_kahan_is_deterministic():
    rng = np.random.default_rng(2)
    values = rng.standard_normal(5000)
    assert K.kahan_sum(values) == K.kahan_sum(values)


@pytest.mark.parametrize("n_theta", [1, 24])
def test_ghost_closure_extrapolates_curvature(n_theta):
    # the closure makes R on the outermost ring the linear extrapolation
    # 1.5 R[-2] - 0.5 R[-3], i.e. a zero one-sided d_r R at the boundary
    g, u, _ = _sample(seed=6, n_theta=n_theta)
    ghost, R = K.curvature_neumann_ghost(u, *g.stencil)
    np.testing.assert_allclose(R[-1], 1.5 * R[-2] - 0.5 * R[-3], rtol=1e-12, atol=0.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n_r=st.integers(8, 300),
    n_theta=st.one_of(st.just(1), st.integers(4, 64).map(lambda k: 2 * k)),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_match_roll_oracle(n_r, n_theta, seed):
    g = build_grid(GridSpec(n_r, n_theta))
    rng = np.random.default_rng(seed)
    u = rng.uniform(1e-3, 1.0, (n_r, n_theta))
    ghost = rng.uniform(1e-3, 1.0, n_theta)
    ref = (g.r, g.dr, g.dtheta)

    assert np.array_equal(
        K.flux_laplacian(u, ghost, *g.stencil), _ref_flux_laplacian(u, ghost, *ref)
    )
    assert np.array_equal(K.curvature(u, ghost, *g.stencil), _ref_curvature(u, ghost, *ref))
    # the closure returns the curvature it closes, bit for bit the slow path's
    closed_ghost, closed_R = K.curvature_neumann_ghost(u, *g.stencil)
    assert np.array_equal(closed_ghost, _ref_curvature_neumann_ghost(u, *ref))
    assert np.array_equal(closed_R, K.curvature(u, closed_ghost, *g.stencil))
    assert np.array_equal(closed_R, _ref_curvature(u, closed_ghost, *ref))
    for shift in (-1, 1, n_theta // 2):
        assert np.array_equal(K.roll_theta(u, shift), np.roll(u, shift, axis=1))
        assert np.array_equal(K.roll_theta(ghost, shift), np.roll(ghost, shift))


@pytest.mark.parametrize(
    "n_r, n_theta", [(128, 1), (39, 24), (40, 24), (64, 32), (128, 64)]
)
@pytest.mark.parametrize("field", ["cap", "perturbed_cap", "random"])
def test_plane_closure_matches_column_closure(n_r, n_theta, field):
    # the outer face radius of the last ring rounds to 1 - 2^-53 on 39 rings
    # and to 1 on the others
    g = build_grid(GridSpec(n_r, n_theta))
    if field == "cap":
        u = spherical_cap(CapParams(0.5), g).u
    elif field == "perturbed_cap":
        u = perturbed_cap(CapParams(0.7), PerturbationParams(0.04, min(3, n_theta // 2)), g).u
    else:
        u = np.random.default_rng(n_r * n_theta).uniform(-1.0, 1.0, (n_r, n_theta))
    ghost, R = K.curvature_neumann_ghost(u, *g.stencil)
    ref_ghost, ref_R = _ref_column_closure(u, *K.flux_stencil(g.r, g.dr, g.dtheta))
    assert np.array_equal(ghost, ref_ghost)
    assert np.array_equal(R, ref_R)
