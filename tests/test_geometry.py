import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccidisk.errors import DomainError, UsageError
from riccidisk.geometry import (
    ConformalMetric,
    boundary_laplacian,
    gauss_bonnet_residual,
    geodesic_curvature,
    grad_norm_sq,
    hessian,
    laplace_beltrami,
    make_metric,
    normal_derivative,
    scalar_curvature,
    shifted_hessian_norm_sq,
)
from riccidisk.grid import (
    GridSpec,
    build_grid,
    d2_r,
    d2_theta,
    d_r,
    d_theta,
    ghost_extrapolate,
    ghost_mirror,
    gradient0,
    integrate_volume,
)
from riccidisk.initial_data import CapParams, PerturbationParams, perturbed_cap, spherical_cap


def test_make_metric_rejects_wrong_shape(grid_1d):
    with pytest.raises(UsageError):
        make_metric(np.zeros((4, 4)), grid_1d)


def test_make_metric_rejects_non_finite(grid_1d):
    u = np.zeros((grid_1d.n_r, 1))
    u[3] = np.nan
    with pytest.raises(DomainError):
        make_metric(u, grid_1d)


def test_cap_scalar_curvature(grid_1d):
    for c in (0.5, 1.0):
        m = spherical_cap(CapParams(c), grid_1d)
        R = scalar_curvature(m)
        assert np.max(np.abs(R - 2.0 * c)) < 5e-4


def test_cap_geodesic_curvature(grid_1d):
    for c in (0.4, 0.7, 1.0):
        m = spherical_cap(CapParams(c), grid_1d)
        kappa = geodesic_curvature(m)
        assert np.max(np.abs(kappa - 0.5 * (1.0 - c))) < 5e-5


def test_cap_volume(grid_1d):
    for c in (0.3, 1.0):
        m = spherical_cap(CapParams(c), grid_1d)
        assert m.v_M == pytest.approx(4.0 * np.pi / (1.0 + c), rel=2e-5)


def test_normalized_cap_volume(grid_1d):
    m = spherical_cap(CapParams(0.5), grid_1d, normalize_volume=True)
    assert m.v_M == pytest.approx(4.0 * np.pi, rel=2e-5)


def test_gauss_bonnet_exact_to_rounding(grid_1d, grid_2d):
    # the boundary flux in int R dv telescopes to the kappa integrand, so
    # the discrete Gauss-Bonnet identity holds to rounding for any ghost
    for m in (
        spherical_cap(CapParams(0.8), grid_1d),
        spherical_cap(CapParams(1.0), grid_2d),
        make_metric(0.3 * (1.0 - grid_2d.r[:, None] ** 2) * np.ones((64, 32)), grid_2d),
    ):
        assert gauss_bonnet_residual(m) < 1e-11


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    n_r=st.integers(8, 48),
    n_theta=st.sampled_from([1, 8, 16, 24]),
    c=st.floats(0.1, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gauss_bonnet_holds_for_any_ghost_ring(n_r, n_theta, c, seed):
    g = build_grid(GridSpec(n_r, n_theta))
    rng = np.random.default_rng(seed)
    u = spherical_cap(CapParams(c), g).u + 0.05 * rng.standard_normal((n_r, n_theta))
    ghost = ghost_extrapolate(u) + 0.1 * rng.standard_normal(n_theta)
    assert gauss_bonnet_residual(ConformalMetric(u, g, ghost)) <= 1e-12


def test_metric_is_frozen(hemisphere_2d):
    with pytest.raises(dataclasses.FrozenInstanceError):
        hemisphere_2d.u = np.zeros_like(hemisphere_2d.u)


def test_metric_quantities_match_the_functions(grid_2d):
    m = make_metric(0.3 * (1.0 - grid_2d.r[:, None] ** 2) * np.ones((64, 32)), grid_2d)
    R = scalar_curvature(m)
    assert np.array_equal(m.R, R)
    assert np.array_equal(m.log_R, np.log(R))
    assert np.array_equal(m.kappa, geodesic_curvature(m))
    assert m.v_M == integrate_volume(np.ones_like(m.u), m)
    assert m.R_bar == integrate_volume(R, m) / m.v_M
    assert m.R is m.R


@pytest.mark.parametrize("n_theta, mode", [(1, 0), (32, 3)])
def test_cached_factors_and_derivatives_match_fresh_calls(n_theta, mode):
    # the curvature-Neumann ghost ring, not the extrapolated one, enters d_r u
    g = build_grid(GridSpec(64, n_theta))
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, mode), g)
    assert not np.array_equal(m.u_ghost, ghost_extrapolate(m.u))
    assert np.array_equal(m.exp_u, np.exp(m.u))
    assert np.array_equal(m.exp_neg_u, np.exp(-m.u))
    assert np.array_equal(m.exp_neg_2u, np.exp(-2.0 * m.u))
    u_r, u_t = m.du
    assert np.array_equal(u_r, d_r(m.u, g, m.u_ghost))
    assert np.array_equal(u_t, d_theta(m.u, g))
    log_r_r, log_r_t = m.dlog_R
    assert np.array_equal(log_r_r, d_r(np.log(scalar_curvature(m)), g))
    assert np.array_equal(log_r_t, d_theta(np.log(scalar_curvature(m)), g))
    # shared by every functional of the metric, so they cannot be written
    for cached in (m.exp_u, m.exp_neg_u, m.exp_neg_2u, *m.du, *m.dlog_R):
        assert cached is not None and not cached.flags.writeable
    assert m.du is m.du and m.exp_u is m.exp_u


def test_hessian_trace_is_laplacian(hemisphere_2d):
    g = hemisphere_2d.grid
    f = (g.r**2)[:, None] * np.cos(2.0 * g.theta)[None, :]
    h_rr, _, h_tt = hessian(f, hemisphere_2d, gradient0(f, g))
    e_u = np.exp(hemisphere_2d.u)
    trace = (h_rr + h_tt / g.r[:, None] ** 2) / e_u
    lap = laplace_beltrami(f, hemisphere_2d)
    assert np.max(np.abs(trace - lap)) < 1e-10


def test_flat_hessian_of_linear_function_vanishes(flat_2d):
    g = flat_2d.grid
    f = g.r[:, None] * np.cos(g.theta)[None, :]
    h_rr, h_rt, h_tt = hessian(f, flat_2d, gradient0(f, g))
    assert np.max(np.abs(h_rr)) < 1e-9
    interior = slice(1, -1)
    assert np.max(np.abs(h_rt[interior])) < 1e-9
    # tt picks up the centered-difference truncation of cos(theta)
    assert np.max(np.abs(h_tt[interior])) < 5e-3


def test_metric_grad_norm_flat(flat_2d):
    g = flat_2d.grid
    f = np.broadcast_to((g.r**2)[:, None], (g.n_r, g.n_theta)).copy()
    grad_sq = grad_norm_sq(*gradient0(f, g), flat_2d)
    assert np.max(np.abs(grad_sq - 4.0 * g.r[:, None] ** 2)) < 1e-10


def test_metric_tensor_norm_is_dimension(hemisphere_2d):
    # Hess 0 + 1 g = g, whose squared norm is the dimension
    zero = np.zeros_like(hemisphere_2d.u)
    grad = gradient0(zero, hemisphere_2d.grid)
    norm_sq = shifted_hessian_norm_sq(zero, hemisphere_2d, 1.0, grad)
    assert np.max(np.abs(norm_sq - 2.0)) < 1e-12


def _hessian_reference(f, m, ghost=None):
    """The Hessian formulas evaluated as written, with fresh derivatives of u."""
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


def _shifted_hessian_norm_sq_reference(f, m, c, ghost=None):
    """Hess f + c g built as three new arrays, then squared in the metric."""
    h_rr, h_rt, h_tt = _hessian_reference(f, m, ghost=ghost)
    cg = c * np.exp(m.u)
    r2 = m.grid.r[:, None] ** 2
    t_rr, t_rt, t_tt = h_rr + cg, h_rt, h_tt + cg * r2
    return np.exp(-2.0 * m.u) * (t_rr**2 + 2.0 * t_rt**2 / r2 + t_tt**2 / r2**2)


@pytest.mark.parametrize("n_theta", [1, 16])
@pytest.mark.parametrize("pointwise_c", [False, True])
@pytest.mark.parametrize("mirrored", [False, True])
def test_shifted_hessian_norm_matches_reference(n_theta, pointwise_c, mirrored):
    g = build_grid(GridSpec(24, n_theta))
    rng = np.random.default_rng(7)
    bump = (1.0 - g.r[:, None] ** 2) * (1.0 + 0.2 * np.cos(2.0 * g.theta)[None, :])
    m = make_metric(0.3 * bump + 0.01 * rng.standard_normal(bump.shape), g)
    f = g.r[:, None] ** 2 * np.sin(g.theta + 0.3)[None, :] + 0.1 * rng.standard_normal(bump.shape)
    c = 0.5 * (m.R - m.R_bar) if pointwise_c else -0.75
    ghost = ghost_mirror(f) if mirrored else None
    expected = _shifted_hessian_norm_sq_reference(f, m, c, ghost=ghost)
    grad = gradient0(f, g, ghost)
    assert np.array_equal(shifted_hessian_norm_sq(f, m, c, grad, ghost), expected)
    for got, want in zip(hessian(f, m, grad, ghost), _hessian_reference(f, m, ghost=ghost)):
        assert np.array_equal(got, want)
    # the plain formula, for a gradient and for a gradient difference
    f_r, f_t = grad
    grad_sq = np.exp(-m.u) * (f_r**2 + f_t**2 / g.r[:, None] ** 2)
    assert np.array_equal(grad_norm_sq(f_r, f_t, m), grad_sq)
    u_r, u_t = gradient0(m.u, g)
    diff_sq = np.exp(-m.u) * ((f_r - u_r) ** 2 + (f_t - u_t) ** 2 / g.r[:, None] ** 2)
    assert np.array_equal(grad_norm_sq(f_r - u_r, f_t - u_t, m), diff_sq)


def test_normal_derivative_flat(flat_2d):
    g = flat_2d.grid
    f = np.broadcast_to((g.r**2)[:, None], (g.n_r, g.n_theta)).copy()
    assert np.max(np.abs(normal_derivative(f, flat_2d) - 2.0)) < 1e-9


def test_boundary_laplacian_fourier_mode(flat_2d):
    g = flat_2d.grid
    b = np.cos(2.0 * g.theta)
    lap = boundary_laplacian(b, flat_2d)
    assert np.max(np.abs(lap + 4.0 * b)) < 0.06


def test_scalar_curvature_respects_stored_ghost(grid_1d):
    u = np.zeros((grid_1d.n_r, 1))
    m_mirror = ConformalMetric(u, grid_1d, ghost_mirror(u))
    m_extrap = make_metric(u, grid_1d)
    assert np.max(np.abs(scalar_curvature(m_extrap))) < 1e-12
    assert np.max(np.abs(scalar_curvature(m_mirror))) < 1e-12
