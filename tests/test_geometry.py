import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccidisk.errors import DomainError, UsageError
from riccidisk.geometry import (
    boundary_laplacian,
    gauss_bonnet_residual,
    geodesic_curvature,
    hessian,
    laplace_beltrami,
    make_metric,
    metric_grad_norm_sq,
    metric_tensor,
    normal_derivative,
    scalar_curvature,
    tensor_norm_sq,
)
from riccidisk.grid import GridSpec, build_grid, ghost_extrapolate, integrate_volume
from riccidisk.initial_data import CapParams, spherical_cap


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
    assert gauss_bonnet_residual(make_metric(u, g, ghost=ghost)) <= 1e-12


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


def test_hessian_trace_is_laplacian(hemisphere_2d):
    g = hemisphere_2d.grid
    f = (g.r**2)[:, None] * np.cos(2.0 * g.theta)[None, :]
    h = hessian(f, hemisphere_2d)
    e_u = np.exp(hemisphere_2d.u)
    trace = (h.rr + h.tt / g.r[:, None] ** 2) / e_u
    lap = laplace_beltrami(f, hemisphere_2d)
    assert np.max(np.abs(trace - lap)) < 1e-10


def test_flat_hessian_of_linear_function_vanishes(flat_2d):
    g = flat_2d.grid
    f = g.r[:, None] * np.cos(g.theta)[None, :]
    h = hessian(f, flat_2d)
    assert np.max(np.abs(h.rr)) < 1e-9
    interior = slice(1, -1)
    assert np.max(np.abs(h.rt[interior])) < 1e-9
    # tt picks up the centered-difference truncation of cos(theta)
    assert np.max(np.abs(h.tt[interior])) < 5e-3


def test_metric_grad_norm_flat(flat_2d):
    g = flat_2d.grid
    f = np.broadcast_to((g.r**2)[:, None], (g.n_r, g.n_theta)).copy()
    grad_sq = metric_grad_norm_sq(f, flat_2d)
    assert np.max(np.abs(grad_sq - 4.0 * g.r[:, None] ** 2)) < 1e-10


def test_metric_tensor_norm_is_dimension(hemisphere_2d):
    g_tensor = metric_tensor(hemisphere_2d)
    norm_sq = tensor_norm_sq(g_tensor, hemisphere_2d)
    assert np.max(np.abs(norm_sq - 2.0)) < 1e-12


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
    m_mirror = make_metric(u, grid_1d, ghost="mirror")
    m_extrap = make_metric(u, grid_1d, ghost="extrapolate")
    assert np.max(np.abs(scalar_curvature(m_extrap))) < 1e-12
    assert np.max(np.abs(scalar_curvature(m_mirror))) < 1e-12
