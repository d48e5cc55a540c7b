import numpy as np
import pytest

from riccidisk._kernels import kahan_sum
from riccidisk.errors import ConfigurationError
from riccidisk.grid import (
    GridSpec,
    boundary_value,
    build_grid,
    d_r,
    d_theta,
    ghost_extrapolate,
    ghost_mirror,
    laplacian0,
    radial_derivative_at_boundary,
    radial_derivative_at_boundary_interior,
    _resolve_ghost,
)


def test_spec_validation_rejects_small_n_r():
    with pytest.raises(ConfigurationError):
        GridSpec(4, 1).validate()


def test_spec_validation_rejects_odd_n_theta():
    with pytest.raises(ConfigurationError):
        GridSpec(32, 9).validate()
    with pytest.raises(ConfigurationError):
        GridSpec(32, 4).validate()
    GridSpec(32, 1).validate()
    GridSpec(32, 10).validate()


def test_nodes_are_cell_centered():
    g = build_grid(GridSpec(16, 8))
    assert g.r[0] == pytest.approx(0.5 / 16)
    assert g.r[-1] == pytest.approx(1.0 - 0.5 / 16)
    assert g.theta[0] == 0.0


def test_flat_quadrature_is_exact_for_disk_area():
    g = build_grid(GridSpec(32, 16))
    ones = np.ones((32, 16))
    # the midpoint rule integrates r dr exactly
    assert kahan_sum((ones * g.w_vol).ravel()) == pytest.approx(np.pi, abs=1e-14)


def test_flat_quadrature_1d_path():
    g = build_grid(GridSpec(64, 1))
    ones = np.ones((64, 1))
    assert kahan_sum((ones * g.w_vol).ravel()) == pytest.approx(np.pi, abs=1e-14)


def test_laplacian_exact_on_quadratic():
    g = build_grid(GridSpec(32, 16))
    phi = np.broadcast_to((g.r**2)[:, None], (32, 16)).copy()
    lap = laplacian0(phi, g)
    assert np.max(np.abs(lap - 4.0)) < 1e-11


def test_laplacian_second_order_on_harmonic():
    # r^3 cos(3 theta) is harmonic; refine both directions together
    errs = []
    for n in (32, 64):
        g = build_grid(GridSpec(n, n))
        phi = (g.r**3)[:, None] * np.cos(3.0 * g.theta)[None, :]
        errs.append(np.max(np.abs(laplacian0(phi, g))))
    assert errs[0] / errs[1] > 3.0


def test_radial_derivative_crosses_pole_smoothly():
    g = build_grid(GridSpec(64, 16))
    phi = g.r[:, None] * np.cos(g.theta)[None, :]
    dr_phi = d_r(phi, g)
    assert np.max(np.abs(dr_phi[0] - np.cos(g.theta))) < 1e-10


def test_angular_derivative_spectral_field():
    g = build_grid(GridSpec(16, 64))
    phi = np.broadcast_to(np.sin(2.0 * g.theta)[None, :], (16, 64)).copy()
    expected = 2.0 * np.cos(2.0 * g.theta)
    err = np.max(np.abs(d_theta(phi, g) - expected[None, :]))
    # centered-difference truncation: k^3 dtheta^2 / 6 ~ 1.3e-2
    assert err < 2e-2


def test_boundary_extraction_exact_for_quadratic():
    g = build_grid(GridSpec(32, 1))
    phi = (2.0 + 3.0 * g.r + 4.0 * g.r**2)[:, None]
    assert boundary_value(phi)[0] == pytest.approx(9.0, abs=1e-12)
    assert radial_derivative_at_boundary(phi, g)[0] == pytest.approx(11.0, abs=1e-10)
    assert radial_derivative_at_boundary_interior(phi, g)[0] == pytest.approx(
        11.0, abs=1e-10
    )


def test_ghost_policies():
    g = build_grid(GridSpec(32, 1))
    phi = (1.0 + g.r**2)[:, None]
    ghost_r = 1.0 + 0.5 * g.dr
    assert ghost_extrapolate(phi)[0] == pytest.approx(1.0 + ghost_r**2, abs=1e-12)
    assert ghost_mirror(phi)[0] == phi[-1, 0]
    explicit = np.array([7.0])
    assert _resolve_ghost(phi, explicit)[0] == 7.0
    assert _resolve_ghost(phi, None)[0] == ghost_extrapolate(phi)[0]


def test_boundary_tangential_derivative_1d_is_zero():
    # d_theta differentiates a boundary field (n_theta,) along its only axis
    g = build_grid(GridSpec(32, 1))
    assert d_theta(np.array([3.0]), g)[0] == 0.0


def test_d_theta_of_boundary_field_is_its_ring_of_the_field_derivative():
    g = build_grid(GridSpec(16, 8))
    phi = np.sin(g.theta)[None, :] * g.r[:, None] + g.r[:, None] ** 2
    assert np.array_equal(d_theta(phi[-1], g), d_theta(phi, g)[-1])
