import math

import numpy as np
import pytest

from riccidisk._kernels import flux_stencil
from riccidisk.errors import UsageError
from riccidisk.geometry import make_metric
from riccidisk.grid import (
    GridSpec,
    boundary_value,
    build_grid,
    d2_r,
    d2_theta,
    d_r,
    d_theta,
    ghost_extrapolate,
    ghost_mirror,
    integrate_boundary,
    integrate_volume,
    laplacian0,
    radial_derivative_at_boundary,
    radial_derivative_at_boundary_interior,
    _resolve_ghost,
)
from riccidisk.initial_data import CapParams, PerturbationParams, perturbed_cap


def test_spec_validation_rejects_small_n_r():
    with pytest.raises(UsageError):
        GridSpec(4, 1)


def test_spec_validation_rejects_odd_n_theta():
    with pytest.raises(UsageError):
        GridSpec(32, 9)
    with pytest.raises(UsageError):
        GridSpec(32, 4)
    GridSpec(32, 1)
    GridSpec(32, 10)


def test_nodes_are_cell_centered():
    g = build_grid(GridSpec(16, 8))
    assert g.r[0] == pytest.approx(0.5 / 16)
    assert g.r[-1] == pytest.approx(1.0 - 0.5 / 16)
    assert g.theta[0] == 0.0


@pytest.mark.parametrize("n_theta", [1, 8])
def test_grid_constants_are_read_only(n_theta):
    # every metric on a grid shares its constants, so a write must fail
    g = build_grid(GridSpec(16, n_theta))
    for a in (g.r, g.theta, g.w_vol, *g.stencil):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a += 1.0


def test_grids_compare_and_hash_by_identity():
    # two grids of one spec are two cache keys; their arrays are never compared
    a, b = build_grid(GridSpec(16, 8)), build_grid(GridSpec(16, 8))
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2


def test_stencil_planes_are_contiguous_copies_of_the_columns():
    g = build_grid(GridSpec(16, 8))
    columns = flux_stencil(g.r, g.dr, g.dtheta)
    for plane, column in zip(g.stencil, columns, strict=True):
        assert plane.shape == (16, 8) and plane.flags.c_contiguous
        assert np.array_equal(plane, np.broadcast_to(column, plane.shape))


def test_flat_quadrature_is_exact_for_disk_area():
    g = build_grid(GridSpec(32, 16))
    flat = make_metric(np.zeros((32, 16)), g)
    # the midpoint rule integrates r dr exactly
    assert integrate_volume(np.ones((32, 16)), flat) == pytest.approx(np.pi, abs=1e-14)


def test_flat_quadrature_1d_path():
    g = build_grid(GridSpec(64, 1))
    flat = make_metric(np.zeros((64, 1)), g)
    assert integrate_volume(np.ones((64, 1)), flat) == pytest.approx(np.pi, abs=1e-14)


def _within_float_sum_bound(got, terms):
    """|got - exact sum| <= n eps sum|terms|, the bound of any float sum."""
    terms = np.ravel(terms).tolist()
    bound = len(terms) * np.finfo(np.float64).eps * math.fsum(map(abs, terms))
    return abs(got - math.fsum(terms)) <= bound


@pytest.mark.parametrize("data", ["random", "cancelling"])
@pytest.mark.parametrize("n_r,n_theta", [(128, 1), (64, 32)])
def test_quadrature_is_within_the_float_sum_bound_of_the_exact_sum(n_r, n_theta, data):
    # the quadratures are not exactly rounded; this pins the bound that
    # replaces exactness, against math.fsum of the same weighted terms
    g = build_grid(GridSpec(n_r, n_theta))
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.04, 0 if n_theta == 1 else 2), g)
    rng = np.random.default_rng(n_r * n_theta)
    phi = 1e8 * rng.standard_normal((n_r, n_theta))
    psi = 1e8 * rng.standard_normal(n_theta)
    ds = np.exp(0.5 * m.u_b) * g.dtheta
    if data == "cancelling":
        # mean-zero against the measure: the exact sums are rounding-sized
        phi -= math.fsum((phi * m.exp_u * g.w_vol).ravel().tolist()) / m.v_M
        psi -= math.fsum((psi * ds).tolist()) / math.fsum(ds.tolist())
    assert _within_float_sum_bound(integrate_volume(phi, m), phi * m.exp_u * g.w_vol)
    terms = psi * np.exp(0.5 * m.u_b) * g.dtheta
    assert _within_float_sum_bound(integrate_boundary(psi, m), terms)


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


def test_d2_theta_is_the_periodic_second_difference():
    g = build_grid(GridSpec(16, 24))
    phi = np.random.default_rng(3).standard_normal((16, 24))
    rolled = np.roll(phi, -1, axis=-1) - 2.0 * phi + np.roll(phi, 1, axis=-1)
    assert np.array_equal(d2_theta(phi, g), rolled / g.dtheta**2)
    g1 = build_grid(GridSpec(16, 1))
    assert np.array_equal(d2_theta(phi[:, :1], g1), np.zeros((16, 1)))


@pytest.mark.parametrize("n_theta", [1, 24])
def test_first_and_second_differences_match_their_formulas(n_theta):
    # the differences are formed in place; each must equal its formula
    # evaluated as one expression, bit for bit
    g = build_grid(GridSpec(16, n_theta))
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((16, n_theta))
    ghost = rng.standard_normal(n_theta)
    pole = np.roll(phi[0], n_theta // 2)
    up = np.concatenate([phi[1:], ghost[None, :]])
    down = np.concatenate([pole[None, :], phi[:-1]])
    assert np.array_equal(d_r(phi, g, ghost), (up - down) / (2.0 * g.dr))
    assert np.array_equal(d2_r(phi, g, ghost), (up - 2.0 * phi + down) / g.dr**2)
    if n_theta > 1:
        centered = (np.roll(phi, -1, axis=-1) - np.roll(phi, 1, axis=-1)) / (2.0 * g.dtheta)
        assert np.array_equal(d_theta(phi, g), centered)
        assert np.array_equal(d_theta(phi[-1], g), centered[-1])
    else:
        assert np.array_equal(d_theta(phi, g), np.zeros_like(phi))


def _d_theta_by_slices(phi, grid):
    """The centered periodic difference with its wraparound written out."""
    out = np.empty_like(phi)
    np.subtract(phi[..., 2:], phi[..., :-2], out=out[..., 1:-1])
    np.subtract(phi[..., 1], phi[..., -1], out=out[..., 0])
    np.subtract(phi[..., 0], phi[..., -2], out=out[..., -1])
    out /= 2.0 * grid.dtheta
    return out


@pytest.mark.parametrize("n_r, n_theta", [(8, 8), (64, 32), (128, 64)])
def test_d_theta_is_the_slice_stencil_bit_for_bit(n_r, n_theta):
    g = build_grid(GridSpec(n_r, n_theta))
    rng = np.random.default_rng(n_r + n_theta)
    phi = rng.standard_normal((n_r, n_theta))
    # zero neighbours of mixed sign: d_theta is +0.0 at j = 1 and -0.0 at
    # j = -1, and the signs of zero must match too
    phi[0, [0, 2, -2]] = [-0.0, 0.0, 0.0]
    for field in (phi, phi[-1], boundary_value(phi)):
        assert d_theta(field, g).tobytes() == _d_theta_by_slices(field, g).tobytes()


def test_d_theta_on_one_angle_is_positive_zero():
    g = build_grid(GridSpec(128, 1))
    phi = np.random.default_rng(0).standard_normal((128, 1))
    for field in (phi, phi[-1]):
        out = d_theta(field, g)
        assert out.shape == field.shape
        assert np.all(out == 0.0) and not np.signbit(out).any()
