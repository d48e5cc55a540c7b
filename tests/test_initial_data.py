import numpy as np
import pytest

from riccidisk import initial_data
from riccidisk.errors import AmplitudeError, CompatibilityError, PositivityError, UsageError
from riccidisk.geometry import make_metric, scalar_curvature
from riccidisk.grid import GridSpec, build_grid
from riccidisk.initial_data import (
    CapParams,
    PerturbationParams,
    _smooth_residual,
    cap_u,
    compatibility_residual,
    perturbed_cap,
    project_compatibility,
    spherical_cap,
)


# Reference Jacobian: column-by-column forward differences of the residual,
# kept as the oracle of the closed-form one.

def _ref_dense_jacobian(base_u, res, profile, grid):
    n_t = grid.n_theta
    jac = np.empty((n_t, n_t))
    h = 1.0e-7
    for j in range(n_t):
        bump = np.zeros(n_t)
        bump[j] = h
        jac[:, j] = (_smooth_residual(base_u + bump[None, :] * profile, grid) - res) / h
    return jac


@pytest.mark.parametrize("n_r, n_theta", [(16, 1), (16, 8), (16, 10), (64, 32), (128, 64)])
def test_exact_jacobian_matches_dense_jacobian(n_r, n_theta):
    g = build_grid(GridSpec(n_r, n_theta))
    rng = np.random.default_rng(n_r * n_theta)
    r = g.r[:, None]
    profile = initial_data._band_profile(g)[:, None]
    u = np.log(4.0) - 2.0 * np.log1p(0.5 * r * r) + 0.05 * r**2 * (1.0 - r * r) ** 4 * np.cos(
        2.0 * g.theta
    )
    base_u = u + 1e-3 * rng.standard_normal(n_theta)[None, :] * profile
    res = _smooth_residual(base_u, g)
    exact = initial_data._jacobian(base_u, profile, g)
    ref = _ref_dense_jacobian(base_u, res, profile, g)
    assert np.max(np.abs(exact - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_cap_params_validation():
    with pytest.raises(UsageError):
        CapParams(-0.5)
    with pytest.raises(UsageError):
        CapParams(0.0)


def test_nan_cap_parameter_rejected():
    with pytest.raises(UsageError):
        CapParams(float("nan"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_projection_rejects_non_finite_residual(grid_2d):
    g = grid_2d
    u = 1e308 * g.r[:, None] ** 2 * (1.0 - g.r[:, None] ** 2) ** 4 * np.cos(2.0 * g.theta)
    with pytest.raises(CompatibilityError):
        project_compatibility(make_metric(u, g))


def test_projection_rejects_singular_jacobian(grid_2d, monkeypatch):
    g = grid_2d
    n_t = g.n_theta
    monkeypatch.setattr(initial_data, "_jacobian", lambda u, profile, grid: np.zeros((n_t, n_t)))
    # r^2 cos 2 theta does not vanish at r = 1, so Newton has a step to take
    u = cap_u(0.5, g.r)[:, None] + 0.05 * g.r[:, None] ** 2 * np.cos(2.0 * g.theta)
    with pytest.raises(CompatibilityError, match="singular"):
        project_compatibility(make_metric(u, g))


def test_perturbation_params_validation():
    with pytest.raises(UsageError):
        PerturbationParams(0.1, -1)


def test_angular_mode_needs_2d_grid(grid_1d):
    with pytest.raises(UsageError):
        perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_1d)


def test_angular_mode_above_half_n_theta_is_rejected(grid_2d):
    # mode n_theta // 2 + 1 aliases onto mode n_theta // 2 - 1 on the grid
    half = grid_2d.n_theta // 2
    perturbed_cap(CapParams(0.7), PerturbationParams(0.03, half), grid_2d)
    with pytest.raises(UsageError, match="above n_theta // 2"):
        perturbed_cap(CapParams(0.7), PerturbationParams(0.03, half + 1), grid_2d)


def test_perturbed_cap_is_compatible(grid_2d):
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)
    assert compatibility_residual(m) < 1e-8
    res = np.max(np.abs(_smooth_residual(m.u, grid_2d)))
    assert res < 1e-6


def test_perturbed_cap_breaks_symmetry(grid_2d):
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)
    assert np.max(np.abs(m.u - m.u[:, :1])) > 1e-3


def test_projection_is_idempotent(grid_2d):
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)
    _, correction = project_compatibility(m)
    assert correction < 1e-10


def test_projection_correction_shrinks_under_refinement():
    corrections = []
    for n in (32, 64):
        g = build_grid(GridSpec(n, 16))
        r = g.r[:, None]
        u = (
            np.log(4.0)
            - 2.0 * np.log1p(0.5 * r * r)
            + 0.05 * r * r * (1.0 - r * r) ** 4 * np.cos(2.0 * g.theta)[None, :]
        )
        from riccidisk.geometry import make_metric

        _, corr = project_compatibility(make_metric(np.ascontiguousarray(u), g))
        corrections.append(corr)
    assert corrections[1] < corrections[0]


def test_excessive_amplitude_reports_admissible_range(grid_2d):
    with pytest.raises(AmplitudeError) as exc:
        perturbed_cap(CapParams(0.3), PerturbationParams(30.0, 2), grid_2d)
    assert 0.0 < exc.value.max_epsilon < 30.0


@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_cap_without_positive_curvature_is_not_blamed_on_epsilon(grid_2d, eps):
    # 2 c r^2 is below the rounding of log 4, so the discrete R of the
    # unperturbed cap is not positive whatever epsilon is
    with pytest.raises(PositivityError, match="cap c = 1e-14") as exc:
        perturbed_cap(CapParams(1e-14), PerturbationParams(eps, 2), grid_2d)
    assert not exc.value.min_r > 0.0


def test_perturbed_cap_positive_curvature(grid_2d):
    for mode in (0, 1, 2, 3):
        m = perturbed_cap(CapParams(0.7), PerturbationParams(0.03, mode), grid_2d)
        assert scalar_curvature(m).min() > 0.0


def test_zero_perturbation_recovers_cap(grid_1d):
    cap = spherical_cap(CapParams(0.5), grid_1d)
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.0, 0), grid_1d)
    assert np.max(np.abs(m.u - cap.u)) < 1e-7
