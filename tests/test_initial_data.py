import numpy as np
import pytest

from riccidisk import initial_data
from riccidisk.errors import AmplitudeError, CompatibilityError, UsageError
from riccidisk.geometry import make_metric, scalar_curvature
from riccidisk.grid import GridSpec, build_grid
from riccidisk.initial_data import (
    CapParams,
    PerturbationParams,
    _smooth_residual,
    compatibility_residual,
    perturbed_cap,
    project_compatibility,
    spherical_cap,
)


def test_cap_params_validation():
    with pytest.raises(UsageError):
        CapParams(-0.5).validate()
    with pytest.raises(UsageError):
        CapParams(0.0).validate()


def test_nan_cap_parameter_rejected():
    with pytest.raises(UsageError):
        CapParams(float("nan")).validate()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_projection_rejects_non_finite_residual(grid_2d):
    g = grid_2d
    u = 1e308 * g.r[:, None] ** 2 * (1.0 - g.r[:, None] ** 2) ** 4 * np.cos(2.0 * g.theta)
    with pytest.raises(CompatibilityError):
        project_compatibility(make_metric(u, g))


def test_projection_rejects_singular_jacobian(grid_2d, monkeypatch):
    # a residual that ignores psi has a zero Jacobian
    monkeypatch.setattr(initial_data, "_smooth_residual", lambda u, grid: np.ones(grid.n_theta))
    with pytest.raises(CompatibilityError, match="singular"):
        project_compatibility(spherical_cap(CapParams(0.5), grid_2d))


def test_cap_params_closed_forms():
    p = CapParams(0.5)
    assert p.kappa == pytest.approx(0.25)
    assert p.volume == pytest.approx(8.0 * np.pi / 3.0)
    assert CapParams(1.0).kappa == 0.0


def test_perturbation_params_validation():
    with pytest.raises(UsageError):
        PerturbationParams(0.1, -1).validate()


def test_angular_mode_needs_2d_grid(grid_1d):
    with pytest.raises(UsageError):
        perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_1d)


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


def test_perturbed_cap_positive_curvature(grid_2d):
    for mode in (0, 1, 2, 3):
        m = perturbed_cap(CapParams(0.7), PerturbationParams(0.03, mode), grid_2d)
        assert scalar_curvature(m).min() > 0.0


def test_zero_perturbation_recovers_cap(grid_1d):
    cap = spherical_cap(CapParams(0.5), grid_1d)
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.0, 0), grid_1d)
    assert np.max(np.abs(m.u - cap.u)) < 1e-7
