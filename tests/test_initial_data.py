import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riccidisk
from riccidisk.errors import AmplitudeError, PositivityError, UsageError
from riccidisk.geometry import enforce_curvature_neumann, scalar_curvature
from riccidisk.grid import (
    GridSpec,
    build_grid,
    radial_derivative_at_boundary,
    radial_derivative_at_boundary_interior,
)
from riccidisk.initial_data import (
    CapParams,
    PerturbationParams,
    cap_u,
    perturbed_cap,
    spherical_cap,
)

# (c, eps, mode) of the caps that seeds 1 and 13 draw for the 2-D benchmark
# workloads
WORKLOAD_CAPS = [
    (0.4134364244112401, 0.03763774618976614, 2),
    (0.5847433736937233, 0.04255069025739422, 3),
    (0.5685257992964537, 0.036840819180161105, 3),
    (0.42590084917154736, 0.048493361613899305, 2),
]


def test_cap_params_validation():
    with pytest.raises(UsageError):
        CapParams(-0.5)
    with pytest.raises(UsageError):
        CapParams(0.0)


def test_nan_cap_parameter_rejected():
    with pytest.raises(UsageError):
        CapParams(float("nan"))


def test_perturbation_params_validation():
    with pytest.raises(UsageError):
        PerturbationParams(0.1, -1)
    for eps in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(UsageError, match="amplitude must be finite"):
            PerturbationParams(eps, 2)


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
    assert np.max(np.abs(radial_derivative_at_boundary(m.R, m.grid))) < 1e-8


@pytest.mark.parametrize("c, eps, mode", WORKLOAD_CAPS)
def test_boundary_flux_of_R_falls_at_third_order(c, eps, mode):
    # the one-sided d_r R(1) of the interior rings, which no ghost touches,
    # is the truncation residual of the data; the closure leaves u as it is
    res = []
    for n in (32, 64, 128):
        g = build_grid(GridSpec(n, n // 2))
        m = perturbed_cap(CapParams(c), PerturbationParams(eps, mode), g)
        res.append(float(np.max(np.abs(radial_derivative_at_boundary_interior(m.R, g)))))
    orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert (orders >= 3.0).all(), (res, orders)


def test_perturbed_cap_breaks_symmetry(grid_2d):
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)
    assert np.max(np.abs(m.u - m.u[:, :1])) > 1e-3


def test_excessive_amplitude_reports_admissible_range(grid_2d):
    with pytest.raises(AmplitudeError) as exc:
        perturbed_cap(CapParams(0.3), PerturbationParams(30.0, 2), grid_2d)
    assert 0.0 < exc.value.max_epsilon < 30.0


@pytest.mark.parametrize("eps", [0.0, 0.02])
def test_cap_whose_closure_overflows_has_no_positive_curvature(eps):
    g = build_grid(GridSpec(32, 16))
    with pytest.raises(PositivityError, match="cap c = 1e[+]200"):
        perturbed_cap(CapParams(1e200), PerturbationParams(eps, 2), g)


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


def _direct_cap(c, grid, normalize_volume=False):
    """The cap profile closed directly, without the perturbation path.

    ``normalize_volume`` rescales it by 1 + c to the metric (1 + c) g_c,
    which has R = 2c / (1 + c) and volume 4 pi, as the Euler form of the
    entropy requires.
    """
    u = np.broadcast_to(cap_u(c, grid.r)[:, None], (grid.n_r, grid.n_theta)).copy()
    if normalize_volume:
        u += np.log(1.0 + c)
    return enforce_curvature_neumann(u, grid)


def test_zero_perturbation_recovers_cap(grid_1d, grid_2d):
    # spherical_cap, perturbed_cap at epsilon = 0 and the cap rescaled from
    # spherical_cap's u are the directly closed profile, bit for bit
    for grid, mode in ((grid_1d, 0), (grid_2d, 2)):
        for c in (0.5, 1.0):
            cap = spherical_cap(CapParams(c), grid)
            built = [
                (cap, False),
                (perturbed_cap(CapParams(c), PerturbationParams(0.0, mode), grid), False),
                (enforce_curvature_neumann(cap.u + np.log(1.0 + c), grid), True),
            ]
            for m, normalize_volume in built:
                ref = _direct_cap(c, grid, normalize_volume)
                for name in ("u", "u_ghost", "R"):
                    assert getattr(m, name).tobytes() == getattr(ref, name).tobytes()


def test_spherical_cap_without_positive_curvature_raises(grid_1d, grid_2d):
    # c r^2 vanishes against 1, so u is the constant log 4 and R is 0
    for grid in (grid_1d, grid_2d):
        with pytest.raises(PositivityError, match="cap c = 1e-300") as exc:
            spherical_cap(CapParams(1e-300), grid)
        assert exc.value.min_r == 0.0


def test_import_loads_no_integrator_entropy_or_solver():
    # the data need the geometry and its closure only; a fresh interpreter
    # shows what the import itself loads
    code = (
        "import sys\n"
        "import riccidisk.initial_data\n"
        "print(' '.join(m for m in sys.modules if m.startswith('riccidisk.')))\n"
    )
    src = str(Path(riccidisk.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    loaded = set(out.stdout.split())
    assert "riccidisk.initial_data" in loaded
    assert not loaded & {"riccidisk.flow", "riccidisk.entropy", "riccidisk.elliptic", "riccidisk._cg"}
