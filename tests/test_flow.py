import numpy as np
import pytest

from riccidisk.errors import PositivityError, UsageError
from riccidisk.flow import (
    FlowSchedule,
    FlowState,
    Termination,
    cfl_dt,
    enforce_curvature_neumann,
    run,
    step,
)
from riccidisk.geometry import make_metric, scalar_curvature
from riccidisk.grid import GridSpec, build_grid
from riccidisk.initial_data import CapParams, compatibility_residual, spherical_cap


def test_cfl_scales_with_safety(hemisphere_1d):
    assert cfl_dt(hemisphere_1d, 0.4) == pytest.approx(0.5 * cfl_dt(hemisphere_1d, 0.8))
    assert cfl_dt(hemisphere_1d, 0.8) > 0.0


def test_zero_step_is_identity(hemisphere_1d):
    s = FlowState(0.0, hemisphere_1d)
    assert step(s, 0.0) is s


def test_enforced_cap_satisfies_boundary_condition(grid_1d):
    m = spherical_cap(CapParams(0.6), grid_1d)
    assert compatibility_residual(m) < 1e-9


def test_enforcement_touches_only_the_ghost(grid_1d):
    m = spherical_cap(CapParams(0.6), grid_1d)
    m2 = enforce_curvature_neumann(m)
    assert np.array_equal(m.u, m2.u)


def test_hemisphere_matches_closed_form(grid_1d):
    m0 = spherical_cap(CapParams(1.0), grid_1d)
    traj = run(m0, FlowSchedule(t_end=0.1, record_every=1000), w_horizon=0.5)
    assert traj.termination is Termination.COMPLETED
    final = traj.snapshots[-1]
    t = final.t
    assert t == pytest.approx(0.1, abs=1e-12)
    # u(t) = u0 + log(1 - 2t) and R(t) = 2 / (1 - 2t)
    expected_u = m0.u + np.log(1.0 - 2.0 * t)
    assert np.max(np.abs(final.metric.u - expected_u)) < 5e-4
    R = scalar_curvature(final.metric)
    assert np.max(np.abs(R - 2.0 / (1.0 - 2.0 * t))) < 2e-3


def test_record_bookkeeping(grid_1d):
    m0 = spherical_cap(CapParams(0.5), grid_1d)
    traj = run(m0, FlowSchedule(t_end=0.002, record_every=10), w_horizon=0.5)
    assert traj.records[0].t == 0.0
    assert traj.records[-1].t == pytest.approx(0.002, abs=1e-12)
    assert len(traj.records) == len(traj.snapshots)
    assert len(traj.records) >= 3


def test_horizon_must_exceed_t_end(hemisphere_1d):
    with pytest.raises(UsageError):
        run(hemisphere_1d, FlowSchedule(t_end=0.3), w_horizon=0.2)


def test_snapshots_keep_no_cached_curvature(grid_2d):
    m0 = spherical_cap(CapParams(0.5), grid_2d)
    traj = run(m0, FlowSchedule(t_end=5.0e-6), w_horizon=0.5)
    assert len(traj.snapshots) >= 3
    for s in traj.snapshots:
        assert not {"R", "log_R", "kappa"} & set(vars(s.metric))


def test_nan_bounds_are_rejected(hemisphere_1d):
    with pytest.raises(UsageError):
        FlowSchedule(t_end=float("nan")).validate()
    with pytest.raises(UsageError):
        run(hemisphere_1d, FlowSchedule(t_end=0.01), w_horizon=float("nan"))


def test_schedule_validation():
    with pytest.raises(UsageError):
        FlowSchedule(t_end=-1.0).validate()
    with pytest.raises(UsageError):
        FlowSchedule(t_end=0.1, cfl_safety=1.5).validate()
    with pytest.raises(UsageError):
        FlowSchedule(t_end=0.1, record_every=0).validate()


def test_negative_curvature_initial_data_rejected(grid_1d):
    u = np.broadcast_to((grid_1d.r**2)[:, None], (grid_1d.n_r, 1)).copy()
    m = make_metric(u, grid_1d)
    assert scalar_curvature(m).min() < 0.0
    with pytest.raises(PositivityError):
        run(m, FlowSchedule(t_end=0.01), w_horizon=0.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_curvature_initial_data_rejected(grid_1d):
    # exp(800) overflows inside the block, where R = -inf * 0 is NaN
    u = np.zeros((grid_1d.n_r, 1))
    u[2:6] = -800.0
    m = enforce_curvature_neumann(make_metric(u, grid_1d))
    assert np.isnan(scalar_curvature(m).min())
    with pytest.raises(PositivityError):
        run(m, FlowSchedule(t_end=0.01), w_horizon=0.5)


def test_step_limit_termination(grid_1d):
    m0 = spherical_cap(CapParams(0.5), grid_1d)
    traj = run(m0, FlowSchedule(t_end=0.1, max_steps=3), w_horizon=0.5)
    assert traj.termination is Termination.STEP_LIMIT


def test_rk4_time_accuracy_vs_halved_step(grid_1d):
    # two half steps vs one full step; RK4 local error leaves ~1e-12 gap
    m0 = spherical_cap(CapParams(1.0), grid_1d)
    dt = cfl_dt(m0, 0.8)
    s_full = step(FlowState(0.0, m0), dt)
    s_half = step(step(FlowState(0.0, m0), 0.5 * dt), 0.5 * dt)
    assert np.max(np.abs(s_full.metric.u - s_half.metric.u)) < 1e-12
