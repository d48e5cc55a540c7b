import numpy as np
import pytest

from riccidisk import _kernels
from riccidisk.errors import (
    BoundaryClosureError,
    DomainError,
    PositivityError,
    RicciDiskError,
    UsageError,
)
from riccidisk.flow import (
    FlowSchedule,
    FlowState,
    Termination,
    cfl_dt,
    enforce_curvature_neumann,
    run,
    step,
)
from riccidisk.geometry import ConformalMetric, make_metric, scalar_curvature
from riccidisk.grid import GridSpec, build_grid
from riccidisk.initial_data import (
    CapParams,
    PerturbationParams,
    compatibility_residual,
    perturbed_cap,
    spherical_cap,
)


# Reference step: the four-call RK4 step the fused one replaces, kept as the
# oracle it must reproduce bit for bit.  Every stage runs the closure for
# its ghost alone and then the curvature kernel, the stages are combined
# out of place, and the time step reads a fresh exp(u).

def _ref_closed(u, grid):
    ghost, _ = _kernels.curvature_neumann_ghost(u, *grid.stencil)
    if not np.isfinite(ghost).all():
        raise BoundaryClosureError("curvature ghost closure produced non-finite values")
    return ConformalMetric(u, grid, ghost)


def _ref_rhs(m):
    return -scalar_curvature(m)


def _ref_cfl_dt(m, safety):
    g = m.grid
    h = min(g.dr, g.r[0] * g.dtheta)
    return safety * float(np.exp(m.u).min()) * h * h / 4.0


def _ref_step(s, dt):
    m0 = s.metric
    u0, grid = m0.u, m0.grid
    k1 = _ref_rhs(m0)
    k2 = _ref_rhs(_ref_closed(u0 + 0.5 * dt * k1, grid))
    k3 = _ref_rhs(_ref_closed(u0 + 0.5 * dt * k2, grid))
    k4 = _ref_rhs(_ref_closed(u0 + dt * k3, grid))
    m_new = _ref_closed(u0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), grid)
    r_min = float(scalar_curvature(m_new).min())
    if not r_min > 0.0:
        raise PositivityError(f"min R = {r_min:.3e} is not positive", min_r=r_min)
    return FlowState(s.t + dt, m_new)


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
    m2 = enforce_curvature_neumann(m.u, m.grid)
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
    m = enforce_curvature_neumann(u, grid_1d)
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


def test_step_builds_one_metric_per_closure(hemisphere_1d, monkeypatch):
    # stages k2, k3, k4 and the new state: one closed metric each
    calls = []
    post_init = ConformalMetric.__post_init__

    def counting_post_init(self):
        calls.append(1)
        post_init(self)

    monkeypatch.setattr(ConformalMetric, "__post_init__", counting_post_init)
    step(FlowState(0.0, hemisphere_1d), cfl_dt(hemisphere_1d, 0.8))
    assert len(calls) == 4


def test_step_calls_no_np_roll(grid_2d, monkeypatch):
    # np.roll costs microseconds of Python per call whatever the array size,
    # so the closure and curvature kernels shift along theta by slicing
    m0 = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)

    def no_roll(*args, **kwargs):
        raise AssertionError("np.roll called inside a time step")

    monkeypatch.setattr(np, "roll", no_roll)
    s = step(FlowState(0.0, m0), cfl_dt(m0, 0.8))
    assert s.t > 0.0


@pytest.mark.parametrize("n_r, n_theta, mode", [(128, 1, 0), (64, 32, 2), (128, 64, 3)])
def test_step_matches_reference_step_bit_for_bit(n_r, n_theta, mode):
    g = build_grid(GridSpec(n_r, n_theta))
    if mode:
        m0 = perturbed_cap(CapParams(0.5), PerturbationParams(0.04, mode), g)
    else:
        m0 = spherical_cap(CapParams(1.0), g)
    fast = ref = FlowState(0.0, m0)
    for _ in range(25):
        dt = cfl_dt(fast.metric, 0.8)
        assert dt == _ref_cfl_dt(ref.metric, 0.8)
        fast = step(fast, dt)
        ref = _ref_step(ref, dt)
    assert fast.t == ref.t
    assert np.array_equal(fast.metric.u, ref.metric.u)
    assert np.array_equal(fast.metric.u_ghost, ref.metric.u_ghost)
    assert np.array_equal(fast.metric.R, scalar_curvature(ref.metric))


def _failing_state(case, grid):
    """A state and a time step on which one RK4 step fails."""
    if case == "overflow":
        # a stage far beyond the CFL bound overflows exp(-u)
        return spherical_cap(CapParams(0.5), grid), 1.0e3
    if case == "nan":
        # one NaN in u (set after construction, which rejects it) reaches
        # the stages through R
        m = make_metric(spherical_cap(CapParams(0.5), grid).u.copy(), grid)
        m.u[grid.n_r // 2, 0] = np.nan
        return m, 1.0e-6
    # u = r^2 has negative curvature: the step cannot end positive
    u = np.broadcast_to((grid.r**2)[:, None], (grid.n_r, grid.n_theta)).copy()
    return enforce_curvature_neumann(u, grid), 1.0e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "case, error",
    [("overflow", BoundaryClosureError), ("nan", DomainError), ("positivity", PositivityError)],
)
def test_step_fails_like_reference_step(grid_2d, case, error):
    # each side gets its own state: the step fills the metric's caches
    raised = []
    for fn in (step, _ref_step):
        m, dt = _failing_state(case, grid_2d)
        with pytest.raises(RicciDiskError) as info:
            fn(FlowState(0.0, m), dt)
        raised.append(type(info.value))
    assert raised == [error, error]
