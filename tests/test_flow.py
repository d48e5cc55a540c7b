import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccidisk import _kernels, cli, entropy, flow
from riccidisk.errors import (
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
from riccidisk.geometry import (
    ConformalMetric,
    laplace_beltrami,
    make_metric,
    scalar_curvature,
)
from riccidisk.grid import (
    GridSpec,
    boundary_value,
    build_grid,
    radial_derivative_at_boundary_interior,
)
from riccidisk.initial_data import (
    CapParams,
    PerturbationParams,
    compatibility_residual,
    perturbed_cap,
    spherical_cap,
)
from riccidisk.verify import check_avg_evolution, check_kappa_evolution


# Reference steps.  ``_ref_step`` is the RKL2 super-step in the textbook
# form of Meyer, Balsara & Aslam (J. Comput. Phys. 257 (2014) 594-626), the
# oracle the step must reproduce bit for bit: every stage is a metric whose
# ghost ring keeps the offset u_ghost - u[-1] of the state the super-step
# starts from, and its R is computed afresh.  ``_ref_ssprk3_step`` is the
# Shu-Osher SSP-RK3 step RKL2 replaced, kept as an oracle of the same
# trajectory with the per-stage curvature closure it ran with, and
# ``_ref_ssprk3_run`` steps it at the forward-Euler bound with a record
# every ``record_every`` steps.  The stages are combined out of place, and
# the time step reads a fresh exp(u).

def _ref_frozen(u, grid, offset):
    return ConformalMetric(u, grid, u[-1] + offset)


def _ref_closed(u, grid):
    ghost, _ = _kernels.curvature_neumann_ghost(u, *grid.stencil)
    if not np.isfinite(ghost).all():
        raise DomainError("curvature ghost closure produced non-finite values")
    return ConformalMetric(u, grid, ghost)


def _ref_rhs(m):
    return -scalar_curvature(m)


def _ref_cfl_dt(m, safety):
    # forward Euler on the pole ring's Gershgorin bound, from the exp field
    g = m.grid
    rho = 4.0 / g.dr**2 + (4.0 / (g.r[0] * g.dtheta) ** 2 if g.n_theta > 1 else 0.0)
    return safety * float(np.exp(m.u).min()) * 2.0 / rho


def _ref_accept(s, dt, m_new):
    r_min = float(scalar_curvature(m_new).min())
    if not r_min > 0.0:
        raise PositivityError(f"min R = {r_min:.3e} is not positive", min_r=r_min)
    return FlowState(s.t + dt, m_new)


def _ref_b(j):
    return 1.0 / 3.0 if j < 2 else (j * j + j - 2) / (2.0 * j * (j + 1))


def _ref_step(s, dt, stages):
    m0 = s.metric
    y0, grid = m0.u, m0.grid
    offset = m0.u_ghost - y0[-1]
    w1 = 4.0 / (stages * stages + stages - 2)
    l0 = _ref_rhs(m0)
    ys = [y0, y0 + _ref_b(1) * w1 * dt * l0]
    for j in range(2, stages + 1):
        mu = (2 * j - 1) / j * _ref_b(j) / _ref_b(j - 1)
        nu = -(j - 1) / j * _ref_b(j) / _ref_b(j - 2)
        mu_t = mu * w1
        gamma_t = -(1.0 - _ref_b(j - 1)) * mu_t
        l1 = _ref_rhs(_ref_frozen(ys[-1], grid, offset))
        ys.append(
            mu * ys[-1] + nu * ys[-2] + (1.0 - mu - nu) * y0
            + mu_t * dt * l1 + gamma_t * dt * l0
        )
    return _ref_accept(s, dt, _ref_frozen(ys[-1], grid, offset))


def _ref_ssprk3_step(s, dt):
    m0 = s.metric
    u0, grid = m0.u, m0.grid
    u1 = u0 + dt * _ref_rhs(m0)
    m1 = _ref_closed(u1, grid)
    u2 = 0.75 * u0 + 0.25 * (u1 + dt * _ref_rhs(m1))
    m2 = _ref_closed(u2, grid)
    u3 = 1.0 / 3.0 * u0 + 2.0 / 3.0 * (u2 + dt * _ref_rhs(m2))
    return _ref_accept(s, dt, _ref_closed(u3, grid))


def _ref_ssprk3_run(m0, sched):
    """Record times and final state of SSP-RK3 steps at ``cfl_dt``."""
    s = FlowState(0.0, _ref_closed(m0.u, m0.grid))
    times, steps = [0.0], 0
    while s.t < sched.t_end * (1.0 - 1e-14):
        dt = min(_ref_cfl_dt(s.metric, sched.cfl_safety), sched.t_end - s.t)
        s = _ref_ssprk3_step(s, dt)
        steps += 1
        if steps % sched.record_every == 0 or s.t >= sched.t_end * (1.0 - 1e-14):
            times.append(s.t)
    return times, s


def test_cfl_scales_with_safety(hemisphere_1d):
    assert cfl_dt(hemisphere_1d, 0.4) == pytest.approx(0.5 * cfl_dt(hemisphere_1d, 0.8))
    assert cfl_dt(hemisphere_1d, 0.8) > 0.0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n_theta=st.sampled_from([1, 8]),
    base=st.one_of(
        st.floats(-745.0, 709.0), st.floats(690.0, 709.0), st.floats(-745.0, -690.0)
    ),
    kind=st.sampled_from(["ulps", "spread"]),
    spread=st.sampled_from([0.0, 1e-12, 1e-3, 1.0, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cfl_bound_is_the_min_of_the_exp_field(n_theta, base, kind, spread, seed):
    # cfl_dt exponentiates min u, not the field: the same double exactly
    # when numpy's exp is monotone, which neighbours a few ulps apart test
    g = build_grid(GridSpec(8, n_theta))
    rng = np.random.default_rng(seed)
    if kind == "ulps":
        offsets = np.spacing(base) * rng.integers(-3, 4, (8, n_theta))
    else:
        offsets = spread * rng.uniform(-1.0, 1.0, (8, n_theta))
    u = np.minimum(base + offsets, 709.0)
    m = make_metric(u, g)
    for s in (0.8, 1.0):
        assert cfl_dt(m, s) == _ref_cfl_dt(m, s)
        assert np.isfinite(cfl_dt(m, s))


@pytest.mark.parametrize("n_r, n_theta", [(128, 1), (100, 1), (8, 8), (32, 16), (64, 32), (128, 64)])
def test_cfl_bound_over_the_square_grid_bound(n_r, n_theta):
    # against min(dr, r_0 dth)^2 / 4, the forward-Euler bound of a square
    # grid of spacing h: twice it in 1-D, where no angular term exists, and
    # 2 / (1 + (r_0 dth / dr)^2) in 2-D, with r_0 dth / dr = pi / n_theta
    g = build_grid(GridSpec(n_r, n_theta))
    m = spherical_cap(CapParams(0.5), g)
    h = min(g.dr, g.r[0] * g.dtheta)
    ratio = cfl_dt(m, 0.8) / (0.8 * float(np.exp(m.u.min())) * h * h / 4.0)
    if n_theta == 1:
        assert ratio == pytest.approx(2.0, rel=1e-14)
    else:
        assert 1.7 < ratio < 2.0


def _super_steps_at(m, n, count, safety=0.8):
    """``count`` 8-stage super-steps of ``n`` steps at the bound."""
    s = FlowState(0.0, m)
    for _ in range(count):
        s = step(s, n * cfl_dt(s.metric, safety), 8)
    return s


def test_cfl_bound_is_stable_with_the_closure_row(grid_1d):
    # the last ring's row is closed by the frozen flux; 2,000 steps'
    # worth of the bound at safety 1, in 8-stage super-steps of 17.5 steps,
    # neither lose positivity nor let min R fall (d_t R = lap R + R^2 >= 0
    # at the minimum), while twice the bound loses the hemisphere's
    # positivity within a few super-steps
    hemisphere = spherical_cap(CapParams(1.0), grid_1d)
    cap = perturbed_cap(
        CapParams(0.5), PerturbationParams(0.05, 2), build_grid(GridSpec(32, 16))
    )
    ends = [_super_steps_at(m, 17.5, math.ceil(2000 / 17.5), 1.0) for m in (hemisphere, cap)]
    for m, s in zip((hemisphere, cap), ends):
        assert float(s.metric.R.min()) >= float(m.R.min())
    # and the hemisphere is still on R(t) = 2 / (1 - 2t)
    s = ends[0]
    assert np.max(np.abs(s.metric.R - 2.0 / (1.0 - 2.0 * s.t))) < 2e-3
    with pytest.raises(PositivityError):
        _super_steps_at(hemisphere, 35.0, 5, 1.0)


def test_cfl_bound_has_the_accuracy_of_half_the_bound(grid_1d):
    # 17.5-step super-steps at safety 1, 1/2 and 1/4: halving dt cuts the
    # difference about 4x (second order), and the time error at the bound,
    # about 4/3 of the first difference, stays over 1000x below h^2
    m0 = spherical_cap(CapParams(1.0), grid_1d)
    finals = [
        run(m0, FlowSchedule(t_end=0.05, cfl_safety=s, record_every=10**6), 0.5).snapshots[-1]
        for s in (1.0, 0.5, 0.25)
    ]
    assert [f.t for f in finals] == [0.05] * 3
    d1, d2 = (
        np.max(np.abs(a.metric.u - b.metric.u)) for a, b in zip(finals, finals[1:])
    )
    assert 3.0 < d1 / d2 < 5.0
    assert 4.0 / 3.0 * d1 < 1e-3 * grid_1d.dr**2


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
    assert len(traj.records) >= 3
    assert [sn.t for sn in traj.snapshots] == [traj.records[i].t for i in sorted(traj.states)]


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
        FlowSchedule(t_end=float("nan"))
    with pytest.raises(UsageError):
        run(hemisphere_1d, FlowSchedule(t_end=0.01), w_horizon=float("nan"))


def test_schedule_validation():
    with pytest.raises(UsageError):
        FlowSchedule(t_end=-1.0)
    with pytest.raises(UsageError):
        FlowSchedule(t_end=0.1, cfl_safety=1.5)
    with pytest.raises(UsageError):
        FlowSchedule(t_end=0.1, record_every=0)


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


def test_step_limit_termination(grid_1d, monkeypatch):
    # MAX_STEPS counts super-steps: six of 16.7 steps make one record
    # interval of 100 steps, so the run stops between records and still
    # records its last state
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    m0 = spherical_cap(CapParams(0.5), grid_1d)
    traj = run(m0, FlowSchedule(t_end=0.1, record_every=100), w_horizon=0.5)
    s = _super_steps_at(m0, 100 / 6, 3)
    assert traj.termination is Termination.STEP_LIMIT
    assert [r.t for r in traj.records] == [0.0, s.t]
    assert [sn.t for sn in traj.snapshots] == [0.0, s.t]
    assert np.array_equal(traj.snapshots[-1].metric.u, s.metric.u)


@pytest.mark.parametrize("per_record", [10, 3])
def test_positivity_loss_records_last_accepted_state(grid_1d, monkeypatch, per_record):
    # the fourth super-step fails; with 17 steps per super-step
    # ``per_record`` super-steps make a record interval, and with 3 the last
    # accepted super-step is a record step already
    dts = []

    def failing_step(s, dt, stages):
        dts.append(dt)
        if len(dts) == 4:
            raise PositivityError("min R is not positive", min_r=-1.0)
        return step(s, dt, stages)

    monkeypatch.setattr(flow, "step", failing_step)
    m0 = spherical_cap(CapParams(0.5), grid_1d)
    sched = FlowSchedule(t_end=0.1, record_every=17 * per_record)
    traj = run(m0, sched, w_horizon=0.5)
    assert traj.termination is Termination.POSITIVITY_LOST
    assert [r.t for r in traj.records] == [0.0, sum(dts[:3])]
    assert len(traj.snapshots) == 2


def test_step_time_accuracy_vs_halved_step(grid_1d):
    # two half super-steps vs one full one of 17.5 steps at safety 0.8; the
    # second-order local error leaves a gap far below h^2 (7e-11)
    m0 = spherical_cap(CapParams(1.0), grid_1d)
    dt = 17.5 * cfl_dt(m0, 0.8)
    s_full = step(FlowState(0.0, m0), dt, 8)
    s_half = step(step(FlowState(0.0, m0), 0.5 * dt, 8), 0.5 * dt, 8)
    assert np.max(np.abs(s_full.metric.u - s_half.metric.u)) < 1e-5 * grid_1d.dr**2


def test_step_builds_one_metric_per_closure(hemisphere_1d, monkeypatch):
    # the stages Y_1, ..., Y_{s-1} stay plain arrays: only the new state
    # Y_s becomes a metric, whatever the number of stages
    post_init = ConformalMetric.__post_init__
    for stages in range(2, 9):
        calls = []

        def counting_post_init(self):
            calls.append(1)
            post_init(self)

        monkeypatch.setattr(ConformalMetric, "__post_init__", counting_post_init)
        step(FlowState(0.0, hemisphere_1d), cfl_dt(hemisphere_1d, 0.8), stages)
        assert len(calls) == 1


def test_step_calls_rhs_and_closure_through_the_module(grid_2d, monkeypatch):
    # the step looks ``rhs`` up in ``flow`` and ``curvature`` in
    # ``_kernels``, so wrappers installed there (as a profiler does) see
    # each call: ``rhs`` once per super-step, for L(Y_0), and the curvature
    # kernel once per stage; the t = 0 closure is not repeated
    m0 = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)
    calls = {"rhs": 0, "curvature": 0, "enforce_curvature_neumann": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    for module, name in (
        (flow, "rhs"), (_kernels, "curvature"), (flow, "enforce_curvature_neumann")
    ):
        monkeypatch.setattr(module, name, counting(module, name))
    s, supers, total = FlowState(0.0, m0), 0, 0
    for stages in (2, 5, 8):
        s = step(s, cfl_dt(s.metric, 0.8), stages)
        supers += 1
        total += stages
        assert calls == {"rhs": supers, "curvature": total, "enforce_curvature_neumann": 0}


def test_step_calls_no_np_roll(grid_2d, monkeypatch):
    # np.roll costs microseconds of Python per call whatever the array size,
    # so the closure and curvature kernels shift along theta by slicing
    m0 = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)

    def no_roll(*args, **kwargs):
        raise AssertionError("np.roll called inside a time step")

    monkeypatch.setattr(np, "roll", no_roll)
    s = step(FlowState(0.0, m0), cfl_dt(m0, 0.8), 8)
    assert s.t > 0.0


def _start(n_r, n_theta, mode):
    """The hemisphere in 1-D (mode 0), a perturbed cap of ``mode`` in 2-D."""
    g = build_grid(GridSpec(n_r, n_theta))
    if mode:
        return perturbed_cap(CapParams(0.5), PerturbationParams(0.04, mode), g)
    return spherical_cap(CapParams(1.0), g)


@pytest.mark.parametrize("n_r, n_theta, mode", [(128, 1, 0), (64, 32, 2), (128, 64, 3)])
def test_step_matches_reference_step_bit_for_bit(n_r, n_theta, mode):
    # super-steps of 2 to 8 stages, each at its full length at safety 0.8
    m0 = _start(n_r, n_theta, mode)
    fast = ref = FlowState(0.0, m0)
    for i in range(21):
        stages = 2 + i % 7
        dt = cfl_dt(fast.metric, 0.8)
        assert dt == _ref_cfl_dt(ref.metric, 0.8)
        dt *= (stages * stages + stages - 2) / 4
        fast = step(fast, dt, stages)
        ref = _ref_step(ref, dt, stages)
    assert fast.t == ref.t
    assert np.array_equal(fast.metric.u, ref.metric.u)
    assert np.array_equal(fast.metric.u_ghost, ref.metric.u_ghost)
    assert np.array_equal(fast.metric.R, scalar_curvature(ref.metric))


@pytest.mark.parametrize("n_r, n_theta, mode", [(128, 1, 0), (64, 32, 2), (128, 64, 3)])
def test_step_agrees_with_ssprk3(n_r, n_theta, mode):
    # second and third order at a step proportional to h^2: over 200 steps
    # at the bound, 12 super-steps against 200 SSP-RK3 steps, the two
    # trajectories differ by far less than the space error (1.4e-5 h^2 in
    # 1-D, under 1e-9 h^2 in 2-D)
    m0 = _start(n_r, n_theta, mode)
    sched = FlowSchedule(t_end=200 * cfl_dt(m0, 0.8), record_every=200)
    final = run(m0, sched, w_horizon=0.5).snapshots[-1]
    _, ref = _ref_ssprk3_run(m0, sched)
    assert final.t == ref.t
    h = max(m0.grid.dr, m0.grid.dtheta) if n_theta > 1 else m0.grid.dr
    assert np.max(np.abs(final.metric.u - ref.metric.u)) < 1e-4 * h * h


@pytest.mark.parametrize(
    "record_every, stages, per_record",
    [(1, 2, 1), (2, 3, 1), (5, 5, 1), (18, 6, 2), (35, 8, 2), (36, 7, 3), (200, 8, 12)],
)
def test_run_takes_the_fewest_stages(grid_1d, monkeypatch, record_every, stages, per_record):
    # the fewest equal super-steps of at most 8 stages cover a record
    # interval, each of the fewest stages that cover its length; the last
    # super-step stops at t_end
    taken = []

    def logging_step(s, dt, n_stages):
        taken.append((dt / cfl_dt(s.metric, 0.8), n_stages))
        return step(s, dt, n_stages)

    monkeypatch.setattr(flow, "step", logging_step)
    m0 = spherical_cap(CapParams(1.0), grid_1d)
    sched = FlowSchedule(t_end=2.5 * record_every * cfl_dt(m0, 0.8), record_every=record_every)
    traj = run(m0, sched, w_horizon=0.5)
    assert len(traj.records) == 4
    for n, n_stages in taken[:2 * per_record]:
        assert n == pytest.approx(record_every / per_record, rel=1e-12)
        assert n_stages == stages
    assert 2 * per_record < len(taken) < 3 * per_record + 1
    assert taken[-1][0] < record_every / per_record


def _boundary_flux_of_lap_R(m):
    """max |d_r lap R| at r = 1, as ``check_normal_lemmas`` measures it."""
    lap_R = laplace_beltrami(m.R, m)
    return float(np.max(np.abs(radial_derivative_at_boundary_interior(lap_R, m.grid))))


def test_stage_cap_keeps_the_boundary_flux_of_ssprk3():
    # the closure row narrows RKL2's stability as the stages grow: on the
    # 1-D trajectory of acceptance criterion 5 the flux of lap R at the
    # boundary is SSP-RK3's up to 8 stages (17.5 steps a super-step), but
    # 100x it at 14 stages (50 steps) and over criterion 5's bound
    m0 = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 0), build_grid(GridSpec(128, 1)))
    sched = FlowSchedule(t_end=0.02, record_every=100)
    final = run(m0, sched, w_horizon=0.5).snapshots[-1]
    _, ref = _ref_ssprk3_run(m0, sched)
    assert final.t == ref.t
    flux, ref_flux = (_boundary_flux_of_lap_R(s.metric) for s in (final, ref))
    assert flux <= 1.5 * ref_flux


# What the frozen flux buys: the discrete int R dv = -sum lap0(u) w_vol is
# u's boundary flux, so it is constant, and d_t Rbar = Rbar^2 and the kappa
# law hold without a closure error in space

# avg_evolution's abs_err on ``_frozen_flux_cap`` (to t = 2e-3, a record
# every 100 steps) when every stage solved the per-node curvature closure
# on the (1 - r^2)^4 profile
_PER_STAGE_CLOSURE_AVG_ERR = 1.32e-6


def _frozen_flux_cap():
    g = build_grid(GridSpec(64, 32))
    return perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), g)


@pytest.mark.parametrize("workload", ["hemisphere-1d", "mode-2-cap"])
def test_int_R_dv_is_constant(workload, run_keeping_every_state):
    # over the hemisphere-1d benchmark config and the cap of the next test
    if workload == "hemisphere-1d":
        m0, sched = _start(128, 1, 0), FlowSchedule(t_end=0.15, record_every=200)
    else:
        m0, sched = _frozen_flux_cap(), FlowSchedule(t_end=2.0e-3, record_every=100)
    traj, states = run_keeping_every_state(m0, sched)
    assert traj.termination is Termination.COMPLETED
    assert len(states) >= 3
    int_R = np.array([s.metric.int_R for s in states])
    assert np.max(np.abs(int_R - m0.int_R)) <= 1e-13 * abs(m0.int_R)


def test_avg_evolution_error_is_10x_below_the_per_stage_closure():
    m0 = _frozen_flux_cap()
    traj = run(m0, FlowSchedule(t_end=2.0e-3, record_every=100), w_horizon=0.5)
    rep = check_avg_evolution(traj)
    assert rep.passed
    assert rep.abs_err < 0.1 * _PER_STAGE_CLOSURE_AVG_ERR


def test_corrupted_offset_fails_kappa_evolution(grid_1d, monkeypatch):
    # the kappa law reads u's boundary flux: moving the offset u_ghost -
    # u[-1] by 1% after the first super-step moves kappa by about 0.01,
    # four times the check's tolerance, while the run left alone passes
    # with an error of about 1e-13
    m0 = spherical_cap(CapParams(1.0), grid_1d)
    sched = FlowSchedule(t_end=0.05, record_every=50)
    assert check_kappa_evolution(run(m0, sched, w_horizon=0.5)).passed

    def corrupting_step(s, dt, stages):
        m = s.metric
        if s.t > 0.0 and not corrupted:
            corrupted.append(s.t)
            ghost = m.u[-1] + 1.01 * (m.u_ghost - m.u[-1])
            s = FlowState(s.t, ConformalMetric(m.u, m.grid, ghost))
        return step(s, dt, stages)

    corrupted = []
    monkeypatch.setattr(flow, "step", corrupting_step)
    traj = run(m0, sched, w_horizon=0.5)
    assert traj.termination is Termination.COMPLETED
    assert len(corrupted) == 1
    assert not check_kappa_evolution(traj).passed


# (grid, cap c, eps, mode, t_end, cfl_safety, record_every) of the three
# benchmark workloads and of acceptance criteria 1, 2, 3, 5 and 8; a t_end
# below 1e-3 counts steps at the initial bound
_RECORD_SCHEDULES = {
    "hemisphere-1d": ((128, 1), 1.0, 0.0, 0, 0.15, 0.8, 200),
    "cap-2d-records": ((128, 64), 0.45, 0.035, 2, 2.1e-6, 0.8, 1),
    "cap-2d-verify": ((64, 32), 0.55, 0.045, 3, 2.0e-3, 0.8, 100),
    "criterion-1": ((128, 1), 1.0, 0.0, 0, 0.2, 0.8, 50),
    "criterion-2": ((128, 64), 0.5, 0.05, 2, 4.5, 0.25, 1),
    "criterion-3-1d": ((128, 1), 0.4, 0.0, 0, 0.02, 0.8, 100),
    "criterion-3-2d": ((64, 32), 0.7, 0.03, 3, 6.0, 0.8, 1),
    "criterion-5": ((128, 1), 0.5, 0.0, 0, 0.1, 0.8, 200),
    "criterion-8": ((64, 16), 0.5, 0.03, 2, 1e-4, 0.8, 20),
}


@pytest.mark.parametrize("name", sorted(_RECORD_SCHEDULES))
def test_run_records_as_often_as_ssprk3(name, monkeypatch):
    # a record every ``record_every`` steps at the forward-Euler bound: the
    # super-steps keep the record count of SSP-RK3 steps at that bound
    (n_r, n_theta), c, eps, mode, t_end, safety, every = _RECORD_SCHEDULES[name]
    m0 = perturbed_cap(CapParams(c), PerturbationParams(eps, mode), build_grid(GridSpec(n_r, n_theta)))
    if t_end > 1.0:
        t_end *= cfl_dt(m0, safety)
    sched = FlowSchedule(t_end=t_end, cfl_safety=safety, record_every=every)
    monkeypatch.setattr(flow.entropy, "make_record", lambda m, t, w_horizon: SimpleNamespace(t=t))
    times = [r.t for r in run(m0, sched, w_horizon=0.5).records]
    ref_times, _ = _ref_ssprk3_run(m0, sched)
    assert len(times) == len(ref_times)
    assert times[-1] == ref_times[-1] == t_end


def _failing_state(case, grid):
    """A state and a time step on which one step fails."""
    if case == "overflow":
        # a stage far beyond the CFL bound overflows exp(-u), and the next
        # stage is not finite
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
    [("overflow", DomainError), ("nan", DomainError), ("positivity", PositivityError)],
)
def test_step_fails_like_reference_step(grid_2d, case, error):
    # each side gets its own state: the step fills the metric's caches
    raised = []
    for fn in (step, _ref_step):
        m, dt = _failing_state(case, grid_2d)
        with pytest.raises(RicciDiskError) as info:
            fn(FlowState(0.0, m), dt, 8)
        raised.append(type(info.value))
    assert raised == [error, error]


# What a run holds: every record with its boundary trace of R and int
# kappa ds, and the states of its two ends and of its probe triple


def _probe_rule(records, t_end):
    """The first record at or after t_end / 2 with a later one, else the last but one."""
    later = [i for i, r in enumerate(records[:-1]) if r.t >= 0.5 * t_end]
    return later[0] if later else len(records) - 2


def _assert_same_state(snap, state):
    assert snap.t == state.t
    assert np.array_equal(snap.metric.u, state.metric.u)
    assert np.array_equal(snap.metric.u_ghost, state.metric.u_ghost)


def _assert_holds_its_ends_and_probe_triple(traj, states):
    """``traj`` against ``states``, the state of every record of the same run."""
    n, k = len(traj.records), traj.probe
    assert sorted(traj.states) == sorted({0, n - 1} | {i for i in (k - 1, k, k + 1) if i >= 0})
    assert traj.snapshots == [traj.states[i] for i in sorted(traj.states)]
    for i, held in traj.states.items():
        _assert_same_state(held, states[i])
    assert len(traj.boundary_R) == len(traj.int_kappa) == n
    for i, s in enumerate(states):
        assert np.array_equal(traj.boundary_R[i], boundary_value(scalar_curvature(s.metric)))
        assert traj.int_kappa[i] == s.metric.int_kappa


@pytest.mark.parametrize("n_r, n_theta, mode", [(128, 1, 0), (64, 32, 2), (128, 64, 3)])
def test_run_holds_its_ends_and_probe_triple(n_r, n_theta, mode, run_keeping_every_state):
    # a record per step: the states of records 1, 2 and 6, 7 are dropped
    m0 = _start(n_r, n_theta, mode)
    sched = FlowSchedule(t_end=7.5 * cfl_dt(m0, 0.8), record_every=1)
    traj, states = run_keeping_every_state(m0, sched)
    assert traj.termination is Termination.COMPLETED
    assert len(traj.records) == 9
    assert traj.probe == _probe_rule(traj.records, sched.t_end) == 4
    assert len(traj.snapshots) == 5
    _assert_same_state(traj.snapshots[0], FlowState(0.0, m0))
    _assert_holds_its_ends_and_probe_triple(traj, states)


@pytest.mark.parametrize("per_record", [1, 2, 10])
def test_step_limit_keeps_the_last_state(
    grid_1d, monkeypatch, per_record, run_keeping_every_state
):
    # super-steps of 17 steps, ``per_record`` of them to a record interval;
    # the run stops long before t_end / 2 and probes its last three records
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    m0 = spherical_cap(CapParams(0.5), grid_1d)
    sched = FlowSchedule(t_end=0.1, record_every=17 * per_record)
    traj, states = run_keeping_every_state(m0, sched)
    s = _super_steps_at(m0, 17, 3)
    assert traj.termination is Termination.STEP_LIMIT
    assert len(traj.records) == {1: 4, 2: 3, 10: 2}[per_record]
    assert traj.records[-1] == entropy.make_record(s.metric, s.t, 0.5)
    assert traj.probe == len(traj.records) - 2
    assert np.array_equal(traj.snapshots[0].metric.u, m0.u)
    _assert_same_state(traj.snapshots[-1], s)
    _assert_holds_its_ends_and_probe_triple(traj, states)


@pytest.mark.parametrize("error", [PositivityError, DomainError])
@pytest.mark.parametrize("per_record", [1, 2, 3, 10])
def test_positivity_loss_keeps_the_last_accepted_state(
    grid_1d, monkeypatch, per_record, error, run_keeping_every_state
):
    # ``step`` raises each of these for a curvature that is no longer a
    # positive finite field: min R <= 0 or NaN, a non-finite stage
    m0 = spherical_cap(CapParams(0.5), grid_1d)
    sched = FlowSchedule(t_end=0.1, record_every=17 * per_record)
    args = []

    def failing_step(s, dt, stages):
        args.append((dt, stages))
        if len(args) == 4:
            raise error("the super-step is rejected")
        return step(s, dt, stages)

    monkeypatch.setattr(flow, "step", failing_step)
    traj, states = run_keeping_every_state(m0, sched)
    s = FlowState(0.0, m0)
    for dt, stages in args[:3]:
        s = step(s, dt, stages)
    assert traj.termination is Termination.POSITIVITY_LOST
    assert traj.records[-1] == entropy.make_record(s.metric, s.t, 0.5)
    assert traj.probe == len(traj.records) - 2
    _assert_same_state(traj.snapshots[-1], s)
    _assert_holds_its_ends_and_probe_triple(traj, states)


def test_super_step_that_cannot_move_t_ends_the_run(
    grid_1d, monkeypatch, run_keeping_every_state
):
    # after three super-steps the bound falls below half an ulp of t, as it
    # does near a blow-up time: t + dt == t, so the fourth is not taken
    monkeypatch.setattr(flow, "MAX_STEPS", 50)
    bound = flow.cfl_dt
    calls = []

    def shrinking_cfl_dt(m, safety):
        calls.append(m)
        return bound(m, safety) if len(calls) <= 3 else 1.0e-30

    taken = []

    def counting_step(s, dt, stages):
        taken.append((dt, stages))
        return step(s, dt, stages)

    monkeypatch.setattr(flow, "cfl_dt", shrinking_cfl_dt)
    monkeypatch.setattr(flow, "step", counting_step)
    m0 = spherical_cap(CapParams(0.5), grid_1d)
    traj, states = run_keeping_every_state(m0, FlowSchedule(t_end=0.1, record_every=34))
    s = FlowState(0.0, m0)
    for dt, stages in taken:
        s = step(s, dt, stages)
    assert len(taken) == 3
    assert s.t + 1.0e-30 * 17 == s.t
    assert traj.termination is Termination.STEP_LIMIT
    assert [r.t for r in traj.records] == [0.0, taken[0][0] + taken[1][0], s.t]
    assert traj.records[-1] == entropy.make_record(s.metric, s.t, 0.5)
    _assert_same_state(traj.snapshots[-1], s)
    _assert_holds_its_ends_and_probe_triple(traj, states)


@pytest.mark.parametrize("command", ["run", "verify"])
def test_run_memory_does_not_grow_with_records(grid_2d, monkeypatch, tmp_path, command):
    # tracemalloc sees numpy's buffers.  Each extra record adds the record
    # itself (about 0.7 KB) and its boundary trace of R (32 values); a state
    # per record would add 16.6 KB.  ``verify`` runs the flow through
    # ``cli.run`` and then its snapshot checks, as ``riccidisk verify`` does.
    m0 = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)
    dt = cfl_dt(m0, 0.8)
    runs = []

    def spy(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(cli, "_initial_metric", lambda cfg: m0)
    monkeypatch.setattr(cli, "run", spy)

    def traced_peak(n_steps):
        sched = FlowSchedule(t_end=float((n_steps - 0.5) * dt), record_every=1)
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(
            f"grid.n_r = 64\ngrid.n_theta = 32\ninitial.cap_c = 0.5\ninitial.eps = 0.05\n"
            f"initial.mode = 2\nschedule.t_end = {sched.t_end!r}\nschedule.cfl_safety = 0.8\n"
            f"schedule.record_every = 1\nw.horizon = 0.5\n"
            f"out.trajectory_csv = {tmp_path / 'traj.csv'}\n"
            f"out.report_jsonl = {tmp_path / 'report.jsonl'}\n"
            "verify.checks = kappa_evolution, normal_lemmas, second_derivative_N\n",
            encoding="utf-8",
        )
        runs.clear()
        tracemalloc.start()
        try:
            if command == "run":
                spy(m0, sched, 0.5)
            else:
                assert cli.main(["verify", str(cfg)]) in (cli.EXIT_OK, cli.EXIT_VERIFY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (traj,) = runs
        assert traj.termination is Termination.COMPLETED
        return peak, len(traj.records)

    traced_peak(3)  # fills the caches that outlive a run
    (peak_20, n_20), (peak_200, n_200) = traced_peak(20), traced_peak(200)
    assert n_200 - n_20 > 170
    assert (peak_200 - peak_20) / (n_200 - n_20) < 2048
