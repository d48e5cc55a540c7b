import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import riccidisk.entropy
import riccidisk.grid
import riccidisk.verify
from riccidisk.errors import UsageError
from riccidisk.flow import FlowSchedule, Termination, cfl_dt, run
from riccidisk.geometry import (
    boundary_gradient_inner,
    laplace_beltrami,
    scalar_curvature,
    shifted_hessian_norm_sq,
)
from riccidisk.grid import (
    GridSpec,
    boundary_value,
    build_grid,
    integrate_boundary,
    integrate_volume,
    radial_derivative_at_boundary_interior,
)
from riccidisk.initial_data import CapParams, PerturbationParams, perturbed_cap, spherical_cap
from riccidisk.verify import (
    C2,
    _dN_dt_by_parts,
    _extract_cubic,
    _fd1,
    _fd2,
    _report,
    _within,
    check_avg_evolution,
    check_kappa_evolution,
    check_lemma_time2,
    check_lemma_useful,
    check_normal_lemmas,
    check_reilly,
    check_relation,
    check_second_derivative_N,
    check_theorem_guo,
    check_theorem_hamilton,
    convergence_study,
    grid_h,
    manufactured_fields,
    negctrl_incompatible_bc,
    negctrl_relation_corrupt,
)

TAU = 0.5


@pytest.fixture(scope="module")
def hemi_traj():
    g = build_grid(GridSpec(128, 1))
    m0 = spherical_cap(CapParams(1.0), g)
    return run(m0, FlowSchedule(t_end=0.02, record_every=100), w_horizon=0.5)


@pytest.fixture(scope="module")
def pert_traj():
    g = build_grid(GridSpec(128, 1))
    m0 = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 0), g)
    return run(m0, FlowSchedule(t_end=0.02, record_every=100), w_horizon=0.5)


def test_trajectory_checks_pass(hemi_traj, pert_traj):
    for traj in (hemi_traj, pert_traj):
        assert check_theorem_hamilton(traj).passed
        assert check_theorem_guo(traj).passed
        assert check_avg_evolution(traj).passed
        assert check_kappa_evolution(traj).passed
        assert check_normal_lemmas(traj).passed
        assert check_second_derivative_N(traj).passed


def test_reilly_and_lemma_useful_all_fields(hemisphere_2d, flat_2d):
    for m in (hemisphere_2d, flat_2d):
        for name, f in manufactured_fields(m.grid).items():
            assert check_reilly(m, f).passed, name
            assert check_lemma_useful(m, f).passed, name


def test_reilly_differentiates_f_once(grid_2d, monkeypatch):
    # the gradient of f is shared by |grad f|^2 and Hess f; u's is cached
    m = spherical_cap(CapParams(0.5), grid_2d)
    m.du
    calls = []
    d_r = riccidisk.grid.d_r

    def counted(*args, **kwargs):
        calls.append(args[0])
        return d_r(*args, **kwargs)

    monkeypatch.setattr(riccidisk.grid, "d_r", counted)
    f = manufactured_fields(grid_2d)["mode2"]
    assert check_reilly(m, f).passed
    assert len(calls) == 1 and calls[0] is f


def _ref_extract_cubic(field, grid, deriv):
    # the cubic through the rings n-2 .. n-5 by a Vandermonde solve; its
    # offsets from r = 1 run inward, so d_r = -d/ds at s = 0
    offs = (np.arange(4) + 1.5) * grid.dr
    rows = np.stack([field[-2 - k] for k in range(4)])
    coef = np.linalg.solve(np.vander(offs, 4, increasing=True), rows)
    return coef[0] if deriv == 0 else -coef[1]


@pytest.mark.parametrize("deriv", [0, 1])
def test_extract_cubic_matches_the_vandermonde_solve(grid_2d, deriv):
    field = np.random.default_rng(7).standard_normal((grid_2d.n_r, grid_2d.n_theta))
    got = _extract_cubic(field, grid_2d, deriv)
    want = _ref_extract_cubic(field, grid_2d, deriv)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_lemma_time2_on_compatible_metric(grid_2d):
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)
    assert check_lemma_time2(m).passed


def test_relation_check(grid_1d):
    m = spherical_cap(CapParams(0.5), grid_1d)
    rep = check_relation(m, TAU)
    assert rep.passed
    assert rep.lhs < 1e-10


def test_negative_controls_fail(grid_1d):
    assert not negctrl_incompatible_bc(grid_1d).passed
    m = spherical_cap(CapParams(0.5), grid_1d)
    assert not negctrl_relation_corrupt(m, TAU).passed


# the control's abs_err is 170-178 here, about 1.1 max(|lhs|, |rhs|); at
# n_theta <= 24, C2 h^2 (h = dtheta) of the frozen model is >= 1.37, so the
# bound C2 h^2 max(|lhs|, |rhs|) allows more than 100% relative error.
# n_theta = 28 (C2 h^2 = 1.01) is the coarsest angle count that detects it
_BLIND_ON_COARSE_2D = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="not detected below 64x32: abs_err 170-178 against C2 h^2 >= 1.37 "
    "times max(|lhs|, |rhs|) (ROADMAP item S)",
)


@pytest.mark.parametrize(
    "n_r, n_theta",
    [
        pytest.param(16, 8, marks=_BLIND_ON_COARSE_2D),
        pytest.param(32, 16, marks=_BLIND_ON_COARSE_2D),
        pytest.param(48, 24, marks=_BLIND_ON_COARSE_2D),
        (32, 28),
        (64, 32),
        (128, 64),
        (32, 1),
        (64, 1),
        (128, 1),
    ],
)
def test_incompatible_bc_control_is_detected(n_r, n_theta):
    assert not negctrl_incompatible_bc(build_grid(GridSpec(n_r, n_theta))).passed


@pytest.mark.parametrize("check", [check_relation, negctrl_relation_corrupt])
def test_relation_checks_evaluate_w_once(grid_1d, monkeypatch, check):
    m = spherical_cap(CapParams(0.5), grid_1d)
    calls = []
    w_functional = riccidisk.entropy.w_functional

    def counting_w(*args):
        calls.append(1)
        return w_functional(*args)

    monkeypatch.setattr(riccidisk.entropy, "w_functional", counting_w)
    check(m, TAU)
    assert len(calls) == 1


def test_too_few_records_raises(grid_1d):
    m0 = spherical_cap(CapParams(1.0), grid_1d)
    traj = run(m0, FlowSchedule(t_end=0.001, record_every=10**9), w_horizon=0.5)
    with pytest.raises(UsageError):
        check_theorem_hamilton(traj)


def test_report_json_keys(grid_1d):
    m = spherical_cap(CapParams(0.5), grid_1d)
    rep = check_relation(m, TAU)
    payload = json.loads(rep.to_json())
    assert set(payload) == {
        "name", "lhs", "rhs", "abs_err", "rel_err", "n_r", "n_theta", "dt", "pass",
    }
    assert payload["name"] == "relation"
    assert payload["n_r"] == 128
    assert payload["pass"] is True


def test_convergence_study_reilly():
    rep = convergence_study("reilly", GridSpec(32, 16))
    assert rep.observed_order > 1.5
    assert rep.levels[0][2] > rep.levels[-1][2]


def test_convergence_study_lemma_time2():
    rep = convergence_study("lemma_time2", GridSpec(32, 1))
    assert rep.observed_order > 1.5


def test_convergence_study_refines_by_1_2_and_4():
    rep = convergence_study("reilly", GridSpec(32, 16))
    expected = [grid_h(build_grid(GridSpec(32 * k, 16 * k))) for k in (1, 2, 4)]
    assert [h for h, _, _ in rep.levels] == expected


def test_convergence_study_validation():
    with pytest.raises(UsageError):
        convergence_study("nonsense", GridSpec(32, 16))


# The probe rule: the first record at or after t_end / 2 that has a later
# record.  Where the checks ran before it, on the benchmark's verify
# workload, the acceptance runs and the fixtures, it is the record that the
# former rule, len(records) // 2, picked.  Criterion 5's unperturbed cap is
# left out: the criterion reads only its final state, and its records
# crowd towards t_end as R grows, so its probe is record 6 of 14.


def _verify_workload():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS["cap-2d-verify"]


@pytest.mark.parametrize("seed", [1, 13])
def test_probe_is_the_middle_record_on_the_verify_workload(seed):
    w = _verify_workload()
    g = build_grid(GridSpec(w.n_r, w.n_theta))
    sched = FlowSchedule(t_end=w.t_end, record_every=w.record_every)
    for c, eps, mode in w.caps(seed):
        traj = run(perturbed_cap(CapParams(c), PerturbationParams(eps, mode), g), sched, 0.5)
        assert traj.termination is Termination.COMPLETED
        assert traj.probe == len(traj.records) // 2


def _criterion_2_run(spec):
    m0 = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), build_grid(spec))
    dt = cfl_dt(m0, 0.25)
    return run(m0, FlowSchedule(t_end=4.5 * dt, cfl_safety=0.25, record_every=1), 0.5)


def _criterion_1d_run(metric, t_end, record_every):
    g = build_grid(GridSpec(128, 1))
    return run(metric(g), FlowSchedule(t_end=t_end, record_every=record_every), 0.5)


_CRITERION_RUNS = {
    "criterion-2-128x64": lambda: _criterion_2_run(GridSpec(128, 64)),
    "criterion-2-256x128": lambda: _criterion_2_run(GridSpec(256, 128)),
    "criterion-5": lambda: _criterion_1d_run(
        lambda g: perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 0), g), 0.02, 100
    ),
    "criterion-7": lambda: _criterion_1d_run(
        lambda g: spherical_cap(CapParams(0.5), g, normalize_volume=True), 0.1, 200
    ),
}


@pytest.mark.parametrize("name", list(_CRITERION_RUNS))
def test_probe_is_the_middle_record_on_the_acceptance_runs(name):
    traj = _CRITERION_RUNS[name]()
    assert len(traj.records) >= 3
    assert traj.probe == len(traj.records) // 2


def test_probe_is_the_middle_record_of_the_fixtures(hemi_traj, pert_traj):
    for traj in (hemi_traj, pert_traj):
        assert traj.probe == len(traj.records) // 2


def test_an_early_stop_probes_the_last_three_records(grid_1d, monkeypatch):
    # super-steps of 17 steps, one to a record: five of them end far
    # before t_end / 2
    m0 = spherical_cap(CapParams(0.5), grid_1d)
    sched = FlowSchedule(t_end=0.02, record_every=17)
    monkeypatch.setattr(riccidisk.flow, "MAX_STEPS", 5)
    traj = run(m0, sched, w_horizon=0.5)
    assert traj.termination is Termination.STEP_LIMIT
    assert len(traj.records) == 6 and traj.records[-1].t < 0.5 * sched.t_end
    assert traj.probe == 4
    assert sorted(traj.states) == [0, 3, 4, 5]
    assert check_second_derivative_N(traj).passed
    monkeypatch.setattr(riccidisk.flow, "MAX_STEPS", 1)
    short = run(m0, sched, w_horizon=0.5)
    assert len(short.records) == 2
    for check in (check_theorem_hamilton, check_normal_lemmas, check_second_derivative_N):
        with pytest.raises(UsageError, match="at least 3 records"):
            check(short)


# The checks that read states, against references that read a state per
# record, as the checks did before a run kept only its ends and its probe
# triple; ``run_keeping_every_state`` captures those states.  Each
# reference takes the probe index explicitly.


def _ref_kappa_evolution(states):
    ts = np.array([s.t for s in states])
    R_b = np.array([boundary_value(scalar_curvature(s.metric)) for s in states])
    kappa0 = states[0].metric.kappa
    kappa_end = states[-1].metric.kappa
    predicted = kappa0 * np.exp(0.5 * np.trapezoid(R_b, x=ts, axis=0))
    j = int(np.argmax(np.abs(kappa_end - predicted)))
    dt = float(np.max(np.diff(ts)))
    return _report("kappa_evolution", kappa_end[j], predicted[j], states[0].metric.grid, dt)


def _spacings(states, k):
    return states[k].t - states[k - 1].t, states[k + 1].t - states[k].t


def _ref_normal_lemmas(states, k):
    h1, h2 = _spacings(states, k)
    nu = [np.exp(-0.5 * boundary_value(s.metric.u)) for s in states[k - 1 : k + 2]]
    lhs_field = _fd1(*nu, h1, h2)
    rhs_field = 0.5 * boundary_value(states[k].metric.R) * nu[1]
    j = int(np.argmax(np.abs(lhs_field - rhs_field)))
    m_end = states[-1].metric
    lap_R = laplace_beltrami(m_end.R, m_end)
    flux = float(np.max(np.abs(radial_derivative_at_boundary_interior(lap_R, m_end.grid))))
    extra_ok = flux <= C2 * grid_h(m_end.grid) * max(1.0, float(np.max(np.abs(lap_R))))
    grid = states[k].metric.grid
    return _report(
        "normal_lemmas", lhs_field[j], rhs_field[j], grid, max(h1, h2), extra_ok=extra_ok
    )


def _ref_second_derivative_N(records, states, k):
    h1, h2 = _spacings(states, k)
    n = [r.N_partial for r in records[k - 1 : k + 2]]
    m = states[k].metric
    norm_sq = shifted_hessian_norm_sq(m.log_R, m, 0.5 * m.R, m.dlog_R)
    db = boundary_value(m.log_R)
    rhs = 2.0 * integrate_volume(m.R * norm_sq, m) + 2.0 * integrate_boundary(
        m.kappa * boundary_value(m.R) * boundary_gradient_inner(db, db, m), m
    )
    dt = max(h1, h2)
    extra_ok = _within(_fd1(*n, h1, h2), _dN_dt_by_parts(m), m.grid, dt)
    return _report("second_derivative_N", _fd2(*n, h1, h2), rhs, m.grid, dt, extra_ok=extra_ok)


# case -> (n_r, n_theta, cap_c, eps, mode, t_end, record_every, MAX_STEPS);
# the 64x32 run takes t_end as 12.5 steps at its initial bound
_ORACLE_RUNS = {
    "128x1": (128, 1, 0.5, 0.05, 0, 0.02, 100, None),
    "64x32-mode2": (64, 32, 0.5, 0.05, 2, None, 2, None),
    "32x16-mode3": (32, 16, 0.6, 0.04, 3, 2e-3, 20, None),
    "step-limit": (128, 1, 0.5, 0.05, 0, 0.02, 17, 5),
}


@pytest.mark.parametrize("case", list(_ORACLE_RUNS))
def test_state_checks_match_the_per_record_reference(case, monkeypatch, run_keeping_every_state):
    n_r, n_theta, c, eps, mode, t_end, record_every, max_steps = _ORACLE_RUNS[case]
    g = build_grid(GridSpec(n_r, n_theta))
    m0 = perturbed_cap(CapParams(c), PerturbationParams(eps, mode), g)
    sched = FlowSchedule(t_end=t_end or 12.5 * cfl_dt(m0, 0.8), record_every=record_every)
    if max_steps is not None:
        monkeypatch.setattr(riccidisk.flow, "MAX_STEPS", max_steps)
    traj, states = run_keeping_every_state(m0, sched)
    assert len(traj.records) >= 5
    k = traj.probe
    assert check_kappa_evolution(traj).to_json() == _ref_kappa_evolution(states).to_json()
    assert check_normal_lemmas(traj).to_json() == _ref_normal_lemmas(states, k).to_json()
    assert (
        check_second_derivative_N(traj).to_json()
        == _ref_second_derivative_N(traj.records, states, k).to_json()
    )
