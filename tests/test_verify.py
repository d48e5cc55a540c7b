import json

import pytest

import riccidisk.entropy
import riccidisk.grid
import riccidisk.verify
from riccidisk.errors import UsageError
from riccidisk.flow import FlowSchedule, cfl_dt, run
from riccidisk.grid import GridSpec, build_grid
from riccidisk.initial_data import CapParams, PerturbationParams, perturbed_cap, spherical_cap
from riccidisk.verify import (
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


# trajectories that keep only their first and latest snapshot


def test_record_checks_agree_on_an_ends_only_trajectory(pert_traj):
    m0 = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 0), build_grid(GridSpec(128, 1)))
    ends = run(
        m0, FlowSchedule(t_end=0.02, record_every=100), w_horizon=0.5, keep_every_snapshot=False
    )
    assert len(ends.snapshots) == 2 < len(ends.records)
    for check in (check_theorem_hamilton, check_theorem_guo, check_avg_evolution):
        assert check(ends) == check(pert_traj)


@pytest.mark.parametrize(
    "check", [check_kappa_evolution, check_normal_lemmas, check_second_derivative_N]
)
def test_snapshot_readers_reject_an_ends_only_trajectory(grid_1d, check):
    # three records: the middle snapshot is gone, and index 1 of the two
    # kept is the final state, not the probe's
    m0 = spherical_cap(CapParams(0.5), grid_1d)
    sched = FlowSchedule(t_end=1.5 * cfl_dt(m0, 0.8), record_every=1)
    check(run(m0, sched, w_horizon=0.5))
    ends = run(m0, sched, w_horizon=0.5, keep_every_snapshot=False)
    assert len(ends.records) == 3 and len(ends.snapshots) == 2
    with pytest.raises(UsageError, match="keep_every_snapshot"):
        check(ends)


@pytest.mark.parametrize(
    "name, base", [("hamilton", GridSpec(16, 8)), ("entropy_constancy", GridSpec(16, 1))]
)
def test_flow_studies_keep_two_snapshots_and_their_numbers(monkeypatch, name, base):
    ends = convergence_study(name, base)
    modes = []

    def run_keeping_every_snapshot(initial, sched, w_horizon, keep_every_snapshot=True):
        modes.append(keep_every_snapshot)
        return run(initial, sched, w_horizon)

    monkeypatch.setattr(riccidisk.verify, "run", run_keeping_every_snapshot)
    full = convergence_study(name, base)
    assert modes == [False, False, False]
    assert full.levels == ends.levels
    assert full.observed_order == ends.observed_order
