import numpy as np
import pytest
from math import log, pi

from riccidisk import _kernels
from riccidisk.elliptic import potential_f
from riccidisk.entropy import (
    WParams,
    dE_dt_analytic,
    dE_dt_rhs,
    dW_dt_rhs,
    entropy_euler_form,
    hamilton_entropy,
    make_record,
    relation_residual,
    soliton_residual_L2,
    w_functional,
)
from riccidisk.errors import DomainError
from riccidisk.flow import FlowSchedule, run
from riccidisk.geometry import ConformalMetric, gauss_bonnet_residual, make_metric
from riccidisk.grid import GridSpec, build_grid
from riccidisk.initial_data import CapParams, PerturbationParams, perturbed_cap, spherical_cap


def test_hemisphere_entropy_vanishes(hemisphere_1d):
    assert abs(hamilton_entropy(hemisphere_1d)) < 1e-8
    assert hemisphere_1d.R_bar == pytest.approx(2.0, rel=1e-4)


def test_hemisphere_w_is_4pi(hemisphere_1d):
    assert w_functional(hemisphere_1d, WParams(0.5), 0.0) == pytest.approx(
        4.0 * pi, abs=1e-4
    )


def test_cap_w_closed_form(grid_1d):
    c, tau = 0.6, 0.8
    m = spherical_cap(CapParams(c), grid_1d)
    v = 4.0 * pi / (1.0 + c)
    boundary = 2.0 * pi * (1.0 - c) / (1.0 + c)
    expected = (2.0 * c * tau - log(2.0 * c) - log(tau)) * 2.0 * c * v - 2.0 * log(
        tau
    ) * boundary
    assert w_functional(m, WParams(tau), 0.0) == pytest.approx(expected, rel=1e-4)


def test_w_rejects_nonpositive_tau(hemisphere_1d):
    with pytest.raises(DomainError):
        w_functional(hemisphere_1d, WParams(0.5), 0.6)


def test_entropy_rejects_nonpositive_curvature(grid_1d):
    u = np.broadcast_to((grid_1d.r**2)[:, None], (grid_1d.n_r, 1)).copy()
    with pytest.raises(DomainError):
        hamilton_entropy(make_metric(u, grid_1d))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_entropy_rejects_nan_curvature():
    # exp(800) overflows, so R = -inf * 0 is NaN everywhere
    grid = build_grid(GridSpec(16, 1))
    with pytest.raises(DomainError):
        hamilton_entropy(make_metric(np.full((16, 1), -800.0), grid))


def test_entropy_nonnegative_on_perturbed_caps(grid_2d):
    for mode, eps in [(0, 0.05), (2, 0.05), (3, 0.03)]:
        m = perturbed_cap(CapParams(0.6), PerturbationParams(eps, mode), grid_2d)
        e = hamilton_entropy(m)
        assert e >= -1e-10
        if eps > 0:
            assert e > 1e-8


def test_record_partials_are_consistent(grid_1d):
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 0), grid_1d)
    rec = make_record(m, 0.0, 1.0)
    assert rec.E_partial == pytest.approx(rec.N_partial - rec.R_partial, abs=1e-12)
    assert rec.tau == 1.0
    assert rec.min_R > 0.0
    assert rec.kappa_min <= rec.kappa_max


@pytest.mark.parametrize("grid_name, mode", [("grid_1d", 0), ("grid_2d", 2)])
def test_record_matches_standalone_functions(request, grid_name, mode):
    m = perturbed_cap(
        CapParams(0.5), PerturbationParams(0.05, mode), request.getfixturevalue(grid_name)
    )
    t, wp = 0.1, WParams(1.0)
    rec = make_record(m, t, wp.w_horizon)
    f = potential_f(m).f
    assert rec.W_partial == w_functional(m, wp, t)
    assert rec.dE_dt_rhs == dE_dt_rhs(m, f)
    assert rec.dW_dt_rhs == dW_dt_rhs(m, wp, t)
    assert rec.soliton_residual_L2 == soliton_residual_L2(m, f)
    assert rec.gauss_bonnet_res == gauss_bonnet_residual(m)
    assert rec.E_partial == hamilton_entropy(m)


def test_record_evaluates_curvature_once(grid_2d, monkeypatch):
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)
    fresh = ConformalMetric(m.u, m.grid, m.u_ghost)
    calls = []
    curvature = _kernels.curvature

    def counting_curvature(*args):
        calls.append(1)
        return curvature(*args)

    monkeypatch.setattr(_kernels, "curvature", counting_curvature)
    make_record(fresh, 0.0, 1.0)
    assert len(calls) == 1


def test_w_rejects_nan_horizon(hemisphere_1d):
    with pytest.raises(DomainError):
        w_functional(hemisphere_1d, WParams(float("nan")), 0.0)


def test_sign_structure_on_convex_caps(grid_2d):
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)
    sol = potential_f(m)
    assert dE_dt_rhs(m, sol.f) <= 0.0
    assert dW_dt_rhs(m, WParams(1.0), 0.0) >= 0.0


def test_two_forms_of_dE_agree(grid_2d):
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)
    sol = potential_f(m)
    a = dE_dt_rhs(m, sol.f)
    b = dE_dt_analytic(m)
    assert a == pytest.approx(b, rel=0.02)


def test_soliton_residual_vanishes_on_caps(grid_1d):
    m = spherical_cap(CapParams(0.7), grid_1d)
    sol = potential_f(m)
    assert soliton_residual_L2(m, sol.f) < 1e-3


def test_relation_residual_machine_zero_at_unit_tau(grid_2d):
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)
    res = relation_residual(m, WParams(1.0), 0.0, dE_dt_analytic(m))
    assert res < 1e-10


def test_relation_residual_small_at_generic_tau(grid_1d):
    m = spherical_cap(CapParams(0.5), grid_1d)
    res = relation_residual(m, WParams(0.7), 0.0, dE_dt_analytic(m))
    assert res < 1e-10


def test_euler_form_requires_normalized_volume(grid_1d):
    m = spherical_cap(CapParams(0.5), grid_1d)  # volume 8 pi / 3
    traj = run(m, FlowSchedule(t_end=0.001, record_every=10), w_horizon=0.5)
    with pytest.raises(DomainError):
        entropy_euler_form(traj)


def test_euler_form_matches_entropy(grid_1d):
    m = spherical_cap(CapParams(0.5), grid_1d, normalize_volume=True)
    traj = run(m, FlowSchedule(t_end=0.05, record_every=200), w_horizon=0.5)
    vals = entropy_euler_form(traj)
    errs = [abs(v - r.E_partial) for v, r in zip(vals, traj.records)]
    assert max(errs) < 5e-4
