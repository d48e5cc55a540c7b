import numpy as np
import pytest
from math import log, pi, sqrt

import riccidisk.flow
from riccidisk import _kernels
from riccidisk.elliptic import potential_f
from riccidisk.entropy import (
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
from riccidisk.flow import FlowSchedule, Termination, run
from riccidisk.geometry import (
    EULER_CHARACTERISTIC,
    ConformalMetric,
    boundary_gradient_inner,
    enforce_curvature_neumann,
    gauss_bonnet_residual,
    grad_norm_sq,
    make_metric,
    shifted_hessian_norm_sq,
)
from riccidisk.grid import (
    GridSpec,
    boundary_value,
    build_grid,
    d_r,
    d_theta,
    ghost_mirror,
    integrate_boundary,
    integrate_volume,
)
from riccidisk.initial_data import CapParams, PerturbationParams, perturbed_cap, spherical_cap


def test_hemisphere_entropy_vanishes(hemisphere_1d):
    assert abs(hamilton_entropy(hemisphere_1d)) < 1e-8
    assert hemisphere_1d.R_bar == pytest.approx(2.0, rel=1e-4)


def test_hemisphere_w_is_4pi(hemisphere_1d):
    assert w_functional(hemisphere_1d, 0.5) == pytest.approx(
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
    assert w_functional(m, tau) == pytest.approx(expected, rel=1e-4)


def test_w_rejects_nonpositive_tau(hemisphere_1d):
    with pytest.raises(DomainError):
        w_functional(hemisphere_1d, 0.5 - 0.6)


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


def _reference_rates(m, f, tau):
    """W, dE/dt, dW/dt and the soliton residual as the formulas read.

    Every term is built from the geometry primitives on its own, with fresh
    derivatives of f and log R and nothing shared between the functionals.
    """
    g = m.grid
    log_r = np.log(m.R)
    ghost = ghost_mirror(f)
    grad_f = (d_r(f, g, ghost), d_theta(f, g))
    grad_log_r = (d_r(log_r, g), d_theta(log_r, g))
    w_integrand = (tau * (m.R - grad_norm_sq(*grad_log_r, m)) - log_r - log(tau)) * m.R
    w = integrate_volume(w_integrand, m) - 2.0 * log(tau) * m.int_kappa

    soliton_sq = integrate_volume(
        shifted_hessian_norm_sq(f, m, 0.5 * (m.R - m.R_bar), grad_f, ghost), m
    )
    f_b = boundary_value(f)
    de_dt = -(
        integrate_volume(
            m.R * grad_norm_sq(grad_f[0] - grad_log_r[0], grad_f[1] - grad_log_r[1], m), m
        )
        + 2.0 * soliton_sq
    ) - 2.0 * integrate_boundary(m.kappa * boundary_gradient_inner(f_b, f_b, m), m)

    guo_sq = shifted_hessian_norm_sq(log_r, m, 0.5 * m.R - 0.5 / tau, grad_log_r)
    r_b, log_r_b = boundary_value(m.R), boundary_value(log_r)
    bnd = m.kappa * (r_b * boundary_gradient_inner(log_r_b, log_r_b, m) + 1.0 / tau**2)
    dw_dt = 2.0 * tau * integrate_volume(m.R * guo_sq, m) + 2.0 * tau * integrate_boundary(
        bnd, m
    )
    return w, de_dt, dw_dt, sqrt(max(soliton_sq, 0.0))


@pytest.mark.parametrize(
    "grid_name, mode",
    [("grid_1d", 0), ("grid_2d", 2), ("grid_2d", 3), ("grid_128x64", 2)],
)
def test_record_matches_standalone_functions(request, grid_name, mode):
    # the record shares derivatives, exponentials and the soliton norm
    # between its functionals; each standalone call below runs on a fresh
    # metric with nothing cached, and every field must be bit-equal
    if grid_name == "grid_128x64":
        grid = build_grid(GridSpec(128, 64))
    else:
        grid = request.getfixturevalue(grid_name)
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, mode), grid)
    t, horizon = 0.1, 1.0
    rec = make_record(m, t, horizon)

    def fresh():
        return ConformalMetric(m.u, m.grid, m.u_ghost)

    f = potential_f(fresh()).f
    assert rec.tau == horizon - t
    assert rec.W_partial == w_functional(fresh(), horizon - t)
    assert rec.dE_dt_rhs == dE_dt_rhs(fresh(), f)
    assert rec.dW_dt_rhs == dW_dt_rhs(fresh(), horizon - t)
    assert rec.soliton_residual_L2 == soliton_residual_L2(fresh(), f)
    assert rec.gauss_bonnet_res == gauss_bonnet_residual(fresh())
    assert rec.E_partial == hamilton_entropy(fresh())
    m_fresh = fresh()
    assert (rec.v_M, rec.R_bar, rec.min_R) == (m_fresh.v_M, m_fresh.R_bar, m_fresh.R.min())
    assert (rec.W_partial, rec.dE_dt_rhs, rec.dW_dt_rhs, rec.soliton_residual_L2) == (
        _reference_rates(fresh(), f, horizon - t)
    )


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
        w_functional(hemisphere_1d, float("nan"))


def test_sign_structure_on_convex_caps(grid_2d):
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), grid_2d)
    sol = potential_f(m)
    assert dE_dt_rhs(m, sol.f) <= 0.0
    assert dW_dt_rhs(m, 1.0) >= 0.0


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
    res, _ = relation_residual(m, 1.0, dE_dt_analytic(m))
    assert res < 1e-10


def test_relation_residual_small_at_generic_tau(grid_1d):
    m = spherical_cap(CapParams(0.5), grid_1d)
    res, _ = relation_residual(m, 0.7, dE_dt_analytic(m))
    assert res < 1e-10


def test_euler_form_requires_normalized_volume(grid_1d):
    m = spherical_cap(CapParams(0.5), grid_1d)  # volume 8 pi / 3
    traj = run(m, FlowSchedule(t_end=0.001, record_every=10), w_horizon=0.5)
    with pytest.raises(DomainError):
        entropy_euler_form(traj)


def test_euler_form_matches_entropy(grid_1d):
    u = spherical_cap(CapParams(0.5), grid_1d).u + np.log(1.0 + 0.5)  # volume 4 pi
    m = enforce_curvature_neumann(u, grid_1d)
    traj = run(m, FlowSchedule(t_end=0.05, record_every=200), w_horizon=0.5)
    vals = entropy_euler_form(traj)
    errs = [abs(v - r.E_partial) for v, r in zip(vals, traj.records)]
    assert max(errs) < 5e-4


def _ref_entropy_euler_form(records, states):
    """The Euler form read from a state per record, as before records kept int kappa ds."""
    chi = EULER_CHARACTERISTIC
    times = [s.t for s in states]
    k_int = [s.metric.int_kappa for s in states]
    out, cumulative = [], 0.0
    for k, t in enumerate(times):
        if k > 0:
            cumulative += 0.5 * (k_int[k] + k_int[k - 1]) * (times[k] - times[k - 1])
        den = 1.0 - k_int[k] / (2.0 * pi * chi)
        num = (1.0 - t) + cumulative / (2.0 * pi * chi)
        out.append(records[k].N_partial + 4.0 * pi * chi * den * log(num / den))
    return out


@pytest.mark.parametrize("max_steps", [None, 20])
def test_euler_form_matches_the_per_record_reference(
    grid_1d, monkeypatch, run_keeping_every_state, max_steps
):
    # the run to t_end, and one that the step limit stops between records
    # (three super-steps make a record interval)
    if max_steps is not None:
        monkeypatch.setattr(riccidisk.flow, "MAX_STEPS", max_steps)
    u = spherical_cap(CapParams(0.5), grid_1d).u + np.log(1.0 + 0.5)  # volume 4 pi
    m = enforce_curvature_neumann(u, grid_1d)
    traj, states = run_keeping_every_state(m, FlowSchedule(t_end=0.05, record_every=50))
    limited = traj.termination is Termination.STEP_LIMIT
    assert limited == (max_steps is not None)
    assert len(traj.snapshots) < len(traj.records)
    assert entropy_euler_form(traj) == _ref_entropy_euler_form(traj.records, states)