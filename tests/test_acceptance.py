"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Each criterion is exercised at the reference desk-scale resolutions and
judged against the frozen tolerance model (C1 dt^2 + C2 h^2) or the
explicit absolute thresholds stated with it.
"""

import numpy as np

from riccidisk.cli import EXIT_OK, main
from riccidisk.entropy import hamilton_entropy
from riccidisk.flow import FlowSchedule, cfl_dt, run
from riccidisk.geometry import enforce_curvature_neumann, geodesic_curvature, make_metric
from riccidisk.grid import GridSpec, build_grid
from riccidisk.initial_data import CapParams, PerturbationParams, perturbed_cap, spherical_cap
from riccidisk.verify import (
    C1,
    C2,
    check_avg_evolution,
    check_kappa_evolution,
    check_lemma_time2,
    check_lemma_useful,
    check_normal_lemmas,
    check_relation,
    check_second_derivative_N,
    grid_h,
    manufactured_fields,
    negctrl_incompatible_bc,
    negctrl_relation_corrupt,
    _fd1,
    _probe,
)

TAU = 0.5


def _verdict(capsys, num, label, ok):
    with capsys.disabled():
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_hemisphere_oracle(capsys):
    g = build_grid(GridSpec(128, 1))
    traj = run(spherical_cap(CapParams(1.0), g), FlowSchedule(t_end=0.2, record_every=50), 0.5)
    rs = traj.records
    rbar_err = max(abs(r.R_bar - 2.0 / (1.0 - 2.0 * r.t)) / r.R_bar for r in rs)
    e_err = max(abs(r.E_partial) for r in rs)
    w_err = max(abs(r.W_partial - 4.0 * np.pi) for r in rs)
    kappa_err = max(max(abs(r.kappa_min), abs(r.kappa_max)) for r in rs)
    ok = rbar_err < 1e-3 and e_err < 1e-4 and w_err < 1e-2 and kappa_err < 1e-4
    _verdict(capsys, 1, "hemisphere oracle", ok)


def _entropy_fd_rel_err(spec):
    g = build_grid(spec)
    m0 = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 2), g)
    dt = cfl_dt(m0, 0.25)
    sched = FlowSchedule(t_end=4.5 * dt, cfl_safety=0.25, record_every=1)
    traj = run(m0, sched, 0.5)
    k, h1, h2 = _probe(traj)
    rs = traj.records
    fd = _fd1(rs[k - 1].E_partial, rs[k].E_partial, rs[k + 1].E_partial, h1, h2)
    rhs = rs[k].dE_dt_rhs
    return abs(fd - rhs) / max(abs(fd), abs(rhs))


def test_criterion_2_entropy_derivative_identity(capsys):
    coarse = _entropy_fd_rel_err(GridSpec(128, 64))
    fine = _entropy_fd_rel_err(GridSpec(256, 128))
    ok = coarse < 0.05 and coarse / fine >= 2.5
    _verdict(capsys, 2, "dE/dt identity and refinement", ok)


_SUITE_CONFIGS = (
    (0.4, 0.0, 0, GridSpec(128, 1)),
    (0.5, 0.05, 2, GridSpec(64, 32)),
    (0.6, 0.0, 0, GridSpec(128, 1)),
    (0.7, 0.03, 3, GridSpec(64, 32)),
    (0.8, 0.0, 0, GridSpec(128, 1)),
)


def _suite_trajectories():
    out = []
    for c, eps, mode, spec in _SUITE_CONFIGS:
        g = build_grid(spec)
        m0 = perturbed_cap(CapParams(c), PerturbationParams(eps, mode), g)
        dt = cfl_dt(m0, 0.8)
        if spec.n_theta == 1:
            sched = FlowSchedule(t_end=0.02, record_every=100)
        else:
            sched = FlowSchedule(t_end=6.0 * dt, record_every=1)
        out.append(run(m0, sched, 0.5))
    return out


def test_criterion_3_monotonicity(capsys):
    ok = True
    for traj in _suite_trajectories():
        rs = traj.records
        h = grid_h(traj.snapshots[0].metric.grid)
        for a, b in zip(rs, rs[1:]):
            step = b.t - a.t
            tol = (C1 * step * step + C2 * h * h) * max(
                1.0, abs(a.E_partial), abs(b.E_partial)
            )
            ok = ok and b.E_partial <= a.E_partial + tol
            ok = ok and b.W_partial >= a.W_partial - tol
        ok = ok and all(r.dE_dt_rhs <= 0.0 for r in rs)
        ok = ok and all(r.dW_dt_rhs >= 0.0 for r in rs)
    _verdict(capsys, 3, "entropy monotonicity on convex suite", ok)


def test_criterion_4_reilly_convergence(capsys):
    from riccidisk.verify import check_reilly

    specs = [GridSpec(32, 16), GridSpec(64, 32), GridSpec(128, 64)]
    field_names = ("radial_bump", "radial_quartic", "mode2")
    ok = True
    for metric_kind in ("hemisphere", "flat"):
        for name in field_names:
            errs = []
            for spec in specs:
                g = build_grid(spec)
                if metric_kind == "hemisphere":
                    m = spherical_cap(CapParams(1.0), g)
                else:
                    m = make_metric(np.zeros((g.n_r, g.n_theta)), g)
                errs.append(check_reilly(m, manufactured_fields(g)[name]).abs_err)
            if max(errs) < 1e-9:
                continue  # identity holds to rounding at every level
            order = np.polyfit(np.log([2.0, 1.0, 0.5]), np.log(errs), 1)[0]
            ok = ok and order >= 1.9
    _verdict(capsys, 4, "Reilly formula convergence", ok)


def test_criterion_5_lemma_suite(capsys):
    g = build_grid(GridSpec(128, 1))
    m0 = perturbed_cap(CapParams(0.5), PerturbationParams(0.05, 0), g)
    traj = run(m0, FlowSchedule(t_end=0.02, record_every=100), 0.5)
    f = manufactured_fields(g)["radial_bump"]
    ok = (
        check_lemma_useful(m0, f).passed
        and check_avg_evolution(traj).passed
        and check_lemma_time2(m0).passed
        and check_kappa_evolution(traj).passed
        and check_normal_lemmas(traj).passed
        and check_second_derivative_N(traj).passed
    )

    # closed-form kappa law on an unperturbed cap: kappa(t) = kappa0 (1-2ct)^{-1/2}
    c = 0.5
    cap_traj = run(
        spherical_cap(CapParams(c), g), FlowSchedule(t_end=0.1, record_every=200), 0.5
    )
    t = cap_traj.snapshots[-1].t
    kappa_end = geodesic_curvature(cap_traj.snapshots[-1].metric)
    predicted = 0.5 * (1.0 - c) * (1.0 - 2.0 * c * t) ** -0.5
    ok = ok and np.max(np.abs(kappa_end - predicted)) < C2 * g.dr**2

    ok = ok and not negctrl_incompatible_bc(g).passed
    ok = ok and not negctrl_relation_corrupt(m0, TAU).passed
    _verdict(capsys, 5, "lemma suite and negative controls", ok)


def test_criterion_6_entropy_nonnegativity(capsys):
    g = build_grid(GridSpec(48, 16))
    rng = np.random.default_rng(20260824)
    worst = 0.0
    for _ in range(100):
        c = rng.uniform(0.3, 0.9)
        eps = rng.uniform(-0.04, 0.04)
        mode = int(rng.integers(0, 4))
        m = perturbed_cap(CapParams(c), PerturbationParams(eps, mode), g)
        worst = min(worst, hamilton_entropy(m))
    _verdict(capsys, 6, "entropy nonnegative on 100 random caps", worst >= -1e-8)


def test_criterion_7_relation(capsys):
    ok = True
    for c, eps, mode, spec in _SUITE_CONFIGS:
        g = build_grid(spec)
        m = perturbed_cap(CapParams(c), PerturbationParams(eps, mode), g)
        rep = check_relation(m, TAU)
        ok = ok and rep.passed and rep.lhs < C2 * grid_h(g) ** 2

    from riccidisk.entropy import entropy_euler_form

    g = build_grid(GridSpec(128, 1))
    # the cap rescaled by 1 + c to volume 4 pi, which the Euler form requires
    m0 = enforce_curvature_neumann(spherical_cap(CapParams(0.5), g).u + np.log(1.0 + 0.5), g)
    traj = run(m0, FlowSchedule(t_end=0.1, record_every=200), 0.5)
    vals = entropy_euler_form(traj)
    err = max(abs(v - r.E_partial) for v, r in zip(vals, traj.records))
    ok = ok and err < C2 * g.dr**2
    _verdict(capsys, 7, "W-E relation and Euler form", ok)


def test_criterion_8_determinism(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    csv = tmp_path / "traj.csv"
    cfg.write_text(
        "\n".join(
            [
                "grid.n_r = 64",
                "grid.n_theta = 16",
                "initial.cap_c = 0.5",
                "initial.eps = 0.03",
                "initial.mode = 2",
                "schedule.t_end = 0.0001",
                "schedule.cfl_safety = 0.8",
                "schedule.record_every = 20",
                "w.horizon = 0.5",
                f"out.trajectory_csv = {csv}",
                f"out.report_jsonl = {tmp_path / 'rep.jsonl'}",
                "verify.checks = relation",
            ]
        )
        + "\n"
    )
    ok = main(["run", str(cfg)]) == EXIT_OK
    first = csv.read_bytes()
    ok = ok and main(["run", str(cfg)]) == EXIT_OK
    ok = ok and csv.read_bytes() == first
    _verdict(capsys, 8, "byte-identical reruns", ok)
