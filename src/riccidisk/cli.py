"""Configuration-driven command line runner.

Commands:

    riccidisk run <config>           integrate a flow, write the trajectory CSV
    riccidisk verify <config>        run identity checks, write a JSONL report
    riccidisk convergence <config>   run convergence studies, write a CSV

Configs are flat ``key = value`` lines with a fixed key set; unknown or
missing keys are reported with their line numbers.  Exit codes: 0 success,
1 configuration or usage error, 2 flow terminated early, 3 verification
failure.
"""

import argparse
import math
import sys
from dataclasses import dataclass

from .entropy import WParams
from .errors import ConfigurationError, RicciDiskError
from .flow import FlowSchedule, Termination, run
from .grid import GridSpec, build_grid
from .initial_data import CapParams, PerturbationParams, perturbed_cap
from . import verify as V

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_EARLY = 2
EXIT_VERIFY = 3

CSV_COLUMNS = (
    "t", "tau", "v_M", "R_bar", "min_R",
    "E_partial", "N_partial", "R_partial", "W_partial",
    "dE_dt_rhs", "dW_dt_rhs", "gauss_bonnet_res",
    "kappa_min", "kappa_max", "soliton_residual_L2",
)

_INT_KEYS = {"grid.n_r", "grid.n_theta", "initial.mode", "schedule.record_every"}
_FLOAT_KEYS = {
    "initial.cap_c", "initial.eps", "schedule.t_end",
    "schedule.cfl_safety", "w.horizon",
}
_STR_KEYS = {"out.trajectory_csv", "out.report_jsonl", "verify.checks"}
ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


@dataclass
class ExperimentConfig:
    grid: GridSpec
    cap: CapParams
    perturbation: PerturbationParams
    schedule: FlowSchedule
    w_horizon: float
    trajectory_csv: str
    report_jsonl: str
    checks: list


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")

    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in ALL_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
        if key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError:
                raise ConfigurationError(f"{path}:{lineno}: {key} needs an integer, got {val!r}")
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(val)
            except ValueError:
                raise ConfigurationError(f"{path}:{lineno}: {key} needs a number, got {val!r}")
            if not math.isfinite(values[key]):
                raise ConfigurationError(f"{path}:{lineno}: {key} must be finite, got {val!r}")
        else:
            values[key] = val

    for key in sorted(ALL_KEYS):
        if key not in values:
            raise ConfigurationError(f"{path}: missing required key {key!r}")

    spec = GridSpec(values["grid.n_r"], values["grid.n_theta"])
    spec.validate()
    cap = CapParams(values["initial.cap_c"])
    cap.validate()
    pert = PerturbationParams(values["initial.eps"], values["initial.mode"])
    pert.validate()
    sched = FlowSchedule(
        t_end=values["schedule.t_end"],
        cfl_safety=values["schedule.cfl_safety"],
        record_every=values["schedule.record_every"],
    )
    sched.validate()
    checks = [c.strip() for c in values["verify.checks"].split(",") if c.strip()]
    return ExperimentConfig(
        grid=spec,
        cap=cap,
        perturbation=pert,
        schedule=sched,
        w_horizon=values["w.horizon"],
        trajectory_csv=values["out.trajectory_csv"],
        report_jsonl=values["out.report_jsonl"],
        checks=checks,
    )


def _fmt(x: float) -> str:
    return "%.17g" % x


def _write_trajectory(traj, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in traj.records:
            fh.write(",".join(_fmt(getattr(rec, col)) for col in CSV_COLUMNS) + "\n")


def _run_flow(cfg: ExperimentConfig):
    grid = build_grid(cfg.grid)
    initial = perturbed_cap(cfg.cap, cfg.perturbation, grid)
    return run(initial, cfg.schedule, cfg.w_horizon)


def cmd_run(config_path: str) -> int:
    try:
        cfg = parse_config(config_path)
        traj = _run_flow(cfg)
        _write_trajectory(traj, cfg.trajectory_csv)
    except RicciDiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if traj.termination is not Termination.COMPLETED:
        print(f"flow terminated early: {traj.termination.value}", file=sys.stderr)
        return EXIT_EARLY
    return EXIT_OK


def _manufactured_f(grid):
    fields = V.manufactured_fields(grid)
    return fields["mode2"] if grid.n_theta > 1 else fields["radial_bump"]


# check name -> (needs a trajectory, report builder(grid, initial, traj, wp))
_CHECKS = {
    "hamilton": (True, lambda grid, m, traj, wp: V.check_theorem_hamilton(traj)),
    "guo": (True, lambda grid, m, traj, wp: V.check_theorem_guo(traj, wp)),
    "avg_evolution": (True, lambda grid, m, traj, wp: V.check_avg_evolution(traj)),
    "kappa_evolution": (True, lambda grid, m, traj, wp: V.check_kappa_evolution(traj)),
    "normal_lemmas": (True, lambda grid, m, traj, wp: V.check_normal_lemmas(traj)),
    "second_derivative_N": (
        True, lambda grid, m, traj, wp: V.check_second_derivative_N(traj)
    ),
    "reilly": (False, lambda grid, m, traj, wp: V.check_reilly(m, _manufactured_f(grid))),
    "lemma_useful": (
        False, lambda grid, m, traj, wp: V.check_lemma_useful(m, _manufactured_f(grid))
    ),
    "lemma_time2": (False, lambda grid, m, traj, wp: V.check_lemma_time2(m)),
    "relation": (False, lambda grid, m, traj, wp: V.check_relation(m, wp, 0.0)),
    "negctrl_incompatible_bc": (
        False, lambda grid, m, traj, wp: V.negctrl_incompatible_bc(grid)
    ),
    "negctrl_relation_corrupt": (
        False, lambda grid, m, traj, wp: V.negctrl_relation_corrupt(m, wp, 0.0)
    ),
}
KNOWN_CHECKS = frozenset(_CHECKS)


def _run_check(name, grid, initial, traj, wp):
    if name not in _CHECKS:
        raise ConfigurationError(f"unknown check {name!r}")
    _, build = _CHECKS[name]
    return build(grid, initial, traj, wp)


def cmd_verify(config_path: str) -> int:
    try:
        cfg = parse_config(config_path)
        if not cfg.checks:
            raise ConfigurationError("verify.checks is empty")
        unknown = [c for c in cfg.checks if c not in KNOWN_CHECKS]
        if unknown:
            raise ConfigurationError(f"unknown checks: {', '.join(unknown)}")

        grid = build_grid(cfg.grid)
        initial = perturbed_cap(cfg.cap, cfg.perturbation, grid)
        wp = WParams(cfg.w_horizon)
        traj = None
        if any(_CHECKS[c][0] for c in cfg.checks):
            traj = run(initial, cfg.schedule, cfg.w_horizon)

        reports = [_run_check(c, grid, initial, traj, wp) for c in cfg.checks]
        with open(cfg.report_jsonl, "w", encoding="utf-8", newline="\n") as fh:
            for rep in reports:
                fh.write(rep.to_json() + "\n")
    except RicciDiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    ok = True
    for rep in reports:
        expected_fail = rep.name.startswith("negctrl_")
        if rep.passed == expected_fail:
            ok = False
            kind = "negative control passed" if expected_fail else "check failed"
            print(f"{kind}: {rep.name} (abs_err={rep.abs_err:.3e})", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY


_STUDIES = {"reilly", "lemma_useful", "lemma_time2", "entropy_constancy", "hamilton"}


def cmd_convergence(config_path: str) -> int:
    try:
        cfg = parse_config(config_path)
        if not cfg.checks:
            raise ConfigurationError("verify.checks is empty")
        unknown = [c for c in cfg.checks if c not in _STUDIES]
        if unknown:
            raise ConfigurationError(f"no convergence study named: {', '.join(unknown)}")
        rows = []
        for name in cfg.checks:
            rep = V.convergence_study(name, cfg.grid)
            for h, dt, err in rep.levels:
                rows.append((name, h, dt, err, rep.observed_order))
        with open(cfg.trajectory_csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("name,h,dt,err,observed_order\n")
            for name, h, dt, err, order in rows:
                fh.write(f"{name},{_fmt(h)},{_fmt(dt)},{_fmt(err)},{_fmt(order)}\n")
    except RicciDiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riccidisk",
        description="Ricci flow on the disk with curvature Neumann boundary data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify", "convergence"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a key = value config file")
    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "verify": cmd_verify, "convergence": cmd_convergence}
    return handler[args.command](args.config)


if __name__ == "__main__":
    sys.exit(main())
