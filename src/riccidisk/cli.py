"""Configuration-driven command line runner.

usage: riccidisk {run,verify,convergence} <config>

Commands:

    riccidisk run <config>           integrate a flow, write the trajectory CSV
    riccidisk verify <config>        run identity checks, write a JSONL report
    riccidisk convergence <config>   run convergence studies, write a CSV

Configs are flat ``key = value`` lines with a fixed key set; unknown and
duplicate keys are reported with their line numbers, missing keys by
name.  ``-h`` or ``--help`` prints this text.  Exit codes: 0 success,
1 configuration or usage error (an output that cannot be written
included), 2 flow terminated early, 3 verification failure.
"""

import math
import sys
from dataclasses import dataclass, fields

from .entropy import EntropyRecord
from .errors import RicciDiskError, UsageError
from .flow import FlowSchedule, Termination, run
from .grid import GridSpec, build_grid
from .initial_data import CapParams, PerturbationParams, perturbed_cap

# ``verify``, and with it ``json``, is imported inside the commands that run
# checks, so ``riccidisk run`` does not load it

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_EARLY = 2
EXIT_VERIFY = 3

# the usage line of the module docstring, printed before a command-line error
USAGE = "usage: riccidisk {run,verify,convergence} <config>"

CSV_COLUMNS = tuple(f.name for f in fields(EntropyRecord))

# every config key and the type its value is parsed as; all are required
KEYS = {
    "grid.n_r": int,
    "grid.n_theta": int,
    "initial.cap_c": float,
    "initial.eps": float,
    "initial.mode": int,
    "schedule.t_end": float,
    "schedule.cfl_safety": float,
    "schedule.record_every": int,
    "w.horizon": float,
    "out.trajectory_csv": str,
    "out.report_jsonl": str,
    "verify.checks": str,
}


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
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")

    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        kind = KEYS[key]
        try:
            values[key] = kind(val)
        except ValueError:
            needs = "an integer" if kind is int else "a number"
            raise UsageError(f"{path}:{lineno}: {key} needs {needs}, got {val!r}")
        if kind is float and not math.isfinite(values[key]):
            raise UsageError(f"{path}:{lineno}: {key} must be finite, got {val!r}")

    for key in sorted(KEYS):
        if key not in values:
            raise UsageError(f"{path}: missing required key {key!r}")

    return ExperimentConfig(
        grid=GridSpec(values["grid.n_r"], values["grid.n_theta"]),
        cap=CapParams(values["initial.cap_c"]),
        perturbation=PerturbationParams(values["initial.eps"], values["initial.mode"]),
        schedule=FlowSchedule(
            t_end=values["schedule.t_end"],
            cfl_safety=values["schedule.cfl_safety"],
            record_every=values["schedule.record_every"],
        ),
        w_horizon=values["w.horizon"],
        trajectory_csv=values["out.trajectory_csv"],
        report_jsonl=values["out.report_jsonl"],
        checks=[c.strip() for c in values["verify.checks"].split(",") if c.strip()],
    )


def _fmt(x: float) -> str:
    return "%.17g" % x


def _write_lines(path, lines):
    """Write one output file; a path that cannot be written is a config error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _initial_metric(cfg: ExperimentConfig):
    return perturbed_cap(cfg.cap, cfg.perturbation, build_grid(cfg.grid))


def cmd_run(cfg: ExperimentConfig) -> int:
    traj = run(_initial_metric(cfg), cfg.schedule, cfg.w_horizon)
    rows = [",".join(_fmt(getattr(rec, c)) for c in CSV_COLUMNS) for rec in traj.records]
    _write_lines(cfg.trajectory_csv, [",".join(CSV_COLUMNS)] + rows)
    if traj.termination is not Termination.COMPLETED:
        print(f"flow terminated early: {traj.termination.value}", file=sys.stderr)
        return EXIT_EARLY
    return EXIT_OK


def _run_check(name, initial, traj, tau):
    from .verify import CHECKS

    return CHECKS[name][1](initial, traj, tau)


def _require_checks(checks, known, unknown_message):
    """Reject an empty ``verify.checks`` or one naming a check not in ``known``."""
    if not checks:
        raise UsageError("verify.checks is empty")
    unknown = [c for c in checks if c not in known]
    if unknown:
        raise UsageError(f"{unknown_message}: {', '.join(unknown)}")


def cmd_verify(cfg: ExperimentConfig) -> int:
    from .verify import CHECKS

    _require_checks(cfg.checks, CHECKS, "unknown checks")

    initial = _initial_metric(cfg)
    traj = None
    if any(CHECKS[c][0] for c in cfg.checks):
        traj = run(initial, cfg.schedule, cfg.w_horizon)
        if traj.termination is not Termination.COMPLETED:
            print(f"flow terminated early: {traj.termination.value}", file=sys.stderr)
            return EXIT_EARLY

    reports = [_run_check(c, initial, traj, cfg.w_horizon) for c in cfg.checks]
    _write_lines(cfg.report_jsonl, [rep.to_json() for rep in reports])

    ok = True
    for rep in reports:
        expected_fail = rep.name.startswith("negctrl_")
        if rep.passed == expected_fail:
            ok = False
            kind = "negative control passed" if expected_fail else "check failed"
            print(f"{kind}: {rep.name} (abs_err={rep.abs_err:.3e})", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_convergence(cfg: ExperimentConfig) -> int:
    from .verify import STUDIES, convergence_study

    _require_checks(cfg.checks, STUDIES, "no convergence study named")
    lines = ["name,h,dt,err,observed_order"]
    for name in cfg.checks:
        rep = convergence_study(name, cfg.grid)
        order = _fmt(rep.observed_order)
        lines += [f"{name},{_fmt(h)},{_fmt(dt)},{_fmt(err)},{order}" for h, dt, err in rep.levels]
    _write_lines(cfg.trajectory_csv, lines)
    return EXIT_OK


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if "-h" in args or "--help" in args:
        print(__doc__ or USAGE + "\n", end="")  # python -OO strips the docstring
        raise SystemExit(EXIT_OK)
    handler = {"run": cmd_run, "verify": cmd_verify, "convergence": cmd_convergence}
    if len(args) != 2 or args[0] not in handler:
        print(USAGE, file=sys.stderr)
        print(f"error: expected a command ({', '.join(handler)}) and one config path, "
              f"got {' '.join(args) or 'nothing'}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    # the one place a typed package error becomes a message and exit 1
    try:
        return handler[args[0]](parse_config(args[1]))
    except RicciDiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
