import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riccidisk.cli
import riccidisk.verify
from riccidisk.cli import (
    EXIT_CONFIG,
    EXIT_EARLY,
    EXIT_OK,
    EXIT_VERIFY,
    CSV_COLUMNS,
    KEYS,
    _fmt,
    _initial_metric,
    main,
    parse_config,
)
from riccidisk.errors import RicciDiskError, UsageError
from riccidisk.flow import FlowSchedule, FlowTrajectory, Termination, run
from riccidisk.grid import GridSpec
from riccidisk.initial_data import CapParams, PerturbationParams

_VALID = {
    "grid.n_r": 64,
    "grid.n_theta": 1,
    "initial.cap_c": 1.0,
    "initial.eps": 0.0,
    "initial.mode": 0,
    "schedule.t_end": 0.01,
    "schedule.cfl_safety": 0.8,
    "schedule.record_every": 50,
    "w.horizon": 0.5,
    "out.trajectory_csv": "traj.csv",
    "out.report_jsonl": "report.jsonl",
    "verify.checks": "hamilton, guo, relation",
}


def _write_config(path, **overrides):
    values = dict(_VALID)
    values["out.trajectory_csv"] = str(path.parent / "traj.csv")
    values["out.report_jsonl"] = str(path.parent / "report.jsonl")
    values.update(overrides)
    lines = ["# experiment config", ""]
    lines += [f"{k} = {v}" for k, v in values.items() if v is not None]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_parse_config_roundtrip(tmp_path):
    cfg = parse_config(str(_write_config(tmp_path / "c.cfg")))
    assert cfg.grid.n_r == 64
    assert cfg.cap.c == 1.0
    assert cfg.schedule.t_end == 0.01
    assert cfg.checks == ["hamilton", "guo", "relation"]


def test_key_table_is_pinned():
    assert {k: t.__name__ for k, t in KEYS.items()} == {
        "grid.n_r": "int",
        "grid.n_theta": "int",
        "initial.cap_c": "float",
        "initial.eps": "float",
        "initial.mode": "int",
        "schedule.t_end": "float",
        "schedule.cfl_safety": "float",
        "schedule.record_every": "int",
        "w.horizon": "float",
        "out.trajectory_csv": "str",
        "out.report_jsonl": "str",
        "verify.checks": "str",
    }


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: GridSpec(4), UsageError, "n_r must be >= 8, got 4"),
        (lambda: GridSpec(32, 9), UsageError,
         "n_theta must be 1 or an even integer >= 8, got 9"),
        (lambda: GridSpec(32, 4), UsageError,
         "n_theta must be 1 or an even integer >= 8, got 4"),
        (lambda: CapParams(0.0), UsageError, "cap parameter c must be positive, got 0.0"),
        (lambda: CapParams(float("nan")), UsageError,
         "cap parameter c must be positive, got nan"),
        (lambda: PerturbationParams(0.1, -1), UsageError,
         "angular mode must be nonnegative, got -1"),
        (lambda: FlowSchedule(float("nan")), UsageError, "t_end must be positive, got nan"),
        (lambda: FlowSchedule(-1.0), UsageError, "t_end must be positive, got -1.0"),
        (lambda: FlowSchedule(0.1, cfl_safety=1.5), UsageError,
         "cfl_safety must lie in (0, 1], got 1.5"),
        (lambda: FlowSchedule(0.1, record_every=0), UsageError,
         "record_every must be a positive integer"),
        # replace() builds a new spec, so it cannot bypass the checks
        (lambda: dataclasses.replace(FlowSchedule(0.1), record_every=0), UsageError,
         "record_every must be a positive integer"),
    ],
    ids=[
        "n_r", "n_theta_odd", "n_theta_small", "cap_zero", "cap_nan", "mode",
        "t_end_nan", "t_end_negative", "cfl_safety", "record_every", "replace",
    ],
)
def test_specs_check_themselves_when_built(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "spec, field",
    [
        (GridSpec(32, 8), "n_r"),
        (CapParams(0.5), "c"),
        (PerturbationParams(0.05, 2), "mode"),
        (FlowSchedule(0.1), "record_every"),
    ],
    ids=["GridSpec", "CapParams", "PerturbationParams", "FlowSchedule"],
)
def test_specs_are_frozen(spec, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(spec, field, 0)


def test_parse_config_errors(tmp_path):
    p = _write_config(tmp_path / "c.cfg", **{"grid.n_r": None})
    with pytest.raises(UsageError, match="grid.n_r"):
        parse_config(str(p))

    p = tmp_path / "u.cfg"
    _write_config(p)
    p.write_text(p.read_text() + "bogus.key = 1\n")
    with pytest.raises(UsageError, match="bogus.key"):
        parse_config(str(p))

    p = tmp_path / "d.cfg"
    _write_config(p)
    p.write_text(p.read_text() + "grid.n_r = 32\n")
    with pytest.raises(UsageError, match="duplicate"):
        parse_config(str(p))

    p = _write_config(tmp_path / "b.cfg", **{"schedule.t_end": "soon"})
    with pytest.raises(UsageError, match="schedule.t_end"):
        parse_config(str(p))

    with pytest.raises(UsageError):
        parse_config(str(tmp_path / "missing.cfg"))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    junk=st.dictionaries(
        st.sampled_from(sorted(KEYS)),
        st.one_of(st.sampled_from(["nan", "1e400", "-3", "="]), st.text(max_size=12)),
        max_size=4,
    ),
    junk_lines=st.lists(st.text(max_size=20), max_size=3),
    tail=st.binary(max_size=8),
)
def test_parse_config_only_raises_typed_errors(tmp_path_factory, junk, junk_lines, tail):
    lines = [f"{k} = {v}" for k, v in dict(_VALID, **junk).items()] + junk_lines
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + tail)
    try:
        parse_config(str(path))
    except RicciDiskError:
        pass


def test_cmd_run_rejects_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_bytes(b"grid.n_r = 64\xff\n")
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_cmd_run_writes_trajectory(tmp_path):
    cfg = _write_config(tmp_path / "c.cfg")
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0].split(",") == [
        "t", "tau", "v_M", "R_bar", "min_R",
        "E_partial", "N_partial", "R_partial", "W_partial",
        "dE_dt_rhs", "dW_dt_rhs", "gauss_bonnet_res",
        "kappa_min", "kappa_max", "soliton_residual_L2",
    ]
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    t = data[:, 0]
    r_bar = data[:, 3]
    # hemisphere: R_bar(t) = 2 / (1 - 2t)
    assert np.max(np.abs(r_bar - 2.0 / (1.0 - 2.0 * t))) < 2e-3


# modules a run has no use for: scipy serves the tests as an oracle only,
# and argparse's stack (with gettext and locale) is not needed to read two
# arguments
_UNUSED = "m.split('.')[0] == 'scipy' or m in ('argparse', 'gettext', 'locale', 'numpy.fft')"


def _modules_after_run(tmp_path, n_theta):
    """The loaded modules of _UNUSED after ``riccidisk run`` of a 16 x n_theta cap."""
    cfg = _write_config(
        tmp_path / "c.cfg",
        **{"grid.n_r": 16, "grid.n_theta": n_theta, "initial.cap_c": 0.5,
           "initial.eps": 0.04 if n_theta > 1 else 0.0, "initial.mode": 2 if n_theta > 1 else 0,
           "schedule.t_end": 1e-4, "schedule.record_every": 1},
    )
    code = (
        "import sys\n"
        "from riccidisk.cli import main\n"
        f"assert main(['run', {str(cfg)!r}]) == 0\n"
        f"print(sorted(m for m in sys.modules if {_UNUSED}))\n"
    )
    src = str(Path(riccidisk.cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert len((tmp_path / "traj.csv").read_text().splitlines()) > 2
    return out.stdout.strip()


def test_cmd_run_imports_no_scipy(tmp_path):
    # a 2-D run takes the DFT in theta of its Poisson solves, and nothing else
    assert _modules_after_run(tmp_path, 8) == "['numpy.fft']"


def test_one_angle_run_imports_no_fft(tmp_path):
    # on one angle the DFT in theta is the identity, and the solve skips it
    assert _modules_after_run(tmp_path, 1) == "[]"


def test_cmd_run_config_error_exit(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.cfg", **{"initial.cap_c": -1.0})
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_cmd_run_excessive_amplitude(tmp_path):
    cfg = _write_config(
        tmp_path / "c.cfg", **{"initial.cap_c": 0.3, "initial.eps": 30.0}
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("eps", [1e6, 1e20, -1e20, 1e300, 1e308])
def test_cmd_run_overflowing_amplitude(tmp_path, capsys, eps):
    # an amplitude whose data overflow is inadmissible like any other, and
    # the bisection reports the bound of a moderate one (5 gives 1.103)
    cfg = _write_config(
        tmp_path / "c.cfg",
        **{"grid.n_r": 32, "grid.n_theta": 16, "initial.cap_c": 0.5,
           "initial.eps": eps, "initial.mode": 2},
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "max admissible |epsilon| is about 1.103" in err and "Traceback" not in err


def test_hemisphere_runs_to_its_blow_up_time(tmp_path):
    # R = 2 / (1 - 2t) reaches 7.5e3 on 32 rings at t = 0.5; Rbar - R
    # cancels it, and the integral of that data carries its rounding
    cfg = _write_config(
        tmp_path / "c.cfg", **{"grid.n_r": 32, "schedule.t_end": 0.5, "w.horizon": 1.0}
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    last = (tmp_path / "traj.csv").read_text().splitlines()[-1].split(",")
    assert float(last[0]) == 0.5


def test_run_past_the_blow_up_time_keeps_its_rows(tmp_path, capsys):
    # on 8 rings t stops moving just past 0.5: the super-step that cannot
    # move t ends the run with the rows of the states it accepted
    cfg = _write_config(
        tmp_path / "c.cfg",
        **{"grid.n_r": 8, "schedule.t_end": 0.6, "schedule.record_every": 1000,
           "w.horizon": 1.0},
    )
    assert main(["run", str(cfg)]) == EXIT_EARLY
    err = capsys.readouterr().err
    assert "flow terminated early: step_limit" in err and "Traceback" not in err
    rows = (tmp_path / "traj.csv").read_text().splitlines()[1:]
    values = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert len(rows) >= 4
    assert np.isfinite(values).all()
    assert (np.diff(values[:, 0]) > 0.0).all()


@pytest.mark.parametrize(
    "command, check",
    [("run", None), ("verify", "relation"), ("verify", "negctrl_relation_corrupt")],
)
def test_horizon_near_the_largest_double_is_refused(tmp_path, capsys, command, check):
    # tau (R - |grad log R|^2) R overflows: W is infinite and the relation's
    # residual NaN, which no record or report may hold
    overrides = {"grid.n_r": 16, "grid.n_theta": 8, "initial.cap_c": 0.5,
                 "schedule.t_end": 1e-3, "schedule.record_every": 1, "w.horizon": 1.7e308}
    if check:
        overrides["verify.checks"] = check
    cfg = _write_config(tmp_path / "c.cfg", **overrides)
    assert main([command, str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "is not finite" in errors[0] and "Traceback" not in err
    assert not (tmp_path / "traj.csv").exists() and not (tmp_path / "report.jsonl").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_tiny_horizon_is_refused(tmp_path, capsys, command):
    # tau^2 underflows to 0 at this horizon; 1 / tau / tau is infinite, and
    # so is dW/dt, which no record may hold
    cfg = _write_config(
        tmp_path / "c.cfg",
        **{"grid.n_r": 16, "grid.n_theta": 8, "initial.cap_c": 0.5, "initial.eps": 0.02,
           "initial.mode": 2, "schedule.t_end": 1e-170, "w.horizon": 2e-170},
    )
    assert main([command, str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "dW_dt_rhs = inf is not finite" in errors[0]
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["run", "verify"])
def test_horizon_past_sqrt_of_max_double_gives_finite_records(tmp_path, capsys, command):
    # tau^2 overflows a double at this horizon; 1 / tau^2 must not
    cfg = _write_config(
        tmp_path / "c.cfg",
        **{"grid.n_r": 16, "grid.n_theta": 8, "initial.cap_c": 0.5, "initial.eps": 0.05,
           "initial.mode": 2, "schedule.t_end": 5e-4, "schedule.record_every": 1,
           "w.horizon": 1e200},
    )
    assert main([command, str(cfg)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    if command == "run":
        rows = (tmp_path / "traj.csv").read_text().splitlines()[1:]
        assert len(rows) > 2
        assert np.isfinite([[float(x) for x in row.split(",")] for row in rows]).all()


@pytest.mark.parametrize("key", sorted(k for k, t in KEYS.items() if t is float))
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cmd_run_rejects_non_finite_numbers(tmp_path, capsys, key, bad):
    cfg = _write_config(tmp_path / "c.cfg", **{key: bad})
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:" in err and key in err and "Traceback" not in err


def test_cmd_verify_full_suite(tmp_path):
    checks = (
        "hamilton, guo, avg_evolution, kappa_evolution, normal_lemmas, "
        "second_derivative_N, reilly, lemma_useful, lemma_time2, relation, "
        "negctrl_incompatible_bc, negctrl_relation_corrupt"
    )
    cfg = _write_config(
        tmp_path / "c.cfg",
        **{
            "grid.n_r": 128,
            "initial.cap_c": 0.5,
            "initial.eps": 0.05,
            "schedule.t_end": 0.02,
            "schedule.record_every": 100,
            "verify.checks": checks,
        },
    )
    assert main(["verify", str(cfg)]) == EXIT_OK
    report = (tmp_path / "report.jsonl").read_text().splitlines()
    assert len(report) == 12


def test_cmd_run_early_stop_writes_last_accepted_state(tmp_path, capsys, monkeypatch):
    # three super-steps stop the run inside its first record interval
    monkeypatch.setattr(riccidisk.flow, "MAX_STEPS", 3)
    cfg = _write_config(tmp_path / "c.cfg", **{"schedule.record_every": 100})
    assert main(["run", str(cfg)]) == EXIT_EARLY
    assert "flow terminated early: step_limit" in capsys.readouterr().err
    rows = (tmp_path / "traj.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert float(rows[0].split(",")[0]) == 0.0 < float(rows[1].split(",")[0])


@pytest.mark.parametrize("cause", [Termination.POSITIVITY_LOST, Termination.STEP_LIMIT])
def test_cmd_verify_exits_early_when_flow_terminates(tmp_path, capsys, monkeypatch, cause):
    monkeypatch.setattr(riccidisk.cli, "run", lambda *args: FlowTrajectory(termination=cause))
    cfg = _write_config(tmp_path / "c.cfg", **{"verify.checks": "hamilton, relation"})
    assert main(["verify", str(cfg)]) == EXIT_EARLY
    assert f"flow terminated early: {cause.value}" in capsys.readouterr().err
    assert not (tmp_path / "report.jsonl").exists()


@pytest.mark.parametrize(
    "command, key, checks",
    [
        ("run", "out.trajectory_csv", "relation"),
        ("verify", "out.report_jsonl", "relation"),
        ("convergence", "out.trajectory_csv", "lemma_time2"),
    ],
)
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command, key, checks):
    out = tmp_path / "no_such_dir" / "out.txt"
    cfg = _write_config(
        tmp_path / "c.cfg", **{"grid.n_r": 32, key: out, "verify.checks": checks}
    )
    assert main([command, str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err and "Traceback" not in err


def _overcommits_always():
    try:
        with open("/proc/sys/vm/overcommit_memory") as fh:
            return fh.read().strip() == "1"
    except OSError:
        return False


@pytest.mark.skipif(
    _overcommits_always(), reason="the OS would grant the 7.28 TiB and then run out of memory"
)
def test_impossible_grid_is_a_config_error(tmp_path, capsys):
    # w_vol alone would take 7.28 TiB; the allocator refuses it at once
    p = _write_config(tmp_path / "c.cfg", **{"grid.n_r": 10**6, "grid.n_theta": 10**6})
    assert main(["run", str(p)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1000000 x 1000000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "n_r, n_theta",
    [
        pytest.param(10**20, 1, id=str(10**20)),
        pytest.param(2**63, 1, id=str(2**63)),
        # 1 / n beyond a float
        pytest.param(10**400, 1, id="n_r=10**400"),
        pytest.param(64, 10**400, id="n_theta=10**400"),
    ],
)
def test_grid_beyond_numpy_limits_is_a_config_error(tmp_path, capsys, n_r, n_theta):
    # these sizes fail before anything is allocated
    p = _write_config(tmp_path / "c.cfg", **{"grid.n_r": n_r, "grid.n_theta": n_theta})
    assert main(["run", str(p)]) == EXIT_CONFIG == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{n_r} x {n_theta}" in err
    assert "Traceback" not in err


def test_unresolved_angular_mode_is_a_config_error(tmp_path, capsys):
    p = _write_config(
        tmp_path / "c.cfg", **{"grid.n_r": 32, "grid.n_theta": 16, "initial.mode": 10**400}
    )
    assert main(["run", str(p)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cmd_verify_rejects_empty_or_unknown_checks(tmp_path):
    cfg = _write_config(tmp_path / "e.cfg", **{"verify.checks": ""})
    assert main(["verify", str(cfg)]) == EXIT_CONFIG
    cfg = _write_config(tmp_path / "u.cfg", **{"verify.checks": "nope"})
    assert main(["verify", str(cfg)]) == EXIT_CONFIG


def test_cmd_verify_flags_passing_negative_control(tmp_path, monkeypatch):
    from riccidisk.verify import IdentityReport

    def fake_negctrl(grid):
        return IdentityReport(
            "negctrl_incompatible_bc", 1.0, 1.0, 0.0, 0.0, grid.spec, 0.0, True
        )

    monkeypatch.setattr(riccidisk.verify, "negctrl_incompatible_bc", fake_negctrl)
    cfg = _write_config(
        tmp_path / "c.cfg", **{"verify.checks": "negctrl_incompatible_bc"}
    )
    assert main(["verify", str(cfg)]) == EXIT_VERIFY


def test_cmd_convergence(tmp_path):
    cfg = _write_config(
        tmp_path / "c.cfg",
        **{"grid.n_r": 32, "grid.n_theta": 16, "verify.checks": "reilly"},
    )
    assert main(["convergence", str(cfg)]) == EXIT_OK
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0] == "name,h,dt,err,observed_order"
    assert len(lines) == 4
    order = float(lines[1].split(",")[4])
    assert order > 1.5


def test_cmd_convergence_unknown_study(tmp_path):
    cfg = _write_config(tmp_path / "c.cfg", **{"verify.checks": "guo"})
    assert main(["convergence", str(cfg)]) == EXIT_CONFIG


def test_run_is_deterministic(tmp_path):
    a = _write_config(tmp_path / "a.cfg")
    assert main(["run", str(a)]) == EXIT_OK
    first = (tmp_path / "traj.csv").read_bytes()
    assert main(["run", str(a)]) == EXIT_OK
    assert (tmp_path / "traj.csv").read_bytes() == first


def test_verify_is_deterministic(tmp_path):
    checks = "hamilton, kappa_evolution, normal_lemmas, second_derivative_N, relation"
    cfg = _write_config(tmp_path / "c.cfg", **{"verify.checks": checks})
    codes = [main(["verify", str(cfg)])]
    first = (tmp_path / "report.jsonl").read_bytes()
    codes.append(main(["verify", str(cfg)]))
    assert codes[0] == codes[1] in (EXIT_OK, EXIT_VERIFY)
    assert len(first.splitlines()) == 5
    assert (tmp_path / "report.jsonl").read_bytes() == first


def test_main_dispatch(tmp_path):
    cfg = _write_config(tmp_path / "c.cfg")
    assert main(["run", str(cfg)]) == EXIT_OK
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv", [[], ["bogus", "c.cfg"], ["run"], ["run", "a.cfg", "extra"], ["--bogus"]]
)
def test_malformed_command_line_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["-h"], ["run", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert "usage:" in out
        assert riccidisk.cli.USAGE in out.splitlines()


def test_cmd_run_writes_the_records_of_a_full_run(tmp_path, monkeypatch):
    path = _write_config(
        tmp_path / "c.cfg",
        **{
            "grid.n_theta": 8,
            "initial.cap_c": 0.5,
            "initial.eps": 0.05,
            "initial.mode": 2,
            "schedule.t_end": 3.0e-4,
            "schedule.record_every": 2,
        },
    )
    runs = []

    def spy(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(riccidisk.cli, "run", spy)
    assert main(["run", str(path)]) == EXIT_OK
    cfg = parse_config(str(path))
    full = run(_initial_metric(cfg), cfg.schedule, cfg.w_horizon)
    assert len(full.records) > 5
    assert [len(traj.snapshots) for traj in runs] == [5]
    rows = [",".join(_fmt(getattr(rec, c)) for c in CSV_COLUMNS) for rec in full.records]
    assert (tmp_path / "traj.csv").read_text().splitlines() == [",".join(CSV_COLUMNS)] + rows
