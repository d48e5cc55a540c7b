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
    ALL_KEYS,
    _FLOAT_KEYS,
    cmd_convergence,
    cmd_run,
    cmd_verify,
    main,
    parse_config,
)
from riccidisk.errors import ConfigurationError, RicciDiskError
from riccidisk.flow import FlowTrajectory, Termination

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


def test_parse_config_errors(tmp_path):
    p = _write_config(tmp_path / "c.cfg", **{"grid.n_r": None})
    with pytest.raises(ConfigurationError, match="grid.n_r"):
        parse_config(str(p))

    p = tmp_path / "u.cfg"
    _write_config(p)
    p.write_text(p.read_text() + "bogus.key = 1\n")
    with pytest.raises(ConfigurationError, match="bogus.key"):
        parse_config(str(p))

    p = tmp_path / "d.cfg"
    _write_config(p)
    p.write_text(p.read_text() + "grid.n_r = 32\n")
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config(str(p))

    p = _write_config(tmp_path / "b.cfg", **{"schedule.t_end": "soon"})
    with pytest.raises(ConfigurationError, match="schedule.t_end"):
        parse_config(str(p))

    with pytest.raises(ConfigurationError):
        parse_config(str(tmp_path / "missing.cfg"))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    junk=st.dictionaries(
        st.sampled_from(sorted(ALL_KEYS)),
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
    assert cmd_run(str(cfg)) == EXIT_OK
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


def test_cmd_run_imports_no_scipy(tmp_path):
    # scipy serves the tests as an oracle only; a run must not load it
    cfg = _write_config(
        tmp_path / "c.cfg",
        **{"grid.n_r": 16, "grid.n_theta": 8, "initial.cap_c": 0.5, "initial.eps": 0.04,
           "initial.mode": 2, "schedule.t_end": 1e-4, "schedule.record_every": 1},
    )
    code = (
        "import sys\n"
        "from riccidisk.cli import main\n"
        f"assert main(['run', {str(cfg)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(riccidisk.cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    assert len((tmp_path / "traj.csv").read_text().splitlines()) > 2


def test_cmd_run_config_error_exit(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.cfg", **{"initial.cap_c": -1.0})
    assert cmd_run(str(cfg)) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_cmd_run_excessive_amplitude(tmp_path):
    cfg = _write_config(
        tmp_path / "c.cfg", **{"initial.cap_c": 0.3, "initial.eps": 30.0}
    )
    assert cmd_run(str(cfg)) == EXIT_CONFIG


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("eps", [1e6, 1e308])
def test_cmd_run_overflowing_amplitude(tmp_path, capsys, eps):
    cfg = _write_config(
        tmp_path / "c.cfg",
        **{"grid.n_r": 32, "grid.n_theta": 16, "initial.cap_c": 0.5,
           "initial.eps": eps, "initial.mode": 2},
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("key", sorted(_FLOAT_KEYS))
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
    assert cmd_verify(str(cfg)) == EXIT_OK
    report = (tmp_path / "report.jsonl").read_text().splitlines()
    assert len(report) == 12


@pytest.mark.parametrize("cause", [Termination.POSITIVITY_LOST, Termination.STEP_LIMIT])
def test_cmd_verify_exits_early_when_flow_terminates(tmp_path, capsys, monkeypatch, cause):
    monkeypatch.setattr(riccidisk.cli, "run", lambda *args: FlowTrajectory(termination=cause))
    cfg = _write_config(tmp_path / "c.cfg", **{"verify.checks": "hamilton, relation"})
    assert cmd_verify(str(cfg)) == EXIT_EARLY
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


@pytest.mark.parametrize("n_r", [10**20, 2**63])
def test_grid_beyond_numpy_limits_is_a_config_error(tmp_path, capsys, n_r):
    # numpy refuses these sizes before allocating anything
    p = _write_config(tmp_path / "c.cfg", **{"grid.n_r": n_r})
    assert main(["run", str(p)]) == EXIT_CONFIG == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{n_r} x 1" in err
    assert "Traceback" not in err


def test_cmd_verify_rejects_empty_or_unknown_checks(tmp_path):
    cfg = _write_config(tmp_path / "e.cfg", **{"verify.checks": ""})
    assert cmd_verify(str(cfg)) == EXIT_CONFIG
    cfg = _write_config(tmp_path / "u.cfg", **{"verify.checks": "nope"})
    assert cmd_verify(str(cfg)) == EXIT_CONFIG


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
    assert cmd_verify(str(cfg)) == EXIT_VERIFY


def test_cmd_convergence(tmp_path):
    cfg = _write_config(
        tmp_path / "c.cfg",
        **{"grid.n_r": 32, "grid.n_theta": 16, "verify.checks": "reilly"},
    )
    assert cmd_convergence(str(cfg)) == EXIT_OK
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0] == "name,h,dt,err,observed_order"
    assert len(lines) == 4
    order = float(lines[1].split(",")[4])
    assert order > 1.5


def test_cmd_convergence_unknown_study(tmp_path):
    cfg = _write_config(tmp_path / "c.cfg", **{"verify.checks": "guo"})
    assert cmd_convergence(str(cfg)) == EXIT_CONFIG


def test_run_is_deterministic(tmp_path):
    a = _write_config(tmp_path / "a.cfg")
    assert cmd_run(str(a)) == EXIT_OK
    first = (tmp_path / "traj.csv").read_bytes()
    assert cmd_run(str(a)) == EXIT_OK
    assert (tmp_path / "traj.csv").read_bytes() == first


def test_main_dispatch(tmp_path):
    cfg = _write_config(tmp_path / "c.cfg")
    assert main(["run", str(cfg)]) == EXIT_OK
    with pytest.raises(SystemExit):
        main([])
