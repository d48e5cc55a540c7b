"""Tests of the benchmark itself, on shortened copies of its workloads.

The traced run must reach every layer its workload exercises (a rename in
the package would otherwise zero a layer silently) and must leave the CLI
output byte-identical; the gate must reject outputs that break it.
"""

import json
import subprocess
import sys

import pytest

from run import PER_LAYER, PROBE, child_env, layer_metrics
from workloads import CHECKS, CSV_COLUMNS, WORKLOADS

# t_end of the shortened workloads: a few steps, at least three records
SHORT_T_END = {"hemisphere-1d": 2.0e-3, "cap-2d-records": 1.0e-7, "cap-2d-verify": 2.0e-4}

# metrics that may be zero on a healthy run
MAY_BE_ZERO = {
    "trace.overhead_s", "verify.checks_failed",
    "elliptic.linear_residual_max", "elliptic.compat_residual_max",
}


def _run_cli(workload, directory, traced):
    w = WORKLOADS[workload]
    directory.mkdir()
    (directory / "bench.cfg").write_text(
        w.config_text(w.caps(seed=1)[0], t_end=SHORT_T_END[workload]), encoding="utf-8"
    )
    if traced:
        argv = [sys.executable, str(PROBE), "trace", w.command, "bench.cfg", "trace.json"]
    else:
        argv = [sys.executable, "-m", "riccidisk.cli", w.command, "bench.cfg"]
    proc = subprocess.run(argv, cwd=directory, env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode in (0, 3), proc.stderr
    return proc.returncode, (directory / w.output).read_bytes()


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def pair(request, tmp_path_factory):
    """An untraced and a traced run of one shortened workload."""
    base = tmp_path_factory.mktemp(request.param)
    plain = _run_cli(request.param, base / "plain", traced=False)
    traced = _run_cli(request.param, base / "traced", traced=True)
    trace = json.loads((base / "traced" / "trace.json").read_text())
    return request.param, plain, traced, trace


def test_traced_output_is_byte_identical(pair):
    _, plain, traced, _ = pair
    assert traced == plain


def test_every_wrapped_name_is_called(pair):
    workload, _, _, trace = pair
    metrics = layer_metrics(trace, wall=1.0)
    expected = [
        name for name in PER_LAYER
        if name not in MAY_BE_ZERO
        and (workload == "cap-2d-verify" or not name.startswith("verify."))
    ]
    zero = [name for name in expected if not metrics[name] > 0]
    assert not zero, f"layers not reached on {workload}: {zero}"
    if workload != "cap-2d-verify":
        assert all(metrics[f"verify.{c}.s"] == 0 for c in CHECKS)


def test_seeded_caps_are_deterministic_and_in_range():
    w = WORKLOADS["cap-2d-records"]
    for seed in range(20):
        caps = w.caps(seed)
        assert caps == w.caps(seed)
        assert sorted(int(10 * (c - 0.4)) for c, _, _ in caps) == [0, 1]
        assert sorted(int(100 * (eps - 0.03)) for _, eps, _ in caps) == [0, 1]
        assert sorted(mode for _, _, mode in caps) == [2, 3]
    assert w.caps(1) != w.caps(2)
    assert WORKLOADS["hemisphere-1d"].caps(7) == [(1.0, 0.0, 0)]


def _write_csv(path, rows):
    lines = [",".join(CSV_COLUMNS)] + [",".join(map(repr, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _hemisphere_row(t, changes):
    row = dict.fromkeys(CSV_COLUMNS, 1.0)
    row.update(t=t, R_bar=2.0 / (1.0 - 2.0 * t), min_R=2.0, gauss_bonnet_res=1e-15)
    row.update(changes)
    return [row[c] for c in CSV_COLUMNS]


@pytest.mark.parametrize("change, reason", [
    ({}, None),
    ({"min_R": 0.0}, "min_R"),
    ({"gauss_bonnet_res": 1e-9}, "gauss_bonnet_res"),
    ({"R_bar": 2.5}, "oracle"),
    ({"kappa_max": float("nan")}, "non-finite"),
    ({"t": 0.1}, "last record"),
])
def test_run_gate(tmp_path, change, reason):
    w = WORKLOADS["hemisphere-1d"]
    path = tmp_path / "trajectory.csv"
    _write_csv(path, [_hemisphere_row(0.0, {}), _hemisphere_row(w.t_end, change)])
    failed, known, notes = w.gate(0, path)
    assert known == []
    if reason is None:
        assert (failed, notes) == (0, [])
    else:
        assert failed == 1 and reason in " ".join(notes)
    assert w.gate(2, path)[0] == 1


def _report(name, passed):
    return json.dumps({"name": name, "lhs": 1.0, "rhs": 1.0, "abs_err": 0.0, "rel_err": 0.0,
                       "n_r": 64, "n_theta": 32, "dt": 1e-5, "pass": passed})


@pytest.mark.parametrize("outcomes, exit_code, failed, known", [
    ({}, 0, 0, []),
    ({"normal_lemmas": False}, 3, 0, ["normal_lemmas"]),
    ({"normal_lemmas": False}, 0, 12, ["normal_lemmas"]),
    ({"reilly": False}, 3, 1, []),
    ({"negctrl_relation_corrupt": True}, 3, 1, []),
])
def test_verify_gate(tmp_path, outcomes, exit_code, failed, known):
    w = WORKLOADS["cap-2d-verify"]
    path = tmp_path / "report.jsonl"
    lines = []
    for check, name in CHECKS.items():
        passed = outcomes.get(check, not name.startswith("negctrl_"))
        lines.append(_report(name, passed))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got_failed, got_known, _ = w.gate(exit_code, path)
    assert (got_failed, got_known) == (failed, known)
