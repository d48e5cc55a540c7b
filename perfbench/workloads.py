"""Workload definitions and the correctness gate of the riccidisk benchmark.

Each workload is a fixed flat config fed to ``python -m riccidisk.cli``.
The two 2-D workloads draw their cap from the workload seed; the grid and
the schedule never change.  The 1-D workload stays unseeded because its
closed-form oracle R(t) = 2 / (1 - 2t) needs the hemisphere (c = 1, eps = 0).

Why these three (and not the 256x128 ladder grid or the README example,
which take minutes per run and repeat the cap-2d-records mix at a larger
size):

* hemisphere-1d: step-bound on the 1-D fast path (per-call overhead in
  flow.step); a Poisson change should not move it.
* cap-2d-records: record-bound in 2-D (entropy.make_record, mostly CG in
  elliptic.potential_f); a time-stepping change should not move it.
* cap-2d-verify: 2-D stepping under the pole CFL plus the twelve identity
  checks of ``riccidisk verify``.
"""

import csv
import json
import math
import random

CSV_COLUMNS = (
    "t", "tau", "v_M", "R_bar", "min_R",
    "E_partial", "N_partial", "R_partial", "W_partial",
    "dE_dt_rhs", "dW_dt_rhs", "gauss_bonnet_res",
    "kappa_min", "kappa_max", "soliton_residual_L2",
)

# config check name -> report name, in the order the reports are written
CHECKS = {
    "hamilton": "theorem_hamilton",
    "guo": "theorem_guo",
    "avg_evolution": "avg_evolution",
    "kappa_evolution": "kappa_evolution",
    "normal_lemmas": "normal_lemmas",
    "second_derivative_N": "second_derivative_N",
    "reilly": "reilly",
    "lemma_useful": "lemma_useful",
    "lemma_time2": "lemma_time2",
    "relation": "relation",
    "negctrl_incompatible_bc": "negctrl_incompatible_bc",
    "negctrl_relation_corrupt": "negctrl_relation_corrupt",
}

# Checks that fail at the commit that introduced this benchmark on every cap
# of cap-2d-verify: the boundary-flux condition of normal_lemmas (flux 170
# against a bound of 36 at 64x32).  The gate reports them on every run and
# lets them fail or pass; any other failing check fails the gate.  The check
# passes at t_end = 4e-3, so the workload keeps t_end = 2e-3, where it fails.
KNOWN_FAILURES = {"normal_lemmas"}

GAUSS_BONNET_MAX = 1.0e-10
ORACLE_REL_MAX = 1.0e-3


class Workload:
    def __init__(self, name, command, n_r, n_theta, t_end, record_every,
                 seeded, checks=("hamilton",)):
        self.name = name
        self.command = command
        self.n_r = n_r
        self.n_theta = n_theta
        self.t_end = t_end
        self.record_every = record_every
        self.seeded = seeded
        self.checks = tuple(checks)

    @property
    def output(self):
        return "report.jsonl" if self.command == "verify" else "trajectory.csv"

    def caps(self, seed):
        """The cap parameters of one run, a function of the seed alone.

        Seeded workloads draw cap_c in [0.4, 0.6] and eps in [0.03, 0.05]
        by stratified sampling over two caps, one of mode 2 and one of
        mode 3, so every run spans both halves of each range and both modes,
        and its cost depends little on the seed.
        """
        if not self.seeded:
            return [(1.0, 0.0, 0)]
        rng = random.Random(seed)
        c = [0.4 + 0.1 * (k + rng.random()) for k in range(2)]
        eps = [0.03 + 0.01 * (k + rng.random()) for k in range(2)]
        rng.shuffle(eps)
        caps = list(zip(c, eps, (2, 3)))
        rng.shuffle(caps)
        return caps

    def config_text(self, cap, t_end=None):
        c, eps, mode = cap
        return "\n".join([
            f"grid.n_r = {self.n_r}",
            f"grid.n_theta = {self.n_theta}",
            f"initial.cap_c = {c!r}",
            f"initial.eps = {eps!r}",
            f"initial.mode = {mode}",
            f"schedule.t_end = {(self.t_end if t_end is None else t_end)!r}",
            "schedule.cfl_safety = 0.8",
            f"schedule.record_every = {self.record_every}",
            "w.horizon = 0.5",
            "out.trajectory_csv = trajectory.csv",
            "out.report_jsonl = report.jsonl",
            f"verify.checks = {', '.join(self.checks)}",
        ]) + "\n"

    def operations(self):
        """Operations one CLI run counts: one run, or one per check."""
        return len(self.checks) if self.command == "verify" else 1

    def gate(self, exit_code, output_path):
        """Check one CLI run; returns (failed operations, known failures, notes)."""
        if self.command == "verify":
            return _gate_verify(exit_code, output_path, self.checks)
        notes = _gate_run(exit_code, output_path, self.t_end, oracle=not self.seeded)
        return (1 if notes else 0), [], notes


# hemisphere-1d stops at t = 0.15 rather than 0.2 so that a 40 s run holds
# about six passes; flow.step still takes about 80% of its wall time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("hemisphere-1d", "run", 128, 1, 0.15, 200, seeded=False),
        Workload("cap-2d-records", "run", 128, 64, 2.1e-6, 1, seeded=True),
        Workload("cap-2d-verify", "verify", 64, 32, 2.0e-3, 100, seeded=True,
                 checks=tuple(CHECKS)),
    )
}


def _gate_run(exit_code, path, t_end, oracle):
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        return ["CSV header differs from the trajectory columns"]
    if len(rows) < 2:
        return ["CSV has no records"]
    notes = []
    records = []
    for row in rows[1:]:
        try:
            rec = dict(zip(CSV_COLUMNS, map(float, row), strict=True))
        except ValueError as exc:
            return [f"malformed CSV row: {exc}"]
        if not all(math.isfinite(v) for v in rec.values()):
            return [f"non-finite value in the record at t = {rec['t']!r}"]
        records.append(rec)
    if not math.isclose(records[-1]["t"], t_end, rel_tol=1e-12, abs_tol=0.0):
        notes.append(f"last record at t = {records[-1]['t']!r}, expected {t_end!r}")
    if min(r["min_R"] for r in records) <= 0.0:
        notes.append("min_R <= 0")
    gb = max(abs(r["gauss_bonnet_res"]) for r in records)
    if gb > GAUSS_BONNET_MAX:
        notes.append(f"gauss_bonnet_res {gb:.3e} > {GAUSS_BONNET_MAX:.0e}")
    if oracle:
        err = max(abs(r["R_bar"] * (1.0 - 2.0 * r["t"]) / 2.0 - 1.0) for r in records)
        if err > ORACLE_REL_MAX:
            notes.append(f"R_bar off the oracle 2/(1-2t) by {err:.3e} > {ORACLE_REL_MAX:.0e}")
    return notes


def _gate_verify(exit_code, path, checks):
    everything = len(checks)
    try:
        with open(path, encoding="utf-8") as fh:
            reports = [json.loads(line) for line in fh]
    except (OSError, ValueError) as exc:
        return everything, [], [f"cannot read the report {path}: {exc}"]
    names = [r.get("name") for r in reports]
    if names != [CHECKS[c] for c in checks]:
        return everything, [], [f"report names {names} differ from the checks run"]
    failed, known, notes = 0, [], []
    unexpected = False
    for rep in reports:
        name = rep["name"]
        negctrl = name.startswith("negctrl_")
        numbers = [rep[k] for k in ("lhs", "rhs", "abs_err", "rel_err", "dt")]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in numbers):
            failed += 1
            notes.append(f"{name}: non-finite value")
            continue
        if rep["pass"] != negctrl:
            continue
        unexpected = True
        if name in KNOWN_FAILURES:
            known.append(name)
        else:
            failed += 1
            notes.append(f"{name}: {'negative control passed' if negctrl else 'check failed'}")
    expected_exit = 3 if unexpected else 0
    if exit_code != expected_exit:
        return everything, known, notes + [f"exit code {exit_code}, expected {expected_exit}"]
    return failed, known, notes
