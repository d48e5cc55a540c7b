"""riccidisk benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  Every operation is a fresh
``python -m riccidisk.cli`` child with BLAS and OpenMP pinned to one thread.

--trace 0 repeats passes over the seed's caps (one cap for the unseeded
workload, two for the others) for S seconds, at least two passes, and
reports:

    wall_s       spawn to exit of the CLI child, mean over a pass; the
                 fastest pass
    cpu_s        user + sys time of the child from os.wait4, mean over a
                 pass; the fastest pass
    setup_s      spawn to exit of a child that imports riccidisk.cli, parses
                 the config, builds the grid and the perturbed cap, and stops
                 before the first step; one before each CLI run, the median
    peak_rss_mb  the child's maximum resident set size from os.wait4, mean
                 over a pass; the median pass

Every metric is also printed with the median, quartiles and count of its
samples.  wall_s and cpu_s report the fastest pass, not the median one,
because on a shared 2-CPU virtual machine the speed of identical work
changed by up to 1.8x for minutes at a time: across five runs of
hemisphere-1d the median pass spread by 26% of its value, the fastest by 13%.

--trace 1 alternates untraced and traced runs of the seed's first config
for S seconds (at least one pair) and reports the per-layer metrics of
probe.py's wrappers, medians over the traced runs; trace.overhead_s is
the traced median wall time minus the untraced one.

Every CLI run passes the correctness gate of workloads.py, and its output
file must be byte-identical to every other run of the same config, traced
or not.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric with its quartiles and sample count, the failed fraction, the known
baseline failures and the environment record.  A JSON record of the run
goes to .perfbench-out/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"
OUT = ROOT / ".perfbench-out"

HARD_LIMIT_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric -> unit; the order is the order they are printed in
PER_LAYER = {
    "cli.parse_config.s": "s",
    "cli.output.s": "s",
    "cli.output.bytes": "B",
    "initial_data.perturbed_cap.s": "s",
    "flow.step.calls": "count",
    "flow.step.s": "s",
    "flow.step.p50_us": "us",
    "flow.step.p99_us": "us",
    "flow.step.share": "%",
    "flow.rhs.calls": "count",
    "flow.rhs.s": "s",
    "flow.enforce_curvature_neumann.calls": "count",
    "flow.enforce_curvature_neumann.s": "s",
    "flow.cfl_dt.s": "s",
    "flow.dt_min": "t_sim",
    "flow.dt_max": "t_sim",
    "flow.run.self_s": "s",
    "flow.snapshot_bytes": "B",
    "kernels.curvature.calls": "count",
    "kernels.curvature.s": "s",
    "kernels.curvature.computed_bytes": "B/call",
    "kernels.curvature_neumann_ghost.calls": "count",
    "kernels.curvature_neumann_ghost.s": "s",
    "kernels.kahan_sum.calls": "count",
    "kernels.kahan_sum.s": "s",
    "elliptic.potential_f.calls": "count",
    "elliptic.potential_f.s": "s",
    "elliptic.potential_f.share": "%",
    "elliptic.neumann_laplacian_matrix.s": "s",
    "elliptic.cg_iters": "count",
    "elliptic.cg_iters_per_solve": "count",
    "elliptic.linear_residual_max": "1",
    "elliptic.compat_residual_max": "1",
    "entropy.make_record.calls": "count",
    "entropy.make_record.s": "s",
    "entropy.make_record.self_s": "s",
    "entropy.w_functional.s": "s",
    "entropy.dE_dt_rhs.s": "s",
    "entropy.dW_dt_rhs.s": "s",
    "entropy.soliton_residual_L2.s": "s",
    "grid.integrate_volume.calls_per_record": "count",
    **{f"verify.{c}.s": "s" for c in WORKLOADS["cap-2d-verify"].checks},
    "verify.checks_failed": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# exact counts: they must repeat between traced runs of one config
EXACT_COUNTS = (
    "flow.step.calls", "flow.rhs.calls", "elliptic.cg_iters",
    "grid.integrate_volume.calls_per_record",
)


class Failure(Exception):
    """The benchmark cannot run at all; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # the package's default kernel backend, whatever the caller selected
    env.pop("RICCIDISK_PURE_NUMPY", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv, cwd, deadline):
    """Run a child to completion; returns (exit code, wall s, cpu s, peak RSS MB).

    A child still running at ``deadline`` is killed and reads as exit -9.
    """
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
    )


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "riccidisk").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Bench:
    def __init__(self, workload, seed, seconds, trace):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.deadline = self.start + HARD_LIMIT_S
        self.work = OUT / f"work-{workload}-{seed}-{trace}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.known = set()
        self.outputs = {}      # config index -> bytes of the first output
        self.env = None

    def another(self, durations, minimum):
        """Whether to start another pass: below ``minimum`` passes, or one
        more of the mean duration so far still ends within --seconds."""
        now = time.monotonic()
        if now >= self.deadline:
            return False
        if len(durations) < minimum:
            return True
        return now - self.start + statistics.fmean(durations) <= self.seconds

    def write_config(self, k, cap):
        d = self.work / f"c{k}"
        d.mkdir(parents=True, exist_ok=True)
        (d / "bench.cfg").write_text(self.w.config_text(cap), encoding="utf-8")
        return d

    def setup_probe(self, d):
        code, wall, _, _ = spawn(
            [sys.executable, str(PROBE), "setup", "bench.cfg"], d, self.deadline
        )
        if code != 0:
            msg = (d / "stderr.txt").read_text(errors="replace").strip().splitlines()
            raise Failure(f"setup child exited {code}: {msg[-1] if msg else ''}")
        env = json.loads((d / "stdout.txt").read_text().strip().splitlines()[-1])
        if not Path(env["riccidisk_file"]).resolve().is_relative_to(SRC.resolve()):
            raise Failure(f"riccidisk imported from {env['riccidisk_file']}, not {SRC}")
        self.env = env
        return wall

    def cli_run(self, k, d, traced=False):
        """One gated CLI run of config k; returns (wall, cpu, rss) and gates it."""
        out_file = d / self.w.output
        out_file.unlink(missing_ok=True)
        if traced:
            (d / "trace.json").unlink(missing_ok=True)
            argv = [sys.executable, str(PROBE), "trace", self.w.command, "bench.cfg", "trace.json"]
        else:
            argv = [sys.executable, "-m", "riccidisk.cli", self.w.command, "bench.cfg"]
        code, wall, cpu, rss = spawn(argv, d, self.deadline)
        failed, known, notes = self.w.gate(code, out_file)
        if not notes and out_file.exists():
            data = out_file.read_bytes()
            first = self.outputs.setdefault(k, data)
            if data != first:
                failed = self.w.operations()
                notes = [f"{self.w.output} of config {k} differs between runs"]
        self.attempted += self.w.operations()
        self.failed += failed
        self.known.update(known)
        self.notes.extend(f"config {k}{' (traced)' if traced else ''}: {n}" for n in notes)
        return wall, cpu, rss

    def measure(self):
        """Passes over the seed's caps; each metric is the mean over a pass."""
        caps = self.w.caps(self.seed)
        dirs = [self.write_config(k, cap) for k, cap in enumerate(caps)]
        samples = {name: [] for name, _ in END_TO_END}
        durations = []
        while self.another(durations, 2):
            t0 = time.monotonic()
            runs = []
            for k, d in enumerate(dirs):
                samples["setup_s"].append(self.setup_probe(d))
                runs.append(self.cli_run(k, d))
            for name, values in zip(("wall_s", "cpu_s", "peak_rss_mb"), zip(*runs)):
                samples[name].append(statistics.fmean(values))
            durations.append(time.monotonic() - t0)
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        metrics["wall_s"] = min(samples["wall_s"])
        metrics["cpu_s"] = min(samples["cpu_s"])
        return caps, samples, metrics

    def measure_traced(self):
        caps = self.w.caps(self.seed)[:1]
        d = self.write_config(0, caps[0])
        self.setup_probe(d)
        plain, traced, traces, durations = [], [], [], []
        while self.another(durations, 1):
            t0 = time.monotonic()
            plain.append(self.cli_run(0, d)[0])
            traced.append(self.cli_run(0, d, traced=True)[0])
            traces.append(json.loads((d / "trace.json").read_text()))
            durations.append(time.monotonic() - t0)
        per_rep = [layer_metrics(t, wall) for t, wall in zip(traces, traced)]
        for name in EXACT_COUNTS:
            if len({m[name] for m in per_rep}) != 1:
                self.failed += self.w.operations()
                self.notes.append(f"{name} differs between traced runs: {[m[name] for m in per_rep]}")
        metrics = {name: statistics.median(m[name] for m in per_rep) for name in PER_LAYER}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        samples = {name: [m[name] for m in per_rep] for name in PER_LAYER}
        samples["trace.overhead_s"] = [t - u for t, u in zip(traced, plain)]
        return caps, samples, metrics

    def environment(self):
        return {
            "commit": git_commit(),
            "src_sha256": source_digest(),
            "python": self.env["python"],
            "numpy": self.env["numpy"],
            "scipy": self.env["scipy"],
            "using_numba": self.env["using_numba"],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "threads": {var: child_env()[var] for var in THREAD_VARS},
        }


def layer_metrics(t, wall):
    """Per-layer metrics of one traced run; ``wall`` is its spawn-to-exit time."""
    calls, secs, vals = t["calls"], t["seconds"], t["values"]
    c = lambda name: calls.get(name, 0)
    s = lambda name: secs.get(name, 0.0)
    step_us = sorted(vals.get("flow.step.us", [])) or [0.0]
    dts = vals.get("flow.dt", []) or [0.0]
    records = c("entropy.make_record")
    m = {
        "cli.parse_config.s": s("cli.parse_config"),
        "cli.output.s": s("cli.output"),
        "cli.output.bytes": c("cli.output.bytes"),
        "initial_data.perturbed_cap.s": s("initial_data.perturbed_cap"),
        "flow.step.p50_us": statistics.median(step_us),
        "flow.step.p99_us": step_us[min(len(step_us) - 1, int(0.99 * len(step_us)))],
        "flow.step.share": 100.0 * s("flow.step") / wall,
        "flow.dt_min": min(dts),
        "flow.dt_max": max(dts),
        "flow.run.self_s": s("flow.run") - s("flow.step") - s("entropy.make_record") - s("flow.cfl_dt"),
        "flow.snapshot_bytes": sum(vals.get("flow.snapshot_bytes", [])),
        "kernels.curvature.computed_bytes": vals.get("kernels.curvature.computed_bytes", [0])[0],
        "elliptic.potential_f.share": 100.0 * s("elliptic.potential_f") / wall,
        "elliptic.cg_iters": c("elliptic.cg_iters"),
        "elliptic.cg_iters_per_solve": c("elliptic.cg_iters") / max(c("elliptic.cg_solves"), 1),
        "elliptic.linear_residual_max": max(vals.get("elliptic.linear_residual", []), default=0.0),
        "elliptic.compat_residual_max": max(vals.get("elliptic.compat_residual", []), default=0.0),
        "entropy.make_record.self_s": s("entropy.make_record") - s("elliptic.potential_f"),
        "grid.integrate_volume.calls_per_record": c("grid.integrate_volume.in_record") / max(records, 1),
        "verify.checks_failed": c("verify.checks_failed"),
        "trace.wall_s": wall,
        "trace.overhead_s": 0.0,
    }
    for name in PER_LAYER:
        if name in m:
            continue
        base, _, kind = name.rpartition(".")
        m[name] = c(base) if kind == "calls" else s(base)
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "riccidisk" / "cli.py").is_file():
        print(f"error: no riccidisk sources under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, args.trace)
    try:
        if args.trace:
            caps, samples, metrics = bench.measure_traced()
            units = PER_LAYER
        else:
            caps, samples, metrics = bench.measure()
            units = dict(END_TO_END)
        env = bench.environment()
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    w = bench.w
    print(f"workload {w.name} ({w.command} {w.n_r}x{w.n_theta}, t_end = {w.t_end!r}), "
          f"seed {args.seed}, caps (c, eps, mode) {[tuple(round(x, 4) for x in c) for c in caps]}")
    for name, unit in units.items():
        vals = samples[name]
        q1, med, q3 = quartiles(vals)
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit:<7} "
              f"median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(vals)}")
    print(f"  {'fail_frac':<42} {bench.failed / bench.attempted:>14.6g} 1       "
          f"{bench.failed} of {bench.attempted} operations")
    if bench.known:
        print(f"  known baseline failures (reported, not counted): {', '.join(sorted(bench.known))}")
    for note in bench.notes:
        print(f"  gate: {note}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=w.name, seed=args.seed, trace=args.trace, seconds=args.seconds,
                  caps=caps, samples=samples, known_failures=sorted(bench.known),
                  notes=bench.notes, env=env)
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
