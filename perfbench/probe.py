"""Child processes of the benchmark.

    python probe.py setup <config>
        Import riccidisk.cli, parse the config, build the grid and the
        perturbed cap, then stop before the first step.  Prints one JSON
        line describing the environment.

    python probe.py trace <command> <config> <trace.json>
        Run ``riccidisk <command> <config>`` in this process with timing
        wrappers installed around the public functions of each module, and
        write the collected counts and times to <trace.json>.  The wrappers
        replace each name where its caller looks it up, so no file of the
        package changes and the outputs stay byte-identical.  Exits with the
        CLI's exit code.
"""

import builtins
import json
import os
import platform
import sys
import time
from collections import defaultdict


def setup(config):
    import numpy
    import scipy

    import riccidisk
    from riccidisk import _kernels, cli
    from riccidisk.grid import build_grid
    from riccidisk.initial_data import perturbed_cap

    cfg = cli.parse_config(config)
    perturbed_cap(cfg.cap, cfg.perturbation, build_grid(cfg.grid))
    print(json.dumps({
        "riccidisk_file": riccidisk.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "using_numba": _kernels.USING_NUMBA,
    }))
    return 0


class Trace:
    """Call counts, total seconds and a few per-call samples per name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.values = defaultdict(list)
        self.in_record = False

    def wrap(self, module, attr, name, after=None):
        """Replace ``module.attr`` by a timed wrapper counted under ``name``.

        ``after(args, result, seconds)`` sees every completed call.
        """
        fn = getattr(module, attr)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            self.calls[name] += 1
            self.seconds[name] += dt
            if after is not None:
                after(args, result, dt)
            return result

        setattr(module, attr, timed)

    def wrap_all(self, modules, attr, name, after=None):
        for module in modules:
            self.wrap(module, attr, name, after)


class _CountingLinalg:
    """Stand-in for scipy.sparse.linalg that counts CG iterations exactly."""

    def __init__(self, linalg, trace):
        self._linalg = linalg
        self._trace = trace

    def __getattr__(self, name):
        return getattr(self._linalg, name)

    def cg(self, *args, callback=None, **kwargs):
        trace = self._trace

        def count(xk):
            trace.calls["elliptic.cg_iters"] += 1
            if callback is not None:
                callback(xk)

        trace.calls["elliptic.cg_solves"] += 1
        return self._linalg.cg(*args, callback=count, **kwargs)


class _TimedOutput:
    """File opened for writing by the CLI; times it from open to close."""

    def __init__(self, fh, path, t0, trace):
        self._fh = fh
        self._path = path
        self._t0 = t0
        self._trace = trace

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self._fh

    def __exit__(self, *exc):
        self._fh.close()
        self._trace.seconds["cli.output"] += time.perf_counter() - self._t0
        self._trace.calls["cli.output.bytes"] += os.path.getsize(self._path)
        return False


def install(trace):
    """Wrap every traced name; returns nothing, mutates the package modules."""
    from riccidisk import _kernels, cli, elliptic, entropy, flow, geometry, grid, verify

    # cli: config parsing and output are a control; they should move nothing
    trace.wrap(cli, "parse_config", "cli.parse_config")

    def timed_open(path, mode="r", *args, **kwargs):
        t0 = time.perf_counter()
        fh = builtins.open(path, mode, *args, **kwargs)
        return _TimedOutput(fh, path, t0, trace) if "w" in mode else fh

    cli.open = timed_open
    trace.wrap(cli, "perturbed_cap", "initial_data.perturbed_cap")

    def keep_snapshots(args, traj, dt):
        trace.values["flow.snapshot_bytes"].append(sum(
            s.metric.u.nbytes + s.metric.u_ghost.nbytes for s in traj.snapshots
        ))

    trace.wrap(cli, "run", "flow.run", keep_snapshots)

    def keep_check(args, rep, dt):
        trace.seconds[f"verify.{args[0]}"] += dt
        if rep.passed == rep.name.startswith("negctrl_"):
            trace.calls["verify.checks_failed"] += 1

    trace.wrap(cli, "_run_check", "verify.check", keep_check)

    # flow: the time stepper
    def keep_step(args, state, dt):
        trace.values["flow.step.us"].append(dt * 1e6)
        trace.values["flow.dt"].append(args[1])

    trace.wrap(flow, "step", "flow.step", keep_step)
    trace.wrap(flow, "rhs", "flow.rhs")
    trace.wrap(flow, "enforce_curvature_neumann", "flow.enforce_curvature_neumann")
    trace.wrap(flow, "cfl_dt", "flow.cfl_dt")

    # _kernels: looked up through the module by geometry, flow and grid;
    # elliptic imported kahan_sum by name
    def keep_curvature_bytes(args, out, dt):
        u, ghost, r = args[:3]
        if not trace.values["kernels.curvature.computed_bytes"]:
            trace.values["kernels.curvature.computed_bytes"].append(
                u.nbytes + ghost.nbytes + r.nbytes + out.nbytes
            )

    trace.wrap(_kernels, "curvature", "kernels.curvature", keep_curvature_bytes)
    trace.wrap(_kernels, "curvature_neumann_ghost", "kernels.curvature_neumann_ghost")
    trace.wrap_all((_kernels, elliptic), "kahan_sum", "kernels.kahan_sum")

    # elliptic: the Poisson-Neumann solve behind every record
    def keep_residuals(args, sol, dt):
        trace.values["elliptic.linear_residual"].append(sol.linear_residual)
        trace.values["elliptic.compat_residual"].append(sol.compat_residual)

    trace.wrap(entropy, "potential_f", "elliptic.potential_f", keep_residuals)
    trace.wrap(elliptic, "neumann_laplacian_matrix", "elliptic.neumann_laplacian_matrix")
    elliptic.spla = _CountingLinalg(elliptic.spla, trace)

    # entropy: one record per recorded snapshot
    make_record = entropy.make_record

    def record(*args, **kwargs):
        trace.in_record = True
        try:
            return make_record(*args, **kwargs)
        finally:
            trace.in_record = False

    entropy.make_record = record
    trace.wrap(entropy, "make_record", "entropy.make_record")
    for fn in ("w_functional", "dE_dt_rhs", "dW_dt_rhs", "soliton_residual_L2"):
        trace.wrap(entropy, fn, f"entropy.{fn}")

    def count_in_record(args, result, dt):
        if trace.in_record:
            trace.calls["grid.integrate_volume.in_record"] += 1

    trace.wrap_all(
        (grid, geometry, elliptic, entropy, verify),
        "integrate_volume", "grid.integrate_volume", count_in_record,
    )


def run_traced(command, config, out_path):
    trace = Trace()
    install(trace)
    from riccidisk import cli

    code = cli.main([command, config])
    with builtins.open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"calls": trace.calls, "seconds": trace.seconds, "values": trace.values}, fh)
    return code


def main(argv):
    if len(argv) == 2 and argv[0] == "setup":
        return setup(argv[1])
    if len(argv) == 4 and argv[0] == "trace":
        return run_traced(*argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
