"""Time integration of the conformal Ricci flow d_t u = -R on the disk.

The curvature Neumann condition R_nu = 0 is imposed through the ghost ring
of u before every right-hand-side evaluation; classical RK4 advances the
interior values under an explicit parabolic CFL bound.  Positivity of R is
a standing hypothesis and is monitored (never clamped): a violating step is
rolled back and the trajectory terminates.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _kernels, entropy
from .errors import BoundaryClosureError, PositivityError, UsageError
from .geometry import ConformalMetric


class Termination(Enum):
    COMPLETED = "completed"
    POSITIVITY_LOST = "positivity_lost"
    STEP_LIMIT = "step_limit"


@dataclass
class FlowState:
    t: float
    metric: ConformalMetric


@dataclass
class FlowSchedule:
    t_end: float
    cfl_safety: float = 0.8
    record_every: int = 1
    max_steps: int = 10_000_000

    def validate(self):
        if not self.t_end > 0.0:  # NaN fails too
            raise UsageError(f"t_end must be positive, got {self.t_end}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise UsageError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if self.record_every < 1:
            raise UsageError("record_every must be a positive integer")
        if self.max_steps < 1:
            raise UsageError("max_steps must be a positive integer")


@dataclass
class FlowTrajectory:
    snapshots: list = field(default_factory=list)   # list[FlowState]
    records: list = field(default_factory=list)     # list[EntropyRecord]
    termination: Termination = Termination.COMPLETED


def enforce_curvature_neumann(u, grid) -> ConformalMetric:
    """The metric exp(u) g0 with its ghost ring set so that d_r R(1) = 0.

    Only the outermost ring of R depends on the ghost, and linearly, so the
    closure is a direct solve per boundary node; u is taken as it is.  The
    closure evaluates R on the way, so the metric arrives with its R.
    """
    ghost, R = _kernels.curvature_neumann_ghost(u, *grid.stencil)
    if not np.isfinite(ghost).all():
        raise BoundaryClosureError("curvature ghost closure produced non-finite values")
    m = ConformalMetric(u, grid, ghost)
    vars(m)["R"] = R  # fills the cache of the lazy ConformalMetric.R
    return m


def rhs(m: ConformalMetric):
    """Conformal Ricci flow right-hand side, d_t u = -R."""
    return -m.R


def cfl_dt(m: ConformalMetric, safety: float) -> float:
    """Explicit stability bound dt = safety * min(e^u) * min(dr, r_min dth)^2 / 4."""
    g = m.grid
    h = min(g.dr, g.r[0] * g.dtheta)
    return safety * float(m.exp_u.min()) * h * h / 4.0


def step(s: FlowState, dt: float) -> FlowState:
    """One RK4 step with the boundary closure re-enforced at every stage.

    Precondition: ``s.metric`` carries the curvature-Neumann ghost, as every
    state that :func:`run`, :func:`step` and the initial-data module build
    does.  Stage k1 is then ``-s.metric.R``, so the curvature that accepted
    the previous step (and that its record read) is reused, not recomputed.
    Every stage metric arrives from the closure with its R, so a stage
    costs one flux-Laplacian pass; the new metric's R serves the positivity
    test, the next step and the record.  The stages are combined in place
    in the slopes, which no metric owns, with the rounding of
    ``u0 + dt/6 (k1 + 2 k2 + 2 k3 + k4)``.
    """
    if dt == 0.0:
        return s
    m0 = s.metric
    u0, grid = m0.u, m0.grid

    def stage(c, k):
        u = np.multiply(c * dt, k)  # a new array: the stage metric owns it
        u += u0
        return enforce_curvature_neumann(u, grid)

    k1 = rhs(m0)
    k2 = rhs(stage(0.5, k1))
    k3 = rhs(stage(0.5, k2))
    k4 = rhs(stage(1.0, k3))
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += u0
    m_new = enforce_curvature_neumann(k1, grid)
    r_min = float(m_new.R.min())
    if not r_min > 0.0:  # NaN fails too
        raise PositivityError(
            f"min R = {r_min:.3e} is not positive after step to t = {s.t + dt:.6g}",
            min_r=r_min,
        )
    return FlowState(s.t + dt, m_new)


def run(initial: ConformalMetric, sched: FlowSchedule, w_horizon: float) -> FlowTrajectory:
    """Integrate to t_end (or early termination), recording entropy data.

    Records are taken at t = 0, every ``record_every`` accepted steps, and
    at the final accepted state; snapshots are stored alongside each record.
    A snapshot shares u and the ghost ring with the state it was taken
    from but none of its cached curvature, so it costs u plus its ghost.
    """
    sched.validate()
    if not w_horizon > sched.t_end:  # NaN fails too
        raise UsageError(
            f"w_horizon ({w_horizon}) must exceed t_end ({sched.t_end})"
        )

    state = FlowState(0.0, enforce_curvature_neumann(initial.u, initial.grid))
    r0_min = float(state.metric.R.min())
    if not r0_min > 0.0:  # NaN fails too
        raise PositivityError(
            f"initial metric has min R = {r0_min:.3e}, not positive", min_r=r0_min
        )

    traj = FlowTrajectory()

    def record(st):
        m = st.metric
        traj.snapshots.append(FlowState(st.t, ConformalMetric(m.u, m.grid, m.u_ghost)))
        traj.records.append(entropy.make_record(st.metric, st.t, w_horizon))

    record(state)
    steps = 0
    last_recorded = 0
    while state.t < sched.t_end * (1.0 - 1e-14):
        if steps >= sched.max_steps:
            traj.termination = Termination.STEP_LIMIT
            return traj
        dt = min(cfl_dt(state.metric, sched.cfl_safety), sched.t_end - state.t)
        try:
            state = step(state, dt)
        except PositivityError:
            traj.termination = Termination.POSITIVITY_LOST
            return traj
        steps += 1
        if steps - last_recorded >= sched.record_every or state.t >= sched.t_end * (1.0 - 1e-14):
            record(state)
            last_recorded = steps

    traj.termination = Termination.COMPLETED
    return traj
