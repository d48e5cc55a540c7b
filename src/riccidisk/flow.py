"""Time integration of the conformal Ricci flow d_t u = -R on the disk.

The curvature Neumann condition R_nu = 0 is imposed through the ghost ring
of u before every right-hand-side evaluation; the three-stage SSP-RK3
method of Shu and Osher advances the interior values at the forward-Euler
bound of the discrete operator.  Positivity of R is a standing hypothesis
and is monitored (never clamped): a violating step is rolled back and the
trajectory terminates.
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


# a run that has not reached t_end after this many accepted steps stops
# with Termination.STEP_LIMIT
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class FlowSchedule:
    t_end: float
    cfl_safety: float = 0.8
    record_every: int = 1

    def __post_init__(self):
        if not self.t_end > 0.0:  # NaN fails too
            raise UsageError(f"t_end must be positive, got {self.t_end}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise UsageError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if self.record_every < 1:
            raise UsageError("record_every must be a positive integer")


@dataclass
class FlowTrajectory:
    snapshots: list = field(default_factory=list)   # list[FlowState]
    records: list = field(default_factory=list)     # list[EntropyRecord]
    termination: Termination = Termination.COMPLETED

    def require_every_snapshot(self, reader: str) -> None:
        """Raise ``UsageError`` unless a snapshot is held for every record.

        A trajectory run with ``keep_every_snapshot=False`` holds only its
        ends; a reader of the snapshots between them cannot use it.
        """
        if len(self.snapshots) < len(self.records):
            raise UsageError(
                f"{reader} reads a snapshot per record, but the trajectory holds "
                f"{len(self.snapshots)} snapshots for {len(self.records)} records; "
                "run the flow with keep_every_snapshot=True"
            )


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
    """Forward-Euler bound of the flow operator, dt = safety * min(e^u) * 2 / rho.

    The flow linearizes to d_t u = e^(-u) lap0 u.  On ring i the flux
    Laplacian's row has the diagonal 2 / dr^2 + 2 / (r_i dth)^2, since
    (r_out + r_in) / (r_i dr^2) = 2 / dr^2 (on the pole ring too, where
    r_in = 0 and r_out = 2 r_0), and off-diagonal entries of the same
    total, so its Gershgorin disc reaches 4 / dr^2 + 4 / (r_i dth)^2.  The
    pole ring has the smallest r, so

        rho = 4 / dr^2 + 4 / (r_0 dth)^2,

    without the angular term in 1-D.  Forward Euler is stable for
    dt e^(-u) rho <= 2.  The SSP-RK3 step has SSP coefficient 1, so at
    this dt it keeps every norm and convex bound that forward Euler keeps,
    and its interval on the negative real axis, [-2.51, 0], holds the
    bound 1.26 times over.  The last ring's row, with the ghost the
    curvature closure solves for, is not a Gershgorin row of this form;
    the stability test in ``tests/test_flow.py`` runs this bound for
    2,000 steps in 1-D and 2-D.

    min(e^u) is taken as e^(min u), which is the same double while numpy's
    exp is monotone, without an exp of the whole field on a step that
    takes no record.  At safety 1 and u = 709 the product e^u * 2 is still
    finite.
    """
    g = m.grid
    rho = 4.0 / (g.dr * g.dr)
    if g.n_theta > 1:
        h = g.r[0] * g.dtheta
        rho += 4.0 / (h * h)
    return safety * float(np.exp(m.u.min())) * 2.0 / rho


def step(s: FlowState, dt: float) -> FlowState:
    """One SSP-RK3 step with the boundary closure re-enforced at every stage.

    The Shu-Osher form, with k(u) = -R of the closed metric of u:

        u1 = u0 + dt k(u0)
        u2 = 3/4 u0 + 1/4 (u1 + dt k(u1))
        u3 = 1/3 u0 + 2/3 (u2 + dt k(u2))

    Each stage is a convex combination of forward-Euler steps, so the step
    is stable up to the forward-Euler bound that :func:`cfl_dt` returns
    (SSP coefficient 1; Shu & Osher, J. Comput. Phys. 77 (1988) 439-471;
    Gottlieb, Shu & Tadmor, SIAM Rev. 43 (2001) 89-112), and third order,
    which at a step proportional to h^2 leaves the time error far below
    the space error.

    Precondition: ``s.metric`` carries the curvature-Neumann ghost, as every
    state that :func:`run`, :func:`step` and the initial-data module build
    does.  k(u0) is then ``-s.metric.R``, so the curvature that accepted
    the previous step (and that its record read) is reused, not recomputed.
    Every stage metric arrives from the closure with its R, so a step costs
    three closures; the last one's R serves the positivity test, the next
    step and the record.  Each stage combines in place in its slope, which
    no metric owns, with the rounding of the formulas above.
    """
    if dt == 0.0:
        return s
    m0 = s.metric
    u0, grid = m0.u, m0.grid
    k = rhs(m0)
    k *= dt
    k += u0
    m = enforce_curvature_neumann(k, grid)
    for a, b in ((0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0)):
        k = rhs(m)
        k *= dt
        k += m.u
        k *= b
        k += a * u0
        m = enforce_curvature_neumann(k, grid)
    r_min = float(m.R.min())
    if not r_min > 0.0:  # NaN fails too
        raise PositivityError(
            f"min R = {r_min:.3e} is not positive after step to t = {s.t + dt:.6g}",
            min_r=r_min,
        )
    return FlowState(s.t + dt, m)


def run(
    initial: ConformalMetric,
    sched: FlowSchedule,
    w_horizon: float,
    keep_every_snapshot: bool = True,
) -> FlowTrajectory:
    """Integrate to t_end (or early termination), recording entropy data.

    Records are taken at t = 0, every ``record_every`` accepted steps, and
    at the final accepted state, also when the run stops early (after
    ``MAX_STEPS`` steps or at a step that loses positivity).  A snapshot
    shares u and the ghost ring with the state it was taken from but none
    of its cached curvature, so it costs u plus its ghost.

    With ``keep_every_snapshot`` (the default) a snapshot is stored
    alongside each record; the time-differencing checks of
    ``riccidisk verify`` read snapshots between the ends, so ``cmd_verify``
    and the tests keep them.  Without it the trajectory holds two
    snapshots however many records it takes, the first and the latest,
    which replaces its predecessor at each record; ``riccidisk run`` and
    the flow convergence studies read only records and the ends, so they
    run this way.  Records, their times and the termination do not depend
    on the mode.
    """
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
        snap = FlowState(st.t, ConformalMetric(m.u, m.grid, m.u_ghost))
        if keep_every_snapshot or len(traj.snapshots) < 2:
            traj.snapshots.append(snap)
        else:
            traj.snapshots[-1] = snap
        traj.records.append(entropy.make_record(m, st.t, w_horizon))

    record(state)
    steps = 0
    while state.t < sched.t_end * (1.0 - 1e-14):
        if steps >= MAX_STEPS:
            traj.termination = Termination.STEP_LIMIT
            break
        dt = min(cfl_dt(state.metric, sched.cfl_safety), sched.t_end - state.t)
        try:
            state = step(state, dt)
        except PositivityError:
            traj.termination = Termination.POSITIVITY_LOST
            break
        steps += 1
        if steps % sched.record_every == 0 or state.t >= sched.t_end * (1.0 - 1e-14):
            record(state)

    if traj.records[-1].t < state.t:  # an early stop between record steps
        record(state)
    return traj
