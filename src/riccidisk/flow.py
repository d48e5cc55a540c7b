"""Time integration of the conformal Ricci flow d_t u = -R on the disk.

The curvature Neumann condition R_nu = 0 is imposed through the ghost ring
of u before every right-hand-side evaluation; second-order
Runge-Kutta-Legendre super-steps advance the interior values, each
covering several steps at the forward-Euler bound of the discrete
operator.  Positivity of R is a standing hypothesis and is monitored
(never clamped): a violating super-step is rolled back and the trajectory
terminates.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cache

import numpy as np

from . import _kernels, entropy
from .errors import BoundaryClosureError, PositivityError, UsageError
from .geometry import ConformalMetric
from .grid import boundary_value


class Termination(Enum):
    COMPLETED = "completed"
    POSITIVITY_LOST = "positivity_lost"
    STEP_LIMIT = "step_limit"


@dataclass
class FlowState:
    t: float
    metric: ConformalMetric


# a run that has not reached t_end after this many accepted super-steps
# stops with Termination.STEP_LIMIT
MAX_STEPS = 10_000_000

# the most stages of one super-step, which then covers (8^2 + 8 - 2) / 4 =
# 17.5 forward-Euler steps; see :func:`run` for why it is capped
MAX_STAGES = 8


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
    """The records of a run and the few states its checks read.

    ``boundary_R[i]`` and ``int_kappa[i]`` are the boundary trace of R and
    int kappa ds of the state of ``records[i]``.  ``states`` maps a record
    index to its state for the first and the latest record and for the
    probe triple ``probe - 1, probe, probe + 1`` (see :func:`run`); the
    states of the other records are not kept.
    """

    records: list = field(default_factory=list)     # list[EntropyRecord]
    boundary_R: list = field(default_factory=list)  # list[np.ndarray]
    int_kappa: list = field(default_factory=list)   # list[float]
    states: dict = field(default_factory=dict)      # record index -> FlowState
    probe: int | None = None
    termination: Termination = Termination.COMPLETED

    @property
    def snapshots(self) -> list:
        """The held states, each once, in time order."""
        return [self.states[i] for i in sorted(self.states)]


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
    dt e^(-u) rho <= 2, and an RKL2 super-step of s stages for up to
    (s^2 + s - 2) / 4 times this dt.  The last ring's row, with the ghost
    the curvature closure solves for, is not a Gershgorin row of this
    form; the stability test in ``tests/test_flow.py`` runs 2,000 steps'
    worth of this bound in 8-stage super-steps in 1-D and 2-D.

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


def _stages(n: float) -> int:
    """The fewest stages s >= 2 of a super-step of n forward-Euler steps."""
    s = 2
    while s * s + s - 2 < 4.0 * n:
        s += 1
    return s


@cache
def _rkl2_coefficients(stages: int):
    """``(mu~_1, rows)``, a row ``(mu, nu, 1 - mu - nu, mu~, gamma~)`` per stage j >= 2.

    With b_j = (j^2 + j - 2) / (2 j (j + 1)) for j >= 2, b_0 = b_1 = 1/3
    and w_1 = 4 / (s^2 + s - 2):

        mu~_1 = b_1 w_1,   mu_j = (2j - 1) / j  b_j / b_{j-1},
        nu_j = -(j - 1) / j  b_j / b_{j-2},
        mu~_j = mu_j w_1,   gamma~_j = -(1 - b_{j-1}) mu~_j.
    """

    def b(j):
        return 1.0 / 3.0 if j < 2 else (j * j + j - 2) / (2.0 * j * (j + 1))

    w1 = 4.0 / (stages * stages + stages - 2)
    rows = []
    for j in range(2, stages + 1):
        mu = (2 * j - 1) / j * b(j) / b(j - 1)
        nu = -(j - 1) / j * b(j) / b(j - 2)
        mu_t = mu * w1
        rows.append((mu, nu, 1.0 - mu - nu, mu_t, -(1.0 - b(j - 1)) * mu_t))
    return b(1) * w1, tuple(rows)


def step(s: FlowState, dt: float, stages: int) -> FlowState:
    """One RKL2 super-step of ``stages`` stages, the boundary closed at each.

    The second-order Runge-Kutta-Legendre method (Meyer, Balsara & Aslam,
    J. Comput. Phys. 257 (2014) 594-626), with L(u) = -R of the closed
    metric of u, Y_0 = u0 and the coefficients of
    :func:`_rkl2_coefficients`:

        Y_1 = Y_0 + mu~_1 dt L(Y_0)
        Y_j = mu_j Y_{j-1} + nu_j Y_{j-2} + (1 - mu_j - nu_j) Y_0
              + mu~_j dt L(Y_{j-1}) + gamma~_j dt L(Y_0),   j = 2, ..., s,

    and the new u is Y_s.  Its stability polynomial stays within [-1, 1]
    down to -(s^2 + s - 2) / 2 on the negative real axis, so s stages are
    stable for up to (s^2 + s - 2) / 4 steps at the forward-Euler bound of
    :func:`cfl_dt`; two stages cover one such step.

    Precondition: ``s.metric`` carries the curvature-Neumann ghost, as every
    state that :func:`run`, :func:`step` and the initial-data module build
    does.  L(Y_0) is then ``-s.metric.R``, so the curvature that accepted
    the previous super-step (and that its record read) is reused, not
    recomputed.  Every stage metric arrives from the closure with its R,
    so a super-step costs ``stages`` closures and as many ``rhs`` calls;
    the last one's R serves the positivity test, the next super-step and
    the record.  Each stage is summed into a fresh array, which becomes its
    metric's u, term by term in the order of the formula above.
    """
    if dt == 0.0:
        return s
    m0 = s.metric
    u0, grid = m0.u, m0.grid
    l0 = rhs(m0)
    mu1, rows = _rkl2_coefficients(stages)
    y = l0 * (mu1 * dt)
    y += u0
    prev, m = m0, enforce_curvature_neumann(y, grid)
    for mu, nu, c, mu_t, gamma_t in rows:
        y = mu * m.u
        y += nu * prev.u
        y += c * u0
        k = rhs(m)
        k *= mu_t * dt
        y += k
        y += (gamma_t * dt) * l0
        prev, m = m, enforce_curvature_neumann(y, grid)
    r_min = float(m.R.min())
    if not r_min > 0.0:  # NaN fails too
        raise PositivityError(
            f"min R = {r_min:.3e} is not positive after step to t = {s.t + dt:.6g}",
            min_r=r_min,
        )
    return FlowState(s.t + dt, m)


def run(initial: ConformalMetric, sched: FlowSchedule, w_horizon: float) -> FlowTrajectory:
    """Integrate to t_end (or early termination), recording entropy data.

    Records are taken at t = 0, every ``record_every`` steps at the
    forward-Euler bound, and at the final accepted state, also when the run
    stops early (after ``MAX_STEPS`` super-steps or at a super-step that
    loses positivity).  A record interval is covered by the fewest equal
    super-steps of at most ``MAX_STAGES`` stages: k = ceil(record_every /
    17.5) super-steps of n = record_every / k forward-Euler steps each,
    with the bound :func:`cfl_dt` recomputed at every super-step, and each
    of the fewest stages that cover n.  The last super-step stops at t_end.

    The stages are capped because the closure row is not a symmetric
    Gershgorin row and RKL2's stability region narrows as s grows.  On the
    128x1 cap of acceptance criterion 5 (record_every = 100) the final
    boundary flux of lap R is 0.0029 at 8 stages, against SSP-RK3's
    0.0027, and 2.2e-4 at 10, but 0.064 at 12, 0.30 at 14 (over the
    criterion's bound, 0.156) and 6.3 at 20.

    Each record also keeps the boundary trace of R and int kappa ds, which
    it computes anyway.  Of the states, the trajectory holds five at most:
    the first, the latest, and those of the probe triple k - 1, k, k + 1,
    where the probe k is the first record at or after t_end / 2 that has a
    later record.  A run that stops before it finds one (it ends early, or
    t_end / 2 falls after the last record but one) probes its last three
    records, which it holds in a rolling window.  A held state shares u and
    the ghost ring with the state it was taken from but none of its cached
    curvature, so it costs u plus its ghost.
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
    half = 0.5 * sched.t_end

    def record(st):
        m = st.metric
        i = len(traj.records)
        if traj.probe is None and i > 0 and traj.records[-1].t >= half:
            traj.probe = i - 1
        k = traj.probe
        keep = (0, i - 2, i - 1) if k is None else (0, k - 1, k, k + 1)
        traj.states = {j: h for j, h in traj.states.items() if j in keep}
        traj.states[i] = FlowState(st.t, ConformalMetric(m.u, m.grid, m.u_ghost))
        traj.records.append(entropy.make_record(m, st.t, w_horizon))
        traj.boundary_R.append(boundary_value(m.R))
        traj.int_kappa.append(m.int_kappa)

    record(state)
    per_record = -(-4 * sched.record_every // (MAX_STAGES * MAX_STAGES + MAX_STAGES - 2))
    n = sched.record_every / per_record  # forward-Euler steps per super-step
    stages = _stages(n)
    steps = 0
    while state.t < sched.t_end * (1.0 - 1e-14):
        if steps >= MAX_STEPS:
            traj.termination = Termination.STEP_LIMIT
            break
        dt_fe = cfl_dt(state.metric, sched.cfl_safety)
        dt, s = n * dt_fe, stages
        if not dt < sched.t_end - state.t:
            dt = sched.t_end - state.t
            s = _stages(dt / dt_fe)
        try:
            state = step(state, dt, s)
        except PositivityError:
            traj.termination = Termination.POSITIVITY_LOST
            break
        steps += 1
        if steps % per_record == 0 or state.t >= sched.t_end * (1.0 - 1e-14):
            record(state)

    if traj.records[-1].t < state.t:  # an early stop between record steps
        record(state)
    if traj.probe is None:
        traj.probe = len(traj.records) - 2
    return traj
