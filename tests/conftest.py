import numpy as np
import pytest

from riccidisk import entropy
from riccidisk.flow import FlowState, run
from riccidisk.geometry import ConformalMetric, make_metric
from riccidisk.grid import GridSpec, build_grid
from riccidisk.initial_data import CapParams, spherical_cap


@pytest.fixture(scope="session")
def grid_1d():
    return build_grid(GridSpec(128, 1))


@pytest.fixture(scope="session")
def grid_2d():
    return build_grid(GridSpec(64, 32))


@pytest.fixture(scope="session")
def hemisphere_1d(grid_1d):
    return spherical_cap(CapParams(1.0), grid_1d)


@pytest.fixture(scope="session")
def hemisphere_2d(grid_2d):
    return spherical_cap(CapParams(1.0), grid_2d)


@pytest.fixture(scope="session")
def flat_2d(grid_2d):
    return make_metric(np.zeros((grid_2d.n_r, grid_2d.n_theta)), grid_2d)


@pytest.fixture
def run_keeping_every_state(monkeypatch):
    """``run`` that also returns the state of every record.

    Each state is captured where ``flow.run`` hands it to
    ``entropy.make_record``, as a metric with the state's u and ghost ring
    and no cached curvature; the reference checks read these.
    """
    make_record = entropy.make_record

    def go(initial, sched, w_horizon=0.5):
        states = []

        def capture(m, t, w):
            states.append(FlowState(t, ConformalMetric(m.u, m.grid, m.u_ghost)))
            return make_record(m, t, w)

        with monkeypatch.context() as patch:
            patch.setattr(entropy, "make_record", capture)
            traj = run(initial, sched, w_horizon)
        assert len(states) == len(traj.records)
        return traj, states

    return go
