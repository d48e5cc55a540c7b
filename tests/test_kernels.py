import math

import numpy as np
import pytest

from riccidisk import _kernels as K
from riccidisk.grid import GridSpec, build_grid


def _sample(seed=0, n_r=48, n_theta=24):
    rng = np.random.default_rng(seed)
    g = build_grid(GridSpec(n_r, n_theta))
    u = 0.1 * rng.standard_normal((n_r, n_theta))
    ghost = 0.1 * rng.standard_normal(n_theta)
    return g, np.ascontiguousarray(u), np.ascontiguousarray(ghost)


def test_kahan_matches_fsum():
    rng = np.random.default_rng(1)
    values = rng.standard_normal(10_001) * 10.0 ** rng.integers(-8, 8, 10_001)
    assert K.kahan_sum(values) == pytest.approx(math.fsum(values), rel=1e-14)


@pytest.mark.parametrize("kind", ["cancelling", "heavy_tailed"])
def test_kahan_is_exactly_fsum(kind):
    if kind == "cancelling":
        values = np.array([1e100, 1.0, -1e100])
    else:
        rng = np.random.default_rng(3)
        values = rng.standard_cauchy(8192) * 10.0 ** rng.integers(-150, 150, 8192)
    assert K.kahan_sum(values) == math.fsum(values)


def test_kahan_is_deterministic():
    rng = np.random.default_rng(2)
    values = rng.standard_normal(5000)
    assert K.kahan_sum(values) == K.kahan_sum(values)


@pytest.mark.parametrize("n_theta", [1, 24])
def test_ghost_closure_extrapolates_curvature(n_theta):
    # the closure makes R on the outermost ring the linear extrapolation
    # 1.5 R[-2] - 0.5 R[-3], i.e. a zero one-sided d_r R at the boundary
    g, u, _ = _sample(seed=6, n_theta=n_theta)
    ghost = K.curvature_neumann_ghost(u, g.r, g.dr, g.dtheta)
    R = K.curvature(u, ghost, g.r, g.dr, g.dtheta)
    np.testing.assert_allclose(R[-1], 1.5 * R[-2] - 0.5 * R[-3], rtol=1e-12, atol=0.0)


def test_public_dispatch_deterministic():
    g, u, ghost = _sample(seed=5)
    first = K.curvature(u, ghost, g.r, g.dr, g.dtheta)
    second = K.curvature(u, ghost, g.r, g.dr, g.dtheta)
    assert np.array_equal(first, second)
    g1 = K.curvature_neumann_ghost(u, g.r, g.dr, g.dtheta)
    g2 = K.curvature_neumann_ghost(u, g.r, g.dr, g.dtheta)
    assert np.array_equal(g1, g2)
