import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from riccidisk import _cg, elliptic
from riccidisk.elliptic import neumann_laplacian_matrix, potential_f, solve_poisson_neumann
from riccidisk.errors import CompatibilityError, DomainError, SolverError
from riccidisk.geometry import laplace_beltrami, normal_derivative, scalar_curvature
from riccidisk.grid import GridSpec, build_grid, ghost_mirror, integrate_volume, laplacian0
from riccidisk.initial_data import CapParams, PerturbationParams, perturbed_cap, spherical_cap


def _reference_matrix(grid):
    """Loop-built volume-weighted flat Laplacian, one flux at a time."""
    n_r, n_t = grid.n_r, grid.n_theta
    dr, dth = grid.dr, grid.dtheta
    idx = lambda i, j: i * n_t + j

    rows, cols, vals = [], [], []

    def add(a, b, v):
        rows.append(a)
        cols.append(b)
        vals.append(v)

    # radial fluxes through interior faces r_{i+1/2}; the r=0 face has zero
    # area and the r=1 face has zero flux (Neumann)
    for i in range(n_r - 1):
        coef = (grid.r[i] + 0.5 * dr) * dth / dr
        for j in range(n_t):
            a, b = idx(i, j), idx(i + 1, j)
            add(a, a, -coef)
            add(a, b, coef)
            add(b, b, -coef)
            add(b, a, coef)

    # angular fluxes, periodic
    if n_t > 1:
        for i in range(n_r):
            coef = dr / (grid.r[i] * dth)
            for j in range(n_t):
                a, b = idx(i, j), idx(i, (j + 1) % n_t)
                add(a, a, -coef)
                add(a, b, coef)
                add(b, b, -coef)
                add(b, a, coef)

    return sp.coo_matrix((vals, (rows, cols)), shape=(n_r * n_t, n_r * n_t)).tocsr()


def _mms_field(grid):
    # d_r f vanishes at r = 1, so f satisfies the Neumann condition
    r = grid.r[:, None]
    if grid.n_theta == 1:
        return (1.0 - r * r) ** 2
    return r * r * (1.0 - r * r) ** 2 * np.cos(2.0 * grid.theta)[None, :]


def _mean_adjust(rho, m):
    return rho - integrate_volume(rho, m) / m.v_M


def test_manufactured_solution_radial(hemisphere_1d):
    m = hemisphere_1d
    f_exact = _mms_field(m.grid)
    rho = _mean_adjust(laplace_beltrami(f_exact, m, ghost=f_exact[-1]), m)
    sol = solve_poisson_neumann(rho, m)
    f_exact = f_exact - integrate_volume(f_exact, m) / m.v_M
    assert np.max(np.abs(sol.f - f_exact)) < 2e-4


def test_manufactured_solution_angular(hemisphere_2d):
    m = hemisphere_2d
    f_exact = _mms_field(m.grid)
    rho = _mean_adjust(laplace_beltrami(f_exact, m, ghost=f_exact[-1]), m)
    sol = solve_poisson_neumann(rho, m)
    f_exact = f_exact - integrate_volume(f_exact, m) / m.v_M
    assert np.max(np.abs(sol.f - f_exact)) < 5e-3


def test_manufactured_solution_converges():
    # continuum source for f = (1 - r^2)^2 on the hemisphere, so the error
    # is the discretization error rather than the solver residual
    errs = []
    for n in (64, 128):
        g = build_grid(GridSpec(n, 1))
        m = spherical_cap(CapParams(1.0), g)
        r = g.r[:, None]
        rho = 0.25 * (1.0 + r * r) ** 2 * (16.0 * r * r - 8.0)
        rho = _mean_adjust(rho, m)
        sol = solve_poisson_neumann(rho, m)
        f_exact = _mms_field(g)
        f_exact = f_exact - integrate_volume(f_exact, m) / m.v_M
        errs.append(np.max(np.abs(sol.f - f_exact)))
    assert errs[0] / errs[1] > 3.0


def test_incompatible_data_raises(hemisphere_1d):
    rho = np.ones((hemisphere_1d.grid.n_r, 1))
    with pytest.raises(CompatibilityError):
        solve_poisson_neumann(rho, hemisphere_1d)


def test_small_incompatible_data_raises(hemisphere_2d):
    # the bound scales with max|rho|, so tiny data is held to it too
    rho = np.full(hemisphere_2d.u.shape, 1e-30)
    with pytest.raises(CompatibilityError):
        solve_poisson_neumann(rho, hemisphere_2d)


def test_solution_is_mean_zero_and_neumann(hemisphere_2d):
    m = hemisphere_2d
    rho = _mean_adjust(_mms_field(m.grid), m)
    sol = solve_poisson_neumann(rho, m)
    assert abs(integrate_volume(sol.f, m)) < 1e-10
    # zero-flux closure: the mirrored ghost makes the outer face derivative 0
    flux = normal_derivative(sol.f, m)
    assert np.max(np.abs(flux)) < 0.05
    assert sol.linear_residual < 1e-9


def test_potential_of_constant_curvature_is_zero(hemisphere_1d):
    sol = potential_f(hemisphere_1d)
    assert sol.compat_residual < 1e-10
    assert np.max(np.abs(sol.f)) < 1e-4


def test_zero_data_short_circuits(hemisphere_1d, hemisphere_2d):
    for m in (hemisphere_1d, hemisphere_2d):
        sol = solve_poisson_neumann(np.zeros_like(m.u), m)
        assert np.all(sol.f == 0.0)
        assert sol.compat_residual == 0.0
        assert sol.linear_residual == 0.0


def _dense_operator(A, n):
    """The operator as a dense matrix, one column per unit vector."""
    D = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        D[:, j] = A(e)
        e[j] = 0.0
    return D


@pytest.mark.parametrize("n_r,n_theta", [(8, 1), (128, 1), (16, 8), (64, 32)])
def test_matrix_matches_loop_reference(n_r, n_theta):
    g = build_grid(GridSpec(n_r, n_theta))
    A = sp.csr_matrix(_dense_operator(neumann_laplacian_matrix(g), n_r * n_theta))
    ref = _reference_matrix(g)
    ref.sum_duplicates()
    ref.sort_indices()
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    # the stencil and the sums of flux coefficients round differently
    np.testing.assert_allclose(A.data, ref.data, rtol=1e-14, atol=0.0)
    _, a_norm = elliptic._operator(n_r, n_theta)
    np.testing.assert_allclose(a_norm, abs(ref).sum(axis=1).max(), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n_r,n_theta", [(8, 1), (377, 1), (16, 8), (40, 24)])
def test_operator_is_the_flux_laplacian_kernel(n_r, n_theta):
    g = build_grid(GridSpec(n_r, n_theta))
    x = np.random.default_rng(n_r * n_theta).standard_normal(n_r * n_theta)
    X = x.reshape(n_r, n_theta)
    expected = (laplacian0(X, g, ghost_mirror(X)) * g.w_vol).ravel()
    assert np.array_equal(neumann_laplacian_matrix(g)(x), expected)


def _minus_operator(n_r, n_theta):
    A = neumann_laplacian_matrix(build_grid(GridSpec(n_r, n_theta)))
    return lambda p: -A(p)


def _poisson_rhs(n_r, n_theta):
    """A CG right-hand side -b like the one of potential_f on a perturbed cap."""
    g = build_grid(GridSpec(n_r, n_theta))
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.04, 0 if n_theta == 1 else 3), g)
    b = (np.exp(m.u) * (m.R_bar - m.R) * g.w_vol).ravel()
    return -(b - b.sum() / b.size)


@pytest.mark.parametrize(
    "n_r,n_theta,preconditioned,iterations",
    [(64, 32, True, 1), (2048, 1, True, 2), (64, 32, False, elliptic.CG_MAXITER)],
    ids=["one-iteration", "two-iterations", "stalled"],
)
def test_package_cg_replays_scipy_cg(n_r, n_theta, preconditioned, iterations):
    solve, _ = elliptic._operator(n_r, n_theta)
    minus_A = _minus_operator(n_r, n_theta)
    minus_b = _poisson_rhs(n_r, n_theta)
    n = minus_b.size
    M = solve if preconditioned else np.copy
    kwargs = dict(rtol=elliptic.DEFAULT_TOL, maxiter=elliptic.CG_MAXITER)

    def operator(f):
        return spla.LinearOperator((n, n), matvec=f, dtype=np.float64)

    ours, theirs = [], []
    x, info = _cg.cg(minus_A, minus_b, M=M, callback=lambda xk: ours.append(1), **kwargs)
    x_ref, info_ref = spla.cg(
        operator(minus_A), minus_b, M=operator(M), atol=0.0,
        callback=lambda xk: theirs.append(1), **kwargs,
    )
    assert np.array_equal(x, x_ref)
    assert info == info_ref == (0 if preconditioned else elliptic.CG_MAXITER)
    assert len(ours) == len(theirs) == iterations


@pytest.mark.parametrize("n_r,n_theta", [(128, 1), (64, 32), (128, 64)])
def test_preconditioned_solve_matches_plain_cg(n_r, n_theta, monkeypatch):
    g = build_grid(GridSpec(n_r, n_theta))
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.04, 0 if n_theta == 1 else 3), g)
    R = scalar_curvature(m)
    rho = integrate_volume(R, m) / m.v_M - R

    iterations = []
    cg = elliptic.spla.cg

    def counting_cg(*args, **kwargs):
        kwargs["callback"] = lambda xk: iterations.append(1)
        return cg(*args, **kwargs)

    monkeypatch.setattr(elliptic.spla, "cg", counting_cg)
    sol = solve_poisson_neumann(rho, m)
    monkeypatch.undo()
    assert len(iterations) == 1
    assert sol.linear_residual <= 1e-12

    # scipy's unpreconditioned solve of the loop-built matrix, to a tighter
    # tolerance, is the oracle
    A = _reference_matrix(g)
    b = (np.exp(m.u) * rho * g.w_vol).ravel()
    b = b - b.sum() / b.size
    x, info = spla.cg(-A, -b, rtol=1e-13, atol=0.0, maxiter=10 * b.size)
    assert info == 0
    f_ref = x.reshape(m.u.shape)
    f_ref = f_ref - integrate_volume(f_ref, m) / m.v_M
    assert np.max(np.abs(sol.f - f_ref)) <= 1e-10 * np.max(np.abs(f_ref))


@pytest.mark.parametrize("n_r", [4096, 8192])
def test_fine_radial_solve_is_accepted_on_its_backward_error(n_r):
    # CG stops on its recursively updated residual; the verified relative
    # residual grows like eps * cond(A) and ends above CG's rtol here, while
    # the normwise backward error stays at rounding level
    g = build_grid(GridSpec(n_r, 1))
    m = spherical_cap(CapParams(0.5), g)
    rho = _mean_adjust(np.cos(2.0 * np.pi * g.r)[:, None], m)
    sol = solve_poisson_neumann(rho, m)
    assert sol.linear_residual > elliptic.DEFAULT_TOL


def test_stalled_solve_raises(monkeypatch):
    g = build_grid(GridSpec(64, 32))
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.04, 3), g)
    operator = elliptic._operator

    def unpreconditioned(n_r, n_theta):
        _, a_norm = operator(n_r, n_theta)
        return np.copy, a_norm

    monkeypatch.setattr(elliptic, "_operator", unpreconditioned)
    t0 = time.perf_counter()
    with pytest.raises(SolverError, match="backward error"):
        potential_f(m)
    # a bounded number of CG iterations, not a run of 10 n of them
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_raises(bad):
    g = build_grid(GridSpec(32, 8))
    m = spherical_cap(CapParams(0.5), g)
    rho = _mean_adjust(np.cos(g.theta)[None, :] * g.r[:, None], m)
    rho[3, 2] = bad
    with pytest.raises(DomainError):
        solve_poisson_neumann(rho, m)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    n_r=st.integers(8, 48),
    n_theta=st.sampled_from([1, 8, 16, 24]),
    c=st.floats(0.1, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_compatible_data_is_solved(n_r, n_theta, c, seed):
    g = build_grid(GridSpec(n_r, n_theta))
    m = spherical_cap(CapParams(c), g)
    rho = _mean_adjust(np.random.default_rng(seed).standard_normal(m.u.shape), m)
    sol = solve_poisson_neumann(rho, m)
    assert abs(integrate_volume(sol.f, m)) / m.v_M <= 1e-12 * max(1.0, np.max(np.abs(sol.f)))
    assert sol.linear_residual <= 1e-11


def test_compat_residual_is_the_exact_integral_of_the_data(grid_2d):
    m = perturbed_cap(CapParams(0.5), PerturbationParams(0.04, 2), grid_2d)
    assert potential_f(m).compat_residual == abs(integrate_volume(m.R_bar - m.R, m))
