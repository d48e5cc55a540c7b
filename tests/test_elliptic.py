import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from riccidisk import _cg, elliptic
from riccidisk.elliptic import neumann_laplacian_matrix, potential_f, solve_poisson_neumann
from riccidisk.errors import DomainError, SolverError
from riccidisk.geometry import make_metric, normal_derivative, scalar_curvature
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
    rho = _mean_adjust(laplacian0(f_exact, m.grid, ghost_mirror(f_exact)) * m.exp_neg_u, m)
    sol = solve_poisson_neumann(rho, m)
    f_exact = f_exact - integrate_volume(f_exact, m) / m.v_M
    assert np.max(np.abs(sol.f - f_exact)) < 2e-4


def test_manufactured_solution_angular(hemisphere_2d):
    m = hemisphere_2d
    f_exact = _mms_field(m.grid)
    rho = _mean_adjust(laplacian0(f_exact, m.grid, ghost_mirror(f_exact)) * m.exp_neg_u, m)
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
    with pytest.raises(DomainError, match="compatibility"):
        solve_poisson_neumann(rho, hemisphere_1d)


def test_small_incompatible_data_raises(hemisphere_2d):
    # the bound scales with max|rho|, so tiny data is held to it too
    rho = np.full(hemisphere_2d.u.shape, 1e-30)
    with pytest.raises(DomainError, match="compatibility"):
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
    _, a_norm = elliptic._operator(g)
    np.testing.assert_allclose(a_norm, abs(ref).sum(axis=1).max(), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n_r,n_theta", [(128, 1), (64, 32)])
def test_operator_of_a_grid_is_the_factorization_of_its_spec(n_r, n_theta):
    # the factorization is cached per grid object; a second grid of the same
    # spec gets its own, which must solve bit for bit alike
    spec = GridSpec(n_r, n_theta)
    g = build_grid(spec)
    solve, a_norm = elliptic._operator(g)
    assert elliptic._operator(g)[0] is solve
    other, other_norm = elliptic._operator(build_grid(spec))
    assert other is not solve and other_norm == a_norm
    for seed in range(5):
        r = np.random.default_rng(seed).standard_normal(n_r * n_theta)
        r -= r.mean()
        assert solve(r).tobytes() == other(r).tobytes()


@pytest.mark.parametrize("n_r,n_theta", [(8, 1), (377, 1), (16, 8), (40, 24)])
def test_operator_is_the_flux_laplacian_kernel(n_r, n_theta):
    g = build_grid(GridSpec(n_r, n_theta))
    x = np.random.default_rng(n_r * n_theta).standard_normal(n_r * n_theta)
    X = x.reshape(n_r, n_theta)
    expected = (laplacian0(X, g, ghost_mirror(X)) * g.w_vol).ravel()
    assert np.array_equal(neumann_laplacian_matrix(g)(x), expected)


def _minus_operator(g):
    A = neumann_laplacian_matrix(g)
    return lambda p: -A(p)


def _poisson_rhs(g):
    """A CG right-hand side -b: volume-weighted, mean-adjusted smooth data.

    Built from explicit fields rather than from ``perturbed_cap``, so that
    the iteration counts below do not follow the perturbation profile.  At
    2048x1 one preconditioned iteration leaves a relative residual of about
    3e-10, above CG's rtol, and a second one about 1e-15.
    """
    r = g.r[:, None]
    rho = np.cos(np.pi * r) + r**3 * np.sin(3.0 * g.theta)[None, :]
    b = (rho * g.w_vol).ravel()
    return -(b - b.sum() / b.size)


@pytest.mark.parametrize(
    "n_r,n_theta,preconditioned,iterations",
    [(64, 32, True, 1), (2048, 1, True, 2), (64, 32, False, elliptic.CG_MAXITER)],
    ids=["one-iteration", "two-iterations", "stalled"],
)
def test_package_cg_replays_scipy_cg(n_r, n_theta, preconditioned, iterations):
    g = build_grid(GridSpec(n_r, n_theta))
    solve, _ = elliptic._operator(g)
    minus_A = _minus_operator(g)
    minus_b = _poisson_rhs(g)
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

    def unpreconditioned(grid):
        _, a_norm = operator(grid)
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


# finite rho whose weighted terms rho exp(u) w_vol overflow to +-inf, or
# whose exact sum's partial sums overflow in math.fsum
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "n_r, n_theta, u, amp",
    [(16, 1, 710.0, 1.0), (64, 32, 710.0, 1.0), (64, 32, 0.0, 1.7e308),
     (64, 32, 5.0, 1e308), (64, 32, 700.0, 1e300)],
)
def test_overflowing_data_raises_domain_error(n_r, n_theta, u, amp):
    g = build_grid(GridSpec(n_r, n_theta))
    m = make_metric(np.full((n_r, n_theta), u), g)
    rho = np.full((n_r, n_theta), amp)
    rho[n_r // 2:] = -amp
    with pytest.raises(DomainError, match="rho exp"):
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
    # the exactly rounded sum of the weighted terms the solve forms
    terms = (m.R_bar - m.R) * m.exp_u * grid_2d.w_vol
    assert potential_f(m).compat_residual == abs(math.fsum(terms.ravel().tolist()))


def _thomas_factors(n_r, n_theta):
    """c_{i+1/2}, the multipliers and 1/pivot of the Thomas factorization of
    every mode, formed as ``_operator`` forms them."""
    g = build_grid(GridSpec(n_r, n_theta))
    c = g.stencil[0][:-1, 0] * g.dtheta / g.dr
    a = g.dr / (g.r * g.dtheta)
    s = np.zeros(n_r)
    s[:-1] += c
    s[1:] += c
    lam = 4.0 * np.sin(np.pi * np.arange(n_theta // 2 + 1) / n_theta) ** 2
    diag = s[:, None] + a[:, None] * lam
    pivot = np.empty_like(diag)
    mult = np.zeros_like(diag)
    pivot[0] = diag[0]
    for i in range(1, n_r):
        mult[i] = -c[i - 1] / pivot[i - 1]
        pivot[i] = diag[i] + mult[i] * c[i - 1]
    mult[-1, 0] = 0.0
    pivot[-1, 0] = 1.0
    return c, mult, 1.0 / pivot


def _reference_thomas(n_r, n_theta):
    """The preconditioner with the Thomas recurrences as loops over the rings.

    The sequential solve that the log-step scans of ``_operator`` replace.
    """
    c, mult, inv_pivot = _thomas_factors(n_r, n_theta)

    def solve(r):
        y = np.fft.rfft(r.reshape(n_r, n_theta), axis=1)
        y[-1, 0] = 0.0
        for i in range(1, n_r):
            y[i] -= mult[i] * y[i - 1]
        y[-1] *= inv_pivot[-1]
        for i in range(n_r - 2, -1, -1):
            y[i] = (y[i] + c[i] * y[i + 1]) * inv_pivot[i]
        z = np.fft.irfft(y, n=n_theta, axis=1).ravel()
        return z - z.mean()

    return solve


def _fft_scan_solve(n_r, n_theta):
    """The scan preconditioner with the DFT in theta on every grid.

    The path that ``_operator`` skips on one angle, where it runs the same
    scans on the real column instead of its complex transform.
    """
    c, mult, inv_pivot = _thomas_factors(n_r, n_theta)
    forward = elliptic._scan_factors(-mult[1:])
    backward = elliptic._scan_factors(c[:, None] * inv_pivot[:-1])

    def solve(r):
        y = np.fft.rfft(r.reshape(n_r, n_theta), axis=1)
        y[-1, 0] = 0.0
        for k, f in enumerate(forward):
            y[1 << k:] += f * y[:-(1 << k)]
        y *= inv_pivot
        for k, g in enumerate(backward):
            y[:-(1 << k)] += g * y[1 << k:]
        z = np.fft.irfft(y, n=n_theta, axis=1).ravel()
        return z - z.mean()

    return solve


SCAN_GRIDS = [(8, 1), (128, 1), (2048, 1), (64, 32), (128, 64), (256, 128)]


@pytest.mark.parametrize("n_r,n_theta", SCAN_GRIDS)
def test_scan_preconditioner_matches_the_sequential_thomas_solve(n_r, n_theta):
    solve, _ = elliptic._operator(build_grid(GridSpec(n_r, n_theta)))
    reference = _reference_thomas(n_r, n_theta)
    for seed in range(3):
        r = np.random.default_rng(seed).standard_normal(n_r * n_theta)
        r -= r.mean()
        z = reference(r)
        assert np.max(np.abs(solve(r) - z)) <= 1e-13 * np.max(np.abs(z))


@pytest.mark.parametrize("n_r", [8, 128, 2048])
def test_one_angle_solve_is_the_fft_path_bit_for_bit(n_r):
    # a complex number with a zero imaginary part times a real factor is the
    # real product exactly, so skipping the DFT changes no bit, signed zeros
    # included
    solve, _ = elliptic._operator(build_grid(GridSpec(n_r, 1)))
    oracle = _fft_scan_solve(n_r, 1)
    inputs = [np.zeros(n_r), -np.zeros(n_r), np.where(np.arange(n_r) % 2, 0.0, -0.0)]
    for seed in range(20):
        r = np.random.default_rng(seed).standard_normal(n_r)
        r[::3] = 0.0
        inputs.append(r - r.mean())
    for r in inputs:
        assert solve(r).tobytes() == oracle(r).tobytes()


@pytest.mark.parametrize("n_r,n_theta", SCAN_GRIDS)
def test_scan_pins_the_last_ring_of_mode_0_to_exactly_zero(n_r, n_theta, monkeypatch):
    # the rings of every mode, solved, before the mean is removed: in 2-D as
    # they reach irfft; in 1-D, where the solve takes no DFT, as the scans
    # leave them in the copy of the input that they run on, whose mean is
    # taken next
    solved = []
    irfft = np.fft.irfft

    def keep(y, *args, **kwargs):
        solved.append(y.copy())
        return irfft(y, *args, **kwargs)

    class Kept(np.ndarray):
        def mean(self, *args, **kwargs):
            solved.append(np.asarray(self).reshape(n_r, 1).copy())
            return np.asarray(self).mean(*args, **kwargs)

    solve, _ = elliptic._operator(build_grid(GridSpec(n_r, n_theta)))
    r = np.random.default_rng(7).standard_normal(n_r * n_theta)
    r -= r.mean()
    if n_theta == 1:
        solve(r.view(Kept))
    else:
        monkeypatch.setattr(np.fft, "irfft", keep)
        solve(r)
        monkeypatch.undo()
    (y,) = solved
    assert y[-1, 0] == 0.0
    assert np.all(y[:-1, 0] != 0.0)
