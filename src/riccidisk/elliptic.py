"""Poisson-Neumann solver on the evolving conformal metric.

The equation lap_g f = rho with f_nu = 0 reduces, via lap_g = exp(-u) lap0,
to the metric-independent flat problem lap0 f = exp(u) rho with a zero-flux
closure at r = 1.  The volume-weighted flat operator is symmetric negative
semidefinite with constant kernel, so the system is solved by conjugate
gradient after projecting the kernel out of the right-hand side.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._kernels import kahan_sum
from .errors import CompatibilityError, SolverError
from .geometry import ConformalMetric, scalar_curvature, volume
from .grid import PolarGrid, integrate_volume

COMPAT_TOL = 1.0e-8
DEFAULT_TOL = 1.0e-10

_matrix_cache: dict = {}


def neumann_laplacian_matrix(grid: PolarGrid):
    """Volume-weighted flat Laplacian with zero-flux closures (symmetric)."""
    key = (grid.n_r, grid.n_theta)
    if key in _matrix_cache:
        return _matrix_cache[key]

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

    A = sp.coo_matrix((vals, (rows, cols)), shape=(n_r * n_t, n_r * n_t)).tocsr()
    _matrix_cache[key] = A
    return A


@dataclass
class NeumannSolution:
    f: np.ndarray              # mean-zero potential, shape (n_r, n_theta)
    compat_residual: float     # |int rho dv_g| before projection
    linear_residual: float     # final relative algebraic residual


def solve_poisson_neumann(rho, m: ConformalMetric, tol=DEFAULT_TOL) -> NeumannSolution:
    """Solve lap_g f = rho, f_nu = 0, returning the mean-zero solution."""
    grid = m.grid
    n = grid.n_r * grid.n_theta
    v_m = volume(m)

    compat = abs(integrate_volume(rho, m))
    scale = float(np.max(np.abs(rho))) if rho.size else 0.0
    if scale == 0.0:
        return NeumannSolution(np.zeros_like(m.u), compat, 0.0)
    if compat > COMPAT_TOL * scale * v_m:
        raise CompatibilityError(
            f"Neumann compatibility violated: |int rho dv| = {compat:.3e} "
            f"exceeds {COMPAT_TOL:.1e} * ||rho|| * v(M)",
            residual=compat,
        )

    A = neumann_laplacian_matrix(grid)
    b = (np.exp(m.u) * rho * grid.w_vol).ravel()
    # project the constant null vector out of the data (quadrature defect)
    b = b - kahan_sum(b) / n

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return NeumannSolution(np.zeros_like(m.u), compat, 0.0)

    maxiter = 10 * n
    x, info = spla.cg(-A, -b, rtol=tol, atol=0.0, maxiter=maxiter)
    lin_res = float(np.linalg.norm(A @ x - b)) / b_norm
    if info != 0:
        raise SolverError(
            f"CG failed to converge within {maxiter} iterations "
            f"(relative residual {lin_res:.3e})"
        )

    f = x.reshape(m.u.shape)
    f = f - integrate_volume(f, m) / v_m
    return NeumannSolution(f, compat, lin_res)


def potential_f(m: ConformalMetric, tol=DEFAULT_TOL) -> NeumannSolution:
    """Potential of the monotonicity formula: lap_g f = Rbar - R, f_nu = 0.

    The data integrates to zero analytically by the definition of Rbar, so
    the reported compatibility residual is pure quadrature error.
    """
    R = scalar_curvature(m)
    v_m = volume(m)
    r_bar = integrate_volume(R, m) / v_m
    return solve_poisson_neumann(r_bar - R, m, tol=tol)
