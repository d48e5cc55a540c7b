"""Poisson-Neumann solver on the evolving conformal metric.

The equation lap_g f = rho with f_nu = 0 reduces, via lap_g = exp(-u) lap0,
to the metric-independent flat problem lap0 f = exp(u) rho with a zero-flux
closure at r = 1.  The volume-weighted flat operator is symmetric negative
semidefinite with constant kernel, so the system is solved by conjugate
gradient after projecting the kernel out of the right-hand side.

The operator's coefficients depend on r only and it is periodic in theta,
so a DFT in theta splits it exactly into one tridiagonal system in r per
angular mode (the pole-free FFT/tridiagonal scheme of M.-C. Lai, Numer.
Methods PDE 17, 2001).  Solving those systems is an exact preconditioner:
CG converges in one or two iterations, and the solution is accepted on its
verified normwise backward error.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._kernels import kahan_sum
from .errors import CompatibilityError, DomainError, SolverError
from .geometry import ConformalMetric
from .grid import GridSpec, PolarGrid, build_grid, integrate_volume

COMPAT_TOL = 1.0e-8
# CG's rtol; the accepted solution is judged by BACKWARD_TOL instead
DEFAULT_TOL = 1.0e-10
# bound on the verified normwise backward error of a solve,
# ||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf) (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., 2002, sec. 7.1); a
# backward-stable solve sits near machine epsilon at every grid size,
# while the relative residual grows like eps * cond(A) ~ eps * n_r^2
BACKWARD_TOL = 1.0e-12
# the preconditioner is exact, so CG needs 1 iteration (2 from 2048x1 up);
# more than a few means the solve has stalled
CG_MAXITER = 8


def _flux_coefficients(grid: PolarGrid):
    """Face coefficients c_{i+1/2} (i < n_r - 1) and ring coefficients a_i.

    c couples rings i and i+1 through the face r_i + dr/2; the r = 0 face
    has zero area and the r = 1 face zero flux, so neither appears.  a
    couples angular neighbours on ring i.
    """
    c = (grid.r[:-1] + 0.5 * grid.dr) * grid.dtheta / grid.dr
    a = grid.dr / (grid.r * grid.dtheta)
    return c, a


@lru_cache(maxsize=8)
def _operator(n_r: int, n_theta: int):
    """Matrix, exact preconditioner and ||A||_inf of the flat operator.

    Each flux between nodes p and q with coefficient w adds -w to A[p, p]
    and A[q, q] and w to A[p, q] and A[q, p].  The angular part is a
    periodic second difference on each ring, whose DFT mode k has
    eigenvalue -lam_k a_i with lam_k = 4 sin^2(pi k / n_theta); so mode k
    of -A is the symmetric positive tridiagonal in r with diagonal
    c_{i-1/2} + c_{i+1/2} + lam_k a_i and off-diagonals -c_{i+1/2}.  Mode 0
    carries the constant kernel: its last ring is pinned to 0 and its
    equation dropped, which leaves the grounded, nonsingular leading block;
    the preconditioner then removes the mean.
    """
    c, a = _flux_coefficients(build_grid(GridSpec(n_r, n_theta)))
    n = n_r * n_theta

    node = np.arange(n).reshape(n_r, n_theta)
    p, q, w = node[:-1].ravel(), node[1:].ravel(), np.repeat(c, n_theta)
    if n_theta > 1:
        p = np.concatenate([p, node.ravel()])
        q = np.concatenate([q, np.roll(node, -1, axis=1).ravel()])
        w = np.concatenate([w, np.repeat(a, n_theta)])
    A = sp.coo_matrix(
        (np.concatenate([-w, w, -w, w]),
         (np.concatenate([p, p, q, q]), np.concatenate([p, q, q, p]))),
        shape=(n, n),
    ).tocsr()

    # Thomas factorization of every mode at once, shape (n_r, n_modes)
    s = np.zeros(n_r)  # c_{i-1/2} + c_{i+1/2}
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
    # mode 0: the equation of the last ring becomes "value = 0"
    mult[-1, 0] = 0.0
    pivot[-1, 0] = 1.0
    inv_pivot = 1.0 / pivot

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

    a_norm = float(abs(A).sum(axis=1).max())
    return A, spla.LinearOperator((n, n), matvec=solve, dtype=np.float64), a_norm


def neumann_laplacian_matrix(grid: PolarGrid):
    """Volume-weighted flat Laplacian with zero-flux closures (symmetric CSR).

    Built once per grid size from the flux coefficients and kept, with the
    preconditioner and its norm, in a small cache keyed on (n_r, n_theta);
    callers must not modify the returned matrix.
    """
    return _operator(grid.n_r, grid.n_theta)[0]


@dataclass
class NeumannSolution:
    f: np.ndarray              # mean-zero potential, shape (n_r, n_theta)
    compat_residual: float     # |int rho dv_g| before projection
    linear_residual: float     # final relative algebraic residual


def solve_poisson_neumann(rho, m: ConformalMetric) -> NeumannSolution:
    """Solve lap_g f = rho, f_nu = 0, returning the mean-zero solution."""
    grid = m.grid
    n = grid.n_r * grid.n_theta
    v_m = m.v_M

    if not np.all(np.isfinite(rho)):
        raise DomainError("Poisson data rho is not finite")
    compat = abs(integrate_volume(rho, m))
    scale = float(np.max(np.abs(rho))) if rho.size else 0.0
    if scale == 0.0:
        return NeumannSolution(np.zeros_like(m.u), compat, 0.0)
    if not compat <= COMPAT_TOL * scale * v_m:
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

    _, M, a_norm = _operator(grid.n_r, grid.n_theta)
    # CG's convergence flag comes from its recursively updated residual, so
    # the solution is judged by its verified backward error alone
    x, _ = spla.cg(-A, -b, rtol=DEFAULT_TOL, atol=0.0, maxiter=CG_MAXITER, M=M)
    res = A @ x - b
    lin_res = float(np.linalg.norm(res)) / b_norm
    eta = float(np.max(np.abs(res))) / (
        a_norm * float(np.max(np.abs(x))) + float(np.max(np.abs(b)))
    )
    if not eta <= BACKWARD_TOL:  # NaN fails too
        raise SolverError(
            f"Poisson solve not accepted: backward error {eta:.3e} exceeds "
            f"{BACKWARD_TOL:.0e} (relative residual {lin_res:.3e})"
        )

    f = x.reshape(m.u.shape)
    f = f - integrate_volume(f, m) / v_m
    return NeumannSolution(f, compat, lin_res)


def potential_f(m: ConformalMetric) -> NeumannSolution:
    """Potential of the monotonicity formula: lap_g f = Rbar - R, f_nu = 0.

    The data integrates to zero analytically by the definition of Rbar, so
    the reported compatibility residual is pure quadrature error.  R, Rbar
    and v(M) are read from the metric, which evaluates them once.
    """
    return solve_poisson_neumann(m.R_bar - m.R, m)
