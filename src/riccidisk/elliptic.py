"""Poisson-Neumann solver on the evolving conformal metric.

The equation lap_g f = rho with f_nu = 0 reduces, via lap_g = exp(-u) lap0,
to the metric-independent flat problem lap0 f = exp(u) rho with a zero-flux
closure at r = 1.  The volume-weighted flat operator is symmetric negative
semidefinite with constant kernel, so the system is solved by conjugate
gradient after projecting the kernel out of the right-hand side.

The operator is applied by the flow's own flux-Laplacian kernel
(``grid.laplacian0`` with a mirrored ghost ring, times the volume weights),
so the package has one implementation of it; CG is the package's own loop
(``_cg.cg``), a replay of scipy's.  The operator's coefficients depend on r
only and it is periodic in theta, so a DFT in theta splits it exactly into
one tridiagonal system in r per angular mode (the pole-free FFT/tridiagonal
scheme of M.-C. Lai, Numer. Methods PDE 17, 2001).  Solving those systems
is an exact preconditioner: CG converges in one or two iterations, and the
solution is accepted on its verified normwise backward error.  The two
Thomas recurrences of those solves run over the rings as log-step scans
(``_operator``), a few whole-plane multiply-adds instead of a Python loop
over the rings.  On one angle the DFT in theta is the identity, so the
preconditioner skips it and a 1-D run never imports ``numpy.fft``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# bound as a module attribute so that perfbench/probe.py can count CG
# iterations by replacing elliptic.spla
from . import _cg as spla
from ._kernels import kahan_sum
from .errors import DomainError, SolverError
from .geometry import ConformalMetric
from .grid import PolarGrid, ghost_mirror, integrate_volume, laplacian0

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


def _scan_factors(coef):
    """Products of ``coef`` over 1, 2, 4, ... consecutive rings.

    Entry j of level k is coef[j] coef[j + 1] ... coef[j + 2^k - 1], so
    level k + 1 is level k times itself shifted by 2^k entries.  The last
    level has 2^k < n_r = len(coef) + 1, the number of rings.
    """
    levels = [coef]
    s = 1
    while 2 * s <= len(coef):
        prev = levels[-1]
        levels.append(prev[s:] * prev[:-s])
        s *= 2
    return levels


# run and verify solve on one grid, and convergence_study builds a fresh grid
# per level, so a second entry would never be hit and only keep a dead
# level's factors alive
@lru_cache(maxsize=1)
def _operator(grid: PolarGrid):
    """The exact preconditioner and ||A||_inf of the flat operator A, cached for the last grid.

    The angular part is a periodic second difference on each ring, whose
    DFT mode k has eigenvalue -lam_k a_i with lam_k = 4 sin^2(pi k /
    n_theta); so mode k of -A is the symmetric positive tridiagonal in r
    with diagonal c_{i-1/2} + c_{i+1/2} + lam_k a_i and off-diagonals
    -c_{i+1/2}.  Mode 0 carries the constant kernel: its last ring is
    pinned to 0 and its equation dropped, which leaves the grounded,
    nonsingular leading block; the preconditioner then removes the mean.

    The Thomas factorization of every mode leaves two first-order
    recurrences over the rings: the forward sweep y_i = b_i + f_i y_{i-1},
    with f_i = -mult_i, and the back substitution x_i = y_i / p_i +
    g_i x_{i+1}, with g_i = c_{i+1/2} / p_i.  Each runs as a log-step scan
    (Kogge & Stone, IEEE Trans. Comput. C-22, 1973): the step of stride s
    adds to every ring the partial sum of the ring s back (s ahead, in the
    back substitution), carried over by the product of f (or g) across
    those s rings, so that each ring then sums the terms of 2s rings.
    ceil(log2 n_r) shifted multiply-adds of whole planes replace the
    n_r - 1 row updates of each sweep; the products are computed here, once
    per grid.  Mode 0's pinned ring has f = 0 and 1/p = 1, so it stays
    exactly 0.

    Row i of A has the off-diagonal entries c_{i-1/2}, c_{i+1/2} (and a_i
    twice in 2-D) and their negated sum on the diagonal, so its absolute
    row sum is 2 (c_{i-1/2} + c_{i+1/2} + 2 a_i [n_theta > 1]).
    """
    n_r, n_theta = grid.n_r, grid.n_theta
    # c_{i+1/2} (i < n_r - 1) couples rings i and i+1 through the face
    # r_i + dr/2; the r = 0 face has zero area and the r = 1 face zero
    # flux, so neither appears.  a_i couples angular neighbours on ring i.
    c = grid.stencil[0][:-1, 0] * grid.dtheta / grid.dr
    a = grid.dr / (grid.r * grid.dtheta)

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
    # scans, not a loop over the rings: 0.05 / 0.07 / 0.17 / 0.63 ms against 0.58 / 0.26 /
    # 0.53 / 1.22 ms per solve at 128x1 / 64x32 / 128x64 / 256x128 (shared 2-CPU VM)
    # level k of the forward factors starts at ring 2^k, of the backward
    # ones at ring 0
    forward = _scan_factors(-mult[1:])
    backward = _scan_factors(c[:, None] * inv_pivot[:-1])

    def solve(r):
        # on one angle the DFT in theta is the identity: the scans run on the
        # real column, and give the real parts of the complex ones exactly
        if n_theta == 1:
            y = r.reshape(n_r, 1).copy()
        else:
            y = np.fft.rfft(r.reshape(n_r, n_theta), axis=1)
        y[-1, 0] = 0.0
        for k, f in enumerate(forward):
            y[1 << k:] += f * y[:-(1 << k)]
        y *= inv_pivot
        for k, g in enumerate(backward):
            y[:-(1 << k)] += g * y[1 << k:]
        z = y.ravel() if n_theta == 1 else np.fft.irfft(y, n=n_theta, axis=1).ravel()
        return z - z.mean()

    ring = 2.0 * a if n_theta > 1 else 0.0
    a_norm = float(2.0 * np.max(s + ring))
    return solve, a_norm


def neumann_laplacian_matrix(grid: PolarGrid):
    """Volume-weighted flat Laplacian with zero-flux closures (symmetric).

    Returns the operator as a function of a flat vector x: the flux
    Laplacian ``laplacian0`` of x on the grid, with the mirrored ghost ring
    of the zero-flux closure at r = 1, times the volume weights.
    """
    shape = (grid.n_r, grid.n_theta)

    def apply(x):
        X = x.reshape(shape)
        lap = laplacian0(X, grid, ghost_mirror(X))
        lap *= grid.w_vol
        return lap.ravel()

    return apply


@dataclass
class NeumannSolution:
    f: np.ndarray              # mean-zero potential, shape (n_r, n_theta)
    compat_residual: float     # |int rho dv_g| before projection
    linear_residual: float     # final relative algebraic residual


def solve_poisson_neumann(rho, m: ConformalMetric) -> NeumannSolution:
    """Solve lap_g f = rho, f_nu = 0, returning the mean-zero solution.

    The data must integrate to zero within COMPAT_TOL * max|rho| * v(M).
    """
    return _solve_neumann(rho, m, float(np.max(np.abs(rho))))


def _solve_neumann(rho, m: ConformalMetric, scale: float) -> NeumannSolution:
    """:func:`solve_poisson_neumann`, with ``scale`` in place of max|rho|."""
    grid = m.grid
    n = grid.n_r * grid.n_theta
    v_m = m.v_M

    with np.errstate(all="ignore"):  # non-finite data or an overflow fail below
        b = (rho * m.dv).ravel()
    if not np.isfinite(b).all():
        raise DomainError("Poisson data rho exp(u) is not finite")
    # int rho dv_g, a pairwise sum: for compatible data it is the rounding
    # residual of a cancellation, within about log2(n) eps sum|b| <=
    # log2(n) eps scale v(M) of the exact total (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., sec. 4.2), 6 orders below
    # COMPAT_TOL at 8,192 terms; finite terms whose partial sums overflow
    # fail below
    with np.errstate(all="ignore"):
        total = kahan_sum(b)
    if not np.isfinite(total):
        raise DomainError("Poisson data rho exp(u) overflows the volume quadrature")
    compat = abs(total)
    if not compat <= COMPAT_TOL * scale * v_m:
        raise DomainError(
            f"Neumann compatibility violated: |int rho dv| = {compat:.3e} "
            f"exceeds {COMPAT_TOL:.1e} * {scale:.3e} * v(M)"
        )

    A = neumann_laplacian_matrix(grid)
    # project the constant null vector out of the data (quadrature defect)
    b -= total / n

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return NeumannSolution(np.zeros_like(m.u), compat, 0.0)

    solve, a_norm = _operator(grid)

    # CG's convergence flag comes from its recursively updated residual, so
    # the solution is judged by its verified backward error alone
    x, _ = spla.cg(lambda p: -A(p), -b, rtol=DEFAULT_TOL, maxiter=CG_MAXITER, M=solve)
    res = A(x)
    res -= b
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
    f -= integrate_volume(f, m) / v_m
    return NeumannSolution(f, compat, lin_res)


def potential_f(m: ConformalMetric) -> NeumannSolution:
    """Potential of the monotonicity formula: lap_g f = Rbar - R, f_nu = 0.

    The data integrates to zero analytically by the definition of Rbar, so
    the reported compatibility residual is pure quadrature error.  That
    error is the rounding of the terms of size max|R| that Rbar - R
    cancels, so it is judged against max|R| where that exceeds max|rho|,
    as it does by orders of magnitude near blow-up.  R, Rbar and v(M) are
    read from the metric, which evaluates them once.
    """
    rho = m.R_bar - m.R
    scale = max(float(np.max(np.abs(rho))), float(np.max(np.abs(m.R))))
    return _solve_neumann(rho, m, scale)
