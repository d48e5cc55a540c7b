"""Preconditioned conjugate gradient, replaying scipy.sparse.linalg.cg.

The loop, its update order and its stopping rule are those of scipy 1.17's
``cg`` with a zero initial guess, so with the same operator and
preconditioner it returns the same iterate bit for bit.  It exists so that
the package needs no scipy for its one CG solve.
"""

import numpy as np


def cg(A, b, *, rtol, maxiter, M, callback=None):
    """Solve A x = b for symmetric positive definite A, starting from x = 0.

    ``A(p)`` applies the operator and ``M(r)`` the preconditioner.  Stops
    when ``||r|| < rtol * ||b||`` for the recursively updated residual r,
    returning ``(x, 0)``, or after ``maxiter`` iterations, returning
    ``(x, maxiter)``.  ``callback(x)`` is called after every iteration.
    """
    b_norm = np.linalg.norm(b)
    atol = float(rtol) * float(b_norm)
    x = np.zeros_like(b)
    if b_norm == 0:
        return x, 0

    r = b.copy()
    rho_prev, p = None, None
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = M(r)
        rho_cur = np.dot(r, z)
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += z
        else:
            p = z.copy()
        q = A(p)
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
        if callback is not None:
            callback(x)
    return x, maxiter
