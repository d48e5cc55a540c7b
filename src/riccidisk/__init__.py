"""Ricci flow on the unit disk with the curvature Neumann condition R_nu = 0.

A numerical laboratory for the boundary-aware entropy functionals of 2-d
Ricci flow: conformal metrics g = exp(u) g0 on a polar grid, an explicit
Runge-Kutta-Legendre (RKL2) super-stepping flow integrator with a
ghost-ring boundary closure, Hamilton- and Guo-type entropies, and an
independent verification suite for every monotonicity formula the package
implements.
"""

__version__ = "0.1.0"
