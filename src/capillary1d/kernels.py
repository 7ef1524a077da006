"""The Galerkin right-hand side and the weak residual in table form.

Stability-limited explicit stepping evaluates the RHS 1e4-1e5 times per run,
so the whole chain (synthesis -> mobility -> pressure coefficients -> flux ->
projection) is one numpy function over the cached basis tables.  The physics
(mobility, weak pressure density, pressure coefficients) comes from the model
module; this one only assembles it.  Callers look ``rhs`` up on the module at
call time, so it can be wrapped from outside.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisTables
from .model import ModelParams, mobility, pressure_coeffs


def rhs(c: np.ndarray, t: BasisTables, params: ModelParams, r_values: np.ndarray):
    """Galerkin RHS dc/dt at coefficients c.

    Returns (c_dot, d, u, flux, aux): pressure coefficients d, grid values of
    u and of the flux m(u) p_x, and aux = [D, S, D_r..., E_surface, E_delta,
    max|u|] where D is the flux dissipation integrand's integral, S the
    entropy-dissipation one, D_r the r-weighted dissipations.
    """
    w = t.w
    u = np.dot(t.E, c)
    ux = np.dot(t.Ex, c)
    uxx = -np.dot(t.E, t.lam * c)

    Qsq = 1.0 + ux * ux
    Q = np.sqrt(Qsq)

    d = pressure_coeffs(ux, t, params)
    px = np.dot(t.Ex, d)
    mob = mobility(u, params)
    flux = mob * px
    c_dot = -np.dot(t.ExT, w * flux)

    pxsq = px * px
    nr = r_values.shape[0]
    delta = params.delta
    aux = np.empty(5 + nr)
    aux[0] = np.sum(w * mob * pxsq)
    aux[1] = np.sum(w * (uxx * uxx / (Q * Qsq) + delta * uxx * uxx))
    for k in range(nr):
        aux[2 + k] = np.sum(w * mob ** r_values[k] * pxsq)
    aux[2 + nr] = np.sum(w * Q)
    aux[3 + nr] = 0.5 * delta * np.sum(w * ux * ux)
    aux[4 + nr] = np.max(np.abs(u))
    return c_dot, d, u, flux, aux


def weak_residual_terms(t: BasisTables, c_dot: np.ndarray, u: np.ndarray,
                        flux: np.ndarray, tol_zero: float):
    """The weak residual r_j = (u_t, e_j) + (J, e_j'), j = 0..N, from RHS output.

    J is the flux restricted to the positivity set {u > tol_zero} and zero
    elsewhere; in table form r = E^T (w u_t) + Ex^T (w J).  Returns the grid
    values (u_t, J) and the two terms ((u_t, e_j), (J, e_j')) apart, so that
    callers can size the cancellation and pair with test modes beyond N.
    """
    ut = t.E @ c_dot
    J = np.where(u > tol_zero, flux, 0.0)
    return ut, J, t.ET @ (t.w * ut), t.ExT @ (t.w * J)
