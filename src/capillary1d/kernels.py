"""The Galerkin right-hand side and the weak residual in table form.

Stability-limited explicit stepping evaluates the RHS 1e4-1e5 times per run
on grids of 72-264 points, so a call costs what its numpy calls cost, not
its arithmetic.  The whole chain (synthesis -> mobility -> pressure
coefficients -> flux -> projection) is therefore one numpy function over the
cached basis tables with as few calls as it takes: one stacked matvec
synthesizes u and u_x, and one reduction integrates every aux quantity
that the caller asks for.  A Runge-Kutta stage reads fewer of them than the
state a step ends at, so the caller names a prefix of aux and the kernel
skips the rest (and with no aux at all, the u_xx synthesis too).  Every
floating-point operation and its order is part of the contract, so that a
change here leaves every output bit-identical (tests/test_kernels.py holds
the reference, and checks that a prefix equals the full aux's).  The
physics (mobility, weak pressure density, pressure coefficients) comes from
the model module; this one only assembles it.  Callers look ``rhs`` up on
the module at call time, and pass every argument positionally, so it can be
wrapped from outside.

The shape contract: c is one member's coefficients, shape (N+1,), with
ModelParams, or a stack of B members, shape (B, N+1), with StackedParams.
Every output of a stack gains the leading axis B (aux is a (B, n) view of
the transposed sums), and each row is bit-identical to the call on that
member alone: the matvecs are one gemv per member (basis.matvec) and every
other operation acts row by row.  One call pays numpy's per-call overhead
once for all B members; a single member stays 1-D, since a (1, N+1) stack
costs more per call than the 1-D call.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisTables, matvec
from .model import ModelParams, StackedParams, mobility, pressure_coeffs


def rhs(c: np.ndarray, t: BasisTables, params: ModelParams | StackedParams,
        r_values: np.ndarray, n_aux: int | None = None):
    """Galerkin RHS dc/dt at coefficients c, of shape (N+1,) or a stack (B, N+1).

    Returns (c_dot, d, u, flux, aux): pressure coefficients d, grid values of
    u and of the flux m(u) p_x, and aux = [D, S, D_r..., E_surface, E_delta,
    max|u|] where D is the flux dissipation integrand's integral, S the
    entropy-dissipation one, D_r the r-weighted dissipations.  A stack
    (params a StackedParams) gives each of them a leading axis B.

    n_aux is how many leading aux entries to compute: None (the default)
    gives all 5 + nr, 2 + nr gives [D, S, D_r...] only, and 0 gives an empty
    aux and skips the u_xx synthesis.  Any other value is a ValueError.  The
    entries computed are bit-identical to the full call's.
    """
    mv = np.dot if c.ndim == 1 else matvec  # matvec's own 1-D case, without its call
    lead = c.shape[:-1]
    w = t.w
    G = w.shape[0]
    uux = mv(t.EEx, c)
    u = uux[..., :G]
    ux = uux[..., G:]

    Qsq = 1.0 + ux * ux
    Q = np.sqrt(Qsq)

    d = pressure_coeffs(ux, Q, t, params)
    px = mv(t.Ex, d)
    mob = mobility(u, params)
    flux = mob * px
    c_dot = -mv(t.ExT, w * flux)

    nr = r_values.shape[0]
    if n_aux is None:
        n_rows = 4 + nr
    elif n_aux == 0:
        return c_dot, d, u, flux, np.empty(lead + (0,))
    elif n_aux == 2 + nr:
        n_rows = n_aux
    else:
        raise ValueError(f"n_aux must be None, 0 or {2 + nr}, got {n_aux!r}")

    # the weighted integrands, one row each (of shape lead + (G,)), summed in
    # one pairwise reduction; a stack's aux is the transpose of the sums
    uxx = mv(t.E, t.lam * c)  # -u_xx: only its square enters
    pxsq = px * px
    delta = params.delta
    rows = np.empty((n_rows,) + lead + (G,))
    np.multiply(w * mob, pxsq, out=rows[0])
    np.multiply(w, uxx * uxx / (Q * Qsq) + delta * uxx * uxx, out=rows[1])
    for k in range(nr):
        np.multiply(w * mob ** r_values[k], pxsq, out=rows[2 + k])
    if n_aux is not None:
        return c_dot, d, u, flux, np.add.reduce(rows, axis=-1).T
    np.multiply(w, Q, out=rows[2 + nr])
    np.multiply(w * ux, ux, out=rows[3 + nr])
    aux = np.empty((5 + nr,) + lead)
    np.add.reduce(rows, axis=-1, out=aux[:4 + nr])
    aux[3 + nr] *= 0.5 * (delta[:, 0] if lead else delta)
    aux[4 + nr] = np.abs(u).max(axis=-1)
    return c_dot, d, u, flux, aux.T


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


def weak_residual_max(t: BasisTables, c_dot: np.ndarray, u: np.ndarray,
                      flux: np.ndarray, tol_zero: float) -> float:
    """max_j |r_j| over j = 0..N: zero to roundoff by Galerkin orthogonality."""
    _, _, a, b = weak_residual_terms(t, c_dot, u, flux, tol_zero)
    return float(np.abs(a + b).max())
