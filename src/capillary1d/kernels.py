"""The Galerkin right-hand side, the stage dissipation integrands, and the weak residual.

Stability-limited explicit stepping evaluates the RHS 1e4-1e5 times per run
on grids of 72-264 points, so a call costs what its numpy calls cost, not
its arithmetic.  The whole chain (synthesis -> mobility -> pressure
coefficients -> flux -> projection) is therefore one numpy function over the
cached basis tables with as few calls as it takes: one stacked matvec
synthesizes u and u_x, and one reduction integrates every aux quantity.
The kernel computes all of aux or none of it (and with none, not the u_xx
synthesis either).  A Runge-Kutta stage asks for none: the stepping loop
needs only the dissipation integrands [D, S, D_r...] of its stages, and
only once a step stands.  So a stage call writes the grid values they read
besides c (Q^2, Q, p_x and m(u), the kernel's own intermediates) into a
workspace slot, and ``integrands`` evaluates every stage of a step at once,
one stacked pass with one u_xx synthesis and one reduction.  The integrand
rows are defined once, in ``_dissipation_rows``, for that pass and for the
full call alike.  Every floating-point operation and its order is part of
the contract, so that a change here leaves every output bit-identical
(tests/test_kernels.py holds the reference, and checks that the pass
equals the full call's aux).  The physics (mobility, weak pressure
density, pressure coefficients) comes from the model module; this one only
assembles it.  Callers look ``rhs`` and ``integrands`` up on the module at
call time, and pass every argument positionally, so they can be wrapped
from outside.

The shape contract: c is one member's coefficients, shape (N+1,), with
ModelParams, or a stack of B members, shape (B, N+1), with StackedParams.
Every output of a stack gains the leading axis B (aux is a (B, n) view of
the transposed sums), and each row is bit-identical to the call on that
member alone: the matvecs are one gemv per member (basis.matvec) and every
other operation acts row by row.  One call pays numpy's per-call overhead
once for all B members; a single member stays 1-D, since a (1, N+1) stack
costs more per call than the 1-D call.  The integrands pass puts the stage
axis S before these: (S, N+1) or (S, B, N+1).
"""

from __future__ import annotations

import numpy as np

from .basis import BasisTables, matvec
from .model import ModelParams, StackedParams, mobility, pressure_coeffs


def rhs(c: np.ndarray, t: BasisTables, params: ModelParams | StackedParams,
        r_values: np.ndarray, n_aux: int | None = None, work: tuple | None = None):
    """Galerkin RHS dc/dt at coefficients c, of shape (N+1,) or a stack (B, N+1).

    Returns (c_dot, d, u, flux, aux): pressure coefficients d, grid values of
    u and of the flux m(u) p_x, and aux = [D, S, D_r..., E_surface, E_delta,
    max|u|] where D is the flux dissipation integrand's integral, S the
    entropy-dissipation one, D_r the r-weighted dissipations.  A stack
    (params a StackedParams) gives each of them a leading axis B.

    n_aux is None (the default) for all 5 + nr aux entries, or 0 for an
    empty aux without the u_xx synthesis; any other value is a ValueError.
    work, when given, is four arrays of shape c.shape[:-1] + (G,) that
    receive the grid values Q^2, Q, p_x and m(u), the ones integrands()
    reads besides c; they are the kernel's own intermediates, written in
    place.
    """
    mv = np.dot if c.ndim == 1 else matvec  # matvec's own 1-D case, without its call
    lead = c.shape[:-1]
    w = t.w
    G = w.shape[0]
    Qsq, Q, px, mob = (None, None, None, None) if work is None else work
    uux = mv(t.EEx, c)
    u = uux[..., :G]
    ux = uux[..., G:]

    Qsq = np.add(1.0, ux * ux, out=Qsq)
    Q = np.sqrt(Qsq, out=Q)

    d = pressure_coeffs(ux, Q, t, params)
    px = mv(t.Ex, d, out=px)
    mob = mobility(u, params, out=mob)
    flux = mob * px
    c_dot = -mv(t.ExT, w * flux)

    if n_aux is not None:
        if n_aux != 0:
            raise ValueError(f"n_aux must be None or 0, got {n_aux!r}")
        return c_dot, d, u, flux, np.empty(lead + (0,))

    # the weighted integrands, one row each (of shape lead + (G,)), summed in
    # one pairwise reduction; a stack's aux is the transpose of the sums
    nr = r_values.shape[0]
    delta = params.delta
    rows = np.empty((4 + nr,) + lead + (G,))
    _dissipation_rows(rows, mv(t.E, t.lam * c), Qsq, Q, px, mob, w, delta, r_values)
    np.multiply(w, Q, out=rows[2 + nr])
    np.multiply(w * ux, ux, out=rows[3 + nr])
    aux = np.empty((5 + nr,) + lead)
    np.add.reduce(rows, axis=-1, out=aux[:4 + nr])
    aux[3 + nr] *= 0.5 * (delta[:, 0] if lead else delta)
    aux[4 + nr] = np.abs(u).max(axis=-1)
    return c_dot, d, u, flux, aux.T


def integrands(c: np.ndarray, work: tuple, t: BasisTables,
               params: ModelParams | StackedParams, r_values: np.ndarray) -> np.ndarray:
    """[D, S, D_r...] at a stack of states c, of shape (S, N+1) or (S, B, N+1).

    work is four arrays of shape c.shape[:-1] + (G,) whose [i] the rhs call
    at c[i] filled (as its work); params and r_values are that call's.
    Returns shape c.shape[:-1] + (2 + nr,): entry [i, ..., k] is
    bit-identical to aux[..., k] of the full rhs call at c[i], since each
    row takes the same operations in the same order (one u_xx gemv per row,
    basis.matvec, and one pairwise sum along the grid).  One call pays
    numpy's per-call overhead once for every state.
    """
    uxx = matvec(t.E, t.lam * c)
    Qsq, Q, px, mob = work
    rows = np.empty((2 + r_values.shape[0],) + uxx.shape)
    _dissipation_rows(rows, uxx, Qsq, Q, px, mob, t.w, params.delta, r_values)
    sums = np.add.reduce(rows, axis=-1)
    return sums.transpose(tuple(range(1, sums.ndim)) + (0,))


def _dissipation_rows(rows, uxx, Qsq, Q, px, mob, w, delta, r_values):
    """Write the weighted integrands of D, S, D_r... into rows[0], rows[1], rows[2 + k].

    uxx is -u_xx (only its square enters); the other arguments are grid
    values of the same shape, or broadcast against it.
    """
    pxsq = px * px
    np.multiply(w * mob, pxsq, out=rows[0])
    np.multiply(w, uxx * uxx / (Q * Qsq) + delta * uxx * uxx, out=rows[1])
    for k in range(r_values.shape[0]):
        np.multiply(w * mob ** r_values[k], pxsq, out=rows[2 + k])


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
