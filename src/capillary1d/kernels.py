"""The Galerkin right-hand side, the grid fields, the aux pass, and the weak residual.

Stability-limited explicit stepping evaluates the RHS 1e4-1e5 times per run
on grids of 72-264 points, so a call costs what its numpy calls cost, not
its arithmetic.  The whole chain (synthesis -> mobility -> pressure
coefficients -> flux -> projection) is therefore one numpy function over the
cached basis tables with as few calls as it takes: one stacked matvec
gives u and u_x.  The kernel computes no aux.  Every call, a
Runge-Kutta stage's or the one at an accepted state, can write the grid
values aux reads besides c (u and u_x, Q^2, Q, p_x and m(u), the kernel's
own intermediates) into a workspace slot.  ``integrands`` is the one
function that computes aux, the fixed five entries [D, S, E_surface,
E_delta, sup|u|]: it evaluates every state of a stack at once, one pass
with one u_xx synthesis and one reduction.  The stepping loop runs it once
per accepted state, over that state and the stages of the step that led
to it.  Every other grid evaluation of a state (snapshot records, the
snapshot CSVs, the profile study) goes through ``fields``: one rhs call
with a workspace, plus u_xx.  Every floating-point operation and its order
is part of the contract, so that a change here leaves every output
bit-identical (tests/test_kernels.py holds the reference).  The physics
(mobility, weak pressure density, pressure coefficients) comes from the
model module; this one only assembles it.  Callers look ``rhs``,
``fields`` and ``integrands`` up on the module at call time, and pass every argument positionally, so they can be
wrapped from outside.

The shape contract: c is one member's coefficients, shape (N+1,), with
ModelParams, or a stack of B members, shape (B, N+1), with StackedParams.
Every output of a stack gains the leading axis B, and each row is
bit-identical to the call on that member alone: the matvecs are one gemv
per member (basis.matvec) and every other operation acts row by row.  One
call pays numpy's per-call overhead once for all B members; a single
member stays 1-D, since a (1, N+1) stack costs more per call than the 1-D
call.  One ModelParams also serves a stack of S states of one member,
shape (S, N+1), as fields and the records pass use it: its scalars broadcast
over the rows, each row bit-identical to the 1-D call and to the call with
the StackedParams of S copies.  The aux pass puts the state axis S before
these: (S, N+1) or (S, B, N+1).
"""

from __future__ import annotations

import numpy as np

from .basis import BasisTables, matvec
from .model import ModelParams, StackedParams, mobility, pressure_coeffs


def rhs(c: np.ndarray, t: BasisTables, params: ModelParams | StackedParams,
        work: tuple | None = None):
    """Galerkin RHS dc/dt at coefficients c, of shape (N+1,) or a stack (B, N+1).

    Returns (c_dot, d, u, flux, ux): pressure coefficients d and grid values
    of u, of the flux m(u) p_x and of u_x.  A stack (params a StackedParams)
    gives each of them a leading axis B.  work, when given, is
    workspace(c.shape[:-1], t), the five arrays that receive the grid values
    integrands() reads besides c; they are the kernel's own intermediates,
    written in place.
    """
    mv = np.dot if c.ndim == 1 else matvec  # matvec's own 1-D case, without its call
    w = t.w
    G = w.shape[0]
    uux, Qsq, Q, px, mob = (None,) * 5 if work is None else work
    uux = mv(t.EEx, c, out=uux)
    u = uux[..., :G]
    ux = uux[..., G:]

    Qsq = np.add(1.0, ux * ux, out=Qsq)
    Q = np.sqrt(Qsq, out=Q)

    d = pressure_coeffs(ux, Q, t, params)
    px = mv(t.Ex, d, out=px)
    mob = mobility(u, params, out=mob)
    flux = mob * px
    c_dot = -mv(t.ExT, w * flux)
    return c_dot, d, u, flux, ux


def workspace(shape: tuple, t: BasisTables) -> tuple:
    """Empty rhs work for states of leading shape ``shape``.

    u and u_x side by side, of shape shape + (2G,), then Q^2, Q, p_x and
    m(u), of shape shape + (G,).
    """
    G = t.w.shape[0]
    return (np.empty(shape + (2 * G,)), *np.empty((4,) + shape + (G,)))


def fields(c: np.ndarray, t: BasisTables, params: ModelParams):
    """Grid values of one member's state c, shape (N+1,), or of a stack (S, N+1).

    One rhs call with a workspace, plus the u_xx synthesis.  Returns
    (c_dot, d, u, ux, uxx, Q, flux); uxx = -sum_j lam_j c_j e_j carries its
    true sign.  One ModelParams serves every row of a stack, and each row is
    bit-identical to the call on that row alone.
    """
    work = workspace(c.shape[:-1], t)
    c_dot, d, u, flux, ux = rhs(c, t, params, work)
    uxx = matvec(t.E, t.lam * c)
    np.negative(uxx, out=uxx)
    return c_dot, d, u, ux, uxx, work[2], flux


def integrands(c: np.ndarray, work: tuple, t: BasisTables,
               params: ModelParams | StackedParams) -> np.ndarray:
    """aux = [D, S, E_surface, E_delta, max|u|] at a stack of states c.

    c has shape (S, N+1) or (S, B, N+1); work is workspace(c.shape[:-1], t)
    (rhs's work), whose [i] the rhs call at c[i] filled; params is that
    call's.  D is the flux dissipation integrand's integral, S the
    entropy-dissipation one, E_surface the integral of Q and E_delta that of
    delta u_x^2 / 2.
    Returns shape c.shape[:-1] + (5,), the transpose of the sums: entry
    [i, ..., k] is aux[k] at c[i].  Each integrand is one grid row per
    state, and all of them are summed in one pairwise reduction along the
    grid, so a row's sums do not depend on the other states of the stack.
    """
    G = t.w.shape[0]
    uux, Qsq, Q, px, mob = work
    w = t.w_tiles.get(mob.shape)
    if w is None:
        w = np.broadcast_to(t.w, mob.shape).copy()
        w.flags.writeable = False  # shared by every later pass of this shape
        t.w_tiles[mob.shape] = w
    u = uux[..., :G]
    ux = uux[..., G:]
    uxx = matvec(t.E, t.lam * c)  # -u_xx: only its square enters
    delta = params.delta
    lead = c.shape[:-1]
    rows = np.empty((4,) + lead + (G,))
    np.multiply(w * mob, px * px, out=rows[0])
    np.multiply(w, uxx * uxx / (Q * Qsq) + delta * uxx * uxx, out=rows[1])
    np.multiply(w, Q, out=rows[2])
    np.multiply(w * ux, ux, out=rows[3])
    aux = np.empty((5,) + lead)
    np.add.reduce(rows, axis=-1, out=aux[:4])
    aux[3] *= 0.5 * (delta[:, 0] if c.ndim == 3 else delta)
    np.maximum.reduce(np.abs(u), axis=-1, out=aux[4])
    return aux.transpose(tuple(range(1, aux.ndim)) + (0,))


def weak_residual_terms(t: BasisTables, c_dot: np.ndarray, u: np.ndarray,
                        flux: np.ndarray, tol_zero: float):
    """The weak residual r_j = (u_t, e_j) + (J, e_j'), j = 0..N, from RHS output.

    J is the flux restricted to the positivity set {u > tol_zero} and zero
    elsewhere; in table form r = E^T (w u_t) + Ex^T (w J).  Returns the grid
    values (u_t, J) and the two terms ((u_t, e_j), (J, e_j')) apart, so that
    callers can size the cancellation and pair with test modes beyond N.
    One state's output or a stack's (rows of c_dot, u and flux) alike: the
    products are basis.matvec's, so each row is bit-identical to its state
    alone.
    """
    ut = matvec(t.E, c_dot)
    J = np.where(u > tol_zero, flux, 0.0)
    return ut, J, matvec(t.ET, t.w * ut), matvec(t.ExT, t.w * J)


def weak_residual_max(t: BasisTables, c_dot: np.ndarray, u: np.ndarray,
                      flux: np.ndarray, tol_zero: float):
    """max_j |r_j| over j = 0..N, per state: zero to roundoff by Galerkin orthogonality."""
    _, _, a, b = weak_residual_terms(t, c_dot, u, flux, tol_zero)
    return np.abs(a + b).max(axis=-1)
