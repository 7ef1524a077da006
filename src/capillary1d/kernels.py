"""The Galerkin right-hand side, the grid fields, the aux pass, and the weak residual.

Stability-limited explicit stepping evaluates the RHS 1e4-1e5 times per run
on grids of 72-264 points, so a call costs what its numpy calls cost, not
its arithmetic.  The whole chain (synthesis -> mobility -> pressure
coefficients -> flux -> projection) is therefore one numpy function over the
cached basis tables with as few calls as it takes: one stacked matvec
gives u and u_x, and every elementwise step writes into the workspace or
into one of two per-call temporaries (delta u_x in the weak pressure
density, and w times the flux; a capped mobility adds its denominator).
What a call pays besides its numpy calls is kept small too: a call, on
one member or on a stack, enters no Python function but rhs,
model.pressure_density and model.mobility.  A 1-D call's matvecs are
np.ndarray.dot, np.dot's routine without np.dot's dispatch, and a stack's
are np.matmul calls made here; the scalars of params come as the
read-only 0-d arrays ModelParams builds once, since numpy converts a
Python float operand on every call; and out is passed positionally.  A
stack meets no broadcast or strided operand either, since a ufunc call
costs two to four times as much with one at these sizes: its u and u_x
are two C-contiguous (B, G) blocks, and StackedParams builds its delta,
1 + delta, epsilon, eta and weights once per stack as read-only
C-contiguous (B, G) rows.  The workspace holds u and u_x, Q^2, Q, p_x and
m(u), and the p_x slot holds w s until p_x replaces it.  c_dot, d and the
flux are fresh arrays, since the stepping loop keeps a slope past the
next call into the same slot.  The projection's minus sign is folded into
the table t.ExT_neg = -ExT: each product changes sign exactly and so does
every rounded sum, so c_dot keeps its bits (only a zero's sign may
differ).  No writable scratch lives on the tables or in this module, since
fields, the diagnostics and verify call rhs without a workspace and keep
its outputs.
The kernel computes no aux.  Every call, a Runge-Kutta stage's or the one
at an accepted state, can write the grid values aux reads besides c (the
kernel's own intermediates) into a workspace slot.  ``integrands`` is the
one function that computes aux, the fixed four entries [D, S, E_surface,
E_delta]: it evaluates every state of a stack at once, one pass
with one u_xx synthesis that writes its weighted integrands over the
workspace's Q^2, Q, p_x and m(u) and keeps u and u_x.  The stepping loop
runs it once per chunk of accepted steps, over each step's state and the
stages that led to it, flattened into one stack of states.  Every other grid
evaluation of a state (snapshot records, the snapshot CSVs, the profile
study) goes through ``fields``: one rhs call with a workspace, plus u_xx.
Every floating-point operation and its order is part of the contract, so
that a change here leaves every output bit-identical (tests/test_kernels.py
holds the reference).  The physics (mobility and the weak pressure
density, each defined once and written in place) comes from the model
module; this one only assembles it.  Callers look ``rhs``, ``fields`` and
``integrands`` up on the module at call time, and pass every argument
positionally, so they can be wrapped from outside.

The shape contract: c is one member's coefficients, shape (N+1,), with
ModelParams, or a stack of B members, shape (B, N+1), with StackedParams.
Every output of a stack gains the leading axis B, and each row is
bit-identical to the call on that member alone: the matvecs are one gemv
per member (np.matmul over the stack, whose synthesis views EEx as
(2, 1, G, N+1) to write u and u_x as two (B, G) blocks) and every other
operation acts row by row.  One call pays numpy's per-call overhead once
for all B members; a single member stays 1-D, since a (1, N+1) stack
costs more per call than the 1-D call.  One ModelParams also serves a
stack of S states of one member, shape (S, N+1), as fields and the
records pass use it: it takes the stack's synthesis, and its scalars and
the weights broadcast over the rows, each row bit-identical to the 1-D
call and to the call with the StackedParams of S copies.  The aux pass
puts any leading state axes before these, (..., N+1) or (..., B, N+1);
its params is that of the rhs calls that filled its workspace.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import BasisTables, matvec
from .model import ONE, ModelParams, StackedParams, mobility, pressure_density

# np.dot's routine for one vector, without np.dot's __array_function__ dispatch
_dot = np.ndarray.dot


def rhs(c: np.ndarray, t: BasisTables, params: ModelParams | StackedParams,
        work: tuple | None = None):
    """Galerkin RHS dc/dt at coefficients c, of shape (N+1,) or a stack (B, N+1).

    Returns (c_dot, d, u, flux, ux): pressure coefficients d and grid values
    of u, of the flux m(u) p_x and of u_x.  A stack gives each of them a
    leading axis B.  work, when given, is one slot of workspace(shape, t)
    with shape[1:] == c.shape[:-1], the five arrays that receive the grid
    values integrands() reads besides c; they are the kernel's own
    intermediates, written in place, and u and ux are views of work[0].
    c_dot, d and flux are fresh arrays, so they outlive the next call into
    the same work.
    """
    if work is None:
        work = [a[0] for a in workspace((1,) + c.shape[:-1], t)]
    uux, Qsq, Q, px, mob = work
    one = c.ndim == 1
    if one:
        w = t.w
        G = w.shape[0]
        _dot(t.EEx, c, uux)
        u, ux = uux[:G], uux[G:]
    else:
        # a stack's weight rows; the S rows of one member (fields) take t.w
        w = getattr(params, "w_op", t.w)
        np.matmul(t.EEx_blocks, c[..., None], uux[..., None])
        u, ux = uux[0], uux[1]

    np.multiply(ux, ux, Qsq)
    np.add(ONE, Qsq, Qsq)
    np.sqrt(Qsq, Q)

    # w s, in the p_x slot until p_x replaces it
    ws = pressure_density(ux, Q, params, px)
    np.multiply(w, ws, ws)
    if one:
        d = _dot(t.ExT, ws)
        _dot(t.Ex, d, px)
    else:
        d = np.matmul(t.ExT, ws[..., None])
        np.matmul(t.Ex, d, px[..., None])
        d = d[..., 0]
    mobility(u, params, mob)
    flux = np.multiply(mob, px)
    wf = np.multiply(w, flux)
    c_dot = _dot(t.ExT_neg, wf) if one else np.matmul(t.ExT_neg, wf[..., None])[..., 0]
    return c_dot, d, u, flux, ux


def workspace(shape: tuple, t: BasisTables, store: np.ndarray | None = None) -> tuple:
    """Empty rhs work for shape[0] calls, each at states of leading shape shape[1:].

    Slot i, the [i] of every array, is one call's work: u and u_x as two
    C-contiguous blocks laid out (2,) + shape[1:] + (G,) (for one member
    flat, (2G,), the out np.ndarray.dot takes), then Q^2, Q, p_x and m(u),
    of shape shape[1:] + (G,).  The arrays are C-contiguous views of one
    flat array of 6 G values per state, the leading part of ``store`` when
    given (a fresh array otherwise).  shape () is the work of one call on
    one member.
    """
    G = t.w.shape[0]
    size = 2 * G * math.prod(shape)
    if store is None:
        store = np.empty(3 * size)
    uux = (2,) + shape[1:] + (G,) if shape[1:] else (2 * G,)
    return (store[:size].reshape(shape[:1] + uux),
            *store[size:3 * size].reshape((4,) + shape + (G,)))


def fields(c: np.ndarray, t: BasisTables, params: ModelParams):
    """Grid values of one member's state c, shape (N+1,), or of a stack (S, N+1).

    One rhs call with a workspace, plus the u_xx synthesis.  Returns
    (c_dot, d, u, ux, uxx, Q, flux); uxx = -sum_j lam_j c_j e_j carries its
    true sign.  One ModelParams serves every row of a stack, and each row is
    bit-identical to the call on that row alone.
    """
    work = [a[0] for a in workspace((1,) + c.shape[:-1], t)]
    c_dot, d, u, flux, ux = rhs(c, t, params, work)
    uxx = matvec(t.E, t.lam * c)
    np.negative(uxx, out=uxx)
    return c_dot, d, u, ux, uxx, work[2], flux


def integrands(c: np.ndarray, work: tuple, t: BasisTables,
               params: ModelParams | StackedParams) -> np.ndarray:
    """aux = [D, S, E_surface, E_delta] at a stack of states c.

    c has shape (S, N+1) or (S, B, N+1), or more leading state axes, as
    (steps, states, N+1).  work is workspace(c.shape[:-1], t), whose slot i
    the rhs call at c[i] filled, and params is that call's: one member's
    ModelParams or a stack's StackedParams, whatever c's rank, whose delta
    (one value per member) scales E_delta.  D is the flux dissipation
    integrand's integral, S the entropy-dissipation one, E_surface the
    integral of Q and E_delta that of delta u_x^2 / 2.  The pass writes the
    four weighted integrands over work's Q^2, Q, p_x and m(u) rows, which
    nothing reads after it, and leaves u and u_x as they are; its only grid
    temporary is the u_xx synthesis.
    Returns shape c.shape[:-1] + (4,), the transpose of the sums: entry
    [i, ..., k] is aux[k] at c[i].  Each integrand is one grid row per
    state, summed by a pairwise reduction along the grid, so a row's sums
    do not depend on the other states of the stack.
    """
    w = t.w
    G = w.shape[0]
    uux, Qsq, Q, px, mob = work
    ux = uux.reshape(c.shape[:1] + (2,) + c.shape[1:-1] + (G,))[:, 1]
    uxx = matvec(t.E, t.lam * c)  # -u_xx: only its square enters
    # D = (w m) (p_x p_x), into p_x
    np.multiply(w, mob, out=mob)
    np.multiply(px, px, out=px)
    np.multiply(mob, px, out=px)
    # E_surface = w Q, into m(u)
    np.multiply(w, Q, out=mob)
    # S = w (u_xx u_xx / (Q Q^2) + (delta u_xx) u_xx), into Q
    np.multiply(Q, Qsq, out=Qsq)
    np.multiply(params.delta_op, uxx, out=Q)
    np.multiply(Q, uxx, out=Q)
    np.multiply(uxx, uxx, out=uxx)
    np.divide(uxx, Qsq, out=uxx)
    np.add(uxx, Q, out=Q)
    np.multiply(w, Q, out=Q)
    # E_delta = (w u_x) u_x, into Q^2
    np.multiply(w, ux, out=Qsq)
    np.multiply(Qsq, ux, out=Qsq)
    aux = np.empty((4,) + c.shape[:-1])
    for k, row in enumerate((px, Q, mob, Qsq)):
        np.add.reduce(row, axis=-1, out=aux[k])
    aux[3] *= 0.5 * params.delta
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
