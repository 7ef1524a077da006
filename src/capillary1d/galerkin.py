"""Reduced ODE system dc/dt = f(c) and its explicit time integration.

The right-hand side, kernels.rhs, never forms the (N+1)x(N+1) Gram matrix:
it evaluates u and u_x on the grid, builds the pressure coefficients from
the weak pairing, forms the flux density m(u) p_x pointwise and projects
back -- algebraically identical to the eliminated double-sum form because
the pressure lives in the Galerkin space.  Component 0 of dc/dt is identically
zero (e_0' = 0), so mass is conserved to the last bit by every integrator.
A state is a plain coefficient array (basis): simulate takes u0 of shape
(N+1,), and the snapshots come back as the rows of SimulationResult.coeffs.

simulate_stack holds the one stepping loop, adaptive RKF45; every stage
calls kernels.rhs.  It steps one member, for simulate, or a stack of B
members whose parameters differ in delta, epsilon and eta only, and its
arrays carry a leading member shape: () for one member, so a run by itself
makes the same numpy calls on 1-D arrays, and (B,) for a stack, which makes
one kernel call per stage and one aux pass per chunk of accepted steps for
all B.  The stack's parameters are built once, at t = 0 and at every
regroup (model.stacked_params on the run's quadrature weights), with every
kernel operand a read-only (B, G) row block, and each kernel call writes
its stack's u and u_x as two contiguous (B, G) blocks of its chunk slot.
Each member keeps its own dt, accept/reject decision, snapshots, anchor
check and StepStats; the step-size control runs on Python floats, member by
member, since numpy's array power can differ from Python's ** in the last
bit.  The kernel acts row by row, so a member's output in a stack is
bit-identical to its run alone.  A step that stands for some members only
still makes one call at the accepted states and enters the chunk whole:
the others' rows go back to their last accepted states, whose slopes and
aux the call and the pass give again bit for bit, and their q stays.
A step is a row update
(Hairer, Norsett & Wanner, Solving ODEs I, II.1) on one buffer per run:
its rows hold the stage inputs, then the propagated and the embedded
solution.  Each step sets every row to c and adds each slope to all later
rows as soon as it is known, two numpy calls per slope (the weighted slope
goes into a buffer of its own, built with the rows); row i
then sums c + (dt a_i0) k_0 + (dt a_i1) k_1 + ... in the order of the
slopes, and a zero weight adds +-0, which changes no value.  Every slope
reaches the last rows (a non-finite one through 0 * k if need be), so one
finiteness check of those rows per step stands for the stage calls; the
call at each accepted state keeps its own check.  A single member reads
its error norm and max|c| as Python floats, and screens those rows with a
Python sum, which is non-finite whenever a term is, before the exact check
(Python's max alone would hide a NaN); it screens the slope at each
accepted state the same way.  Cumulative integrals q (flux
dissipation D, entropy dissipation S) ride along, summed over the same
propagated weights, in slope order; step-size control acts on the
coefficient vector only.

The kernel computes no aux, and no step-size decision reads it, so
kernels.integrands computes all of it once per chunk of accepted steps.
The call at each accepted state is a plain stage call, and it and the
stage calls whose propagated weight q reads (stages 2-5, counted from stage
0, the slope at the step's start) write their grid values into the step's
slots of a per-run chunk laid out by kernels.workspace; once the step
stands, its states go beside them: the new state, then those stage inputs.
The other stage call (stage 1) writes its grid values into the step's
state slot, which the call at the new state overwrites before any pass
reads it.  The chunk's states and workspace are carved at every regroup
out of one store per run, sized for the first stack, and so is the
workspace of the pass at t = 0, so no call in the loop and no regroup
allocates a workspace.  When the chunk is full, before every regroup of
the stack and at the run's end, one pass over the chunk's K steps of
ns = 5 states each, flattened to (ns K, N+1) for one member or
(ns K, B, N+1) for a stack, gives each state's aux
[D, S, E_surface, E_delta].  K is AUX_CHUNK for every
grid and stack width, since the pass writes over its workspace and
allocates one grid row.  That flush forms each step's dq (the propagated
weights times the last state's and the stages' [D, S], summed in slope
order), the sequence q_j = q_{j-1} + dq_j and the q half of the Hermite
snapshots the chunk's steps passed, and hands each member its rows of the
node series (E_surface, E_delta, q).  The anchor check stays at each
accepted state: it reads sup|u| from the u of that state's call, which
no pass computes.  At t = 0 one pass runs over the initial state alone,
and a rejected step enters no chunk.  The c half of the snapshots comes
from cubic Hermite dense output at once, and the weak residual, when
tracked, is measured at every accepted step from the same kernel output
that drives the next step.

The degenerate limit (p_x defined only on the positivity set) is never
solved directly; it is probed through epsilon sweeps in the experiments
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .basis import DomainSpec, tables
from .model import ModelParams, default_tol_zero, stacked_params

DT_MIN = 1e-12
# accepted plus rejected steps of one run: about 50x the longest verify run
# (criterion 4, N = 32, about 20k steps), so a run that would take hours
# fails early instead
MAX_STEPS = 1_000_000
# accepted steps whose aux one kernels.integrands pass gives: at N = 8 a pass
# over 16 steps' states costs a quarter as much per step as a pass per step
AUX_CHUNK = 16


# kernel calls (stats.rhs_calls) of every simulate run that has returned in
# this process; verify reads its differences as per-criterion call counts
rhs_calls_tally = 0


class SimulationAbort(RuntimeError):
    """Integration failed: step underflow, step limit, blow-up, or anchor violation."""


@dataclass(frozen=True)
class IntegratorSpec:
    """Time-stepping description.

    The one method, "rkf45", is adaptive: it propagates Fehlberg's
    fifth-order solution, and (rtol, atol), with rtol no smaller than machine
    epsilon, bound the max norm of its difference from the fourth-order one,
    which is the fourth-order solution's local error estimate.
    An explicit method needs dt = O(lambda_N^-2) on the stiff linearized
    system; the controller finds that scale by rejecting steps whose error
    grows.
    """

    t_end: float
    method: str = "rkf45"
    rtol: float = 1e-8
    atol: float = 1e-10
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.method != "rkf45":
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.t_end > 0 and np.isfinite(self.t_end)):
            raise ValueError("t_end must be positive and finite")
        # no step can meet a relative tolerance below roundoff
        if not (np.finfo(float).eps <= self.rtol < 1.0 and 0.0 < self.atol < float("inf")):
            raise ValueError(f"rkf45 needs {np.finfo(float).eps:.3g} <= rtol < 1"
                             " and a positive finite atol")
        for s in self.snapshot_times:
            if not (0.0 <= s <= self.t_end * (1 + 1e-12)):
                raise ValueError(f"snapshot time {s} outside [0, {self.t_end}]")


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    rhs_calls: int = 0
    dt_last: float = 0.0
    dt_min: float = 0.0  # over the accepted steps; 0 until the first one
    dt_max: float = 0.0


@dataclass
class NodeSeries:
    """Per-accepted-step scalars at full integrator fidelity."""

    t: np.ndarray
    energy_surface: np.ndarray
    energy_delta: np.ndarray
    dissipation_cum: np.ndarray
    entropy_dissipation_cum: np.ndarray
    weak_residual: np.ndarray | None = None

    @property
    def energy(self) -> np.ndarray:
        return self.energy_surface + self.energy_delta


@dataclass
class SimulationResult:
    domain: DomainSpec
    params: ModelParams
    snapshot_times: np.ndarray
    coeffs: np.ndarray                     # (n_snapshots, N+1)
    dissipation_cum: np.ndarray            # cumulative integrals at snapshots
    entropy_dissipation_cum: np.ndarray
    nodes: NodeSeries
    stats: StepStats
    flags: list[str]
    tol_zero: float  # positivity-set tolerance, default_tol_zero of u0 on the grid


# Fehlberg's 4(5) tableau (A rows, propagated weights b, embedded weights):
# it propagates its 5th-order solution and keeps the 4th-order one as the
# error estimate (local extrapolation, Hairer, Norsett & Wanner, II.4): the
# same six stages, and a real stability interval of 3.68 against the
# 4th-order row's 3.02
_RKF45 = (
    ((), (1 / 4,), (3 / 32, 9 / 32), (1932 / 2197, -7200 / 2197, 7296 / 2197),
     (439 / 216, -8.0, 3680 / 513, -845 / 4104),
     (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40)),
    (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55),
    (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0),
)


def _initial_dt(spec: IntegratorSpec, c: np.ndarray, k1: np.ndarray) -> float:
    d0 = max(float(np.abs(c).max()), spec.atol)
    d1 = max(float(np.abs(k1).max()), 1e-300)
    return max(DT_MIN, min(1e-3 * spec.t_end, 1e-2 * d0 / d1))


def _hermite(theta: float, y0, d0, y1, d1, h: float):
    # cubic Hermite on [0, 1] with end values/derivatives
    t2 = theta * theta
    t3 = t2 * theta
    return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + theta) * h * d0
            + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * h * d1)


@dataclass(eq=False, slots=True)
class _Member:
    """One member of a run: its parameters, its step control and its outputs.

    c and k1 are the member's rows at its last accepted state, aux1 and q
    those at its last accepted state before the last flush; the step-size
    control reads only the Python floats t, dt, dt_next and c_max.
    """

    index: int
    params: ModelParams
    tol_zero: float
    snap_c: np.ndarray
    snap_q: np.ndarray
    stats: StepStats = field(default_factory=StepStats)
    c: np.ndarray | None = None
    k1: np.ndarray | None = None
    aux1: np.ndarray | None = None
    q: np.ndarray | None = None
    t: float = 0.0
    dt: float = 0.0
    dt_next: float = 0.0
    c_max: float = 0.0
    isnap: int = 0
    # the node series: lists of t and the weak residual per accepted state,
    # and of E_surface, E_delta and q arrays per flush
    nodes: tuple = field(default_factory=lambda: ([], [], [], [], []))


def simulate(u0: np.ndarray, spec: IntegratorSpec, params: ModelParams,
             domain: DomainSpec, track_weak_residual: bool = False) -> SimulationResult:
    """Integrate to t_end, sampling snapshots and accumulating dissipations.

    u0 is the initial coefficient vector, shape (N+1,).  The entropy anchor
    (params.entropy_anchor, when set) is asserted at every accepted step:
    sup|u| >= a aborts the run, and so does reaching MAX_STEPS accepted plus
    rejected steps.
    """
    results, failure = simulate_stack([u0], spec, [params], domain, track_weak_residual)
    if failure is not None:
        raise failure
    return results[0]


def simulate_stack(u0s: list, spec: IntegratorSpec, params: list, domain: DomainSpec,
                   track_weak_residual: bool = False) -> tuple[list, SimulationAbort | None]:
    """simulate on several members at once, stepped as one stack.

    The members share the domain and the integrator spec; their
    ModelParams may differ in delta, epsilon, eta and the entropy anchor
    (model.stacked_params), and each has its own u0, a finite coefficient
    vector of shape (N+1,) (anything else is a ValueError), whose grid values
    set its zero-set tolerance (model.default_tol_zero, kept on the result).
    Each member keeps its own dt, accept/reject decision, snapshots, anchor
    check, MAX_STEPS count and StepStats, and its result is bit-identical to
    simulate on that member alone.

    Returns (results, failure).  The run fails as if its members had run one
    after another in order: when a member aborts, it and every later member
    leave the stack, so results holds the members before the first one that
    aborted, and failure is that member's SimulationAbort (None when every
    member reached t_end).
    """
    global rhs_calls_tally
    snap_times = np.asarray(sorted(spec.snapshot_times), dtype=float)
    if snap_times.size == 0:
        snap_times = np.array([0.0, spec.t_end])
    n_snap = snap_times.size
    snap_next = snap_times.tolist() + [float("inf")]  # a member's next one is snap_next[isnap]
    cs = [np.array(u0, dtype=float) for u0 in u0s]  # a copy, C-contiguous
    if any(c.shape != (domain.modes + 1,) for c in cs):
        raise ValueError(f"initial coefficients must have shape ({domain.modes + 1},)")
    if not all(np.isfinite(c).all() for c in cs):
        raise ValueError("initial coefficients must be finite")

    t = tables(domain)
    nq = 2  # cumulative integrals: the leading aux entries D and S
    members = [_Member(i, p, default_tol_zero(t.E @ c), np.empty((n_snap, domain.modes + 1)),
                       np.empty((n_snap, nq)))
               for i, (p, c) in enumerate(zip(params, cs))]
    t_end = spec.t_end
    eps_end = 1e-12 * max(1.0, t_end)
    stop = len(members)  # the members from this index on have left the run
    failure = None

    def fail(m, message):
        nonlocal stop, failure
        if m.index < stop:
            stop, failure = m.index, SimulationAbort(message)

    def per_member(x):
        # an array over the members' axis as one Python value per member
        # (single, set below, tells whether there is one member)
        v = x.tolist()
        return [v] if single else v

    a_rows, weights, embedded = _RKF45
    n_stages = len(weights)
    # the coefficient table: row i < n_stages is stage i's A row, row
    # n_stages the propagated weights and row n_stages + 1 the embedded ones
    tab = np.zeros((n_stages + 2, n_stages))
    for i, row in enumerate(a_rows):
        tab[i, :i] = row
    tab[n_stages] = weights
    tab[n_stages + 1] = embedded
    # the later stages lo..hi-1 span every later one that dq reads (those of
    # nonzero propagated weight); a step of the chunk holds ns states, the
    # accepted state and then those stages' inputs, in that order
    read = [i for i in range(1, n_stages) if weights[i] != 0.0]
    lo, hi = read[0], read[-1] + 1
    ns = 1 + hi - lo
    # dq sums these slopes of q in their order: the last accepted state's,
    # then the stages' (a zero weight among them adds +-0), with these
    # propagated weights, each times the step's dt
    dq_tab = tab[n_stages, [0, *range(lo, hi)]]
    # the chunk's states and its workspace are carved at every regroup out
    # of one store per run, sized for the first stack, the widest (a
    # workspace slot holds 6 G values); the pass at t = 0 uses its head
    chunk = AUX_CHUNK
    store = np.empty(len(members) * chunk * ns * (domain.modes + 1 + 6 * t.w.shape[0]))
    max_steps = MAX_STEPS
    t_stop = t_end - eps_end

    def work_slot(work, i):
        return tuple(a[i] for a in work)

    # the chunk's accepted steps so far: each one's dt, the positions whose
    # step did not stand, and the snapshots it passed, whose q half waits for
    # the flush, as (member, snapshot index, theta, step, position, dt)
    chunk_dt, chunk_held, chunk_snaps = [], [], []

    def split(A, Qs, stood):
        # each member's rows of the aux A and q Qs of some accepted states
        # into its node series, and its aux1 and q at the last of them;
        # stood tells which members' steps stood (None: every member's)
        for pos, m in enumerate(active):
            if m.index < stop:
                steps = slice(None) if stood is None else stood[:, pos]
                rows = (steps,) if single else (steps, pos)
                _, node_es, node_ed, node_q, _ = m.nodes
                node_es.append(A[rows + (2,)])
                node_ed.append(A[rows + (3,)])
                node_q.append(Qs[rows])
                m.q, m.aux1 = (Qs[-1], A[-1]) if single else (Qs[-1, pos], A[-1, pos])

    def flush():
        # one kernels.integrands pass over the chunk's states gives their
        # aux; from it come q, the snapshots' q half and each member's rows
        # of the node series
        nonlocal AUX1, Q
        n = len(chunk_dt)
        if not n:
            return
        aux = kernels.integrands(chunk_c[:n * ns], tuple(a[:n * ns] for a in chunk_work),
                                 t, ps)
        aux = aux.reshape((n, ns) + aux.shape[1:])
        # aux at the chunk's start and at each of its accepted states
        A = np.concatenate((AUX1[None], aux[:, 0]))
        # the slopes of q, the slope axis leading: an axis-0 reduction of a
        # C-ordered stack adds its rows one after another, in slope order
        slopes = np.concatenate((A[None, :n, ..., :nq], aux[:, 1:, ..., :nq].swapaxes(0, 1)))
        slopes *= (dq_w * np.array(chunk_dt))[..., None]
        dq = np.add.reduce(slopes, axis=0)
        held_any = any(chunk_held)
        if held_any:
            stood = np.ones((n, len(active)), dtype=bool)
            for j, held in enumerate(chunk_held):
                stood[j, held] = False
            # a held member keeps its q: q + 0 is q, since q starts at +0 and
            # a sum is -0 only when both terms are
            dq[~stood] = 0.0
        # q_j = q_{j-1} + dq_j, one step after another
        Qs = np.add.accumulate(np.concatenate((Q[None], dq)), axis=0)
        for m, i, theta, j, pos, h in chunk_snaps:
            if m.index < stop:
                at, at1 = ((j,), (j + 1,)) if single else ((j, pos), (j + 1, pos))
                m.snap_q[i] = _hermite(theta, Qs[at], A[at][:nq], Qs[at1], A[at1][:nq], h)
        Q, AUX1 = Qs[n], A[n]
        split(A[1:], Qs[1:], stood if held_any else None)
        chunk_dt.clear()
        chunk_held.clear()
        chunk_snaps.clear()

    # the initial states enter as the accepted states of step 0, and their
    # pass runs over them alone, before the first step
    active = members
    single = len(active) == 1
    anchored = any(p.entropy_anchor is not None for p in params)
    c_new = cs[0] if single else np.stack(cs)
    ps = stacked_params(params, t.w)
    work = kernels.workspace((1,) + c_new.shape[:-1], t, store)
    state_work = work_slot(work, 0)
    accepted = range(len(active))
    first = True
    regroup = True  # whether the stack must be rebuilt before the next step
    while True:
        # the call at the accepted states is a stage call that fills the
        # state's slot of the chunk; it has its own finite check, since its
        # k1 enters the step's Hermite snapshots as well as the next step
        k1_new, _, u_grid, flux, _ = kernels.rhs(c_new, t, ps, state_work)
        if first:
            # split like a flush of step 0
            AUX1 = kernels.integrands(c_new[None], work, t, ps)[0]
            Q = np.zeros(AUX1.shape[:-1] + (nq,))
            split(AUX1[None], Q[None], None)
        # sup|u| for the anchor check
        sup_u = per_member(np.maximum.reduce(np.abs(u_grid), axis=-1)) if anchored else None
        # a single member screens with a Python sum first, as the step's rows below
        if single and math.isfinite(sum(k1_new.tolist())) or np.isfinite(k1_new).all():
            finite = None
        else:
            finite = per_member(np.isfinite(k1_new).all(-1))
        j = len(chunk_dt) - 1  # the step's place in the chunk
        for pos in accepted:
            m = active[pos]
            if single:
                c1, k1 = c_new, k1_new
            else:
                c1, k1 = c_new[pos], k1_new[pos]
            st = m.stats
            st.rhs_calls += 1
            if finite is not None and not finite[pos]:
                fail(m, "non-finite right-hand side")
            tt = 0.0 if first else m.t + m.dt
            anchor = m.params.entropy_anchor
            if anchor is not None and m.index < stop and sup_u[pos] >= anchor:
                fail(m, f"entropy anchor violated at t = {tt:.6g}: "
                        f"sup|u| = {sup_u[pos]:.6g} >= a = {anchor:.6g}")
            if m.index >= stop:
                regroup = True
                continue
            node_t, _, _, _, node_weak = m.nodes
            if first:
                while snap_next[m.isnap] <= 0.0:
                    m.snap_c[m.isnap] = c1
                    m.snap_q[m.isnap] = 0.0
                    m.isnap += 1
            else:
                # dense output: cubic Hermite for c now, and for the
                # cumulative integrals (whose time derivatives are the aux
                # dissipation values) at the flush
                while snap_next[m.isnap] <= tt + eps_end:
                    theta = min(1.0, max(0.0, (snap_next[m.isnap] - m.t) / m.dt))
                    m.snap_c[m.isnap] = _hermite(theta, m.c, m.k1, c1, k1, m.dt)
                    chunk_snaps.append((m, m.isnap, theta, j, pos, m.dt))
                    m.isnap += 1
                st.dt_min = min(st.dt_min, m.dt) if st.accepted else m.dt
                st.dt_max = max(st.dt_max, m.dt)
                st.accepted += 1
                st.dt_last = m.dt
                m.dt = m.dt_next
            m.t, m.c, m.k1 = tt, c1, k1
            if not tt < t_stop:
                regroup = True
            node_t.append(tt)
            if track_weak_residual:
                uf = (u_grid, flux) if single else (u_grid[pos], flux[pos])
                node_weak.append(kernels.weak_residual_max(t, k1, *uf, m.tol_zero))
        C, K1 = c_new, k1_new
        if first:
            first = False
            for m in members[:stop]:
                m.dt = _initial_dt(spec, m.c, m.k1)
                m.c_max = float(np.abs(m.c).max())  # carried over from max|c_new| on acceptance
        elif len(chunk_dt) == chunk:
            flush()

        # steps until one stands for at least one member
        accepted = []  # the positions in the stack of the members whose step stands
        while not accepted:
            if regroup:
                # members leave when they reach t_end or abort, after a
                # flush of the chunk's steps.  Then the stack of the others'
                # last accepted states, and the row buffer over it, one row
                # per row of tab (slope j is added to every row after j, and
                # stage j reads row j).  A single member steps on 1-D
                # arrays, as a run by itself does.
                regroup = False
                flush()
                active = [m for m in active if m.index < stop and m.t < t_stop]
                if not active:
                    break
                single = len(active) == 1
                lead = () if single else (len(active),)
                anchored = any(m.params.entropy_anchor is not None for m in active)

                def stacked(name):
                    return getattr(active[0], name) if single else np.stack(
                        [getattr(m, name) for m in active])

                C, K1, AUX1, Q = (stacked(name) for name in ("c", "k1", "aux1", "q"))
                ps = stacked_params([m.params for m in active], t.w)
                tab_b = tab.reshape(tab.shape + (1,) * len(lead))
                coef = np.empty(tab.shape + lead)
                P = np.empty(tab.shape[:1] + lead + (domain.modes + 1,))
                later_rows = [P[j + 1:] for j in range(n_stages)]
                later_coef = [coef[j + 1:, j, ..., None] for j in range(n_stages)]
                # slope j times its weights, one buffer per slope
                later_prod = [np.empty_like(rows) for rows in later_rows]
                stage_in = list(P[1:n_stages])
                c_out, c_emb, sums = P[n_stages], P[-1], P[n_stages:]
                # the chunk's states, ns per step, and the workspace its
                # calls fill: slot j ns holds step j's accepted state, slot
                # j ns + i - lo + 1 its stage i
                dq_w = dq_tab.reshape((ns, 1) + (1,) * len(lead))
                chunk_shape = (chunk * ns,) + lead + (domain.modes + 1,)
                chunk_c = store[:math.prod(chunk_shape)].reshape(chunk_shape)
                chunk_steps = chunk_c.reshape((chunk, ns) + chunk_shape[1:])
                chunk_work = kernels.workspace((chunk * ns,) + lead, t, store[chunk_c.size:])
                slots = [work_slot(chunk_work, i) for i in range(chunk * ns)]
                # the stage that dq does not read (stage 1) writes into the
                # step's state slot, which the call at the new state fills
                stage_slots = [[slots[j * ns + (i - lo + 1 if lo <= i < hi else 0)]
                                for i in range(1, n_stages)] for j in range(chunk)]

            # one check of the step size for accepted and rejected steps; a
            # step clipped to t_end is at least eps_end >= DT_MIN
            for m in active:
                st = m.stats
                if m.dt < DT_MIN:
                    fail(m, f"step size underflow at t = {m.t:.6g}: system too stiff "
                            "for the explicit integrator at these tolerances")
                    regroup = True
                elif st.accepted + st.rejected >= max_steps:
                    fail(m, f"step limit reached at t = {m.t:.6g} of {t_end:.6g}: "
                            f"{st.accepted} accepted and {st.rejected} rejected steps "
                            f"(MAX_STEPS = {max_steps})")
                    regroup = True
                m.dt = min(m.dt, t_end - m.t)
            if regroup:
                continue
            dt = active[0].dt if single else np.array([m.dt for m in active])
            # row i becomes c + (dt a_i0) k_0 + (dt a_i1) k_1 + ..., summed in
            # the order of the slopes; a zero weight adds +-0 and changes no value
            np.multiply(tab_b, dt, out=coef)
            P[:] = C
            k = K1
            for later, w, prod, x, slot in zip(later_rows, later_coef, later_prod, stage_in,
                                               stage_slots[len(chunk_dt)]):
                later += np.multiply(w, k, out=prod)
                k = kernels.rhs(x, t, ps, slot)[0]
            later_rows[-1] += np.multiply(later_coef[-1], k, out=later_prod[-1])
            # every stage slope reaches the last rows (a non-finite one through
            # a 0 * k product if need be), so one check covers the stage calls.
            # A single member reads its error norm as Python floats; a Python
            # sum is non-finite when any term is, which screens for the exact
            # check (Python's max would hide a NaN, depending on order)
            if single:
                out_list = c_out.tolist()
                diff_list = (c_emb - c_out).tolist()
                finite = (math.isfinite(sum(out_list) + sum(diff_list))
                          or np.isfinite(sums).all())
                errs = [max(map(abs, diff_list))]
                c_new_maxes = [max(map(abs, out_list))]
            else:
                finite = np.isfinite(sums).all()
                errs = np.abs(c_emb - c_out).max(axis=-1).tolist()
                c_new_maxes = np.abs(c_out).max(axis=-1).tolist()
            if not finite:
                for m, ok in zip(active, per_member(np.isfinite(sums).all(axis=(0, -1)))):
                    if not ok:
                        fail(m, "non-finite right-hand side")
                regroup = True
            for pos, m in enumerate(active):
                st = m.stats
                st.rhs_calls += n_stages - 1
                if m.index >= stop:
                    continue
                err, c_new_max = errs[pos], c_new_maxes[pos]
                tol = spec.atol + spec.rtol * max(m.c_max, c_new_max)
                if not err <= tol:
                    st.rejected += 1
                    m.dt *= max(0.1, 0.9 * (tol / err) ** 0.2)
                    continue
                m.dt_next = m.dt * min(5.0, max(0.2, 0.9 * (tol / max(err, 1e-300)) ** 0.2))
                m.c_max = c_new_max
                accepted.append(pos)
        if not accepted:
            break

        c_new = c_out.copy()  # the next step overwrites the buffer
        # the positions of the members whose step did not stand
        held = ([] if len(accepted) == len(active)
                else [pos for pos in range(len(active)) if pos not in accepted])
        if held:
            c_new[held] = C[held]
        # the step's states enter the chunk; its stage calls have filled
        # their slots, and the call at c_new fills the state's
        step = len(chunk_dt)
        chunk_steps[step, 0] = c_new
        chunk_steps[step, 1:] = P[lo:hi]
        state_work = slots[step * ns]
        chunk_dt.append(dt)
        chunk_held.append(held)

    results = []
    for m in members[:stop]:
        # any trailing snapshots at t_end within tolerance
        m.snap_c[m.isnap:] = m.c
        m.snap_q[m.isnap:] = m.q
        node_t, node_es, node_ed, node_q, node_weak = m.nodes
        node_q_arr = np.concatenate(node_q)
        nodes = NodeSeries(
            t=np.asarray(node_t),
            energy_surface=np.concatenate(node_es),
            energy_delta=np.concatenate(node_ed),
            dissipation_cum=node_q_arr[:, 0],
            entropy_dissipation_cum=node_q_arr[:, 1],
            weak_residual=np.asarray(node_weak) if track_weak_residual else None,
        )
        flags = []
        if m.params.eta == 0.0 and m.params.mobility_mode == "standard":
            flags.append("eta = 0: mobility unbounded above (outside the discrete existence lemma)")
        rhs_calls_tally += m.stats.rhs_calls
        results.append(SimulationResult(
            domain=domain,
            params=m.params,
            snapshot_times=snap_times,
            coeffs=m.snap_c,
            dissipation_cum=m.snap_q[:, 0],
            entropy_dissipation_cum=m.snap_q[:, 1],
            nodes=nodes,
            stats=m.stats,
            flags=flags,
            tol_zero=m.tol_zero,
        ))
    return results, failure
