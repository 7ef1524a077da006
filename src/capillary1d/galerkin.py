"""Reduced ODE system dc/dt = f(c) and its explicit time integration.

The right-hand side, kernels.rhs, never forms the (N+1)x(N+1) Gram matrix:
it evaluates u and u_x on the grid, builds the pressure coefficients from
the weak pairing, forms the flux density m(u) p_x pointwise and projects
back -- algebraically identical to the eliminated double-sum form because
the pressure lives in the Galerkin space.  Component 0 of dc/dt is identically
zero (e_0' = 0), so mass is conserved to the last bit by every integrator.

simulate_stack holds the one stepping loop, for both RKF45 (adaptive) and
RK4 (fixed step); every stage calls kernels.rhs.  It steps one member, for
simulate, or a stack of B members whose parameters differ in delta,
epsilon and eta only, and its arrays carry a leading member shape: () for
one member, so a run by itself makes the same numpy calls on 1-D arrays,
and (B,) for a stack, which makes one kernel call per stage and one aux
pass per accepted state for all B.
Each member keeps its own dt, accept/reject decision, snapshots, anchor
check and StepStats; the step-size control runs on Python floats, member by
member, since numpy's array power can differ from Python's ** in the last
bit.  The kernel acts row by row, so a member's output in a stack is
bit-identical to its run alone.  A step that stands for some members only
still makes one call and one pass at the accepted states: the others' rows
go back to their last accepted states, whose slopes and aux the call and
the pass give again bit for bit, and their q is reset.
A step is a row update
(Hairer, Norsett & Wanner, Solving ODEs I, II.1) on one buffer per run:
its rows hold the stage inputs, then the propagated and (RKF45) the
embedded solution.  Each step sets every row to c and adds each slope to
all later rows as soon as it is known, two numpy calls per slope; row i
then sums c + (dt a_i0) k_0 + (dt a_i1) k_1 + ... in the order of the
slopes, and a zero weight adds +-0, which changes no value.  Every slope
reaches the last rows (a non-finite one through 0 * k if need be), so one
finiteness check of those rows per step stands for the stage calls; the
call at each accepted state keeps its own check.  A single member reads
its error norm and max|c| as Python floats, and screens those rows with a
Python sum, which is non-finite whenever a term is, before the exact check
(Python's max alone would hide a NaN).  Cumulative integrals q (flux
dissipation D, entropy dissipation S) ride along, summed over the same
propagated weights, in slope order, as one stacked multiply and one
reduction; step-size control acts on the coefficient vector only.  The
kernel computes no aux; kernels.integrands computes all of it, once per
accepted state.  The call at each accepted state is a
plain stage call, and it and the stage calls whose propagated weight q
reads (stages 2-4 of RKF45 and 1-3 of RK4, counted from stage 0, the slope
at the step's start) write their grid values into a slot of a per-run
workspace (kernels.workspace).  Then one pass
over the workspace and one contiguous stack of buffer rows -- a copy of
the new state, then those stage inputs -- gives the new state's aux
[D, S, E_surface, E_delta, sup|u|], which the energies, the anchor check
and the dense output read, and the stages' [D, S], which with the last
state's give dq.  At t = 0 the pass runs over the initial
state alone, and a rejected step makes none.  Snapshots
come from cubic Hermite dense output on the accepted steps, and the weak
residual, when tracked, is measured at every accepted step from the same
kernel output that drives the next step.

The degenerate limit (p_x defined only on the positivity set) is never
solved directly; it is probed through epsilon sweeps in the experiments
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .basis import DomainSpec, SpectralField, tables
from .model import ModelParams, default_tol_zero, stacked_params

DT_MIN = 1e-12
# accepted plus rejected steps of one run: about 50x the longest verify run
# (criterion 4, N = 32, about 20k steps), so a run that would take hours
# fails early instead
MAX_STEPS = 1_000_000


# kernel calls (stats.rhs_calls) of every simulate run that has returned in
# this process; verify reads its differences as per-criterion call counts
rhs_calls_tally = 0


class SimulationAbort(RuntimeError):
    """Integration failed: step underflow, step limit, blow-up, or anchor violation."""


@dataclass(frozen=True)
class IntegratorSpec:
    """Time-stepping description.

    "rkf45" is adaptive with (rtol, atol) controlling the local error of the
    coefficient vector in the max norm, with rtol no smaller than machine
    epsilon, and takes no dt; "rk4" is fixed-step
    with dt, and t_end/dt may not exceed MAX_STEPS.
    Explicit methods need dt = O(lambda_N^-2) on the stiff linearized system;
    the controller finds that scale by rejecting steps whose error grows.
    """

    t_end: float
    method: str = "rkf45"
    rtol: float = 1e-8
    atol: float = 1e-10
    dt: float | None = None
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.method not in ("rkf45", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.t_end > 0 and np.isfinite(self.t_end)):
            raise ValueError("t_end must be positive and finite")
        if self.method == "rk4" and not (self.dt is not None and self.dt > 0
                                         and np.isfinite(self.dt)):
            raise ValueError("rk4 needs a positive finite dt")
        if self.method == "rk4" and self.t_end / self.dt > MAX_STEPS:
            raise ValueError(f"rk4 with t_end/dt = {self.t_end / self.dt:.3g} steps "
                             f"exceeds MAX_STEPS = {MAX_STEPS}")
        # no step can meet a relative tolerance below roundoff
        if self.method == "rkf45" and not (np.finfo(float).eps <= self.rtol < 1.0
                                           and 0.0 < self.atol < float("inf")):
            raise ValueError(f"rkf45 needs {np.finfo(float).eps:.3g} <= rtol < 1"
                             " and a positive finite atol")
        if self.method == "rkf45" and self.dt is not None:
            raise ValueError(f"rkf45 chooses its own steps and takes no dt, got {self.dt}")
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

    def snapshot_field(self, i: int) -> SpectralField:
        return SpectralField(self.coeffs[i].copy())


# explicit tableaux (A rows, propagated weights b, embedded weights or None);
# Fehlberg 4(5) propagates the 4th-order solution
_TABLEAUX = {
    "rkf45": (
        ((), (1 / 4,), (3 / 32, 9 / 32), (1932 / 2197, -7200 / 2197, 7296 / 2197),
         (439 / 216, -8.0, 3680 / 513, -845 / 4104),
         (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40)),
        (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0),
        (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55),
    ),
    "rk4": (((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1 / 6, 1 / 3, 1 / 3, 1 / 6), None),
}


def _initial_dt(spec: IntegratorSpec, c: np.ndarray, k1: np.ndarray) -> float:
    if spec.method == "rk4":
        return spec.dt
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

    c, k1, aux1 and q are the member's rows at its last accepted state; the
    step-size control reads only the Python floats t, dt, dt_next and c_max.
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
    # the node series: lists of t, E_surface, E_delta, q and the weak residual
    nodes: tuple = field(default_factory=lambda: ([], [], [], [], []))


def simulate(u0: SpectralField, spec: IntegratorSpec, params: ModelParams,
             domain: DomainSpec, track_weak_residual: bool = False) -> SimulationResult:
    """Integrate to t_end, sampling snapshots and accumulating dissipations.

    The entropy anchor (params.entropy_anchor, when set) is asserted at every
    accepted step: sup|u| >= a aborts the run, and so does reaching
    MAX_STEPS accepted plus rejected steps.
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
    (model.stacked_params), and each has its own u0, whose grid values set
    its zero-set tolerance (model.default_tol_zero, kept on the result).
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
    cs = [np.ascontiguousarray(u0.coeffs.astype(float)) for u0 in u0s]
    if any(c.shape[0] != domain.modes + 1 for c in cs):
        raise ValueError("initial coefficients do not match the domain")

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

    a_rows, weights, embedded = _TABLEAUX[spec.method]
    n_stages = len(weights)
    # the coefficient table: row i < n_stages is stage i's A row, row
    # n_stages the propagated weights and row n_stages + 1 the embedded ones
    tab = np.zeros((n_stages + (1 if embedded is None else 2), n_stages))
    for i, row in enumerate(a_rows):
        tab[i, :i] = row
    tab[n_stages] = weights
    if embedded is not None:
        tab[n_stages + 1] = embedded
    # the later stages lo..hi-1 span every later one that dq reads (those of
    # nonzero propagated weight); buffer row lo - 1 takes a copy of the new
    # state once a step stands, so that one kernels.integrands pass over rows
    # lo - 1..hi - 1 gives the new state's aux and those stages' [D, S]
    read = [i for i in range(1, n_stages) if weights[i] != 0.0]
    lo, hi = read[0], read[-1] + 1
    # dq sums these slopes of q in their order: the last accepted state's,
    # then the stages' (a zero weight among them adds +-0)
    dq_cols = np.array([0, *range(lo, hi)])
    max_steps = MAX_STEPS
    t_stop = t_end - eps_end

    def work_slot(work, i):
        return tuple(a[i] for a in work)

    # the initial states enter as the accepted states of step 0, and their
    # pass runs over them alone
    active = members
    single = len(active) == 1
    c_new = cs[0] if single else np.stack(cs)
    q_new = np.zeros(c_new.shape[:-1] + (nq,))
    ps = stacked_params(params)
    work = kernels.workspace((1,) + c_new.shape[:-1], t)
    state_work, states = work_slot(work, 0), c_new[None]
    accepted = range(len(active))
    first = True
    regroup = True  # whether the stack must be rebuilt before the next step
    while True:
        # the call at the accepted states is a stage call that fills the
        # pass's first slot; it has its own finite check, since its k1 enters
        # the step's Hermite snapshots as well as the next step
        k1_new, _, u_grid, flux, _ = kernels.rhs(c_new, t, ps, state_work)
        aux_rows = kernels.integrands(states, work, t, ps)
        aux_new = aux_rows[0]
        if not first:
            # q_new = Q + dq, dq the propagated weights times the slopes of q,
            # summed in slope order: an axis-0 reduction of a C-ordered stack
            # adds its rows one after another
            q_slopes = np.concatenate((AUX1[None, ..., :nq], aux_rows[1:, ..., :nq]))
            q_slopes *= coef[n_stages, dq_cols][..., None]
            q_new = Q + np.add.reduce(q_slopes, axis=0)
            if held:
                # the other members keep their last accepted rows, so the
                # call and the pass give their k1 and aux1 again, bit for bit
                q_new[held] = Q[held]
        finite = None if np.isfinite(k1_new).all() else per_member(np.isfinite(k1_new).all(-1))
        for pos in accepted:
            m = active[pos]
            if single:
                c1, k1, a1, q1 = c_new, k1_new, aux_new, q_new
            else:
                c1, k1, a1, q1 = c_new[pos], k1_new[pos], aux_new[pos], q_new[pos]
            st = m.stats
            st.rhs_calls += 1
            if finite is not None and not finite[pos]:
                fail(m, "non-finite right-hand side")
            tt = 0.0 if first else m.t + m.dt
            anchor = m.params.entropy_anchor
            if anchor is not None and m.index < stop and a1[-1] >= anchor:
                fail(m, f"entropy anchor violated at t = {tt:.6g}: "
                        f"sup|u| = {a1[-1]:.6g} >= a = {anchor:.6g}")
            if m.index >= stop:
                regroup = True
                continue
            if first:
                while snap_next[m.isnap] <= 0.0:
                    m.snap_c[m.isnap] = c1
                    m.snap_q[m.isnap] = q1
                    m.isnap += 1
            else:
                # dense output: cubic Hermite for c, and for the cumulative
                # integrals (whose time derivatives are the aux dissipation values)
                while snap_next[m.isnap] <= tt + eps_end:
                    theta = min(1.0, max(0.0, (snap_next[m.isnap] - m.t) / m.dt))
                    m.snap_c[m.isnap] = _hermite(theta, m.c, m.k1, c1, k1, m.dt)
                    m.snap_q[m.isnap] = _hermite(theta, m.q, m.aux1[:nq], q1, a1[:nq], m.dt)
                    m.isnap += 1
                st.dt_min = min(st.dt_min, m.dt) if st.accepted else m.dt
                st.dt_max = max(st.dt_max, m.dt)
                st.accepted += 1
                st.dt_last = m.dt
                m.dt = m.dt_next
            m.t, m.c, m.q, m.k1, m.aux1 = tt, c1, q1, k1, a1
            if not tt < t_stop:
                regroup = True
            node_t, node_es, node_ed, node_q, node_weak = m.nodes
            node_t.append(tt)
            node_es.append(a1[2])
            node_ed.append(a1[3])
            node_q.append(q1)  # q is rebound at every step, never written in place
            if track_weak_residual:
                uf = (u_grid, flux) if single else (u_grid[pos], flux[pos])
                node_weak.append(kernels.weak_residual_max(t, k1, *uf, m.tol_zero))
        C, K1, AUX1, Q = c_new, k1_new, aux_new, q_new
        if first:
            first = False
            for m in members[:stop]:
                m.dt = _initial_dt(spec, m.c, m.k1)
                m.c_max = float(np.abs(m.c).max())  # carried over from max|c_new| on acceptance

        # steps until one stands for at least one member
        accepted = []  # the positions in the stack of the members whose step stands
        while not accepted:
            if regroup:
                # members leave when they reach t_end or abort; the stack of
                # the others' last accepted states, and the row buffer over
                # it, one row per row of tab (slope j is added to every row
                # after j, and stage j reads row j).  A single member steps
                # on 1-D arrays, as a run by itself does.
                regroup = False
                active = [m for m in active if m.index < stop and m.t < t_stop]
                if not active:
                    break
                single = len(active) == 1
                lead = () if single else (len(active),)

                def stacked(name):
                    return getattr(active[0], name) if single else np.stack(
                        [getattr(m, name) for m in active])

                C, K1, AUX1, Q = (stacked(name) for name in ("c", "k1", "aux1", "q"))
                ps = stacked_params([m.params for m in active])
                tab_b = tab.reshape(tab.shape + (1,) * len(lead))
                coef = np.empty(tab.shape + lead)
                P = np.empty(tab.shape[:1] + lead + (domain.modes + 1,))
                later_rows = [P[j + 1:] for j in range(n_stages)]
                later_coef = [coef[j + 1:, j, ..., None] for j in range(n_stages)]
                stage_in = list(P[1:n_stages])
                c_out, c_emb, sums = P[n_stages], P[-1], P[n_stages:]
                states = P[lo - 1:hi]
                # slot 0 holds the new state's grid values, slot i - lo + 1
                # stage i's
                work = kernels.workspace((1 + hi - lo,) + lead, t)
                state_work = work_slot(work, 0)
                stage_work = [work_slot(work, i - lo + 1) if lo <= i < hi else None
                              for i in range(1, n_stages)]

            for m in active:
                st = m.stats
                if st.accepted + st.rejected >= max_steps:
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
            for later, w, x, slot in zip(later_rows, later_coef, stage_in, stage_work):
                later += w * k
                k = kernels.rhs(x, t, ps, slot)[0]
            later_rows[-1] += later_coef[-1] * k
            # every stage slope reaches the last rows (a non-finite one through
            # a 0 * k product if need be), so one check covers the stage calls.
            # A single member reads its error norm as Python floats; a Python
            # sum is non-finite when any term is, which screens for the exact
            # check (Python's max would hide a NaN, depending on order)
            if single:
                out_list = c_out.tolist()
                screen = sum(out_list)
                if embedded is not None:
                    diff_list = (c_emb - c_out).tolist()
                    screen += sum(diff_list)
                    errs = [max(map(abs, diff_list))]
                    c_new_maxes = [max(map(abs, out_list))]
                finite = math.isfinite(screen) or np.isfinite(sums).all()
            else:
                finite = np.isfinite(sums).all()
                if embedded is not None:
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
                m.dt_next = m.dt
                if embedded is not None:
                    err, c_new_max = errs[pos], c_new_maxes[pos]
                    tol = spec.atol + spec.rtol * max(m.c_max, c_new_max)
                    if not err <= tol:
                        st.rejected += 1
                        m.dt *= max(0.1, 0.9 * (tol / err) ** 0.2)
                        if m.dt < DT_MIN:
                            fail(m, f"step size underflow at t = {m.t:.6g}: system too stiff "
                                    "for the explicit integrator at these tolerances")
                            regroup = True
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
        # the stage inputs the pass reads are still rows lo..hi-1 of the buffer
        P[lo - 1] = c_new

    results = []
    for m in members[:stop]:
        # any trailing snapshots at t_end within tolerance
        m.snap_c[m.isnap:] = m.c
        m.snap_q[m.isnap:] = m.q
        node_t, node_es, node_ed, node_q, node_weak = m.nodes
        node_q_arr = np.asarray(node_q)
        nodes = NodeSeries(
            t=np.asarray(node_t),
            energy_surface=np.asarray(node_es),
            energy_delta=np.asarray(node_ed),
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
