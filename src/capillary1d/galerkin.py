"""Reduced ODE system dc/dt = f(c) and its explicit time integration.

The right-hand side never forms the (N+1)x(N+1) Gram matrix: it synthesizes
u and u_x on the grid, builds the pressure coefficients from the weak
pairing, forms the flux density m(u) p_x pointwise and projects back --
algebraically identical to the eliminated double-sum form because the
pressure lives in the Galerkin space.  Component 0 of dc/dt is identically
zero (e_0' = 0), so mass is conserved to the last bit by every integrator.

simulate is the one stepping loop, for both RKF45 (adaptive) and RK4
(fixed step); every stage calls kernels.rhs.  A step is a row update
(Hairer, Norsett & Wanner, Solving ODEs I, II.1) on one buffer per run:
its rows hold the stage inputs, then the propagated and (RKF45) the
embedded solution.  Each step sets every row to c and adds each slope to
all later rows as soon as it is known, two numpy calls per slope; row i
then sums c + (dt a_i0) k_0 + (dt a_i1) k_1 + ... in the order of the
slopes, and a zero weight adds +-0, which changes no value.  Every slope
reaches the last rows (a non-finite one through 0 * k if need be), so one
finiteness check of those rows per step stands for the stage calls; the
call at each accepted state keeps its own check.  Cumulative integrals
(flux dissipation, entropy dissipation, r-weighted dissipations) ride
along, summed over the same propagated weights; step-size control acts on
the coefficient vector only.  Each call asks the kernel for only the aux
entries that are read: a stage whose propagated weight is zero (stages 2
and 6 of RKF45) asks for none, the other stages for the dissipation
integrands [D, S, D_r...], and the first-stage call at each accepted state
for all of aux, since the energies, the anchor check and the dense output
read that one.  Snapshots come from cubic Hermite dense output on the
accepted steps, and the weak residual, when tracked, is measured at every
accepted step from the same kernel output that drives the next step.

The degenerate limit (p_x defined only on the positivity set) is never
solved directly; it is probed through epsilon sweeps in the experiments
module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .basis import BasisTables, DomainSpec, SpectralField, tables
from .model import DEFAULT_TOL_ZERO_REL, ModelParams

DT_MIN = 1e-12
# accepted plus rejected steps of one run: about 50x the longest verify run
# (criterion 4, N = 32, about 20k steps), so a run that would take hours
# fails early instead
MAX_STEPS = 1_000_000
DEFAULT_R_VALUES = (1.5, 2.0)


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
    weighted_dissipation_cum: dict[float, np.ndarray]
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
    weighted_dissipation_cum: dict[float, np.ndarray]
    nodes: NodeSeries
    stats: StepStats
    flags: list[str]

    def snapshot_field(self, i: int) -> SpectralField:
        return SpectralField(self.coeffs[i].copy())


def _checked_rhs(c: np.ndarray, t: BasisTables, params: ModelParams,
                 r_values: np.ndarray) -> tuple:
    """kernels.rhs with all of aux, looked up at call time, its c_dot refused if non-finite."""
    out = kernels.rhs(c, t, params, r_values)
    if not np.isfinite(out[0]).all():
        raise SimulationAbort("non-finite right-hand side")
    return out


def rhs_output(c: SpectralField, params: ModelParams, domain: DomainSpec) -> tuple:
    """One kernels.rhs call at c: (c_dot, d, u, flux, aux), refused if non-finite."""
    return _checked_rhs(np.ascontiguousarray(c.coeffs), tables(domain), params,
                        np.asarray(DEFAULT_R_VALUES))


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


def simulate(u0: SpectralField, spec: IntegratorSpec, params: ModelParams,
             domain: DomainSpec, r_values=DEFAULT_R_VALUES,
             track_weak_residual: bool = False,
             tol_zero: float = DEFAULT_TOL_ZERO_REL) -> SimulationResult:
    """Integrate to t_end, sampling snapshots and accumulating dissipations.

    The entropy anchor (params.entropy_anchor, when set) is asserted at every
    accepted step: sup|u| >= a aborts the run, and so does reaching
    MAX_STEPS accepted plus rejected steps.
    """
    global rhs_calls_tally
    snap_times = np.asarray(sorted(spec.snapshot_times), dtype=float)
    if snap_times.size == 0:
        snap_times = np.array([0.0, spec.t_end])
    flags: list[str] = []
    if params.eta == 0.0 and params.mobility_mode == "standard":
        flags.append("eta = 0: mobility unbounded above (outside the discrete existence lemma)")

    anchor = params.entropy_anchor
    c = np.ascontiguousarray(u0.coeffs.astype(float))
    if c.shape[0] != domain.modes + 1:
        raise ValueError("initial coefficients do not match the domain")

    t = tables(domain)
    r_arr = np.asarray(r_values, dtype=float)
    nr = len(r_values)
    nq = 2 + nr  # cumulative integrals: the leading aux entries D, S, D_r...
    stats = StepStats()

    def rhs(y):
        # the call at an accepted state: all of aux, and its own finite check,
        # since its k1 enters this step's Hermite snapshots as well as the
        # next step
        stats.rhs_calls += 1
        return _checked_rhs(y, t, params, r_arr)

    tcur = 0.0
    q = np.zeros(nq)
    k1, _, u_grid, flux, aux1 = rhs(c)

    def check_anchor(aux, tt):
        if anchor is not None and aux[-1] >= anchor:
            raise SimulationAbort(
                f"entropy anchor violated at t = {tt:.6g}: sup|u| = {aux[-1]:.6g} >= a = {anchor:.6g}"
            )

    check_anchor(aux1, 0.0)

    node_t = [0.0]
    node_es = [aux1[2 + nr]]
    node_ed = [aux1[3 + nr]]
    node_q = [q]  # q is rebound at every step, never written in place
    node_weak = [] if track_weak_residual else None
    if track_weak_residual:
        node_weak.append(kernels.weak_residual_max(t, k1, u_grid, flux, tol_zero))

    n_snap = snap_times.size
    snap_c = np.empty((n_snap, c.shape[0]))
    snap_q = np.empty((n_snap, nq))
    isnap = 0
    # snapshots at t = 0
    while isnap < n_snap and snap_times[isnap] <= 0.0:
        snap_c[isnap] = c
        snap_q[isnap] = q
        isnap += 1

    dt = _initial_dt(spec, c, k1)
    t_end = spec.t_end
    eps_end = 1e-12 * max(1.0, t_end)

    rows, weights, embedded = _TABLEAUX[spec.method]
    n_stages = len(weights)
    # the coefficient table: row i < n_stages is stage i's A row, row
    # n_stages the propagated weights and row n_stages + 1 the embedded ones
    tab = np.zeros((n_stages + (1 if embedded is None else 2), n_stages))
    for i, row in enumerate(rows):
        tab[i, :i] = row
    tab[n_stages] = weights
    if embedded is not None:
        tab[n_stages + 1] = embedded
    coef = np.empty_like(tab)
    # the row buffer, one row per row of tab, and its views, built once: slope
    # j is added to every row after j, and stage j reads row j
    P = np.empty((tab.shape[0], c.shape[0]))
    later_rows = [P[j + 1:] for j in range(n_stages)]
    later_coef = [coef[j + 1:, j, None] for j in range(n_stages)]
    stage_in = list(P[1:n_stages])
    c_out, c_emb, sums = P[n_stages], P[-1], P[n_stages:]
    # the aux prefix each later stage asks for: none where its propagated
    # weight is zero (dq never reads it), the integrands D, S, D_r...
    # elsewhere
    stage_aux = [0 if b == 0.0 else nq for b in weights[1:]]
    dq_terms = [(i, b) for i, b in enumerate(weights) if b != 0.0]
    q_zero = np.zeros(nq)
    c_max = float(np.abs(c).max())  # max|c|, carried over from max|c_new| on acceptance
    max_steps = MAX_STEPS
    while tcur < t_end - eps_end:
        if stats.accepted + stats.rejected >= max_steps:
            raise SimulationAbort(
                f"step limit reached at t = {tcur:.6g} of {t_end:.6g}: "
                f"{stats.accepted} accepted and {stats.rejected} rejected steps "
                f"(MAX_STEPS = {max_steps})"
            )
        dt = min(dt, t_end - tcur)
        # row i becomes c + (dt a_i0) k_0 + (dt a_i1) k_1 + ..., summed in the
        # order of the slopes; a zero weight adds +-0 and changes no value
        np.multiply(tab, dt, out=coef)
        P[:] = c
        k = k1
        qds = [aux1[:nq]]  # stage slopes of the cumulative integrals
        for later, w, x, n_aux in zip(later_rows, later_coef, stage_in, stage_aux):
            later += w * k
            k, _, _, _, aux = kernels.rhs(x, t, params, r_arr, n_aux)
            qds.append(aux[:nq])
        later_rows[-1] += later_coef[-1] * k
        stats.rhs_calls += n_stages - 1
        # every stage slope reaches the last rows (a non-finite one through a
        # 0 * k product if need be), so one check covers the stage calls
        if not np.isfinite(sums).all():
            raise SimulationAbort("non-finite right-hand side")
        dt_next = dt
        if embedded is not None:
            err = float(np.abs(c_emb - c_out).max())
            c_new_max = float(np.abs(c_out).max())
            tol = spec.atol + spec.rtol * max(c_max, c_new_max)
            if not err <= tol:
                stats.rejected += 1
                dt *= max(0.1, 0.9 * (tol / err) ** 0.2)
                if dt < DT_MIN:
                    raise SimulationAbort(
                        f"step size underflow at t = {tcur:.6g}: system too stiff "
                        "for the explicit integrator at these tolerances"
                    )
                continue
            dt_next = dt * min(5.0, max(0.2, 0.9 * (tol / max(err, 1e-300)) ** 0.2))
            c_max = c_new_max
        c_new = c_out.copy()  # the next step overwrites the buffer
        dq = q_zero
        for i, b in dq_terms:
            dq = dq + dt * b * qds[i]

        t_new = tcur + dt
        k1_new, _, u_grid, flux, aux_new = rhs(c_new)
        check_anchor(aux_new, t_new)
        q_new = q + dq

        # dense output: cubic Hermite for c, and for the cumulative integrals
        # (whose time derivatives are the aux dissipation values)
        while isnap < n_snap and snap_times[isnap] <= t_new + eps_end:
            s = snap_times[isnap]
            theta = min(1.0, max(0.0, (s - tcur) / dt))
            snap_c[isnap] = _hermite(theta, c, k1, c_new, k1_new, dt)
            snap_q[isnap] = _hermite(theta, q, aux1[:nq], q_new, aux_new[:nq], dt)
            isnap += 1

        tcur, c, q, k1, aux1 = t_new, c_new, q_new, k1_new, aux_new
        stats.dt_min = min(stats.dt_min, dt) if stats.accepted else dt
        stats.dt_max = max(stats.dt_max, dt)
        stats.accepted += 1
        stats.dt_last = dt
        dt = dt_next
        node_t.append(tcur)
        node_es.append(aux1[2 + nr])
        node_ed.append(aux1[3 + nr])
        node_q.append(q)
        if track_weak_residual:
            node_weak.append(kernels.weak_residual_max(t, k1, u_grid, flux, tol_zero))

    # any trailing snapshots at t_end within tolerance
    while isnap < n_snap:
        snap_c[isnap] = c
        snap_q[isnap] = q
        isnap += 1

    node_q_arr = np.asarray(node_q)
    nodes = NodeSeries(
        t=np.asarray(node_t),
        energy_surface=np.asarray(node_es),
        energy_delta=np.asarray(node_ed),
        dissipation_cum=node_q_arr[:, 0],
        entropy_dissipation_cum=node_q_arr[:, 1],
        weighted_dissipation_cum={r: node_q_arr[:, 2 + i] for i, r in enumerate(r_values)},
        weak_residual=np.asarray(node_weak) if track_weak_residual else None,
    )
    rhs_calls_tally += stats.rhs_calls
    return SimulationResult(
        domain=domain,
        params=params,
        snapshot_times=snap_times,
        coeffs=snap_c,
        dissipation_cum=snap_q[:, 0],
        entropy_dissipation_cum=snap_q[:, 1],
        weighted_dissipation_cum={r: snap_q[:, 2 + i] for i, r in enumerate(r_values)},
        nodes=nodes,
        stats=stats,
        flags=flags,
    )
