"""Reduced ODE system dc/dt = f(c) and its explicit time integration.

The right-hand side never forms the (N+1)x(N+1) Gram matrix: it synthesizes
u and u_x on the grid, builds the pressure coefficients from the weak
pairing, forms the flux density m(u) p_x pointwise and projects back --
algebraically identical to the eliminated double-sum form because the
pressure lives in the Galerkin space.  Component 0 of dc/dt is identically
zero (e_0' = 0), so mass is conserved to the last bit by every integrator.

simulate is the one stepping loop, for both RKF45 (adaptive) and RK4
(fixed step); every stage calls kernels.rhs.  Cumulative integrals (flux
dissipation, entropy dissipation, r-weighted dissipations) ride along as
augmented components advanced through the same Runge-Kutta tableau;
step-size control acts on the coefficient vector only.  Snapshots come from
cubic Hermite dense output on the accepted steps, and the weak
residual, when tracked, is measured at every accepted step from the same
kernel output that drives the next step.

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
DEFAULT_R_VALUES = (1.5, 2.0)


class SimulationAbort(RuntimeError):
    """Integration failed: step underflow, blow-up, or anchor violation."""


@dataclass(frozen=True)
class IntegratorSpec:
    """Time-stepping description.

    "rkf45" is adaptive with (rtol, atol) controlling the local error of the
    coefficient vector in the max norm; "rk4" is fixed-step with dt.
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
        if self.method == "rk4" and (self.dt is None or self.dt <= 0):
            raise ValueError("rk4 needs a positive dt")
        if self.method == "rkf45" and not (0.0 < self.rtol < 1.0
                                           and 0.0 < self.atol < float("inf")):
            raise ValueError("rkf45 needs 0 < rtol < 1 and a positive finite atol")
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
    spec: IntegratorSpec
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


def _checked_rhs(c: np.ndarray, t: BasisTables, params: ModelParams, r_values: np.ndarray) -> tuple:
    """kernels.rhs, looked up at call time, with its c_dot refused if non-finite."""
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


def _combine(y: np.ndarray, dt: float, weights, slopes) -> np.ndarray:
    # y + dt * sum_i w_i k_i over the nonzero weights (every tableau row has
    # one); y itself is never written
    out = None
    for wi, ki in zip(weights, slopes):
        if wi != 0.0:
            if out is None:
                out = y + dt * wi * ki
            else:
                out += dt * wi * ki
    return out


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


def _weak_residual_max(t, c_dot, u, flux, tol_zero: float) -> float:
    # zero to roundoff for j <= N by Galerkin orthogonality
    _, _, a, b = kernels.weak_residual_terms(t, c_dot, u, flux, tol_zero)
    return float(np.abs(a + b).max())


def simulate(u0: SpectralField, spec: IntegratorSpec, params: ModelParams,
             domain: DomainSpec, r_values=DEFAULT_R_VALUES,
             track_weak_residual: bool = False,
             tol_zero: float = DEFAULT_TOL_ZERO_REL) -> SimulationResult:
    """Integrate to t_end, sampling snapshots and accumulating dissipations.

    The entropy anchor (params.entropy_anchor, when set) is asserted at every
    accepted step: sup|u| >= a aborts the run.
    """
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
        node_weak.append(_weak_residual_max(t, k1, u_grid, flux, tol_zero))

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
    q_zero = np.zeros(nq)
    c_max = float(np.abs(c).max())  # max|c|, carried over from max|c_new| on acceptance
    while tcur < t_end - eps_end:
        dt = min(dt, t_end - tcur)
        # stage slopes of c and of the cumulative integrals
        ks = [k1]
        qds = [aux1[:nq]]
        for row in rows[1:]:
            ki, _, _, _, auxi = rhs(_combine(c, dt, row, ks))
            ks.append(ki)
            qds.append(auxi[:nq])
        c_new = _combine(c, dt, weights, ks)
        dt_next = dt
        if embedded is not None:
            err = float(np.abs(_combine(c, dt, embedded, ks) - c_new).max())
            c_new_max = float(np.abs(c_new).max())
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
        dq = _combine(q_zero, dt, weights, qds)

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
            node_weak.append(_weak_residual_max(t, k1, u_grid, flux, tol_zero))

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
    return SimulationResult(
        domain=domain,
        params=params,
        spec=spec,
        snapshot_times=snap_times,
        coeffs=snap_c,
        dissipation_cum=snap_q[:, 0],
        entropy_dissipation_cum=snap_q[:, 1],
        weighted_dissipation_cum={r: snap_q[:, 2 + i] for i, r in enumerate(r_values)},
        nodes=nodes,
        stats=stats,
        flags=flags,
    )
