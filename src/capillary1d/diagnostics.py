"""Per-snapshot and per-trajectory quantities behind the a-priori estimates.

Everything the dissipation framework bounds is measured here: mass, surface
energy and its delta-term, flux and entropy dissipation, the entropy
integral, positivity measures, the slope ratio y = max|u_x|/Q with its
certified threshold, Hoelder probes, and the Galerkin weak residual.

The records of a run come from one stacked pass per RECORDS_CHUNK
snapshots: kernels.fields and the entropy G each take the whole chunk,
and each integral is one np.dot per row, so a record is bit-identical to
the one computed for its snapshot alone.

Every snapshot time is treated as belonging to the full-measure good set;
outliers are reported, never excluded.  Unquantified generic constants are
rendered as boundedness/trend checks by the experiments module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .basis import (
    DomainSpec,
    SpectralField,
    mass,
    modes,
    sobolev_norms,
    tables,
)
from .galerkin import SimulationAbort, SimulationResult
from .model import DEFAULT_TOL_NEG_REL, EntropyEval, ModelParams, default_tol_zero


@dataclass
class DiagnosticsRecord:
    t: float
    mass: float
    energy_surface: float
    energy_delta: float
    curvature_dissipation: float
    dissipation_cum: float
    entropy: float
    entropy_dissipation_cum: float
    min_u: float
    max_u: float
    zero_frac: float
    y_max: float
    h1: float
    h2: float
    weak_residual: float


def snapshot_diagnostics(coeffs: np.ndarray, params: ModelParams, domain: DomainSpec,
                         entropy: EntropyEval | None = None,
                         tol_zero: float | None = None) -> list[DiagnosticsRecord]:
    """Instantaneous fields of one record per row of coeffs, shape (S, N+1).

    t and the cumulative fields are left for the caller.  One kernels.fields
    call over the stack gives c_dot, u, u_x, u_xx, Q and the flux, and one
    entropy.G call the entropy integrand; each row's integrals
    are np.dot(w, row), so a record is bit-identical to the one for its row
    alone.  tol_zero defaults to default_tol_zero of the stack's grid values.

    The first failing row aborts: sup|u| >= a when entropy is tracked, since
    G is only defined on (-a, a), and then a non-finite right-hand side.
    """
    t = tables(domain)
    S, G = coeffs.shape[0], t.w.shape[0]
    c_dot, _, u, ux, uxx, Q, flux = kernels.fields(coeffs, t, params)
    if tol_zero is None:
        tol_zero = default_tol_zero(u)
    sup = np.abs(u).max(axis=1)
    beyond = sup >= entropy.anchor if entropy is not None else np.zeros(S, dtype=bool)
    broken = ~np.isfinite(c_dot).all(axis=1)
    failed = np.flatnonzero(beyond | broken)
    if failed.size:
        i = failed[0]
        if beyond[i]:
            raise SimulationAbort(
                f"entropy anchor violated in diagnostics: sup|u| = {sup[i]:.6g}"
                f" >= a = {entropy.anchor:.6g}")
        raise SimulationAbort("non-finite right-hand side")

    uxsq = ux**2
    curvature = uxx**2 / Q**3
    u_min, u_max = u.min(axis=1), u.max(axis=1)
    zeros = np.count_nonzero(u < tol_zero, axis=1)
    y_max = np.max(np.abs(ux) / Q, axis=1)
    weak = kernels.weak_residual_max(t, c_dot, u, flux, tol_zero)
    if entropy is not None:
        Gu = entropy.G(u)
        finite = np.isfinite(Gu).all(axis=1)

    norms = sobolev_norms(coeffs, domain)
    w = t.w
    records = []
    for i, c in enumerate(coeffs):
        ent = float("nan")
        if entropy is not None:
            ent = float(np.dot(w, Gu[i])) if finite[i] else float("inf")
        records.append(DiagnosticsRecord(
            t=float("nan"),
            mass=mass(SpectralField(c), domain),
            energy_surface=float(np.dot(w, Q[i])),
            energy_delta=0.5 * params.delta * float(np.dot(w, uxsq[i])),
            curvature_dissipation=float(np.dot(w, curvature[i])),
            dissipation_cum=float("nan"),
            entropy=ent,
            entropy_dissipation_cum=float("nan"),
            min_u=float(u_min[i]),
            max_u=float(u_max[i]),
            zero_frac=float(zeros[i]) / G,
            y_max=float(y_max[i]),
            h1=norms.h1[i],
            h2=norms.h2[i],
            weak_residual=float(weak[i]),
        ))
    return records


RECORDS_CHUNK = 32  # snapshot rows per snapshot_diagnostics pass


def trajectory_records(result: SimulationResult,
                       entropy: EntropyEval | None = None) -> list[DiagnosticsRecord]:
    """One record per snapshot, cumulative integrals merged in, at the run's tol_zero.

    The snapshots go through snapshot_diagnostics RECORDS_CHUNK rows at a
    time, which bounds the pass's temporaries for any snapshot count and
    grid size.
    """
    records = []
    for lo in range(0, result.snapshot_times.size, RECORDS_CHUNK):
        records += snapshot_diagnostics(result.coeffs[lo:lo + RECORDS_CHUNK], result.params,
                                        result.domain, entropy, result.tol_zero)
    for i, rec in enumerate(records):
        rec.t = float(result.snapshot_times[i])
        rec.dissipation_cum = float(result.dissipation_cum[i])
        rec.entropy_dissipation_cum = float(result.entropy_dissipation_cum[i])
    return records


def energy_identity_residual(result: SimulationResult) -> tuple[np.ndarray, float]:
    """|E(t) + int_0^t D - E(0)| on the accepted-step series.

    An identity for the semidiscrete flow: the residual carries
    time-integration error only and shrinks under tolerance refinement.
    """
    E = result.nodes.energy
    resid = np.abs(E + result.nodes.dissipation_cum - E[0])
    return resid, float(resid.max())


def entropy_identity_residual(records: list[DiagnosticsRecord]) -> tuple[np.ndarray, float]:
    """|int G(u(t)) - int G(u0) + entropy-dissipation(t)| at snapshot times.

    For the semidiscrete system this is only approximately zero (g(u^N) is
    not in the Galerkin space); the residual must shrink under N-refinement,
    which the acceptance suite checks across N in {8, 16, 32}.
    """
    ent = np.array([r.entropy for r in records])
    if np.any(np.isnan(ent)):
        raise SimulationAbort("the records carry no entropy (entropy not tracked)")
    if not np.all(np.isfinite(ent)):
        raise SimulationAbort("entropy integral infinite along the trajectory")
    cum = np.array([r.entropy_dissipation_cum for r in records])
    resid = np.abs(ent - ent[0] + cum)
    return resid, float(resid.max())


def mass_drift(records: list[DiagnosticsRecord]) -> float:
    """max_t |m(t) - m(0)| / |m(0)|, guarded against zero initial mass."""
    m0 = records[0].mass
    return max(abs(r.mass - m0) for r in records) / max(abs(m0), 1e-300)


def flux_and_weak_residual(c: SpectralField, params: ModelParams, domain: DomainSpec,
                           test_modes=None) -> tuple[np.ndarray, float]:
    """Weak residuals r_j = (u_t, e_j) + (J, e_j') per test mode.

    u_t, u and the flux m(u) p_x come from one kernels.rhs call; J is the
    flux restricted to the positivity set {u > default_tol_zero(u)} and zero
    elsewhere.
    For j <= N the residual vanishes to roundoff by Galerkin orthogonality;
    modes j > N, sampled from the closed form (basis.modes), quantify spatial
    truncation.  Returns (residuals, scale) where scale is the natural
    cancellation size max(1, |(u_t, e_j)|, |(J, e_j')|).
    """
    t = tables(domain)
    c_dot, _, u, flux, _ = kernels.rhs(np.ascontiguousarray(c.coeffs), t, params)
    if not np.isfinite(c_dot).all():
        raise SimulationAbort("non-finite right-hand side")
    ut, J, a_tab, b_tab = kernels.weak_residual_terms(t, c_dot, u, flux, default_tol_zero(u))
    js = np.arange(a_tab.size) if test_modes is None else np.asarray(test_modes, dtype=int)
    inside = js <= domain.modes
    a = np.zeros(js.size)
    b = np.zeros(js.size)
    a[inside] = a_tab[js[inside]]
    b[inside] = b_tab[js[inside]]
    if not inside.all():
        # one dot per column keeps the summation order of a single-mode probe
        a[~inside] = [np.dot(t.w, ut * e) for e in modes(js[~inside], t.x, domain).T]
        b[~inside] = [np.dot(t.w, J * e) for e in modes(js[~inside], t.x, domain, deriv=1).T]
    scale = max(np.max(np.abs(a), initial=1.0), np.max(np.abs(b), initial=1.0))
    return a + b, float(scale)


# -- Lemma-style W^{1,inf} and H^2 certification -------------------------------

def slope_threshold(c1: float, c2: float, half_length: float) -> float:
    """Certified slope-ratio threshold M < 1: y_max = max |u_x|/Q <= M.

    Inputs are a snapshot's budgets c1 = int Q (DiagnosticsRecord's
    energy_surface) and c2 = int u_xx^2/Q^3 (its curvature_dissipation).
    K = sqrt(c2)/2 is the Hoelder constant of Q^{-1/2}: the sharp
    one-dimensional embedding gives [g]_{1/2} <= ||g_x||_L2 and
    ||g_x||_L2^2 <= c2/4.  M solves
    (1/2) int dx / (K^2 |x-l| + sqrt(1-y^2)) = c1 for y by bisection.

    The integral has the closed form (1/(2K^2)) log(1 + 2 l K^2 / s) with
    s = sqrt(1-y^2); it increases continuously to +inf as y -> 1, so a root
    M in [0, 1) exists whenever the y = 0 value stays below c1 (always true,
    since c1 >= 2l).  K = sqrt(c2)/2.
    """
    l = half_length
    K2 = 0.25 * c2

    def lhs(y):
        s = np.sqrt(max(1.0 - y * y, 1e-300))
        if K2 == 0.0:
            return l / s
        return np.log1p(2.0 * l * K2 / s) / (2.0 * K2)

    if lhs(0.0) >= c1:
        return 0.0
    lo, hi = 0.0, 1.0 - 1e-16
    if lhs(hi) <= c1:
        return hi
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if lhs(mid) <= c1:
            lo = mid
        else:
            hi = mid
    return lo


# -- Hoelder probes -------------------------------------------------------------

HOLDER_LOCATIONS = 16  # grid nodes the probes sample


@dataclass
class HolderProbe:
    exponent_time: float
    constant_time: float
    exponent_space: float
    constant_space: float
    n_samples: int
    conclusive: bool
    note: str = ""


def _loglog_fit(dx: np.ndarray, dy: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(np.log(dx), np.log(dy), 1)
    return float(slope), float(np.exp(intercept))


def holder_nodes(grid_size: int) -> np.ndarray:
    """The grid nodes the Hoelder probes sample, evenly spaced and offset.

    min(HOLDER_LOCATIONS, G // 2) nodes a quarter spacing past evenly spaced
    points, so that no node's mirror -x (node G - 1 - i of the symmetric
    grid) is sampled too: even data would make those space pairs repeats.
    """
    L = min(HOLDER_LOCATIONS, grid_size // 2)
    return (4 * np.arange(L) + 1) * grid_size // (4 * L)


def holder_probe(result: SimulationResult) -> HolderProbe:
    """Least-squares Hoelder exponents/constants from snapshot pairs.

    Fits log sup_x |u(t2,x)-u(t1,x)| against log|t2-t1| over all snapshot
    pairs (and the spatial analog with |x2-x1|^(1/2) scaling).  Estimates
    come with the sampling resolution; they are measurements, not asserted
    inequalities.  It samples the grid nodes that holder_nodes picks.
    """
    times = result.snapshot_times
    if times.size < 3:
        return HolderProbe(np.nan, np.nan, np.nan, np.nan, 0, False, "needs >= 3 snapshots")
    t = tables(result.domain)
    locs = holder_nodes(t.x.size)
    fields = result.coeffs @ t.E[locs].T

    # time pairs (i < j) one row i at a time, so no S x S x L temporary is
    # formed; space pairs (a < b) in np.triu_indices order for every snapshot
    dts, dus = [], []
    for i in range(times.size - 1):
        dts.append(times[i + 1:] - times[i])
        dus.append(np.max(np.abs(fields[i + 1:] - fields[i]), axis=1))
    dt, du_t = np.concatenate(dts), np.concatenate(dus)
    keep = (dt > 0) & (du_t > 0)
    dt, du_t = dt[keep], du_t[keep]
    a, b = np.triu_indices(locs.size, k=1)
    xs = t.x[locs]
    dx = np.broadcast_to(np.abs(xs[b] - xs[a]), (times.size, a.size))
    du_x = np.abs(fields[:, b] - fields[:, a])
    keep = (dx > 0) & (du_x > 0)
    dx, du_x = dx[keep], du_x[keep]

    n_samples = dt.size + dx.size
    if dt.size < 3 or dx.size < 3:
        return HolderProbe(np.nan, np.nan, np.nan, np.nan,
                           n_samples, False, "all increments vanish")
    bt, Mt = _loglog_fit(dt, du_t)
    bx, Kx = _loglog_fit(dx, du_x)
    return HolderProbe(exponent_time=bt, constant_time=Mt,
                       exponent_space=bx, constant_space=Kx,
                       n_samples=n_samples, conclusive=True)


# -- positivity -----------------------------------------------------------------

@dataclass
class PositivityReport:
    min_u: np.ndarray
    zero_frac: np.ndarray
    nonneg_ok: bool
    zero_measure_ok: bool | None
    positive_ok: bool | None


def positivity_report(records: list[DiagnosticsRecord], params: ModelParams,
                      domain: DomainSpec) -> PositivityReport:
    """Per-snapshot minima and zero-set fractions with trajectory verdicts.

    (a) min u >= -tol_neg for n >= 1 (nonnegativity up to truncation noise);
    (b) zero-set fraction at most one grid node for n >= 2;
    (c) min u >= pos_floor = 1e-2 min u(0) for n >= 8/3 given strictly
    positive data.
    min u and the zero-set fractions are the records' own.  Verdicts are
    reported, never raised: genuine violations (large delta, linear mode) are
    findings.
    """
    first = records[0]
    scale = max(1.0, first.max_u, -first.min_u)
    tol_neg = DEFAULT_TOL_NEG_REL * scale
    pos_floor = 1e-2 * max(first.min_u, 0.0)
    mins = np.array([r.min_u for r in records])
    fracs = np.array([r.zero_frac for r in records])
    return PositivityReport(
        min_u=mins,
        zero_frac=fracs,
        nonneg_ok=bool(mins.min() >= -tol_neg),
        zero_measure_ok=bool(fracs.max() <= 1.0 / domain.grid_size) if params.n >= 2.0 else None,
        positive_ok=(bool(mins.min() >= pos_floor)
                     if (params.n >= 8.0 / 3.0 and first.min_u > 0.0) else None),
    )
