"""Per-snapshot and per-trajectory quantities behind the a-priori estimates.

Everything the dissipation framework bounds is measured here: mass, surface
energy and its delta-term, flux and entropy dissipation, the entropy
integral, positivity measures, the slope ratio y = max|u_x|/Q with its
certified threshold, Hoelder probes, and the Galerkin weak residual.

The records of a run are columns, one array per quantity (Records).  They
come from one stacked pass per RECORDS_CHUNK snapshots: kernels.fields and
the entropy G each take the whole chunk, and each integral is one np.dot
per row, so every entry is bit-identical to the one computed for its
snapshot alone.

Every snapshot time is treated as belonging to the full-measure good set;
outliers are reported, never excluded.  Unquantified generic constants are
rendered as boundedness/trend checks by the experiments module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .basis import DomainSpec, SpectralField, mass, modes, sobolev_norms, tables
from .galerkin import SimulationAbort, SimulationResult
from .model import DEFAULT_TOL_NEG_REL, EntropyEval, ModelParams, default_tol_zero


@dataclass
class Records:
    """The snapshot records of a run as columns, one float64 array per quantity.

    Entry i of every column belongs to snapshot i.
    """

    t: np.ndarray
    mass: np.ndarray
    energy_surface: np.ndarray
    energy_delta: np.ndarray
    curvature_dissipation: np.ndarray
    dissipation_cum: np.ndarray
    entropy: np.ndarray
    entropy_dissipation_cum: np.ndarray
    min_u: np.ndarray
    max_u: np.ndarray
    zero_frac: np.ndarray
    y_max: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    weak_residual: np.ndarray


def snapshot_diagnostics(coeffs: np.ndarray, params: ModelParams, domain: DomainSpec,
                         entropy: EntropyEval | None = None,
                         tol_zero: float | None = None) -> dict[str, np.ndarray]:
    """The instantaneous Records columns of the rows of coeffs, shape (S, N+1).

    Returns every column but t and the cumulative ones, keyed by field name.
    One kernels.fields call over the stack gives c_dot, u, u_x, u_xx, Q and
    the flux, and one entropy.G call the entropy integrand; each row's
    integrals are np.dot(w, row), so an entry is bit-identical to the one
    for its row alone.  entropy is NaN when not tracked and inf where G(u)
    is not finite.  tol_zero defaults to default_tol_zero of the stack's
    grid values.

    The first failing row aborts: sup|u| >= a when entropy is tracked, since
    G is only defined on (-a, a), and then a non-finite right-hand side.
    """
    t = tables(domain)
    S = coeffs.shape[0]
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

    def integral(rows):
        # one np.dot per row: a gemv over the stack sums in another order
        return np.array([np.dot(t.w, row) for row in rows])

    ent = np.full(S, np.nan if entropy is None else np.inf)
    if entropy is not None:
        Gu = entropy.G(u)
        finite = np.isfinite(Gu).all(axis=1)
        ent[finite] = integral(Gu[finite])
    norms = sobolev_norms(coeffs, domain)
    return {
        "mass": mass(coeffs, domain),
        "energy_surface": integral(Q),
        "energy_delta": 0.5 * params.delta * integral(ux**2),
        "curvature_dissipation": integral(uxx**2 / Q**3),
        "entropy": ent,
        "min_u": u.min(axis=1),
        "max_u": u.max(axis=1),
        "zero_frac": np.count_nonzero(u < tol_zero, axis=1) / u.shape[1],
        "y_max": np.max(np.abs(ux) / Q, axis=1),
        "h1": norms.h1,
        "h2": norms.h2,
        "weak_residual": kernels.weak_residual_max(t, c_dot, u, flux, tol_zero),
    }


RECORDS_CHUNK = 32  # snapshot rows per snapshot_diagnostics pass


def trajectory_records(result: SimulationResult, entropy: EntropyEval | None = None) -> Records:
    """The records of every snapshot, at the run's tol_zero.

    The snapshots go through snapshot_diagnostics RECORDS_CHUNK rows at a
    time, which bounds the pass's temporaries for any snapshot count and
    grid size; the chunks' columns are joined once.  t and the cumulative
    integrals are the result's own arrays.
    """
    chunks = [snapshot_diagnostics(result.coeffs[lo:lo + RECORDS_CHUNK], result.params,
                                   result.domain, entropy, result.tol_zero)
              for lo in range(0, result.snapshot_times.size, RECORDS_CHUNK)]
    return Records(t=result.snapshot_times, dissipation_cum=result.dissipation_cum,
                   entropy_dissipation_cum=result.entropy_dissipation_cum,
                   **{name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]})


def energy_identity_residual(result: SimulationResult) -> tuple[np.ndarray, float]:
    """|E(t) + int_0^t D - E(0)| on the accepted-step series.

    An identity for the semidiscrete flow: the residual carries
    time-integration error only and shrinks under tolerance refinement.
    """
    E = result.nodes.energy
    resid = np.abs(E + result.nodes.dissipation_cum - E[0])
    return resid, float(resid.max())


def entropy_identity_residual(records: Records) -> tuple[np.ndarray, float]:
    """|int G(u(t)) - int G(u0) + entropy-dissipation(t)| at snapshot times.

    For the semidiscrete system this is only approximately zero (g(u^N) is
    not in the Galerkin space); the residual must shrink under N-refinement,
    which the acceptance suite checks across N in {8, 16, 32}.
    """
    ent = records.entropy
    if np.any(np.isnan(ent)):
        raise SimulationAbort("the records carry no entropy (entropy not tracked)")
    if not np.all(np.isfinite(ent)):
        raise SimulationAbort("entropy integral infinite along the trajectory")
    resid = np.abs(ent - ent[0] + records.entropy_dissipation_cum)
    return resid, float(resid.max())


def mass_drift(records: Records) -> float:
    """max_t |m(t) - m(0)| / |m(0)|, guarded against zero initial mass."""
    m = records.mass
    return float(np.abs(m - m[0]).max()) / max(abs(float(m[0])), 1e-300)


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

    Inputs are a snapshot's budgets c1 = int Q (the Records column
    energy_surface) and c2 = int u_xx^2/Q^3 (curvature_dissipation).
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
    nonneg_ok: bool
    zero_measure_ok: bool | None
    positive_ok: bool | None


def positivity_report(records: Records, params: ModelParams,
                      domain: DomainSpec) -> PositivityReport:
    """Trajectory verdicts on the records' minima and zero-set fractions.

    (a) min u >= -tol_neg for n >= 1 (nonnegativity up to truncation noise);
    (b) zero-set fraction at most one grid node for n >= 2;
    (c) min u >= pos_floor = 1e-2 min u(0) for n >= 8/3 given strictly
    positive data.
    Verdicts are reported, never raised: genuine violations (large delta,
    linear mode) are findings.
    """
    mins = records.min_u
    first_min = float(mins[0])
    scale = max(1.0, float(records.max_u[0]), -first_min)
    tol_neg = DEFAULT_TOL_NEG_REL * scale
    pos_floor = 1e-2 * max(first_min, 0.0)
    return PositivityReport(
        nonneg_ok=bool(mins.min() >= -tol_neg),
        zero_measure_ok=(bool(records.zero_frac.max() <= 1.0 / domain.grid_size)
                         if params.n >= 2.0 else None),
        positive_ok=(bool(mins.min() >= pos_floor)
                     if (params.n >= 8.0 / 3.0 and first_min > 0.0) else None),
    )
