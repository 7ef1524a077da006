import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from capillary1d import kernels
from capillary1d.basis import (
    DomainSpec,
    mass,
    project,
    quadrature,
    sobolev_norms,
    tables,
)
from capillary1d.diagnostics import (
    RECORDS_CHUNK,
    Records,
    energy_identity_residual,
    entropy_identity_residual,
    flux_and_weak_residual,
    holder_nodes,
    holder_probe,
    positivity_report,
    slope_threshold,
    snapshot_diagnostics,
    trajectory_records,
)
from capillary1d.config import apply_overrides, load_config, resolve_config, run_config
from capillary1d.galerkin import IntegratorSpec, SimulationAbort, simulate
from capillary1d.model import ModelParams, entropy_functions, entropy_integral
from capillary1d.verify import DELTA_SWEEP_RUN, REFERENCE_RUN

D8 = DomainSpec(half_length=1.0, modes=8)


def constant_field(domain, value):
    c = np.zeros(domain.modes + 1)
    c[0] = value * np.sqrt(2 * domain.half_length)
    return c


def bump_field(domain, base=1.0, amp=0.3):
    l = domain.half_length
    return project(lambda x: base + amp * np.cos(np.pi * x / l), domain)


def short_run(domain=D8, params=None, t_end=2e-3, n_snap=5, u0=None, **kw):
    if params is None:
        params = ModelParams(n=2, delta=0.1, epsilon=0.1)
    if u0 is None:
        u0 = bump_field(domain)
    spec = IntegratorSpec(t_end=t_end, rtol=1e-8, atol=1e-10,
                          snapshot_times=tuple(np.linspace(0, t_end, n_snap)))
    return simulate(u0, spec, params, domain, **kw)


# -- snapshot diagnostics -------------------------------------------------------

def record_of(f, params, **kw):
    # the instantaneous columns of one field, a stack of one row, as scalars
    cols = snapshot_diagnostics(f[None], params, D8, **kw)
    return SimpleNamespace(**{name: col[0] for name, col in cols.items()})


def test_snapshot_flat_film():
    p = ModelParams(n=2, delta=0.1, epsilon=0.1, entropy_anchor=2.0)
    ent = entropy_functions(p)
    rec = record_of(constant_field(D8, 1.0), p, entropy=ent)
    assert abs(rec.energy_surface - 2.0) < 1e-13
    assert rec.energy_delta == 0.0
    assert rec.y_max == 0.0
    assert abs(rec.entropy - 2.0 * float(ent.G(np.array([1.0]))[0])) < 1e-12
    assert rec.zero_frac == 0.0
    assert abs(rec.mass - 2.0) < 1e-13


def test_snapshot_surface_energy_against_adaptive_oracle():
    p = ModelParams(n=2, delta=0.0, epsilon=0.1)
    f = bump_field(D8)
    rec = record_of(f, p)

    from capillary1d.basis import evaluate

    def integrand(x):
        ux = evaluate(f, np.array([x]), D8, deriv=1)[0]
        return np.sqrt(1 + ux**2)

    ref, _ = quad(integrand, -1, 1, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert abs(rec.energy_surface - ref) < 1e-10


def test_snapshot_y_max_algebra():
    # max |u_x| = 3 gives y = 3/sqrt(10)
    t = tables(D8)
    # craft a field whose grid slope peaks near 3 by scaling mode 1
    c = np.zeros(9)
    c[1] = 1.0
    scale = 3.0 / np.abs(t.Ex @ c).max()
    rec = record_of(c * scale, ModelParams(n=2))
    assert abs(rec.y_max - 3.0 / np.sqrt(10.0)) < 1e-6


def test_snapshot_aborts_beyond_anchor():
    p = ModelParams(n=2, epsilon=0.1, entropy_anchor=0.5)
    ent = entropy_functions(p)
    with pytest.raises(SimulationAbort):
        record_of(constant_field(D8, 1.0), p, entropy=ent)


def test_surface_energy_lower_bound_random_fields():
    # int sqrt(1+u_x^2) >= 2l, equality iff u_x == 0
    rng = np.random.default_rng(4)
    p = ModelParams(n=2)
    for _ in range(10):
        f = rng.standard_normal(9) * 0.2
        rec = record_of(f, p)
        assert rec.energy_surface >= 2.0 - 1e-12
        assert rec.y_max < 1.0
    flat = record_of(constant_field(D8, 2.0), p)
    assert abs(flat.energy_surface - 2.0) < 1e-13


# -- identities -----------------------------------------------------------------

def test_energy_identity_steady_run():
    p = ModelParams(n=2, delta=0.1, epsilon=0.2)
    spec = IntegratorSpec(t_end=0.5)
    res = simulate(constant_field(D8, 1.0), spec, p, D8)
    _, mx = energy_identity_residual(res)
    assert mx == 0.0


def test_energy_identity_refines_with_tolerance():
    d = DomainSpec(half_length=1.0, modes=8)
    p = ModelParams(n=2, delta=0.1, epsilon=0.1)
    u0 = bump_field(d, amp=0.2)
    maxima = []
    for rtol in (1e-7, 1e-8):
        spec = IntegratorSpec(t_end=3e-3, rtol=rtol, atol=rtol * 1e-2)
        _, mx = energy_identity_residual(simulate(u0, spec, p, d))
        maxima.append(mx)
    assert maxima[1] < maxima[0]


def test_entropy_identity_zero_on_constant_run():
    p = ModelParams(n=2, delta=0.1, epsilon=0.1, entropy_anchor=2.0)
    ent = entropy_functions(p)
    spec = IntegratorSpec(t_end=0.2, snapshot_times=(0.0, 0.1, 0.2))
    res = simulate(constant_field(D8, 1.0), spec, p, D8)
    resid, mx = entropy_identity_residual(trajectory_records(res, entropy=ent))
    assert mx < 1e-14


def test_entropy_identity_needs_entropy_records():
    res = short_run()
    with pytest.raises(SimulationAbort, match="no entropy"):
        entropy_identity_residual(trajectory_records(res))


def test_entropy_identity_shrinks_with_n():
    t_end = 1e-3
    maxima = {}
    for N in (8, 16):
        d = DomainSpec(half_length=1.0, modes=N)
        p = ModelParams(n=2, delta=0.1, epsilon=0.1, entropy_anchor=2.5)
        ent = entropy_functions(p)
        u0 = bump_field(d, amp=0.3)
        spec = IntegratorSpec(t_end=t_end, rtol=1e-9, atol=1e-11,
                              snapshot_times=tuple(np.linspace(0, t_end, 5)))
        res = simulate(u0, spec, p, d)
        _, maxima[N] = entropy_identity_residual(trajectory_records(res, entropy=ent))
    assert maxima[16] < maxima[8]


# -- weak residual ---------------------------------------------------------------

def test_weak_residual_galerkin_orthogonality():
    p = ModelParams(n=2, delta=0.1, epsilon=0.1)
    f = bump_field(D8)
    resid, scale = flux_and_weak_residual(f, p, D8)
    assert np.abs(resid).max() <= 1e-11 * scale


def test_weak_residual_constant_state():
    p = ModelParams(n=2, delta=0.1, epsilon=0.1)
    f = constant_field(D8, 1.0)
    resid, _ = flux_and_weak_residual(f, p, D8, test_modes=list(range(12)))
    np.testing.assert_allclose(resid, 0.0, atol=1e-15)


def test_weak_residual_single_definition():
    # the per-step series of simulate and the diagnostic are one computation:
    # at t = 0 they agree bit for bit on the reference configuration
    rc = resolve_config(REFERENCE_RUN)
    spec = IntegratorSpec(t_end=1e-6)
    res = simulate(rc.u0, spec, rc.params, rc.domain, track_weak_residual=True)
    resid, _ = flux_and_weak_residual(rc.u0, rc.params, rc.domain)
    assert res.nodes.weak_residual[0] == np.max(np.abs(resid))


def test_weak_residual_truncation_mode_decreases_with_n():
    # analytic data with a finite-width analyticity strip keeps measurable
    # (non-roundoff) truncation content in the flux at every N here
    p = ModelParams(n=2, delta=0.1, epsilon=0.1)
    vals = {}
    for N in (8, 16, 32):
        d = DomainSpec(half_length=1.0, modes=N)
        f = project(lambda x: 1.0 + 0.3 / (1.7 - np.sin(np.pi * x / 2)), d)
        resid, _ = flux_and_weak_residual(f, p, d, test_modes=[N + 1])
        vals[N] = abs(resid[0])
    assert vals[16] < vals[8]
    assert vals[32] < vals[16]


# -- slope-ratio bound chain ------------------------------------------------------

def record_threshold(rec, domain):
    # the certified slope threshold from a record's two budgets
    return slope_threshold(rec.energy_surface, rec.curvature_dissipation, domain.half_length)


def records_at(records):
    # the snapshots of column records, one namespace of scalars each
    names = [f.name for f in dataclasses.fields(records)]
    return [SimpleNamespace(**dict(zip(names, row)))
            for row in zip(*(getattr(records, name) for name in names))]


def test_slope_bound_constant_state():
    rec = record_of(constant_field(D8, 3.0), ModelParams(n=2))
    assert rec.y_max == 0.0
    assert abs(rec.h2 - 3.0 * np.sqrt(2.0)) < 1e-12  # |c_0| of u == 3
    assert rec.y_max <= record_threshold(rec, D8)


def test_slope_bound_unit_slope_algebra():
    # |u_x| <= 1 everywhere forces y <= 1/sqrt(2)
    f = bump_field(D8, base=1.0, amp=0.3)
    scale = 1.0 / np.abs(tables(D8).Ex @ f).max()
    rec = record_of(f * scale, ModelParams(n=2))
    assert rec.y_max <= 1.0 / np.sqrt(2.0) + 1e-12


def test_slope_bound_threshold_monotonicity():
    l = 1.0
    # increasing c1 loosens the budget -> larger threshold
    ms = [slope_threshold(c1, 4.0, l) for c1 in (2.1, 3.0, 5.0)]
    assert ms[0] < ms[1] < ms[2]
    # increasing K (i.e. c2) also loosens the constraint integral
    ms2 = [slope_threshold(2.5, c2, l) for c2 in (0.5, 4.0, 20.0)]
    assert ms2[0] < ms2[1] < ms2[2]


def test_slope_bound_threshold_against_analytic_inversion():
    # closed-form root: s* = 2 l K^2 / (exp(2 K^2 c1) - 1), M = sqrt(1 - s*^2)
    l, c1, c2 = 1.0, 2.8, 3.7
    K2 = c2 / 4.0
    s_star = 2 * l * K2 / np.expm1(2 * K2 * c1)
    expect = np.sqrt(1 - s_star**2)
    got = slope_threshold(c1, c2, l)
    assert abs(got - expect) < 1e-10


def test_slope_bound_satisfied_on_smooth_run():
    res = short_run()
    for rec in records_at(trajectory_records(res)):
        assert rec.y_max <= record_threshold(rec, res.domain)
        assert rec.y_max < 1.0


def test_slope_certificate_from_records_equals_direct_synthesis():
    # the records carry the slope certificate's inputs bit for bit (criterion 6's run)
    out = run_config(DELTA_SWEEP_RUN)
    domain = out.config.domain
    t = tables(domain)
    for i, rec in enumerate(records_at(out.records)):
        c = out.result.coeffs[i]
        ux = t.Ex @ c
        uxx = -(t.E @ (t.lam * c))
        Q = np.sqrt(1.0 + ux * ux)
        y_max = float(np.max(np.abs(ux / Q)))
        c1 = quadrature(Q, domain)
        c2 = quadrature(uxx**2 / Q**3, domain)
        assert rec.y_max == y_max
        assert rec.energy_surface == c1
        assert rec.curvature_dissipation == c2
        assert rec.h2 == sobolev_norms(c, domain).h2
        assert record_threshold(rec, domain) == slope_threshold(c1, c2, domain.half_length)


# -- Hoelder probe -----------------------------------------------------------------

def test_holder_probe_steady_inconclusive():
    # a flat film has no increments in time or space: both constants vanish
    p = ModelParams(n=2, epsilon=0.2)
    spec = IntegratorSpec(t_end=0.1, snapshot_times=(0.0, 0.05, 0.1))
    res = simulate(constant_field(D8, 1.0), spec, p, D8)
    probe = holder_probe(res)
    assert probe.constant_time == pytest.approx(0.0, abs=1e-12)
    assert probe.constant_space == pytest.approx(0.0, abs=1e-12)


def test_holder_probe_smooth_run():
    # a smooth run is Lipschitz in time, so |du|/dt^(1/8) grows with dt and
    # the widest pair (0, T) gives the time constant
    res = short_run(t_end=5e-3, n_snap=9)
    probe = holder_probe(res)
    t = tables(D8)
    fields = res.coeffs @ t.E[holder_nodes(t.x.size)].T
    widest = np.max(np.abs(fields[-1] - fields[0])) / 5e-3 ** 0.125
    assert probe.constant_time == pytest.approx(widest, rel=1e-14)
    assert 0.0 < probe.constant_space < np.inf


def holder_oracle(res):
    """Both Hoelder constants by plain loops over every sampled pair."""
    t = tables(res.domain)
    locs = holder_nodes(t.x.size)
    u = res.coeffs @ t.E[locs].T
    times = res.snapshot_times
    constant_time = None
    for i in range(times.size):
        for j in range(times.size):
            if times[j] > times[i]:
                for k in range(locs.size):
                    r = abs(u[j, k] - u[i, k]) / (times[j] - times[i]) ** 0.125
                    constant_time = r if constant_time is None else max(constant_time, r)
    constant_space = 0.0
    for s in range(times.size):
        for a in range(locs.size):
            for b in range(a + 1, locs.size):
                dx = abs(t.x[locs[b]] - t.x[locs[a]])
                constant_space = max(constant_space, abs(u[s, b] - u[s, a]) / dx ** 0.5)
    return constant_time, constant_space


@pytest.mark.parametrize("times", [(0.0, 1e-3, 1e-3, 2e-3, 4e-3), (4e-3,), (0.0, 4e-3),
                                   (2e-3, 2e-3)])
def test_holder_probe_equals_all_pairs_loop(times):
    # duplicate times pair with no snapshot (and warn nowhere); a time
    # constant needs two distinct snapshot times
    spec = IntegratorSpec(t_end=4e-3, rtol=1e-8, atol=1e-10, snapshot_times=times)
    res = simulate(bump_field(D8), spec, ModelParams(n=2, delta=0.1, epsilon=0.1), D8)
    probe = holder_probe(res)
    constant_time, constant_space = holder_oracle(res)
    if len(set(times)) < 2:
        assert probe.constant_time is None and constant_time is None
    else:
        assert probe.constant_time == pytest.approx(constant_time, rel=1e-14)
    assert probe.constant_space == pytest.approx(constant_space, rel=1e-14)


REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"


@pytest.fixture(scope="module")
def reference_snapshot_runs():
    return {snaps: run_config(apply_overrides(load_config(str(REFERENCE_CONFIG)),
                                              [f"integrator.snapshots={snaps}"]))
            for snaps in ("5", "9", "17", "[0, 0.01, 0.01, 0.02]")}


def test_holder_probe_does_not_depend_on_snapshot_spacing(reference_snapshot_runs):
    # the maxima sit on the pair (0, T) in time and at t = 0 in space, which
    # every snapshot choice samples: the constants agree to the bit
    probes = {snaps: out.probe for snaps, out in reference_snapshot_runs.items()}
    assert len({(p.constant_time, p.constant_space) for p in probes.values()}) == 1
    assert probes["9"].constant_time == pytest.approx(0.4728, abs=1e-4)
    assert probes["9"].constant_space == pytest.approx(0.6383, abs=1e-4)


def test_holder_space_constant_below_ux_l2_at_every_snapshot(reference_snapshot_runs):
    # |u(x) - u(y)| <= |x - y|^(1/2) ||u_x||_L2 (Cauchy-Schwarz) for every
    # H^1 function, so no Galerkin state can break it
    for out in reference_snapshot_runs.values():
        res = out.result
        ux_l2 = sobolev_norms(res.coeffs, res.domain).ux_l2
        for i in range(res.snapshot_times.size):
            one = dataclasses.replace(res, coeffs=res.coeffs[i:i + 1],
                                      snapshot_times=res.snapshot_times[i:i + 1])
            assert holder_probe(one).constant_space <= ux_l2[i] * (1 + 1e-12)
        assert out.probe.constant_space <= ux_l2.max() * (1 + 1e-12)


def test_holder_probe_deterministic_without_mirrored_nodes():
    # no environment variable picks the nodes; the grid is symmetric, and a
    # sampled node's mirror -x would make the space pairs of even data repeats
    res = short_run(t_end=5e-3, n_snap=7)
    assert holder_probe(res) == holder_probe(res)
    x = tables(D8).x
    xs = x[holder_nodes(x.size)]
    assert xs.size == 16 and np.all(np.diff(xs) > 0)
    assert not np.isin(-xs, xs).any()
    for G in range(8, 2049):
        locs = holder_nodes(G)
        assert locs.size == min(16, G // 2) and np.all(np.diff(locs) > 0)
        assert not np.isin(G - 1 - locs, locs).any(), G


# -- positivity -------------------------------------------------------------------

def test_positivity_flat_film():
    p = ModelParams(n=2, epsilon=0.2)
    spec = IntegratorSpec(t_end=0.1, snapshot_times=(0.0, 0.1))
    res = simulate(constant_field(D8, 1.0), spec, p, D8)
    records = trajectory_records(res)
    rep = positivity_report(records, p, D8)
    assert rep.nonneg_ok
    assert rep.zero_measure_ok
    assert np.all(records.zero_frac == 0.0)


def test_positivity_strictly_positive_high_n():
    p = ModelParams(n=3, delta=0.05, epsilon=0.1)
    res = short_run(params=p)
    rep = positivity_report(trajectory_records(res), p, D8)
    assert rep.positive_ok is not None
    assert rep.positive_ok


def test_positivity_verdict_gating():
    p_low = ModelParams(n=1.5, epsilon=0.1)
    res = short_run(params=p_low)
    rep = positivity_report(trajectory_records(res), p_low, D8)
    assert rep.zero_measure_ok is None
    assert rep.positive_ok is None


def test_positivity_min_u_matches_direct_synthesis():
    p = ModelParams(n=1.5, delta=0.05, epsilon=0.1)
    res = short_run(params=p)
    direct = [(tables(D8).E @ c).min() for c in res.coeffs]
    np.testing.assert_array_equal(trajectory_records(res).min_u, direct)


def test_trajectory_records_fill_cumulative():
    p = ModelParams(n=2, delta=0.1, epsilon=0.1, entropy_anchor=2.0)
    ent = entropy_functions(p)
    res = short_run(params=p)
    recs = trajectory_records(res, entropy=ent)
    assert recs.t.size == res.snapshot_times.size
    assert recs.dissipation_cum[0] == 0.0
    assert recs.dissipation_cum[-1] > 0.0
    assert np.isfinite(recs.entropy[-1])
    assert recs.t[-1] == res.snapshot_times[-1]


# -- the stacked records pass --------------------------------------------------------

def reference_records(result, entropy=None):
    # the per-snapshot body that trajectory_records ran before its stacked
    # pass, one record (a dict of Records' fields) per snapshot
    domain, params, tol_zero = result.domain, result.params, result.tol_zero
    t = tables(domain)
    records = []
    for i, s in enumerate(result.snapshot_times):
        c = result.coeffs[i]
        u = t.E @ c
        ux = t.Ex @ c
        uxx = -(t.E @ (t.lam * c))
        Q = np.sqrt(1.0 + ux * ux)
        ent = float("nan")
        if entropy is not None:
            if float(np.abs(u).max()) >= entropy.anchor:
                raise SimulationAbort(
                    f"entropy anchor violated in diagnostics: sup|u| = {np.abs(u).max():.6g}"
                    f" >= a = {entropy.anchor:.6g}")
            ent = entropy_integral(u, entropy, domain)
        norms = sobolev_norms(c, domain)
        c_dot, _, u_k, flux, _ = kernels.rhs(c, t, params)
        if not np.isfinite(c_dot).all():
            raise SimulationAbort("non-finite right-hand side")
        records.append(dict(
            t=float(s),
            mass=mass(c, domain),
            energy_surface=quadrature(Q, domain),
            energy_delta=0.5 * params.delta * quadrature(ux**2, domain),
            curvature_dissipation=quadrature(uxx**2 / Q**3, domain),
            dissipation_cum=float(result.dissipation_cum[i]),
            entropy=ent,
            entropy_dissipation_cum=float(result.entropy_dissipation_cum[i]),
            min_u=float(u.min()),
            max_u=float(u.max()),
            zero_frac=float(np.count_nonzero(u < tol_zero)) / u.size,
            y_max=float(np.max(np.abs(ux) / Q)),
            h1=norms.h1,
            h2=norms.h2,
            weak_residual=kernels.weak_residual_max(t, c_dot, u_k, flux, tol_zero),
        ))
    return records


N_STACKED = 2 * RECORDS_CHUNK + 3  # two full chunks and a remainder


def stacked_run(params, u0=None):
    return short_run(params=params, n_snap=N_STACKED, u0=u0)


@pytest.mark.parametrize("params, u0, tracked", [
    (ModelParams(n=2, delta=0.1, epsilon=0.0, entropy_anchor=2.0), None, True),
    # a film dipping below zero: zero_frac and the weak residual's positivity set
    (ModelParams(n=1.5, delta=0.05, epsilon=0.1, entropy_anchor=2.0),
     bump_field(D8, base=0.2, amp=0.3), True),
    (ModelParams(n=2, delta=0.1, epsilon=0.1, entropy_anchor=2.0), None, True),
    (ModelParams(n=2, delta=0.1, epsilon=0.1, eta=0.05), None, False),
])
def test_stacked_records_equal_the_per_snapshot_body(params, u0, tracked):
    res = stacked_run(params, u0)
    ent = entropy_functions(params) if tracked else None
    got, want = trajectory_records(res, entropy=ent), reference_records(res, entropy=ent)
    assert len(want) == N_STACKED
    for f in dataclasses.fields(Records):
        a = getattr(got, f.name)
        assert a.dtype == np.float64 and a.shape == (N_STACKED,), f.name
        assert np.array_equal(a, [r[f.name] for r in want], equal_nan=True), f.name
    assert np.any(got.zero_frac > 0) == (u0 is not None)


def _nan_rhs_at(row, monkeypatch):
    # kernels.rhs with a non-finite slope at the state equal to row, alone or in a stack
    true_rhs = kernels.rhs

    def rhs(c, *args):
        c_dot, *rest = true_rhs(c, *args)
        c_dot = c_dot.copy()
        c_dot[np.all(c == row, axis=-1)] = np.nan
        return (c_dot, *rest)

    monkeypatch.setattr(kernels, "rhs", rhs)


@pytest.mark.parametrize("beyond, broken, message", [
    ((40,), (), "entropy anchor violated"),
    ((40,), (40,), "entropy anchor violated"),  # within a snapshot the anchor comes first
    ((40,), (35,), "non-finite right-hand side"),
    ((35,), (40,), "entropy anchor violated"),
    ((), (66,), "non-finite right-hand side"),
])
def test_stacked_records_raise_at_the_first_failing_snapshot(monkeypatch, beyond, broken,
                                                             message):
    params = ModelParams(n=2, delta=0.1, epsilon=0.1, entropy_anchor=2.0)
    res = stacked_run(params)
    coeffs = res.coeffs.copy()
    for i in beyond:
        coeffs[i] *= 3.0  # sup u about 3.9, beyond the anchor
    for i in broken:
        _nan_rhs_at(coeffs[i].copy(), monkeypatch)
    res = dataclasses.replace(res, coeffs=coeffs)
    ent = entropy_functions(params)
    with pytest.raises(SimulationAbort) as want:
        reference_records(res, entropy=ent)
    with pytest.raises(SimulationAbort) as got:
        trajectory_records(res, entropy=ent)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(message)


def test_records_pass_feeds_the_kernel_at_most_a_chunk(monkeypatch):
    res = stacked_run(ModelParams(n=2, delta=0.1, epsilon=0.1))
    true_rhs = kernels.rhs
    shapes = []

    def recording_rhs(c, *args):
        shapes.append(c.shape)
        return true_rhs(c, *args)

    monkeypatch.setattr(kernels, "rhs", recording_rhs)
    trajectory_records(res)
    assert shapes == [(32, 9), (32, 9), (3, 9)]
