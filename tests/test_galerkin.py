import numpy as np
import pytest

from capillary1d.basis import (
    DomainSpec,
    SpectralField,
    eigenvalue,
    mass,
    project,
    quadrature,
    synthesize,
)
from capillary1d.galerkin import (
    IntegratorSpec,
    SimulationAbort,
    rhs_output,
    simulate,
)
from capillary1d.model import ModelParams

D8 = DomainSpec(half_length=1.0, modes=8)


def unit_mode(j, domain, amp=1.0, base=0.0):
    c = np.zeros(domain.modes + 1)
    c[0] = base * np.sqrt(2 * domain.half_length)
    c[j] = amp
    return SpectralField(c)


def test_rhs_constant_state_is_steady():
    p = ModelParams(n=2, delta=0.1, epsilon=0.1, eta=0.1)
    dc = rhs_output(unit_mode(0, D8, 3.0), p, D8)[0]
    np.testing.assert_array_equal(dc, 0.0)


def test_rhs_mass_component_identically_zero():
    rng = np.random.default_rng(2)
    p = ModelParams(n=2, delta=0.1, epsilon=0.05, eta=0.2)
    for _ in range(10):
        c = SpectralField(rng.standard_normal(9) * 0.3)
        assert rhs_output(c, p, D8)[0][0] == 0.0


def test_rhs_linear_constant_mobility_decoupling():
    # analytic: dc_1/dt = -mu (1+delta) lambda_1^2 c_1, other modes untouched
    mu, delta, c1 = 0.07, 0.2, 0.5
    p = ModelParams(n=2, delta=delta, epsilon=mu, pressure_mode="linear",
                    mobility_mode="constant")
    u = unit_mode(1, D8, c1, base=1.0)
    dc = rhs_output(u, p, D8)[0]
    lam1 = eigenvalue(1, D8)
    expect = np.zeros(9)
    expect[1] = -mu * (1 + delta) * lam1**2 * c1
    np.testing.assert_allclose(dc, expect, atol=1e-12)


def test_step_trivial_dynamics():
    p = ModelParams(n=2, epsilon=0.3, delta=0.1)
    u0 = unit_mode(0, D8, 2.0)
    spec = IntegratorSpec(t_end=1.0, method="rk4", dt=0.25, snapshot_times=(0.25,))
    res = simulate(u0, spec, p, D8)
    assert res.nodes.t[1] == 0.25
    np.testing.assert_array_equal(res.coeffs[0], u0.coeffs)


def test_step_adaptive_matches_exponential_decay():
    # single decoupled mode in linear/constant-mobility form: the amplitude
    # follows exp(-mu (1+delta) lambda_1^2 t)
    mu, delta, c1 = 0.05, 0.1, 0.4
    d = DomainSpec(half_length=1.0, modes=4)
    p = ModelParams(n=2, delta=delta, epsilon=mu, pressure_mode="linear",
                    mobility_mode="constant")
    lam1 = eigenvalue(1, d)
    rate = mu * (1 + delta) * lam1**2
    t_end = np.log(10.0) / rate  # one 10x decay time
    spec = IntegratorSpec(t_end=t_end, rtol=1e-9, atol=1e-12, snapshot_times=(t_end,))
    res = simulate(unit_mode(1, d, c1, base=1.0), spec, p, d)
    exact = c1 * np.exp(-rate * res.nodes.t[-1])
    assert abs(res.coeffs[-1][1] - exact) / exact <= 1e-6
    # dt telemetry spans the accepted steps (the step sizes are the node gaps)
    st = res.stats
    assert 0.0 < st.dt_min <= st.dt_last <= st.dt_max
    steps = np.diff(res.nodes.t)
    assert st.accepted == steps.size and st.dt_min < st.dt_max
    np.testing.assert_allclose([st.dt_min, st.dt_max, st.dt_last],
                               [steps.min(), steps.max(), steps[-1]], rtol=1e-9)


def test_rk4_observed_order():
    # Richardson order estimate on a smooth nonlinear run
    d = DomainSpec(half_length=1.0, modes=6)
    p = ModelParams(n=2, delta=0.1, epsilon=0.5)
    u0 = project(lambda x: 1.0 + 0.3 * np.cos(np.pi * x / 1.0), d)
    t_end = 2e-3
    sols = []
    for dt in (1e-4, 5e-5, 2.5e-5):
        spec = IntegratorSpec(t_end=t_end, method="rk4", dt=dt,
                              snapshot_times=(t_end,))
        res = simulate(u0, spec, p, d)
        sols.append(res.coeffs[-1])
    e1 = np.max(np.abs(sols[0] - sols[1]))
    e2 = np.max(np.abs(sols[1] - sols[2]))
    order = np.log2(e1 / e2)
    assert 3.6 < order < 4.4


def test_simulate_constant_data():
    p = ModelParams(n=2, delta=0.1, epsilon=0.1, eta=0.05)
    spec = IntegratorSpec(t_end=1.0, snapshot_times=tuple(np.linspace(0, 1, 5)))
    res = simulate(unit_mode(0, D8, 1.0 * np.sqrt(2.0) / np.sqrt(2.0)), spec, p, D8)
    for i in range(5):
        np.testing.assert_array_equal(res.coeffs[i], res.coeffs[0])
    assert res.dissipation_cum[-1] == 0.0


def test_simulate_exact_mass_conservation():
    p = ModelParams(n=2, delta=0.05, epsilon=0.2)
    d = DomainSpec(half_length=1.0, modes=8)
    u0 = project(lambda x: 1.0 + 0.3 * np.cos(np.pi * x), d)
    spec = IntegratorSpec(t_end=0.02, snapshot_times=tuple(np.linspace(0, 0.02, 7)))
    res = simulate(u0, spec, p, d)
    masses = res.coeffs[:, 0] * np.sqrt(2.0)
    ref = mass(u0, d)
    assert np.max(np.abs(masses - ref)) <= 1e-12 * abs(ref)


def test_simulate_relaxes_to_mean_with_full_mobility():
    # epsilon = 1, nonlinear pressure: u -> mean(u0), p -> 0
    d = DomainSpec(half_length=1.0, modes=6)
    p = ModelParams(n=2, delta=0.1, epsilon=1.0)
    u0 = unit_mode(1, d, 0.3, base=1.0)
    lam1 = eigenvalue(1, d)
    t_end = np.log(1e4) / (1.0 * (1 + p.delta) * lam1**2)
    spec = IntegratorSpec(t_end=t_end, snapshot_times=(t_end,))
    res = simulate(u0, spec, p, d)
    final = res.coeffs[-1]
    assert abs(final[0] - u0.coeffs[0]) < 1e-12
    assert np.max(np.abs(final[1:])) < 1e-4 * 0.3


def test_energy_identity_residual_small_and_refining():
    # E(t) + cumulative dissipation = E(0) up to time-integration error only;
    # residual shrinks when tolerances tighten
    d = DomainSpec(half_length=1.0, modes=8)
    p = ModelParams(n=2, delta=0.1, epsilon=0.1, eta=0.05)
    u0 = project(lambda x: 1.0 + 0.2 * np.cos(np.pi * x), d)
    residuals = []
    for rtol in (1e-6, 1e-8):
        spec = IntegratorSpec(t_end=5e-3, rtol=rtol, atol=rtol * 1e-2)
        res = simulate(u0, spec, p, d)
        E = res.nodes.energy
        resid = np.abs(E + res.nodes.dissipation_cum - E[0])
        residuals.append(resid.max())
    assert residuals[0] <= 10 * 1e-6 * 10  # loose absolute sanity bound
    assert residuals[1] < residuals[0]


def test_simulate_energy_monotone():
    d = DomainSpec(half_length=1.0, modes=8)
    p = ModelParams(n=2, delta=0.1, epsilon=0.1)
    u0 = project(lambda x: 1.0 + 0.25 * np.cos(np.pi * x), d)
    spec = IntegratorSpec(t_end=5e-3, rtol=1e-8, atol=1e-10)
    res = simulate(u0, spec, p, d)
    E = res.nodes.energy
    assert np.all(np.diff(E) <= 1e-9 * E[0])


def test_n_refinement_l2_agreement():
    # trajectories at N and 2N agree increasingly well in L2
    t_end = 2e-3
    p = ModelParams(n=2, delta=0.1, epsilon=0.1)
    finals = {}
    for N in (8, 16, 32):
        d = DomainSpec(half_length=1.0, modes=N)
        u0 = project(lambda x: 1.0 + 0.3 * np.cos(np.pi * x) + 0.05 * np.cos(2 * np.pi * x), d)
        spec = IntegratorSpec(t_end=t_end, snapshot_times=(t_end,), rtol=1e-8, atol=1e-10)
        finals[N] = simulate(u0, spec, p, d).coeffs[-1]
    # compare in coefficient space (finer field truncated)
    d1 = np.sqrt(np.sum((finals[16][:9] - finals[8]) ** 2) + np.sum(finals[16][9:] ** 2))
    d2 = np.sqrt(np.sum((finals[32][:17] - finals[16]) ** 2) + np.sum(finals[32][17:] ** 2))
    assert d2 < d1


def test_anchor_violation_aborts():
    d = DomainSpec(half_length=1.0, modes=6)
    p = ModelParams(n=2, delta=0.1, epsilon=0.5, entropy_anchor=0.5)
    u0 = unit_mode(1, d, 0.3, base=1.0)  # sup u ~ 1.24 > a
    spec = IntegratorSpec(t_end=1e-3)
    with pytest.raises(SimulationAbort, match="anchor"):
        simulate(u0, spec, p, d)


def test_weak_residual_zero_on_positive_run():
    d = DomainSpec(half_length=1.0, modes=8)
    p = ModelParams(n=2, delta=0.1, epsilon=0.1)
    u0 = project(lambda x: 1.0 + 0.2 * np.cos(np.pi * x), d)
    spec = IntegratorSpec(t_end=1e-3, rtol=1e-8, atol=1e-10)
    res = simulate(u0, spec, p, d, track_weak_residual=True)
    assert res.nodes.weak_residual is not None
    assert res.nodes.weak_residual.max() <= 1e-11


def test_integrator_spec_validation():
    with pytest.raises(ValueError):
        IntegratorSpec(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorSpec(t_end=1.0, method="rk4")
    with pytest.raises(ValueError):
        IntegratorSpec(t_end=1.0, snapshot_times=(2.0,))


def test_dissipation_cumulative_nonnegative_and_increasing():
    d = DomainSpec(half_length=1.0, modes=8)
    p = ModelParams(n=2, delta=0.1, epsilon=0.1)
    u0 = project(lambda x: 1.0 + 0.2 * np.cos(np.pi * x), d)
    spec = IntegratorSpec(t_end=2e-3, rtol=1e-8, atol=1e-10)
    res = simulate(u0, spec, p, d)
    assert np.all(np.diff(res.nodes.dissipation_cum) >= -1e-15)
    assert np.all(np.diff(res.nodes.entropy_dissipation_cum) >= -1e-15)
    for series in res.nodes.weighted_dissipation_cum.values():
        assert np.all(np.diff(series) >= -1e-15)
