from pathlib import Path

import numpy as np
import pytest

from capillary1d import kernels
from capillary1d.basis import (
    DomainSpec,
    eigenvalue,
    mass,
    project,
    tables,
)
from capillary1d.galerkin import (
    _RKF45,
    AUX_CHUNK,
    IntegratorSpec,
    SimulationAbort,
    _hermite,
    _initial_dt,
    simulate,
)
from capillary1d.model import ModelParams

D8 = DomainSpec(half_length=1.0, modes=8)


def unit_mode(j, domain, amp=1.0, base=0.0):
    c = np.zeros(domain.modes + 1)
    c[0] = base * np.sqrt(2 * domain.half_length)
    c[j] = amp
    return c


def rhs(u, p, domain):
    return kernels.rhs(u, tables(domain), p)[0]


def test_rhs_constant_state_is_steady():
    p = ModelParams(n=2, delta=0.1, epsilon=0.1, eta=0.1)
    dc = rhs(unit_mode(0, D8, 3.0), p, D8)
    np.testing.assert_array_equal(dc, 0.0)


def test_rhs_mass_component_identically_zero():
    rng = np.random.default_rng(2)
    p = ModelParams(n=2, delta=0.1, epsilon=0.05, eta=0.2)
    for _ in range(10):
        c = rng.standard_normal(9) * 0.3
        assert rhs(c, p, D8)[0] == 0.0


def test_rhs_linear_constant_mobility_decoupling():
    # analytic: dc_1/dt = -mu (1+delta) lambda_1^2 c_1, other modes untouched
    mu, delta, c1 = 0.07, 0.2, 0.5
    p = ModelParams(n=2, delta=delta, epsilon=mu, pressure_mode="linear",
                    mobility_mode="constant")
    u = unit_mode(1, D8, c1, base=1.0)
    dc = rhs(u, p, D8)
    lam1 = eigenvalue(1, D8)
    expect = np.zeros(9)
    expect[1] = -mu * (1 + delta) * lam1**2 * c1
    np.testing.assert_allclose(dc, expect, atol=1e-12)


def test_step_trivial_dynamics():
    # a flat film's slope is exactly zero, and so is every step's error: the
    # first step is 1e-3 t_end, each later one grows by the controller's cap
    # of 5 until the last lands on t_end, and every state is u0
    p = ModelParams(n=2, epsilon=0.3, delta=0.1)
    u0 = unit_mode(0, D8, 2.0)
    spec = IntegratorSpec(t_end=1.0, snapshot_times=(0.25,))
    res = simulate(u0, spec, p, D8)
    steps = np.diff(res.nodes.t)
    assert steps[0] == 1e-3 and res.stats.rejected == 0
    np.testing.assert_allclose(steps[1:-1] / steps[:-2], 5.0, rtol=1e-12)
    assert res.nodes.t[-1] == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_array_equal(res.coeffs[0], u0)


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
    # the order of simulate's own loop (the name is the retired fixed-step
    # RK4's): at a tolerance every step meets, the steps are t_end times
    # (1e-3, 5e-3, 0.025, 0.125, 0.625, 0.219), the first step and the
    # controller's growth cap, so the error of a smooth nonlinear run
    # against a tight one falls as t_end^6 when t_end halves, the local order
    # of the propagated fifth-order row (5.81 and 5.91 measured)
    d = DomainSpec(half_length=1.0, modes=4)
    p = ModelParams(n=2, delta=0.1, epsilon=0.5)
    u0 = project(lambda x: 1.0 + 0.3 * np.cos(np.pi * x / 1.0), d)
    errs = []
    for t_end in (4e-4, 2e-4, 1e-4):
        loose = IntegratorSpec(t_end=t_end, rtol=0.5, atol=1e300, snapshot_times=(t_end,))
        tight = IntegratorSpec(t_end=t_end, rtol=1e-14, atol=1e-16, snapshot_times=(t_end,))
        res = simulate(u0, loose, p, d)
        assert (res.stats.accepted, res.stats.rejected) == (6, 0)
        errs.append(np.max(np.abs(res.coeffs[-1] - simulate(u0, tight, p, d).coeffs[-1])))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all((5.6 < orders) & (orders < 6.4))


def _states_per_step():
    # the chunk states of one accepted step, as simulate_stack lays them out:
    # the new state, then the inputs of the stages lo..hi-1 that span every
    # later stage of nonzero propagated weight (5 in all)
    weights = _RKF45[1]
    read = [i for i in range(1, len(weights)) if weights[i] != 0.0]
    lo, hi = read[0], read[-1] + 1
    return 1 + hi - lo


def _chunk_passes(accepted):
    # the states of each aux pass of one member after t = 0: full chunks of
    # AUX_CHUNK steps, _states_per_step states a step, and the rest at the
    # run's end
    ns = _states_per_step()
    full, rest = divmod(accepted, AUX_CHUNK)
    return [ns * AUX_CHUNK] * full + ([ns * rest] if rest else [])


def _one_state_at_a_time(true_integrands, passes):
    # the aux pass evaluated on each state of its stack alone; passes gets
    # the number of states of every pass
    def integrands(c, work, t, params):
        passes.append(c.shape[0])
        return np.stack([true_integrands(c[i:i + 1], tuple(a[i:i + 1] for a in work), t,
                                         params)[0] for i in range(c.shape[0])])
    return integrands


# (single run's spec, stack case): a run with rejected steps next to a stack
# whose members' steps stand apart, and a short run next to a stack whose
# members step together (the second id is the retired fixed-step RK4's)
@pytest.mark.parametrize("spec, case", [
    (IntegratorSpec(t_end=5e-3, rtol=1e-8, atol=1e-10,
                    snapshot_times=(0.0, 3e-4, 1e-3, 1.7e-3, 5e-3)), "tiny-eta"),
    (IntegratorSpec(t_end=1e-3, rtol=1e-8, atol=1e-10,
                    snapshot_times=(0.0, 3.1e-4, 7e-4, 1e-3)), "eps-anchors"),
], ids=["rkf45", "rk4"])
def test_stage_aux_prefixes_change_no_output(spec, case, monkeypatch):
    # all of aux comes from one pass per chunk of accepted steps, over each
    # step's new state and the stages whose propagated weight dq reads
    # (stages 2-5), passed early when a stack regroups and at the run's end,
    # and from one pass over the initial state alone at t = 0; a rejected
    # step enters none.  A pass that takes its states one at a time gives
    # the same run to the last bit, for one member and for a stack
    from capillary1d.galerkin import simulate_stack

    true_integrands = kernels.integrands
    d = DomainSpec(half_length=1.0, modes=10)
    p = ModelParams(n=2, delta=0.1, epsilon=0.1, eta=0.05)
    u0 = project(lambda x: 1.0 + 0.4 * np.cos(np.pi * x) + 0.1 * np.cos(2 * np.pi * x), d)
    passes = []
    monkeypatch.setattr(kernels, "integrands", _one_state_at_a_time(true_integrands, passes))
    one = simulate(u0, spec, p, d, track_weak_residual=True)
    monkeypatch.setattr(kernels, "integrands", true_integrands)
    together = simulate(u0, spec, p, d, track_weak_residual=True)
    st = together.stats
    assert st.accepted > 0
    assert (st.rejected > 0) == (case == "tiny-eta")
    assert passes == [1] + _chunk_passes(st.accepted)
    _assert_bit_identical(one, together)

    # the stack, with the pass one state at a time, against the members run
    # one at a time
    u0s, _, params, domain = _stack_members(case)
    member_spec = IntegratorSpec(t_end=spec.t_end / 10, rtol=spec.rtol, atol=spec.atol,
                                 snapshot_times=(0.0, spec.t_end / 30, spec.t_end / 10))
    serial = [simulate(u, member_spec, q, domain, track_weak_residual=True)
              for u, q in zip(u0s, params)]
    steps = {(r.stats.accepted, r.stats.rejected) for r in serial}
    assert (len(steps) > 1) == (case == "tiny-eta")
    passes.clear()
    monkeypatch.setattr(kernels, "integrands", _one_state_at_a_time(true_integrands, passes))
    results, failure = simulate_stack(u0s, member_spec, params, domain, track_weak_residual=True)
    assert failure is None
    assert len(results) == len(serial)
    for a, b in zip(serial, results):
        _assert_bit_identical(a, b)
    # ns states per step that stands for at least one member, whole steps in
    # every pass
    ns = _states_per_step()
    accepted = [r.stats.accepted for r in serial]
    assert passes[0] == 1
    assert all(0 < n <= ns * AUX_CHUNK and n % ns == 0 for n in passes[1:])
    assert 1 + ns * max(accepted) <= sum(passes) <= 1 + ns * sum(accepted)


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
    assert abs(final[0] - u0[0]) < 1e-12
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
    # the spectral rate: doubling N again gains more than two digits (d1 is
    # about 2.2e-4, d2 about 3.2e-7)
    assert d2 <= d1 / 100


def test_snapshots_stay_close_to_a_tight_run():
    # the reference config's model and initial data at N = 8: the snapshots'
    # c and D, which come from cubic Hermite dense output inside the steps,
    # stay within 3x of what the 4th-order propagation measured (c 2.53e-8,
    # D 2.46e-8 relative) against the same run at rtol 1e-12, atol 1e-14;
    # the 5th-order propagation measures 6.7e-9 and 1.2e-8
    import dataclasses

    from capillary1d.config import apply_overrides, load_config, resolve_config

    path = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
    rc = resolve_config(apply_overrides(load_config(str(path)), ["domain.N=8"]))
    assert rc.spec.snapshot_times == tuple(np.linspace(0.0, 0.02, 9))
    run = simulate(rc.u0, rc.spec, rc.params, rc.domain)
    tight = simulate(rc.u0, dataclasses.replace(rc.spec, rtol=1e-12, atol=1e-14), rc.params,
                     rc.domain)
    assert np.max(np.abs(run.coeffs - tight.coeffs)) < 7.6e-8
    D = tight.dissipation_cum
    assert np.max(np.abs(run.dissipation_cum - D)) < 7.4e-8 * np.max(np.abs(D))


def test_anchor_violation_aborts():
    d = DomainSpec(half_length=1.0, modes=6)
    p = ModelParams(n=2, delta=0.1, epsilon=0.5, entropy_anchor=0.5)
    u0 = unit_mode(1, d, 0.3, base=1.0)  # sup u ~ 1.24 > a
    spec = IntegratorSpec(t_end=1e-3)
    with pytest.raises(SimulationAbort, match="anchor"):
        simulate(u0, spec, p, d)


def _lifting_rhs(true_rhs, row, at, value, calls, lifted_at):
    # kernels.rhs that sets one grid value of u to value at the at-th call
    # at the accepted states (the one whose c is no buffer row), in the
    # workspace the call fills, for member row of a stack; calls gets one
    # entry per call and lifted_at the number of calls made at the lift
    states = []

    def lifting_rhs(c, *args):
        out = true_rhs(c, *args)
        calls.append(1)
        if c.base is None:
            states.append(1)
            if len(states) == at:
                u = out[2]
                (u[row] if u.ndim == 2 else u)[0] = value
                lifted_at.append(len(calls))
        return out
    return lifting_rhs


@pytest.mark.parametrize("where", ["single", "stack member"])
def test_anchor_crossed_after_t0_aborts_at_that_state(where, monkeypatch):
    # sup|u| at t > 0 comes from the u of the call at the accepted state: a
    # call that lifts it to twice the anchor at the 5th state call (the 4th
    # accepted state) aborts the run at that state's time, for a run by
    # itself and for the member of a stack it lifts
    from capillary1d.galerkin import simulate_stack

    if where == "single":
        params = [ModelParams(n=2, delta=0.1, epsilon=0.1, eta=0.05, entropy_anchor=3.0)]
        u0s, spec, domain = [_step_u0()], STEP_SPECS[0], STEP_DOMAIN
        lifted = 0
    else:
        # members that step together, so the 5th call at the accepted states
        # is every member's 5th accepted state
        u0s, spec, params, domain = _stack_members("eps-anchors")
        lifted = 1
    clean = simulate(u0s[lifted], spec, params[lifted], domain)
    anchor = params[lifted].entropy_anchor
    assert clean.stats.accepted > 5 and anchor is not None
    true_rhs = kernels.rhs
    calls, lifted_at = [], []
    lifting_rhs = _lifting_rhs(true_rhs, lifted, 5, 2 * anchor, calls, lifted_at)

    monkeypatch.setattr(kernels, "rhs", lifting_rhs)
    results, failure = simulate_stack(u0s, spec, params, domain)
    assert str(failure) == (f"entropy anchor violated at t = {clean.nodes.t[4]:.6g}: "
                            f"sup|u| = {2 * anchor:.6g} >= a = {anchor:.6g}")
    # the members before the one that aborts run to t_end, bit for bit
    assert len(results) == lifted
    for u0, p, res in zip(u0s, params, results):
        monkeypatch.setattr(kernels, "rhs", true_rhs)
        _assert_bit_identical(simulate(u0, spec, p, domain), res)
    if where == "single":
        # the run stops at the state it aborts at: no kernel call after it
        assert len(calls) == lifted_at[0]
        monkeypatch.setattr(kernels, "rhs", _lifting_rhs(true_rhs, lifted, 5, 2 * anchor, [], []))
        with pytest.raises(SimulationAbort) as abort:
            simulate(u0s[0], spec, params[0], domain)
        assert str(abort.value) == str(failure)


def test_step_size_underflow_aborts(monkeypatch):
    # a slope that flips sign from one kernel call to the next is rough at
    # every step size, so no step meets a tolerance below roundoff and the
    # controller shrinks dt under DT_MIN instead of stalling
    true_rhs = kernels.rhs
    calls = []

    def rough_rhs(c, *args):
        calls.append(1)
        c_dot, *rest = true_rhs(c, *args)
        return (c_dot + (-1.0) ** len(calls), *rest)

    monkeypatch.setattr(kernels, "rhs", rough_rhs)
    u0 = project(lambda x: 1.0 + 0.5 * (1.0 + np.cos(np.pi * x)), D8)
    spec = IntegratorSpec(t_end=1e-3, rtol=np.finfo(float).eps, atol=1e-300)
    with pytest.raises(SimulationAbort, match="step size underflow at t = 0:"):
        simulate(u0, spec, ModelParams(n=2, delta=0.1, epsilon=0.1), D8)


def test_horizon_below_the_end_tolerance_keeps_u0():
    # t_end under the end tolerance takes no step: the trailing-snapshot loop
    # fills every snapshot after t = 0 with u0, bit for bit
    u0 = project(lambda x: 1.0 + 0.5 * (1.0 + np.cos(np.pi * x)), D8)
    spec = IntegratorSpec(t_end=1e-13, snapshot_times=(0.0, 5e-14, 1e-13))
    res = simulate(u0, spec, ModelParams(n=2, delta=0.1, epsilon=0.1), D8)
    assert (res.stats.accepted, res.stats.rejected) == (0, 0)
    assert [row.tobytes() for row in res.coeffs] == [u0.tobytes()] * 3
    np.testing.assert_array_equal(res.dissipation_cum, 0.0)


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
    with pytest.raises(ValueError, match="unknown method 'rk4'"):
        IntegratorSpec(t_end=1.0, method="rk4")
    with pytest.raises(ValueError):
        IntegratorSpec(t_end=1.0, snapshot_times=(2.0,))
    # rkf45 chooses its own steps: the spec has no field for a step size
    with pytest.raises(TypeError):
        IntegratorSpec(t_end=1.0, dt=1e-4)


@pytest.mark.parametrize("u0, message", [
    (np.ones((1, 9)), r"must have shape \(9,\)"),
    (np.ones(8), r"must have shape \(9,\)"),
    (np.ones(10), r"must have shape \(9,\)"),
    (np.array([1.0, np.nan] + [0.0] * 7), "must be finite"),
    (np.array([1.0, np.inf] + [0.0] * 7), "must be finite"),
], ids=["2-D", "short", "long", "nan", "inf"])
def test_simulate_refuses_a_bad_u0(u0, message):
    # u0 is one finite coefficient vector of shape (N+1,); a stack goes to
    # simulate_stack as a list.  An infinite one would otherwise reach the
    # kernel and warn before the run aborts.
    spec = IntegratorSpec(t_end=1e-3)
    with pytest.raises(ValueError, match="initial coefficients " + message):
        simulate(u0, spec, ModelParams(n=2, delta=0.1, epsilon=0.1), D8)


def test_dissipation_cumulative_nonnegative_and_increasing():
    d = DomainSpec(half_length=1.0, modes=8)
    p = ModelParams(n=2, delta=0.1, epsilon=0.1)
    u0 = project(lambda x: 1.0 + 0.2 * np.cos(np.pi * x), d)
    spec = IntegratorSpec(t_end=2e-3, rtol=1e-8, atol=1e-10)
    res = simulate(u0, spec, p, d)
    assert np.all(np.diff(res.nodes.dissipation_cum) >= -1e-15)
    assert np.all(np.diff(res.nodes.entropy_dissipation_cum) >= -1e-15)


# -- the Runge-Kutta arithmetic ----------------------------------------------

STEP_DOMAIN = DomainSpec(half_length=1.0, modes=10)
STEP_PARAMS = ModelParams(n=2, delta=0.1, epsilon=0.1, eta=0.05)
# the default tolerances, and a looser tolerance over a shorter run (its id is
# the retired fixed-step RK4's)
STEP_SPECS = [
    IntegratorSpec(t_end=2e-3, rtol=1e-8, atol=1e-10),
    IntegratorSpec(t_end=1e-3, rtol=1e-5, atol=1e-7),
]
STEP_IDS = ["rkf45", "rk4"]


def _step_u0():
    return project(lambda x: 1.0 + 0.4 * np.cos(np.pi * x) + 0.1 * np.cos(2 * np.pi * x),
                   STEP_DOMAIN)


def _combine(y, dt, weights, slopes):
    # the plain form of a Runge-Kutta sum: y + dt * sum_i w_i k_i over the
    # nonzero weights, first to last; simulate's row updates must match it to
    # the last bit
    out = None
    for wi, ki in zip(weights, slopes):
        if wi != 0.0:
            if out is None:
                out = y + dt * wi * ki
            else:
                out += dt * wi * ki
    return out


def _slope_and_aux(y):
    """kernels.rhs's slope at y and the aux pass over y alone."""
    t = tables(STEP_DOMAIN)
    G = t.w.shape[0]
    work = (np.empty((1, 2 * G)), *np.empty((4, 1, G)))
    k = kernels.rhs(y, t, STEP_PARAMS, tuple(a[0] for a in work))[0]
    return k, kernels.integrands(y[None], work, t, STEP_PARAMS)[0]


def _reference_step(c, dt):
    """One step by the plain sums: (stage inputs, c_new, embedded, dq)."""
    rows, weights, embedded = _RKF45
    inputs, ks, qds = [], [], []
    for row in rows:
        y = c if not row else _combine(c, dt, row, ks)
        inputs.append(y)
        k, aux = _slope_and_aux(y)
        ks.append(k)
        qds.append(aux[:2])  # D and S
    return (inputs[1:], _combine(c, dt, weights, ks), _combine(c, dt, embedded, ks),
            _combine(np.zeros(2), dt, weights, qds))


@pytest.mark.parametrize("row, lo, hi", [(1, 4.6, 5.4), (2, 3.6, 4.4)],
                         ids=["propagated", "embedded"])
def test_rkf45_rows_observed_order(row, lo, hi):
    # each row of Fehlberg's pair, propagated on its own at fixed dt by the
    # plain sums, has its order by Richardson: the propagated row 5 (5.04
    # measured), the embedded one 4 (4.11)
    a_rows, weights = _RKF45[0], _RKF45[row]
    d = DomainSpec(half_length=1.0, modes=4)
    p = ModelParams(n=2, delta=0.1, epsilon=0.5)
    t = tables(d)
    u0 = project(lambda x: 1.0 + 0.3 * np.cos(np.pi * x), d)
    t_end = 2e-3
    finals = []
    for dt in (4e-5, 2e-5, 1e-5):
        c = u0.copy()
        for _ in range(round(t_end / dt)):
            ks = []
            for a in a_rows:
                ks.append(kernels.rhs(c if not a else _combine(c, dt, a, ks), t, p)[0])
            c = _combine(c, dt, weights, ks)
        finals.append(c)
    e1 = np.max(np.abs(finals[0] - finals[1]))
    e2 = np.max(np.abs(finals[1] - finals[2]))
    assert lo < np.log2(e1 / e2) < hi


def _real_stability_interval(rows, weights):
    # the largest X with |R(-x)| <= 1 on (0, X], where R(z) = 1 + z b^T (I -
    # z A)^-1 1 = 1 + sum_k z^k b^T A^(k-1) 1 is the stability polynomial of
    # the explicit tableau (A strictly lower triangular)
    s = len(weights)
    A = np.zeros((s, s))
    for i, row in enumerate(rows):
        A[i, :i] = row
    terms, v = [1.0], np.ones(s)
    for _ in range(s):
        terms.append(np.dot(weights, v))
        v = A @ v
    x = np.arange(1, 50001) * 1e-4  # (0, 5] on a 1e-4 grid
    R = np.polynomial.polynomial.polyval(-x, terms)
    return x[np.argmax(np.abs(R) > 1.0) - 1]


def test_rkf45_propagated_row_has_the_wider_stability_interval():
    # the fifth-order row that RKF45 propagates reaches 3.68 along the
    # negative real axis, where a stiff run's dt sits, against 3.02 for the
    # fourth-order row it keeps as the error estimate
    rows, weights, embedded = _RKF45
    assert 3.6 < _real_stability_interval(rows, weights) < 3.7
    assert 3.0 < _real_stability_interval(rows, embedded) < 3.05


@pytest.mark.parametrize("spec", STEP_SPECS, ids=STEP_IDS)
def test_row_updates_match_the_plain_sums(spec, monkeypatch):
    # the first step of a run, stepped by hand with the plain sums: stage
    # inputs, propagated and embedded solutions and the dissipation increment
    # agree bit for bit
    true_rhs, true_integrands = kernels.rhs, kernels.integrands
    # ("stage" or "state", input, last row of the stage buffer at the call)
    # or ("pass", states, None); the call at the accepted states is the one
    # whose input is no buffer row
    events = []
    buffer = []  # the buffer the stage inputs are rows of

    def recording_rhs(c, *args):
        if c.base is not None:
            buffer[:] = [c.base]
        events.append(("stage" if c.base is not None else "state", c.copy(),
                       buffer[0][-1].copy() if buffer else None))
        return true_rhs(c, *args)

    def recording_integrands(c, *args):
        events.append(("pass", c.shape[0], None))
        return true_integrands(c, *args)

    monkeypatch.setattr(kernels, "rhs", recording_rhs)
    monkeypatch.setattr(kernels, "integrands", recording_integrands)
    u0 = _step_u0()
    res = simulate(u0, spec, STEP_PARAMS, STEP_DOMAIN)
    n_stages = len(_RKF45[1])
    # the first step was accepted: the call and the pass at u0, the step's
    # stage calls, then the call at c_new
    kinds = [kind for kind, _, _ in events[:n_stages + 2]]
    assert kinds == ["state", "pass"] + ["stage"] * (n_stages - 1) + ["state"]
    # every later pass holds _states_per_step states for each call at an
    # accepted state since the last pass: a full chunk of steps, and the
    # rest at the run's end
    steps, passes = [0], []
    for kind, n, _ in events[2:]:
        if kind == "state":
            steps[-1] += 1
        elif kind == "pass":
            passes.append(n)
            steps.append(0)
    assert steps[-1] == 0 and passes == _chunk_passes(res.stats.accepted)
    calls = [e for e in events if e[0] != "pass"]

    c0 = u0.astype(float)
    k0 = true_rhs(c0, tables(STEP_DOMAIN), STEP_PARAMS)[0]
    dt = _initial_dt(spec, c0, k0)
    inputs, c_new, emb, dq = _reference_step(c0, dt)
    for (_, got, _), want in zip(calls[1:n_stages], inputs):
        assert np.array_equal(got, want)
    assert np.array_equal(calls[n_stages][1], c_new)
    assert res.nodes.t[1] == dt
    # the buffer's last row holds the embedded solution when the kernel is
    # called at c_new
    assert np.array_equal(calls[n_stages][2], emb)
    q1 = [res.nodes.dissipation_cum[1], res.nodes.entropy_dissipation_cum[1]]
    assert np.array_equal(q1, dq)


@pytest.mark.parametrize("spec", STEP_SPECS, ids=STEP_IDS)
@pytest.mark.parametrize("where", ["first stage", "last stage", "accepted state"])
def test_non_finite_slope_aborts_within_its_step(spec, where, monkeypatch):
    # a NaN slope from any call of the second step stops the run by the end
    # of that step, before another kernel call
    true_rhs = kernels.rhs
    calls = []
    state_calls = []  # the index of the call at each accepted state
    poison_from = None

    def poisoned_rhs(c, *args):
        calls.append(1)
        if c.base is None:
            # the call at an accepted state: its input is no buffer row
            state_calls.append(len(calls) - 1)
        out = true_rhs(c, *args)
        if poison_from is not None and len(calls) > poison_from:
            return (np.full_like(out[0], np.nan), *out[1:])
        return out

    monkeypatch.setattr(kernels, "rhs", poisoned_rhs)
    assert simulate(_step_u0(), spec, STEP_PARAMS, STEP_DOMAIN).stats.accepted > 2
    # the second step's stage calls follow the one at the first accepted state
    n_stages = len(_RKF45[1])
    poison_from, last_call = {
        "first stage": (state_calls[1] + 1, state_calls[1] + n_stages - 1),
        "last stage": (state_calls[1] + n_stages - 1, state_calls[1] + n_stages - 1),
        "accepted state": (state_calls[2], state_calls[2]),
    }[where]
    calls.clear()
    with pytest.raises(SimulationAbort, match="non-finite right-hand side"):
        simulate(_step_u0(), spec, STEP_PARAMS, STEP_DOMAIN)
    assert len(calls) == last_call + 1


@pytest.mark.parametrize("spec", STEP_SPECS, ids=STEP_IDS)
@pytest.mark.parametrize("index", [0, -1])
def test_a_nan_that_python_max_would_hide_aborts_within_its_step(spec, index, monkeypatch):
    # one NaN component of the last stage slope, first or last, which reaches
    # no other kernel call and so stays one component of c_out and c_emb:
    # Python's max keeps a leading NaN but drops a later one, so the
    # single-member screen must catch both before the step control reads
    # the error norm
    true_rhs = kernels.rhs
    calls = []
    poison_at = None

    def poisoned_rhs(c, *args):
        calls.append(1)
        out = true_rhs(c, *args)
        if len(calls) == poison_at:
            c_dot = out[0].copy()
            c_dot[index] = np.nan
            return (c_dot, *out[1:])
        return out

    monkeypatch.setattr(kernels, "rhs", poisoned_rhs)
    n_stages = len(_RKF45[1])
    # the last stage call of the second step (the first step was accepted)
    poison_at = 2 * n_stages
    with pytest.raises(SimulationAbort, match="non-finite right-hand side"):
        simulate(_step_u0(), spec, STEP_PARAMS, STEP_DOMAIN)
    assert len(calls) == 2 * n_stages


def test_rejected_steps_make_no_pass_and_the_call_counts_stay(monkeypatch):
    # one aux pass at t = 0 over the initial state and one per chunk of
    # accepted steps, 5 states a step, and no state of a rejected step; the
    # kernel calls, StepStats.rhs_calls and the tally keep the
    # counts they had when every call computed its own aux
    from capillary1d import galerkin

    true_rhs, true_integrands = kernels.rhs, kernels.integrands
    calls = {"rhs": 0, "integrands": 0, "states": 0}

    def counting_rhs(*args):
        calls["rhs"] += 1
        return true_rhs(*args)

    def counting_integrands(c, *args):
        calls["integrands"] += 1
        calls["states"] += c.shape[0]
        return true_integrands(c, *args)

    monkeypatch.setattr(kernels, "rhs", counting_rhs)
    monkeypatch.setattr(kernels, "integrands", counting_integrands)
    n0 = galerkin.rhs_calls_tally
    res = simulate(_step_u0(), IntegratorSpec(t_end=2e-2, rtol=1e-8, atol=1e-10),
                   STEP_PARAMS, STEP_DOMAIN)
    st = res.stats
    assert (st.accepted, st.rejected, st.rhs_calls) == (393, 11, 2414)
    assert calls == {"rhs": 2414, "integrands": 1 + len(_chunk_passes(393)),
                     "states": 1 + _states_per_step() * 393}
    assert galerkin.rhs_calls_tally - n0 == 2414


# -- stacks: several members stepped together ---------------------------------

STACK_TINY = {
    "schema_version": 1,
    "domain": {"l": 1.0, "N": 8, "oversample": 8},
    "model": {"n": 2.0, "delta": 0.1, "epsilon": 0.1, "eta": 0.0,
              "pressure_mode": "nonlinear", "entropy_anchor": "auto"},
    "initial_data": {"kind": "cosine_bump", "parameters": {"base": 1.0, "amplitude": 0.3}},
}

# (base config, swept model key, values, t_end, second t_end): the epsilon
# sweep of the benchmark in both orders, verify's delta sweep (criterion 6),
# a small bump under delta and eta, with eta = 0 next to capped members, and
# the benchmark's epsilon-sweep config under anchors that no run reaches, so
# that its members step together (at the first t_end each takes 133 accepted
# and 2 rejected steps).  The second t_end is that of the retired fixed-step
# RK4 runs, 100 of their steps
STACK_CASES = {
    "eps-sweep": ("perfbench/configs/eps_sweep.json", "epsilon", (1e-1, 1e-2, 1e-3), 2e-3, 1e-4),
    "eps-sweep-reversed": ("perfbench/configs/eps_sweep.json", "epsilon", (1e-3, 1e-2, 1e-1),
                           2e-3, 1e-4),
    "criterion-6": ("DELTA_SWEEP_RUN", "delta", (0.3, 0.1, 0.03, 0.01), 1e-3, 1e-4),
    "tiny-delta": (STACK_TINY, "delta", (0.3, 0.1, 0.03), 5e-4, 1e-3),
    "tiny-eta": (STACK_TINY, "eta", (1.0, 0.1, 0.01), 5e-4, 1e-3),
    "tiny-eta-zero": (STACK_TINY, "eta", (1.0, 0.1, 0.0), 5e-4, 1e-3),
    "eps-anchors": ("perfbench/configs/eps_sweep.json", "entropy_anchor", (2.0, 3.0, 4.0),
                    2e-3, 1e-4),
}


def _stack_members(case, horizon=0):
    """(u0s, spec, params, domain) of one STACK_CASES case, to its first
    (horizon 0) or second (horizon 1) t_end."""
    from pathlib import Path

    from capillary1d import verify
    from capillary1d.config import load_config, resolve_config

    base, key, values, *t_ends = STACK_CASES[case]
    if base == "DELTA_SWEEP_RUN":
        base = verify.DELTA_SWEEP_RUN
    elif isinstance(base, str):
        base = load_config(str(Path(__file__).resolve().parent.parent / base))
    rcs = []
    for v in values:
        cfg = {**base, "model": {**base["model"], key: v}}
        rcs.append(resolve_config(cfg))
    t_end = t_ends[horizon]
    spec = IntegratorSpec(t_end=t_end, snapshot_times=(0.0, t_end / 3, t_end))
    return [rc.u0 for rc in rcs], spec, [rc.params for rc in rcs], rcs[0].domain


def _assert_bit_identical(a, b, where="result"):
    import dataclasses

    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        name = f"{where}.{f.name}"
        if f.name == "nodes":
            _assert_bit_identical(x, y, name)
        elif isinstance(x, dict):
            assert list(x) == list(y), name
            for k in x:
                assert x[k].tobytes() == y[k].tobytes(), f"{name}[{k}]"
        elif isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
        else:
            assert x == y, name


@pytest.mark.parametrize("horizon", [0, 1], ids=["rkf45", "rk4"])
@pytest.mark.parametrize("case", list(STACK_CASES))
def test_stack_is_bit_identical_to_serial_runs(case, horizon):
    # every field of every member's result, with the weak residual tracked,
    # and the call tally advances by the serial total (the ids name the
    # first and second t_end, the second the retired fixed-step RK4's)
    from capillary1d import galerkin
    from capillary1d.galerkin import simulate_stack

    u0s, spec, params, domain = _stack_members(case, horizon)
    n0 = galerkin.rhs_calls_tally
    serial = [simulate(u0, spec, p, domain, track_weak_residual=True)
              for u0, p in zip(u0s, params)]
    n1 = galerkin.rhs_calls_tally
    stacked, failure = simulate_stack(u0s, spec, params, domain, track_weak_residual=True)
    assert failure is None
    assert len(stacked) == len(serial)
    for a, b in zip(serial, stacked):
        _assert_bit_identical(a, b)
    assert galerkin.rhs_calls_tally - n1 == n1 - n0 == sum(r.stats.rhs_calls for r in serial)
    # the members choose their own steps, so they accept and reject apart,
    # except where only the anchor differs
    steps = {(r.stats.accepted, r.stats.rejected) for r in serial}
    assert (len(steps) > 1) == (case != "eps-anchors")


def test_regroups_carve_the_chunk_out_of_one_store(monkeypatch):
    # the pass at t = 0 and every regroup of a stack, as its members leave,
    # lay their workspace over one store per run instead of allocating one:
    # the pass at t = 0 gets the store itself, every later workspace a view
    # of it, and every carved array is a C-contiguous view of it
    from capillary1d.galerkin import simulate_stack

    u0s, spec, params, domain = _stack_members("tiny-eta")
    true_workspace = kernels.workspace
    stores, carved = [], []

    def recording_workspace(shape, t, store=None):
        work = true_workspace(shape, t, store)
        stores.append(store)
        carved.extend(work)
        return work

    monkeypatch.setattr(kernels, "workspace", recording_workspace)
    results, failure = simulate_stack(u0s, spec, params, domain)
    assert failure is None and len(results) == len(u0s)
    run_store = stores[0]
    assert isinstance(run_store, np.ndarray) and run_store.base is None
    # the pass at t = 0, the first stack and one regroup as each member but
    # the last leaves
    assert len(stores) == 1 + len(u0s)
    assert all(s.base is run_store for s in stores[1:])
    assert all(a.flags.c_contiguous and a.base is run_store for a in carved)



@pytest.mark.parametrize("run", ["rkf45", "rk4", "stack", "eps-stack", "anchor-abort"])
def test_aux_chunk_boundaries_change_no_output(run, monkeypatch):
    # a chunk of 1 accepted step (one aux pass per accepted state), of 3 and
    # of AUX_CHUNK give the same runs to the last bit: a run with rejections
    # and snapshots inside chunks, a shorter run at a looser tolerance (its
    # id is the retired fixed-step RK4's), a stack whose members' steps
    # stand apart and which leave mid-chunk, a stack of the epsilon-sweep
    # config whose members step together, and an anchor abort mid-chunk in
    # that stack.  A chunk holds AUX_CHUNK steps whatever the grid and the
    # stack's width
    from capillary1d import galerkin
    from capillary1d.galerkin import simulate_stack

    if run in ("rkf45", "rk4"):
        spec = {"rkf45": IntegratorSpec(t_end=5e-3, rtol=1e-8, atol=1e-10,
                                        snapshot_times=(0.0, 3e-4, 1e-3, 1.7e-3, 5e-3)),
                "rk4": IntegratorSpec(t_end=1e-3, rtol=1e-5, atol=1e-7,
                                      snapshot_times=(0.0, 3.1e-4, 7e-4, 1e-3))}[run]
        u0s, params, domain = [_step_u0()], [STEP_PARAMS], STEP_DOMAIN
    elif run == "stack":
        u0s, spec, params, domain = _stack_members("tiny-eta")
    else:
        u0s, spec, params, domain = _stack_members("eps-anchors")
    true_rhs, true_integrands = kernels.rhs, kernels.integrands
    ns = _states_per_step()
    runs = {}
    for k in (1, 3, AUX_CHUNK):
        monkeypatch.setattr(galerkin, "AUX_CHUNK", k)
        passes = []

        def counting_integrands(c, *args):
            passes.append(c.shape[0])
            return true_integrands(c, *args)

        monkeypatch.setattr(kernels, "integrands", counting_integrands)
        if run == "anchor-abort":
            # the second member's 5th accepted state, inside a chunk of 3 and
            # of the default length
            anchor = params[1].entropy_anchor
            monkeypatch.setattr(kernels, "rhs", _lifting_rhs(true_rhs, 1, 6, 2 * anchor, [], []))
        runs[k] = simulate_stack(u0s, spec, params, domain, track_weak_residual=True), passes
    (results, failure), passes = runs[AUX_CHUNK]
    for k in (1, 3):
        (others, other_failure), other_passes = runs[k]
        assert str(other_failure) == str(failure)
        assert len(others) == len(results)
        for a, b in zip(others, results):
            _assert_bit_identical(a, b, f"AUX_CHUNK={k}")
        assert other_passes[0] == 1 and set(other_passes[1:]) <= set(range(ns, ns * k + 1, ns))
        assert sum(other_passes) == sum(passes)
    if run == "anchor-abort":
        assert str(failure).startswith("entropy anchor violated") and len(results) == 1
    else:
        assert failure is None and len(results) == len(u0s)
    accepted = [r.stats.accepted for r in results]
    if run == "rkf45":
        res = results[0]
        assert res.stats.rejected > 0
        # a snapshot falls on a step that is not the last of its chunk
        steps = np.searchsorted(res.nodes.t, spec.snapshot_times[1:-1])
        assert all(any(steps % k) for k in (3, AUX_CHUNK))
        # the snapshots' q half is the cubic Hermite of q and its slopes
        # [D, S] at the ends of the step it falls in, the slopes from the
        # accepted states (the inputs of the calls that are no buffer rows)
        # by the plain pass; the step size is taken from the node times, so
        # up to roundoff
        states = []

        def recording_rhs(c, *args):
            if c.base is None:
                states.append(c.copy())
            return true_rhs(c, *args)

        monkeypatch.setattr(kernels, "rhs", recording_rhs)
        monkeypatch.setattr(kernels, "integrands", true_integrands)
        simulate(u0s[0], spec, params[0], domain)
        q_nodes = np.stack([res.nodes.dissipation_cum, res.nodes.entropy_dissipation_cum], -1)
        for k, (s, i) in enumerate(zip(spec.snapshot_times[1:-1], steps), start=1):
            t0, t1 = res.nodes.t[i - 1:i + 1]
            slope0, slope1 = (_slope_and_aux(states[j])[1][:2] for j in (i - 1, i))
            want = _hermite((s - t0) / (t1 - t0), q_nodes[i - 1], slope0, q_nodes[i], slope1,
                            t1 - t0)
            got = [res.dissipation_cum[k], res.entropy_dissipation_cum[k]]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    if run == "stack":
        assert len({(r.stats.accepted, r.stats.rejected) for r in results}) > 1
        # a member leaves mid-chunk: a short pass before the run's last one
        assert len(set(accepted)) > 1
        assert min(runs[3][1][1:-1]) < 3 * ns
    if run == "eps-stack":
        # its 3 members at N = 16 step together, so its full passes hold
        # ns AUX_CHUNK states, as a single member's do
        assert len(u0s) == 3 and domain.modes == 16
        assert passes[1:] == _chunk_passes(accepted[0])
        assert max(passes) == ns * AUX_CHUNK

def test_stack_drops_the_members_from_the_first_abort_on(monkeypatch):
    # the last member aborts at its first step and the second later in time:
    # the stack keeps the first member's result and reports the second's abort
    from capillary1d.galerkin import simulate_stack

    u0s, spec, params, domain = _stack_members("tiny-eta")
    # the second member's modes decay below 0.97 of their start within the run
    a0 = float(np.abs(u0s[1][1:]).max())
    free = simulate(u0s[1], spec, params[1], domain)
    assert float(np.abs(free.coeffs[-1][1:]).max()) < 0.97 * a0
    true_rhs = kernels.rhs

    def failing_rhs(c, t, p, *args):
        c_dot, *rest = true_rhs(c, t, p, *args)
        eta = np.asarray(p.eta)[..., None]  # a stack holds one eta per member
        late = (eta == 0.1) & (np.abs(c[..., 1:]).max(axis=-1, keepdims=True) < 0.97 * a0)
        return (c_dot * np.where((eta == 0.01) | late, np.nan, 1.0), *rest)

    monkeypatch.setattr(kernels, "rhs", failing_rhs)
    with pytest.raises(SimulationAbort) as serial_abort:
        simulate(u0s[1], spec, params[1], domain)
    first = simulate(u0s[0], spec, params[0], domain)
    results, failure = simulate_stack(u0s, spec, params, domain)
    assert str(failure) == str(serial_abort.value) == "non-finite right-hand side"
    assert len(results) == 1
    _assert_bit_identical(first, results[0])
