"""The names the benchmark in perfbench/ reaches into must keep existing.

Tier-1 tests do not run perfbench, so a renamed or deleted layer function
would otherwise only show as a crash of ``perfbench/run.py --trace 1``.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from capillary1d import diagnostics, experiments, kernels, model
from capillary1d.basis import DomainSpec, project, tables
from capillary1d.config import load_config, resolve_config, run_config
from capillary1d.galerkin import IntegratorSpec, SimulationResult, simulate
from capillary1d.model import ModelParams, entropy_functions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr, name", _load_spans().LAYER_FUNCTIONS)
def test_traced_layer_function_resolves(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("path", sorted((PERFBENCH / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_benchmark_configs_resolve(path):
    # dense_output.json still sets diagnostics.r_values to its old default,
    # which resolve_config keeps accepting for it
    resolve_config(load_config(str(path)))


def test_sweep_spec_takes_jobs():
    # perfbench/workloads.py builds its epsilon sweep this way
    base = load_config(str(PERFBENCH / "configs" / "eps_sweep.json"))
    spec = experiments.SweepSpec(parameter="epsilon", values=(1e-1, 1e-2, 1e-3),
                                 base_config=base, jobs=1)
    assert spec.jobs == 1


def test_simulate_looks_up_the_kernel_at_call_time(monkeypatch):
    # perfbench's galerkin.rhs_calls check and the mass-leak negative control
    # both wrap kernels.rhs on the module; a kernel bound once into a closure
    # would run unwrapped and defeat them quietly
    true_rhs = kernels.rhs
    calls = []

    def counting_rhs(*args):
        calls.append(1)
        return true_rhs(*args)

    monkeypatch.setattr(kernels, "rhs", counting_rhs)
    domain = DomainSpec(half_length=1.0, modes=6)
    u0 = project(lambda x: 1.0 + 0.3 * np.cos(np.pi * x), domain)
    result = simulate(u0, IntegratorSpec(t_end=1e-3), ModelParams(n=2, delta=0.1, epsilon=0.1),
                      domain)
    # spans.py reads the step counts from what simulate returns
    assert isinstance(result, SimulationResult)
    assert result.stats.accepted > 0
    assert len(calls) == result.stats.rhs_calls


def test_rhs_returns_five_values_with_c_dot_first(monkeypatch):
    # perfbench/test_controls.py unpacks five values from kernels.rhs and
    # edits the first as the slope c_dot, and its rhs-count check takes a
    # run's kernel calls to be stats.rhs_calls: a leak added to c_dot[0]
    # must reach the run's mass, through exactly stats.rhs_calls calls
    domain = DomainSpec(half_length=1.0, modes=6)
    u0 = project(lambda x: 1.0 + 0.3 * np.cos(np.pi * x), domain)
    params = ModelParams(n=2, delta=0.1, epsilon=0.1)
    spec = IntegratorSpec(t_end=1e-3, snapshot_times=(0.0, 1e-3))
    out = kernels.rhs(u0.coeffs.copy(), tables(domain), params)
    assert len(out) == 5
    assert out[0].shape == u0.coeffs.shape and out[0][0] == 0.0  # dc/dt, mass mode zero
    clean = simulate(u0, spec, params, domain)

    true_rhs = kernels.rhs
    calls = []

    def leaky_rhs(c, *args):
        calls.append(1)
        c_dot, d, u, flux, ux = true_rhs(c, *args)
        c_dot = c_dot.copy()
        c_dot[..., 0] += 1e-4
        return (c_dot, d, u, flux, ux)

    monkeypatch.setattr(kernels, "rhs", leaky_rhs)
    leaky = simulate(u0, spec, params, domain)
    assert len(calls) == leaky.stats.rhs_calls
    assert clean.coeffs[-1][0] == u0.coeffs[0]
    assert leaky.coeffs[-1][0] - u0.coeffs[0] == pytest.approx(1e-4 * 1e-3, rel=1e-6)


def test_eps_sweep_steps_its_members_as_one_stack(monkeypatch):
    # the benchmark's epsilon sweep: its members step as one stack from the
    # first kernel call on, and each passes through experiments._run_member,
    # which spans.py times
    base = load_config(str(PERFBENCH / "configs" / "eps_sweep.json"))
    values = (1e-1, 1e-2, 1e-3)
    true_rhs, true_run_member = kernels.rhs, experiments._run_member
    shapes, members = [], []

    def recording_rhs(c, *args):
        shapes.append(c.shape)
        return true_rhs(c, *args)

    def recording_run_member(cfgs):
        members.extend(cfg["model"]["epsilon"] for cfg in cfgs)
        return true_run_member(cfgs)

    monkeypatch.setattr(kernels, "rhs", recording_rhs)
    monkeypatch.setattr(experiments, "_run_member", recording_run_member)
    spec = experiments.SweepSpec(parameter="epsilon", values=values, base_config=base, jobs=1)
    assert experiments.run_sweep(spec)["complete"]
    assert shapes[0] == (3, base["domain"]["N"] + 1)
    assert members == list(values)


def test_run_result_carries_what_perfbench_reads():
    # perfbench/checks.py reads the snapshot coefficients and times and the
    # per-step energy, spans.py the step counts, and test_controls.py edits
    # nodes.energy_surface in place
    cfg = load_config(str(PERFBENCH / "configs" / "relax_decay.json"))
    cfg["integrator"].update(T=1e-3, snapshots=[0.0, 5e-4, 1e-3])
    result = run_config(cfg).result
    np.testing.assert_array_equal(result.snapshot_times, [0.0, 5e-4, 1e-3])
    assert result.coeffs.shape == (3, cfg["domain"]["N"] + 1)
    assert result.coeffs[0][0] == cfg["initial_data"]["parameters"]["values"][0]
    stats = result.stats
    assert stats.accepted > 0 and stats.rejected >= 0
    assert stats.rhs_calls > stats.accepted + stats.rejected
    assert result.nodes.energy.shape == (stats.accepted + 1,)
    assert result.nodes.energy_surface.flags.writeable


def test_entropy_pair_takes_wrapped_functions():
    # spans.py counts the entropy evaluations through dataclasses.replace
    entropy = entropy_functions(ModelParams(n=1.5, delta=0.05, epsilon=0.1, entropy_anchor=2.0))

    def g(s):
        return entropy.g(s)

    def G(s):
        return entropy.G(s)

    wrapped = dataclasses.replace(entropy, g=g, G=G)
    assert (wrapped.g, wrapped.G, wrapped.anchor) == (g, G, entropy.anchor)
    s = np.array([0.5, 1.0, 1.5])
    np.testing.assert_array_equal(wrapped.G(s), entropy.G(s))


def _records_run(params):
    # a run with two full records chunks and a remainder
    domain = DomainSpec(half_length=1.0, modes=6)
    u0 = project(lambda x: 1.0 + 0.3 * np.cos(np.pi * x), domain)
    chunk = diagnostics.RECORDS_CHUNK
    spec = IntegratorSpec(t_end=1e-3, snapshot_times=tuple(np.linspace(0.0, 1e-3, 2 * chunk + 3)))
    return simulate(u0, spec, params, domain)


def test_records_pass_calls_entropy_G_and_the_kernel_once_per_chunk(monkeypatch):
    # spans.py counts model.entropy_G_calls through a G put into the pair with
    # dataclasses.replace, and kernels.rhs_calls through the module attribute:
    # trajectory_records must reach both that way, once per chunk
    params = ModelParams(n=2, delta=0.1, epsilon=0.1, entropy_anchor=2.0)
    result = _records_run(params)
    entropy = entropy_functions(params)
    G_calls, rhs_calls = [], []

    def G(s):
        G_calls.append(np.shape(s))
        return entropy.G(s)

    true_rhs = kernels.rhs

    def counting_rhs(*args):
        rhs_calls.append(1)
        return true_rhs(*args)

    monkeypatch.setattr(kernels, "rhs", counting_rhs)
    records = diagnostics.trajectory_records(result, dataclasses.replace(entropy, G=G))
    assert records.t.size == 67
    assert G_calls == [(32, 56), (32, 56), (3, 56)]
    assert len(rhs_calls) == 3


def test_spans_count_the_records_pass_per_chunk():
    spans = _load_spans()
    params = ModelParams(n=2, delta=0.1, epsilon=0.1, entropy_anchor=2.0)
    result = _records_run(params)
    tracer = spans.Tracer()
    tracer.install()
    try:
        entropy = model.entropy_functions(params)
        diagnostics.trajectory_records(result, entropy)
    finally:
        tracer.uninstall()
    assert tracer.counts["model.entropy_G_calls"] == 3
    assert tracer.rhs_call_split()[0] == 3


def test_sweep_error_carries_the_partial_report(monkeypatch):
    # perfbench/workloads.py scores a failed sweep from exc.partial_report
    base = load_config(str(PERFBENCH / "configs" / "eps_sweep.json"))
    true_rhs = kernels.rhs

    def nan_rhs(c, *args):  # every member's first slope is non-finite
        c_dot, *rest = true_rhs(c, *args)
        return (c_dot * np.nan, *rest)

    monkeypatch.setattr(kernels, "rhs", nan_rhs)
    spec = experiments.SweepSpec(parameter="epsilon", values=(1e-1, 1e-2, 1e-3),
                                 base_config=base, jobs=1)
    with pytest.raises(experiments.SweepError) as exc:
        experiments.run_sweep(spec)
    report = exc.value.partial_report
    assert report["members"] == [] and report["complete"] is False
