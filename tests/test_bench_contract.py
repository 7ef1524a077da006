"""The names the benchmark in perfbench/ reaches into must keep existing.

Tier-1 tests do not run perfbench, so a renamed or deleted layer function
would otherwise only show as a crash of ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from capillary1d import experiments, kernels
from capillary1d.basis import DomainSpec, project
from capillary1d.config import load_config
from capillary1d.galerkin import IntegratorSpec, simulate
from capillary1d.model import ModelParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr, name", _load_spans().LAYER_FUNCTIONS)
def test_traced_layer_function_resolves(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr)), name


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
    assert result.stats.accepted > 0
    assert len(calls) == result.stats.rhs_calls
