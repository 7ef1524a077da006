"""The names the benchmark in perfbench/ reaches into must keep existing.

Tier-1 tests do not run perfbench, so a renamed or deleted layer function
would otherwise only show as a crash of ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from capillary1d import experiments
from capillary1d.config import load_config

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
