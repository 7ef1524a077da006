"""Negative controls: every benchmark check passes on good output and fails on broken output.

    python3 -m pytest perfbench -q

Faults are injected the way tests/test_acceptance.py does (wrapping
capillary1d.kernels.rhs) or by corrupting one value of an output.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import capillary1d.kernels as kernels  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from capillary1d import cli  # noqa: E402
from capillary1d.config import run_config  # noqa: E402
from capillary1d.experiments import SweepSpec, run_sweep  # noqa: E402


def failing(results: dict) -> set:
    return {name for name, (ok, _) in results.items() if not ok}


def wrap_rhs(monkeypatch, edit):
    true_rhs = kernels.rhs

    def broken_rhs(c, *args):
        c_dot, d, u, flux, aux = true_rhs(c, *args)
        return (edit(c_dot.copy()), d, u, flux, aux)

    monkeypatch.setattr(kernels, "rhs", broken_rhs)


def leak(c_dot):
    c_dot[0] += 1e-4  # slow drift into the conserved mode
    return c_dot


def workload(name: str) -> workloads.Workload:
    wl = workloads.Workload(name, seed=0)
    wl.setup()
    return wl


@pytest.fixture(scope="module")
def relax():
    return workload("relax")


def test_flat_film_stopped_early_fails_residuals(relax):
    cfg = copy.deepcopy(relax.configs["flat"])
    T = cfg["integrator"]["T"] / 50
    cfg["integrator"]["T"] = T
    cfg["integrator"]["snapshots"] = [0.0, T]
    result = run_config(cfg).result
    args = (cfg["domain"]["l"], cfg["model"]["delta"])
    assert failing(checks.check_flat_film(result, *args)) == {"u_residual", "p_residual"}

    result.nodes.energy_surface[3] += 1e-4 * result.nodes.energy_surface[0]
    assert "energy_monotone" in failing(checks.check_flat_film(result, *args))


def test_flat_film_mass_leak(relax, monkeypatch):
    wrap_rhs(monkeypatch, leak)
    cfg = copy.deepcopy(relax.configs["flat"])
    T = cfg["integrator"]["T"] / 50
    cfg["integrator"]["T"] = T
    cfg["integrator"]["snapshots"] = [0.0, T]
    result = run_config(cfg).result
    assert "mass_drift" in failing(
        checks.check_flat_film(result, cfg["domain"]["l"], cfg["model"]["delta"]))


def _decay_check(cfg):
    result = run_config(cfg).result
    return checks.check_decay(result, cfg["initial_data"]["parameters"]["values"],
                              cfg["model"]["epsilon"], cfg["model"]["delta"],
                              cfg["domain"]["l"])


def test_decay_oracle_passes_then_catches_faults(relax, monkeypatch):
    cfg = relax.configs["decay"]
    assert failing(_decay_check(cfg)) == set()

    wrap_rhs(monkeypatch, leak)
    assert failing(_decay_check(cfg)) == {"mass_drift"}

    monkeypatch.undo()
    wrap_rhs(monkeypatch, lambda c_dot: c_dot * (1.0 + 1e-5))  # 1e-5 too fast a decay
    assert failing(_decay_check(cfg)) == {"decay_amplitudes"}


@pytest.fixture(scope="module")
def sweep():
    wl = workload("eps-sweep")
    spec = SweepSpec(parameter="epsilon", values=wl.eps_values,
                     base_config=wl.configs["base"], jobs=1)
    return wl, run_sweep(spec)


def test_sweep_passes_then_catches_corruption(sweep):
    wl, report = sweep
    args = (wl.eps_values, wl.E0, wl.sup_u0)
    assert failing(checks.check_eps_sweep(report, *args)) == set()

    bad = copy.deepcopy(report)
    bad["members"][1]["maxima"]["energy_max"] *= 1.0 + 1e-5
    assert failing(checks.check_eps_sweep(bad, *args)) == {"energy_max_vs_E0"}

    bad = copy.deepcopy(report)
    smallest = wl.eps_values.index(min(wl.eps_values))
    bad["members"][smallest]["maxima"]["min_u"] = -1e-6
    assert failing(checks.check_eps_sweep(bad, *args)) == {"nonnegative_smallest_eps"}

    bad = copy.deepcopy(report)
    bad["members"].pop()
    assert "members_complete" in failing(checks.check_eps_sweep(bad, *args))


def _corrupt(path: Path, row: int, col: int, delta: float) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[row + 1].split(",")
    fields[col] = repr(float(fields[col]) + delta)
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.fixture
def dense():
    wl = workload("dense-output")
    cfg = copy.deepcopy(wl.configs["dense"])
    cfg["integrator"]["T"] = 2e-5
    cfg["integrator"]["snapshots"] = 6
    outdir = workloads.OUT / "controls"
    shutil.rmtree(outdir, ignore_errors=True)
    cli.write_run_artifacts(run_config(cfg), outdir, 0.0)
    dom = cfg["domain"]

    def check():
        return checks.check_dense_artifacts(outdir, 6, wl.initial_mass,
                                            dom["N"], dom["oversample"], dom["l"])

    assert failing(check()) == set()
    return outdir, check


@pytest.mark.parametrize("target, expected", [
    (("snap_2.csv", 7, 1, 1e-6), {"mass_from_snapshots"}),
    (("snap_3.csv", 11, 5, 1e-6), {"surface_energy_from_snapshots"}),
    (("snap_1.csv", 0, 0, 1e-9), {"grid_nodes"}),
    (("series.csv", 4, 2, 1.0), {"energy_monotone", "surface_energy_from_snapshots"}),
])
def test_dense_artifacts_catch_one_corrupted_value(dense, target, expected):
    outdir, check = dense
    name, row, col, delta = target
    _corrupt(outdir / name, row, col, delta)
    assert failing(check()) == expected


def test_dense_artifacts_catch_missing_snapshot(dense):
    outdir, check = dense
    (outdir / "snap_4.csv").unlink()
    assert "snapshot_count" in failing(check())


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
