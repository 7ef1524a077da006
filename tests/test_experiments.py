import copy
import json
from pathlib import Path

import numpy as np
import pytest

from capillary1d import config, experiments, kernels
from capillary1d.config import ConfigError
from capillary1d.experiments import (
    SweepError,
    SweepSpec,
    curvature_profile_study,
    run_sweep,
    threshold_study,
)

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"

TINY = {
    "schema_version": 1,
    "domain": {"l": 1.0, "N": 8, "oversample": 8},
    "model": {"n": 2.0, "delta": 0.1, "epsilon": 0.1, "eta": 0.0,
              "pressure_mode": "nonlinear", "entropy_anchor": "auto"},
    "integrator": {"method": "rkf45", "rtol": 1e-7, "atol": 1e-9, "T": 5e-4,
                   "snapshots": 4},
    "initial_data": {"kind": "cosine_bump", "parameters": {"base": 1.0, "amplitude": 0.3}},
    "diagnostics": {"holder_probe": True},
}


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(parameter="mu", values=(1, 2, 3), base_config=TINY)
    with pytest.raises(ConfigError):
        SweepSpec(parameter="eta", values=(1.0, 0.1), base_config=TINY)
    with pytest.raises(ConfigError):
        SweepSpec(parameter="eta", values=(1.0, 0.1, 0.5), base_config=TINY)
    for jobs in (2, 0, -3, 1.0, True):  # every sweep runs in this process
        with pytest.raises(ConfigError, match="jobs must be 1"):
            SweepSpec(parameter="eta", values=(1.0, 0.1, 0.01), base_config=TINY, jobs=jobs)


def test_eta_sweep_structure_and_verdicts():
    spec = SweepSpec(parameter="eta", values=(1.0, 0.1, 0.01), base_config=TINY)
    report = run_sweep(spec)
    assert report["complete"]
    assert len(report["members"]) == 3
    # provenance: every member embeds its full resolved config
    for m, v in zip(report["members"], (1.0, 0.1, 0.01)):
        assert m["config"]["model"]["eta"] == v
        assert m["config"]["integrator"]["T"] == TINY["integrator"]["T"]
    assert len(report["cauchy_l2_differences"]) == 2
    # the eta cap is redundant for bounded data: trajectories are Cauchy as
    # eta -> 0 and the sup-norm style maxima stay uniform
    diffs = report["cauchy_l2_differences"]
    assert diffs[1] < diffs[0]
    assert report["verdicts"]["energy_max"] == "bounded-uniformly"
    assert report["verdicts"]["y_max_below_one"]


def test_eta_sweep_holder_m_is_the_probe_time_constant(monkeypatch):
    # two snapshots are enough for a time constant: each member's holder_M
    # is its own probe's, and the plateau verdict over them is decided
    probes = []
    true_probe = config.holder_probe

    def recording_probe(result):
        probes.append(true_probe(result))
        return probes[-1]

    monkeypatch.setattr(config, "holder_probe", recording_probe)
    base = config.apply_overrides(config.load_config(str(REFERENCE_CONFIG)),
                                  ["integrator.snapshots=2"])
    report = run_sweep(SweepSpec(parameter="eta", values=(1.0, 0.1, 0.01), base_config=base))
    assert report["complete"] and len(probes) == 3
    for member, probe in zip(report["members"], probes):
        assert probe.constant_time is not None
        assert member["maxima"]["holder_M"] == probe.constant_time
    assert report["verdicts"]["holder_M"] in ("bounded-uniformly", "growing")


def test_sweep_determinism():
    spec = SweepSpec(parameter="delta", values=(0.3, 0.1, 0.03), base_config=TINY)
    r1 = run_sweep(spec)
    r2 = run_sweep(spec)
    assert json.dumps(r1, sort_keys=True, default=str) == json.dumps(r2, sort_keys=True, default=str)


def test_sweep_parallel_matches_sequential(monkeypatch):
    # the members stepped as one stack give the bytes of one run per member
    spec = SweepSpec(parameter="delta", values=(0.3, 0.1, 0.03), base_config=TINY)
    stacked = run_sweep(spec)
    true_member = experiments._run_member
    stacks = []

    def one_at_a_time(cfgs):
        stacks.append(len(cfgs))
        runs = [true_member([cfg]) for cfg in cfgs]
        assert all(failure is None for _, failure in runs)
        return [member for done, _ in runs for member in done], None

    monkeypatch.setattr(experiments, "_run_member", one_at_a_time)
    serial = run_sweep(spec)
    assert stacks == [3]
    assert (json.dumps(stacked, sort_keys=True, default=str)
            == json.dumps(serial, sort_keys=True, default=str))


def test_delta_sweep_uniform_verdict_logic():
    spec = SweepSpec(parameter="delta", values=(0.3, 0.1, 0.03), base_config=TINY)
    report = run_sweep(spec)
    assert "uniform" in report["verdicts"]
    assert report["verdicts"]["uniform"] == (
        report["verdicts"]["h2_max"] == "bounded-uniformly"
        and report["verdicts"]["y_max_below_one"])


def test_sweep_partial_report_on_failure(monkeypatch):
    # a non-finite slope aborts the last member at run time
    true_rhs = kernels.rhs

    def nan_rhs(c, t, params, *args):
        c_dot, *rest = true_rhs(c, t, params, *args)
        # the member of eta = 0.01, a stack's row or a run by itself (a
        # stack holds one eta per member)
        eta = np.asarray(params.eta)[..., None]
        return (c_dot * np.where(eta == 0.01, np.nan, 1.0), *rest)

    monkeypatch.setattr(kernels, "rhs", nan_rhs)
    spec = SweepSpec(parameter="eta", values=(1.0, 0.1, 0.01), base_config=TINY)
    with pytest.raises(SweepError) as err:
        run_sweep(spec)
    partial = err.value.partial_report
    assert not partial["complete"]
    assert "failure" in partial
    assert len(partial["members"]) == 2


def test_stack_fails_as_its_members_would_one_after_another(monkeypatch):
    # the third member aborts at its first step and the second later in time:
    # the sweep names the second, with the partial report of a serial run
    from capillary1d import experiments
    from capillary1d.config import resolve_config

    a0 = float(np.abs(resolve_config(TINY).u0[1:]).max())
    true_rhs = kernels.rhs

    def failing_rhs(c, t, params, *args):
        c_dot, *rest = true_rhs(c, t, params, *args)
        eta = np.asarray(params.eta)[..., None]  # a stack holds one eta per member
        late = (eta == 0.1) & (np.abs(c[..., 1:]).max(axis=-1, keepdims=True) < 0.97 * a0)
        return (c_dot * np.where((eta == 0.01) | late, np.nan, 1.0), *rest)

    monkeypatch.setattr(kernels, "rhs", failing_rhs)
    spec = SweepSpec(parameter="eta", values=(1.0, 0.1, 0.01), base_config=TINY)
    stacks = []
    true_run_member = experiments._run_member

    def recording_run_member(cfgs):
        stacks.append(len(cfgs))
        return true_run_member(cfgs)

    def one_at_a_time(cfgs):
        members = []
        for cfg in cfgs:
            done, failure = true_run_member([cfg])
            members += done
            if failure is not None:
                return members, failure
        return members, None

    reports = []
    for run_member in (recording_run_member, one_at_a_time):
        monkeypatch.setattr(experiments, "_run_member", run_member)
        with pytest.raises(SweepError) as err:
            run_sweep(spec)
        reports.append(err.value.partial_report)
        assert str(err.value) == "member eta=0.1 failed: non-finite right-hand side"
    assert stacks == [3]
    stacked, serial = reports
    assert len(stacked["members"]) == 1
    assert json.dumps(stacked, sort_keys=True) == json.dumps(serial, sort_keys=True)


DELTA_SPEC = SweepSpec(parameter="delta", values=(0.3, 0.1, 0.03), base_config=TINY)


def _raise_for_member_2(monkeypatch, module, name, delta_of):
    # module.name raises for DELTA_SPEC's second member, whose delta_of(first argument) is 0.1
    true_fn = getattr(module, name)
    error = RuntimeError(f"{name} failed")

    def fn(first, *args, **kwargs):
        if delta_of(first) == 0.1:
            raise error
        return true_fn(first, *args, **kwargs)

    monkeypatch.setattr(module, name, fn)
    return error


def _assert_sweep_names_member_2(error):
    with pytest.raises(SweepError) as err:
        run_sweep(DELTA_SPEC)
    assert str(err.value) == f"member delta=0.1 failed: {error}"
    partial = err.value.partial_report
    assert partial["failure"] == str(err.value) and not partial["complete"]
    assert [m["config"]["model"]["delta"] for m in partial["members"]] == [0.3]


@pytest.mark.parametrize("name", ["trajectory_records", "holder_probe"])
def test_run_configs_keeps_the_outputs_before_a_failed_records_phase(monkeypatch, name):
    # member 2 of a 3-member stack raises after the integration, in its
    # records or its probe: member 1's output comes back with that exception
    error = _raise_for_member_2(monkeypatch, config, name, lambda result: result.params.delta)
    cfgs = [experiments._member_config(DELTA_SPEC, v) for v in DELTA_SPEC.values]
    outputs, failure = config.run_configs(cfgs)
    assert failure is error
    assert [out.config.params.delta for out in outputs] == [0.3]
    _assert_sweep_names_member_2(error)


def test_run_member_keeps_the_summaries_before_a_failed_one(monkeypatch):
    # every member runs, and member 2's summary raises: member 1's comes back
    error = _raise_for_member_2(monkeypatch, experiments, "_member_summary",
                                lambda out: out.config.params.delta)
    cfgs = [experiments._member_config(DELTA_SPEC, v) for v in DELTA_SPEC.values]
    members, failure = experiments._run_member(cfgs)
    assert failure is error
    assert [m["config"]["model"]["delta"] for m in members] == [0.3]
    _assert_sweep_names_member_2(error)


def test_n_sweep_cauchy_decreasing():
    cfg = copy.deepcopy(TINY)
    cfg["initial_data"] = {"kind": "cosine_bump", "parameters": {"base": 1.0, "amplitude": 0.6}}
    spec = SweepSpec(parameter="N", values=(8, 16, 32), base_config=cfg)
    report = run_sweep(spec)
    diffs = report["cauchy_l2_differences"]
    assert diffs[1] < diffs[0]
    assert report["cauchy_trend"] == "decreasing"


def test_profile_study_droplet():
    cfg = copy.deepcopy(TINY)
    cfg["domain"]["N"] = 12
    cfg["initial_data"] = {"kind": "droplet",
                           "parameters": {"floor": 1e-3, "amplitude": 1.0, "power": 3}}
    cfg["model"]["epsilon"] = 0.3
    cfg["model"]["n"] = 2.0
    cfg["diagnostics"] = {"track_entropy": False}
    cfg["integrator"]["T"] = 2e-3
    report = curvature_profile_study(cfg)
    assert not report["degenerate"]
    nl = report["modes"]["nonlinear"]
    assert nl["final"]["cov_kappa"] < nl["initial"]["cov_kappa"]
    li = report["modes"]["linear"]
    assert li["final"]["cov_uxx"] < li["initial"]["cov_uxx"]


def test_profile_study_flat_degenerate():
    cfg = copy.deepcopy(TINY)
    cfg["initial_data"] = {"kind": "constant", "parameters": {"value": 1.0}}
    cfg["diagnostics"] = {"track_entropy": False}
    report = curvature_profile_study(cfg)
    assert report["degenerate"]


def test_threshold_study_rows_and_skips():
    cfg = copy.deepcopy(TINY)
    cfg["domain"]["N"] = 12
    cfg["initial_data"] = {"kind": "droplet",
                           "parameters": {"floor": 1e-2, "amplitude": 1.0, "power": 3}}
    cfg["model"]["epsilon"] = 1e-2
    report = threshold_study([1.5, 3.0], cfg)
    assert [row["n"] for row in report["rows"]] == [1.5, 3.0]
    for row in report["rows"]:
        assert "skipped" not in row
        assert row["min_u_overall"] > 0.0  # thick floor, short horizon
        assert row["config"]["model"]["n"] == row["n"]
    # zero-touching data is inadmissible for n >= 2 under entropy tracking
    cfg_zero = copy.deepcopy(cfg)
    cfg_zero["initial_data"] = {"kind": "coeffs", "parameters": {"values": [0.0]}}
    report2 = threshold_study([2.5], cfg_zero)
    assert "skipped" in report2["rows"][0]
