import json
import os
from pathlib import Path

import numpy as np
import pytest

from capillary1d import experiments
from capillary1d.basis import synthesize, tables
from capillary1d.cli import main
from capillary1d.config import load_config, resolve_config, run_config
from capillary1d.model import galerkin_pressure_coeffs

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))

BASE = {
    "schema_version": 1,
    "domain": {"l": 1.0, "N": 8, "oversample": 8},
    "model": {"n": 2.0, "delta": 0.1, "epsilon": 0.1, "eta": 0.0,
              "pressure_mode": "nonlinear", "entropy_anchor": "auto"},
    "integrator": {"method": "rkf45", "rtol": 1e-7, "atol": 1e-9, "T": 5e-4,
                   "snapshots": 4},
    "initial_data": {"kind": "cosine_bump", "parameters": {"base": 1.0, "amplitude": 0.3}},
    "diagnostics": {"holder_probe": False},
}

DROPLET = dict(BASE, domain={"l": 1.0, "N": 12, "oversample": 8},
               initial_data={"kind": "droplet",
                             "parameters": {"floor": 1e-2, "amplitude": 1.0, "power": 3}})


@pytest.fixture
def cfgfile(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(BASE))
    return str(p)


def test_simulate_writes_expected_artifacts(cfgfile, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["simulate", "--config", cfgfile, "--out", str(out)])
    assert rc == 0
    series = (out / "series.csv").read_text()
    header = series.splitlines()[0]
    assert header == ("t,mass,energy_surface,energy_delta,dissipation_cum,entropy,"
                      "entropy_dissipation_cum,min_u,max_u,zero_frac,y_max,h1,h2,weak_residual")
    assert len(series.splitlines()) == 5  # header + 4 snapshots
    assert (out / "snap_0.csv").read_text().splitlines()[0] == "x,u,ux,uxx,p,Q"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["model"]["entropy_anchor"] != "auto"
    assert "wall_clock_seconds" in summary
    stats = summary["stats"]
    assert 0.0 < stats["dt_min"] <= stats["dt_last"] <= stats["dt_max"]


def test_simulate_constant_mass_column(tmp_path):
    cfg = dict(BASE, initial_data={"kind": "constant", "parameters": {"value": 1.5}})
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    rows = (out / "series.csv").read_text().splitlines()[1:]
    masses = {row.split(",")[1] for row in rows}
    assert len(masses) == 1  # byte-identical mass on every row


def test_simulate_missing_config_exit_2(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["exit_code"] == 2
    assert "not found" in record["message"]


def test_simulate_rejected_data_exit_2(tmp_path, capsys):
    cfg = dict(BASE, initial_data={"kind": "constant", "parameters": {"value": -1.0}})
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("override, message", [
    ("domain.N=2.7", "N must be an integer"),
    ("domain.oversample=8.5", "oversample must be an integer"),
    ("model.n=Infinity", "finite"),
    ("integrator.rtol=1", "rtol < 1"),
    ("model.epsilom=0.001", "unknown config key model.epsilom"),
    ("diagnostics=null", "section 'diagnostics' must be an object"),
    ("model=3", "section 'model' must be an object"),
    ("integrator.T=null", "bad integrator section"),
    ("initial_data.parameters.amplitdue=1", "unknown parameter 'amplitdue'"),
    ("output.directory=out", "unknown config key 'output'"),
    ("diagnostics.tol_neg=1e-8", "unknown config key diagnostics.tol_neg"),
    ("integrator.method=rk4-fixed", "unknown method"),
    ('diagnostics.track_entropy="false"', "diagnostics.track_entropy must be true or false"),
    ('diagnostics.holder_probe="false"', "diagnostics.holder_probe must be true or false"),
    ('diagnostics.track_weak_residual="false"',
     "diagnostics.track_weak_residual must be true or false"),
    ("domain.N=300", "exceeds 2048"),
    ("domain.l=1.98e-294", "overflows"),
    ("integrator.snapshots=10001", "snapshots count must be in [2, 10000]"),
    ('diagnostics.tol_zero="x"', "bad diagnostics section"),
    ('diagnostics.r_values="ab"', "r_values must be a list of finite numbers"),
    ("diagnostics.tol_zero=NaN", "tol_zero must be null or a finite number >= 0"),
    ("diagnostics.tol_zero=-1e-3", "tol_zero must be null or a finite number >= 0"),
    ("diagnostics.r_values=[NaN]", "r_values must be a list of finite numbers"),
    ("diagnostics.tol_zero=true", "tol_zero must be a number, got True"),
    ("diagnostics.r_values=[true]", "r_values must be a number, got True"),
    ("schema_version=true", "unsupported schema_version True"),
    ("domain.l=true", "l must be a number, got True"),
    ("model.n=true", "n must be a number, got True"),
    ("model.delta=false", "delta must be a number, got False"),
    ("model.epsilon=true", "epsilon must be a number, got True"),
    ("model.eta=false", "eta must be a number, got False"),
    ("model.entropy_anchor=true", "entropy_anchor must be a number, got True"),
    ("integrator.rtol=true", "rtol must be a number, got True"),
    ("integrator.atol=true", "atol must be a number, got True"),
    ("integrator.dt=true", "dt must be a number, got True"),
    ("integrator.T=true", "T must be a number, got True"),
    ("integrator.snapshots=[0,true]", "snapshot time must be a number, got True"),
    ("initial_data.parameters.base=true", "base must be a number, got True"),
    ("initial_data.parameters.amplitude=false", "amplitude must be a number, got False"),
    ('model.delta="0.1"', "delta must be a number, got '0.1'"),
    ('integrator.T=" 2e-2 "', "T must be a number, got ' 2e-2 '"),
    ('domain.N="8"', "N must be a number, got '8'"),
    ('diagnostics.r_values=["1.5"]', "r_values must be a number, got '1.5'"),
])
def test_simulate_bad_value_exit_2(cfgfile, tmp_path, capsys, override, message):
    # rejected up front: never truncated, never left to blow up mid-run
    out = tmp_path / "o"
    rc = main(["simulate", "--config", cfgfile, "--out", str(out), "--set", override])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not (out / "series.csv").exists()


def test_simulate_abort_exit_3(tmp_path, capsys):
    # fixed-step far above the stability limit: blow-up -> integrator abort
    cfg = json.loads(json.dumps(BASE))
    cfg["integrator"] = {"method": "rk4", "dt": 0.05, "T": 1.0, "snapshots": 3}
    cfg["diagnostics"] = {"track_entropy": False}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "SimulationAbort"


def test_simulate_unread_flag_exit_2(cfgfile, tmp_path):
    # --jobs belongs to sweep only
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfgfile, "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_example_configs_resolve(path):
    resolved = resolve_config(load_config(str(path))).resolved
    # the embedded provenance copy is a fixed point of resolution
    assert resolve_config(resolved).resolved == resolved


@pytest.mark.parametrize("cfg", [BASE, DROPLET], ids=["cosine_bump", "droplet"])
def test_simulate_roundtrip_byte_identical(cfg, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out1)]) == 0
    # re-run from the embedded resolved config
    summary = json.loads((out1 / "summary.json").read_text())
    p2 = tmp_path / "resolved.json"
    p2.write_text(json.dumps(summary["config"]))
    assert main(["simulate", "--config", str(p2), "--out", str(out2)]) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


def test_snapshot_csvs_parse_back_exactly(cfgfile, tmp_path):
    # every cell is the shortest round-trip form of the in-memory value
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfgfile, "--out", str(out)]) == 0
    run = run_config(BASE)
    domain, params = run.config.domain, run.config.params
    E = tables(domain).E
    for i in range(run.result.snapshot_times.size):
        c = run.result.snapshot_field(i)
        fld = synthesize(c, domain, order=2)
        p = E @ galerkin_pressure_coeffs(c, params, domain).coeffs
        expect = np.column_stack((fld.x, fld.u, fld.ux, fld.uxx, p, fld.Q))
        lines = (out / f"snap_{i}.csv").read_text().splitlines()[1:]
        got = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)


def test_set_overrides(cfgfile, tmp_path):
    out = tmp_path / "o"
    rc = main(["simulate", "--config", cfgfile, "--out", str(out),
               "--set", "integrator.T=2e-4", "--set", "integrator.snapshots=3"])
    assert rc == 0
    rows = (out / "series.csv").read_text().splitlines()
    assert len(rows) == 4
    assert rows[-1].split(",")[0] == repr(2e-4)


def test_sweep_cli(cfgfile, tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", cfgfile, "--out", str(out),
               "--param", "delta", "--values", "0.3,0.1,0.03"])
    assert rc == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert report["parameter"] == "delta"
    assert [m["config"]["model"]["delta"] for m in report["members"]] == [0.3, 0.1, 0.03]
    csv_lines = (out / "sweep_report.csv").read_text().splitlines()
    assert len(csv_lines) == 4


def test_sweep_fractional_n_exit_2(cfgfile, tmp_path, capsys, monkeypatch):
    # refused before any member runs, never truncated to N = 8
    def no_member(cfg):
        raise AssertionError("a member ran")

    monkeypatch.setattr(experiments, "_run_member", no_member)
    rc = main(["sweep", "--config", cfgfile, "--out", str(tmp_path / "sw"),
               "--param", "N", "--values", "8.5,12,16"])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert "N must be an integer" in record["message"]
    assert not (tmp_path / "sw").exists()


def test_sweep_epsilon_deep_gate(cfgfile, tmp_path):
    rc = main(["sweep", "--config", cfgfile, "--out", str(tmp_path / "sw"),
               "--param", "epsilon", "--values", "1e-2,1e-3,1e-4"])
    assert rc == 2


def test_compare_cli(tmp_path):
    cfg = json.loads(json.dumps(BASE))
    cfg["domain"]["N"] = 12
    cfg["initial_data"] = {"kind": "droplet",
                           "parameters": {"floor": 1e-2, "amplitude": 1.0, "power": 3}}
    cfg["model"]["epsilon"] = 0.3
    cfg["diagnostics"] = {"track_entropy": False}
    cfg["integrator"]["T"] = 1e-3
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(p), "--out", str(out)]) == 0
    report = json.loads((out / "profile_report.json").read_text())
    assert set(report["modes"]) == {"nonlinear", "linear"}
    assert (out / "profile_nonlinear.csv").exists()
    assert (out / "profile_linear.csv").exists()


def test_thresholds_cli(tmp_path):
    cfg = json.loads(json.dumps(BASE))
    cfg["domain"]["N"] = 12
    cfg["initial_data"] = {"kind": "droplet",
                           "parameters": {"floor": 1e-2, "amplitude": 0.5, "power": 3}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "th"
    assert main(["thresholds", "--config", str(p), "--out", str(out),
                 "--n-values", "1.5,2.5"]) == 0
    report = json.loads((out / "thresholds_report.json").read_text())
    assert [r["n"] for r in report["rows"]] == [1.5, 2.5]
    assert (out / "thresholds.csv").exists()


def test_verify_writes_timings_beside_the_report(tmp_path, monkeypatch, capsys):
    # the seconds go to their own file; verify_report.json stays byte-stable
    from capillary1d import verify

    result = verify.CheckResult(1, "stub", True, {"value": 1.0})
    seconds = [{"reference_run": 0.125, "1": 0.25}, {"reference_run": 0.375, "1": 0.5}]
    monkeypatch.setattr(verify, "run_all", lambda: ([result], seconds))
    assert main(["verify", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "verify_report.json").read_text()
    assert json.loads(report) == {"criteria": [result.as_dict()], "all_passed": True}
    assert "0.125" not in report and "seconds" not in report
    timings = json.loads((tmp_path / "verify_timings.json").read_text())
    assert timings == {"seconds_per_pass": seconds}


def test_float_format_is_shortest_roundtrip():
    from capillary1d.cli import _fmt

    for v in (0.1, 1e-6, 2.0 / 3.0, np.float64(0.30000000000000004)):
        assert float(_fmt(v)) == float(v)
    assert _fmt(float("nan")) == "nan"
