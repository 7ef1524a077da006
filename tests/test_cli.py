import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from capillary1d import experiments, kernels
from capillary1d.basis import modes, tables
from capillary1d.cli import DEFAULT_SWEEP_VALUES, main
from capillary1d.config import load_config, resolve_config, run_config

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


R_VALUES_REMOVED = "the r-weighted dissipations were removed, so omit the key"


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


def test_summary_times_each_phase(cfgfile, tmp_path):
    # wall seconds per phase, under the benchmark's layer names; the phases of
    # run_config lie inside wall_clock_seconds, and the write comes after it
    out = tmp_path / "run"
    cfg = json.loads(Path(cfgfile).read_text())
    cfg["diagnostics"]["holder_probe"] = True
    Path(cfgfile).write_text(json.dumps(cfg))
    assert main(["simulate", "--config", cfgfile, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    timings = summary["timings_s"]
    assert set(timings) == {"config.resolve", "model.validate", "model.entropy",
                            "galerkin.integrate", "diagnostics.records",
                            "diagnostics.probe", "cli.write"}
    assert all(v >= 0.0 for v in timings.values())
    assert sum(timings.values()) <= summary["wall_clock_seconds"] + timings["cli.write"]
    assert timings["galerkin.integrate"] > 0.0


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


@pytest.mark.parametrize("kind, message", [
    ("undecodable", "config is not valid JSON: "),
    ("directory", "config file cannot be read: "),
], ids=["undecodable", "directory"])
def test_simulate_unreadable_config_exit_2(tmp_path, capsys, kind, message):
    # a file that is not UTF-8 text, or a directory, is a ConfigError that
    # names the path, not a traceback
    path = tmp_path / "bad.json"
    if kind == "undecodable":
        path.write_bytes(b"\xff\xfe{}")
    else:
        path.mkdir()
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(message + str(path))
    assert not (tmp_path / "o").exists()


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
    ("model.epsilon=1e-310", "epsilon must be 0 or at least 1e-300"),
    ("integrator.rtol=1", "rtol < 1"),
    # no step can meet a relative tolerance below machine epsilon
    ("integrator.rtol=1e-17", "2.22e-16 <= rtol < 1"),
    ("model.epsilom=0.001", "unknown config key model.epsilom"),
    ("diagnostics=null", "section 'diagnostics' must be an object"),
    ("model=3", "section 'model' must be an object"),
    ("integrator.T=null", "bad integrator section"),
    ("initial_data.parameters.amplitdue=1", "unknown parameter 'amplitdue'"),
    # a power below 1 is no droplet: -1 would sample 1/cos^2, 0 a constant film
    ('initial_data={"kind": "droplet", "parameters": {"power": -1}}',
     "droplet power must be at least 1, got -1"),
    ('initial_data={"kind": "droplet", "parameters": {"power": 0}}',
     "droplet power must be at least 1, got 0"),
    # raw coefficients pass no projection: build_initial_data checks them itself
    ('initial_data={"kind": "coeffs", "parameters": {"values": [1.4, NaN]}}',
     "coeffs must be finite"),
    ('initial_data={"kind": "coeffs", "parameters": {"values": [1.4, Infinity]}}',
     "coeffs must be finite"),
    ("output.directory=out", "unknown config key 'output'"),
    ("diagnostics.tol_neg=1e-8", "unknown config key diagnostics.tol_neg"),
    ("diagnostics.tol_zero=1e-7", "unknown config key diagnostics.tol_zero"),
    ("integrator.method=rk4-fixed", "unknown method"),
    ('diagnostics.track_entropy="false"', "diagnostics.track_entropy must be true or false"),
    ('diagnostics.holder_probe="false"', "diagnostics.holder_probe must be true or false"),
    ('diagnostics.track_weak_residual="false"',
     "diagnostics.track_weak_residual must be true or false"),
    ("domain.N=300", "exceeds 2048"),
    ("domain.l=1.98e-294", "overflows"),
    ("integrator.snapshots=10001", "snapshots count must be in [2, 10000]"),
    # diagnostics.r_values stays only at its old default [1.5, 2.0]
    ('diagnostics.r_values="ab"', R_VALUES_REMOVED),
    ("diagnostics.r_values=[NaN]", R_VALUES_REMOVED),
    ("diagnostics.r_values=[true]", R_VALUES_REMOVED),
    ("diagnostics.r_values=[]", R_VALUES_REMOVED),
    ("diagnostics.r_values=[3.0]", R_VALUES_REMOVED),
    # an empty list would run with snapshots at [0, T] yet embed []
    ("integrator.snapshots=[]", "a snapshots list must hold 1 to 10000 times, got 0"),
    ("schema_version=true", "unsupported schema_version True"),
    ("domain.l=true", "l must be a number, got True"),
    ("model.n=true", "n must be a number, got True"),
    ("model.delta=false", "delta must be a number, got False"),
    ("model.epsilon=true", "epsilon must be a number, got True"),
    ("model.eta=false", "eta must be a number, got False"),
    ("model.entropy_anchor=true", "entropy_anchor must be a number, got True"),
    # far above the bound the entropy table's panels overflow, and every entropy reads inf
    ("model.entropy_anchor=1e160", "entropy_anchor must be at most 1e+150, got 1e+160"),
    ("model.entropy_anchor=1e308", "entropy_anchor must be at most 1e+150, got 1e+308"),
    ("integrator.rtol=true", "rtol must be a number, got True"),
    ("integrator.atol=true", "atol must be a number, got True"),
    ("integrator.dt=true", "unknown config key integrator.dt"),
    ("integrator.T=true", "T must be a number, got True"),
    ("integrator.snapshots=[0,true]", "snapshot time must be a number, got True"),
    ("initial_data.parameters.base=true", "base must be a number, got True"),
    ("initial_data.parameters.amplitude=false", "amplitude must be a number, got False"),
    ('model.delta="0.1"', "delta must be a number, got '0.1'"),
    ('integrator.T=" 2e-2 "', "T must be a number, got ' 2e-2 '"),
    ('domain.N="8"', "N must be a number, got '8'"),
    ('diagnostics.r_values=["1.5"]', R_VALUES_REMOVED),
    # rkf45 is the one method, and it chooses its own steps: integrator.dt is
    # no key, and the null that configs embedded by older versions carry is
    # refused too
    ('integrator.method="rk4"', "unknown method 'rk4'"),
    ("integrator.dt=1e-4", "unknown config key integrator.dt"),
    ("integrator.dt=null", "unknown config key integrator.dt"),
    ("integrator.dt=-5", "unknown config key integrator.dt"),
    ("integrator.dt=NaN", "unknown config key integrator.dt"),
    pytest.param(('integrator.method="rk4"', "integrator.dt=1e-12"),
                 "unknown config key integrator.dt", id="rk4-dt-1e-12"),
    pytest.param(('integrator.method="rk4"', "integrator.dt=NaN"),
                 "unknown config key integrator.dt", id="rk4-dt-nan"),
    pytest.param(('integrator.method="rk4"', "integrator.dt=Infinity"),
                 "unknown config key integrator.dt", id="rk4-dt-inf"),
])
def test_simulate_bad_value_exit_2(cfgfile, tmp_path, capsys, override, message):
    # rejected up front: never truncated, never left to blow up mid-run
    out = tmp_path / "o"
    overrides = (override,) if isinstance(override, str) else override
    rc = main(["simulate", "--config", cfgfile, "--out", str(out),
               *(arg for item in overrides for arg in ("--set", item))])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not (out / "series.csv").exists()


def test_simulate_at_the_anchor_bound_stays_finite(cfgfile, tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["simulate", "--config", cfgfile, "--out", str(out),
               "--set", "model.entropy_anchor=1e150"])
    assert rc == 0 and capsys.readouterr().err == ""
    rows = (out / "series.csv").read_text().splitlines()
    column = rows[0].split(",").index("entropy")
    assert all(np.isfinite(float(row.split(",")[column])) for row in rows[1:])


@pytest.mark.parametrize("T", ["1e400", "Infinity"])
def test_non_finite_T_writes_one_json_line(cfgfile, tmp_path, capsys, T):
    # T is refused before the snapshot times are spread over it, so no numpy
    # warning reaches stderr ahead of the error record
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--config", cfgfile, "--out", str(tmp_path / "o"),
                   "--set", f"integrator.T={T}"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "ConfigError"
    assert "t_end must be positive and finite" in record["message"]


@pytest.mark.parametrize("value", ["[1.5,2.0]", "[1.5,2]"])
def test_r_values_default_runs_as_if_omitted(cfgfile, tmp_path, value):
    # the one value diagnostics.r_values still takes changes no output, not
    # even the embedded config
    outs = tmp_path / "omitted", tmp_path / "default"
    assert main(["simulate", "--config", cfgfile, "--out", str(outs[0])]) == 0
    assert main(["simulate", "--config", cfgfile, "--out", str(outs[1]),
                 "--set", f"diagnostics.r_values={value}"]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        a, b = ((out / name).read_bytes() for out in outs)
        if name == "summary.json":
            a, b = (json.loads(x) for x in (a, b))
            for summary in (a, b):
                del summary["timings_s"], summary["wall_clock_seconds"]
        assert a == b, name


def test_simulate_abort_exit_3(tmp_path, capsys):
    # a film 3e4 thick has m(u) about 1e9, so every stable explicit step is
    # shorter than DT_MIN: the controller rejects its way below it and aborts
    cfg = json.loads(json.dumps(BASE))
    cfg["initial_data"]["parameters"] = {"base": 3e4, "amplitude": 9e3}
    cfg["diagnostics"] = {"track_entropy": False}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "SimulationAbort"
    assert record["message"] == ("step size underflow at t = 0: system too stiff for the "
                                 "explicit integrator at these tolerances")
    assert not (tmp_path / "o" / "series.csv").exists()


def test_simulate_accepted_steps_below_dt_min_exit_3(tmp_path, capsys):
    # at N = 16 a film 3000 thick has a stable explicit step below DT_MIN:
    # the controller accepts steps there, and the check at the start of each
    # step attempt stops the run at t > 0 instead of at MAX_STEPS
    cfg = json.loads(json.dumps(BASE))
    cfg["domain"]["N"] = 16
    cfg["initial_data"]["parameters"] = {"base": 3000.0, "amplitude": 300.0}
    cfg["diagnostics"] = {"track_entropy": False}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "SimulationAbort"
    message = record["message"]
    prefix = "step size underflow at t = "
    assert message.startswith(prefix)
    assert float(message[len(prefix):].split(":")[0]) > 0
    assert not (tmp_path / "o" / "series.csv").exists()


def test_simulate_non_finite_slope_exit_3(cfgfile, tmp_path, capsys, monkeypatch):
    # a kernel that turns non-finite mid-run is an integrator abort
    from capillary1d import kernels

    true_rhs = kernels.rhs
    calls = []

    def failing_rhs(c, *args):
        calls.append(1)
        c_dot, *rest = true_rhs(c, *args)
        return (c_dot * np.nan if len(calls) > 20 else c_dot, *rest)

    monkeypatch.setattr(kernels, "rhs", failing_rhs)
    rc = main(["simulate", "--config", cfgfile, "--out", str(tmp_path / "o")])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "SimulationAbort"
    assert record["message"] == "non-finite right-hand side"
    assert not (tmp_path / "o" / "series.csv").exists()


def test_simulate_step_limit_exit_3(cfgfile, tmp_path, capsys, monkeypatch):
    # an adaptive run that would need more steps than the bound stops at it,
    # naming the steps taken and the time reached
    from capillary1d import galerkin

    monkeypatch.setattr(galerkin, "MAX_STEPS", 5)
    rc = main(["simulate", "--config", cfgfile, "--out", str(tmp_path / "o")])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "SimulationAbort"
    message = record["message"]
    assert message.startswith("step limit reached at t = ")
    accepted, rejected = map(int, re.findall(r"(\d+) (?:accepted|rejected)", message))
    assert accepted + rejected == 5 and accepted > 0
    assert message.endswith("(MAX_STEPS = 5)")
    assert not (tmp_path / "o" / "series.csv").exists()


def test_simulate_unread_flag_exit_2(cfgfile, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfgfile, "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert exc.value.code == 2


def test_sweep_jobs_flag_exit_2(cfgfile, tmp_path):
    # every sweep runs in this process, so sweep takes no --jobs either
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfgfile, "--out", str(tmp_path / "o"), "--param", "delta",
              "--jobs", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


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
    delta = run.config.params.delta
    t = tables(run.config.domain)
    for i, c in enumerate(run.result.coeffs):
        # u, u_x, u_xx, p = E d and Q from the tables alone; BASE is nonlinear mode
        ux = t.Ex @ c
        Q = np.sqrt(1.0 + ux * ux)
        d = t.ExT @ (t.w * (ux / Q + delta * ux))
        expect = np.column_stack((t.x, t.E @ c, ux, -(t.E @ (t.lam * c)), t.E @ d, Q))
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
    # the last member's grid (8 * 301 nodes) is refused before the first runs,
    # and so is initial data above the entropy anchor, as simulate refuses it
    for values, extra, message in (
            ("8.5,12,16", (), "N must be an integer"),
            ("8,16,300", (), "bad sweep value N=300.0: bad domain section: "
                             "grid size oversample*(N+1) = 2408 exceeds 2048"),
            ("8,12,16", ("--set", "model.entropy_anchor=0.5"),
             "bad sweep value N=8.0: entropy anchor 0.5 must exceed sup u0")):
        rc = main(["sweep", "--config", cfgfile, "--out", str(tmp_path / "sw"),
                   "--param", "N", "--values", values, *extra])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert message in record["message"]
        assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("command, message", [
    (["sweep", "--param", "delta", "--values", "0.3,abc,0.01"],
     "--values entry 'abc' is not a number"),
    (["thresholds", "--n-values", "1.5,x"], "--n-values entry 'x' is not a number"),
])
def test_non_number_in_value_list_exit_2(cfgfile, tmp_path, capsys, monkeypatch, command,
                                         message):
    # refused before any member runs and before --out is created
    def no_run(*args):
        raise AssertionError("a member ran")

    monkeypatch.setattr(experiments, "_run_member", no_run)
    monkeypatch.setattr(experiments, "run_config", no_run)
    out = tmp_path / "o"
    rc = main([command[0], "--config", cfgfile, "--out", str(out), *command[1:]])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert record["message"] == message
    assert not out.exists()


def test_sweep_default_values(cfgfile, tmp_path):
    # without --values a sweep runs the parameter's default ladder
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfgfile, "--out", str(out), "--param", "eta"]) == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert report["values"] == list(DEFAULT_SWEEP_VALUES["eta"])
    assert report["complete"]


def test_sweep_failed_member_writes_partial_report_exit_3(cfgfile, tmp_path, capsys,
                                                         monkeypatch):
    # a non-finite slope in the last member aborts it at run time: exit 3,
    # with the partial report of the first two members written
    true_rhs = kernels.rhs

    def nan_rhs(c, t, params, *args):
        c_dot, *rest = true_rhs(c, t, params, *args)
        # the member of eta = 0.01, a stack's row or a run by itself (a
        # stack holds one eta per member)
        eta = np.asarray(params.eta)[..., None]
        return (c_dot * np.where(eta == 0.01, np.nan, 1.0), *rest)

    monkeypatch.setattr(kernels, "rhs", nan_rhs)
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", cfgfile, "--out", str(out), "--param", "eta",
               "--values", "1.0,0.1,0.01"])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "SweepError"
    report = json.loads((out / "sweep_report.json").read_text())
    assert report["complete"] is False
    assert [m["config"]["model"]["eta"] for m in report["members"]] == [1.0, 0.1]
    assert report["failure"] == "member eta=0.01 failed: non-finite right-hand side"
    assert not (out / "sweep_report.csv").exists()


def test_sweep_epsilon_deep_gate(cfgfile, tmp_path):
    # epsilon below 1e-3 sweeps like any other value, and no flag gates it
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", cfgfile, "--out", str(out),
               "--param", "epsilon", "--values", "1e-2,1e-3,1e-4"])
    assert rc == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert [m["config"]["model"]["epsilon"] for m in report["members"]] == [1e-2, 1e-3, 1e-4]
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfgfile, "--out", str(tmp_path / "deep"),
              "--param", "epsilon", "--values", "1e-2,1e-3,1e-4", "--deep"])
    assert exc.value.code == 2
    assert not (tmp_path / "deep").exists()


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
    # each profile is the closed-form cosine sum at the report's points, over
    # the first or last snapshot of a rerun from the embedded config
    domain = resolve_config(cfg).domain
    for entry in report["modes"].values():
        coeffs = run_config(entry["config"]).result.coeffs
        xs = np.array(entry["profile_x"])
        assert entry["profile_x"] == np.linspace(-1.0, 1.0, 201).tolist()
        table = modes(np.arange(domain.modes + 1), xs, domain)
        assert entry["profile_u0"] == (table @ coeffs[0]).tolist()
        assert entry["profile_uT"] == (table @ coeffs[-1]).tolist()


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
    stub = {"seconds_per_pass": [{"reference_run": 0.125, "1": 0.25},
                                 {"reference_run": 0.375, "1": 0.5}],
            "cpu_seconds_per_pass": [{"reference_run": 0.0625, "1": 0.1875},
                                     {"reference_run": 0.3125, "1": 0.4375}],
            "rhs_calls_per_pass": [{"reference_run": 18947, "1": 0},
                                   {"reference_run": 18947, "1": 0}]}
    monkeypatch.setattr(verify, "run_all", lambda: ([result], stub))
    assert main(["verify", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "verify_report.json").read_text()
    assert json.loads(report) == {"criteria": [result.as_dict()], "all_passed": True}
    assert "0.125" not in report and "0.0625" not in report and "seconds" not in report
    assert "18947" not in report and "rhs_calls" not in report
    timings = json.loads((tmp_path / "verify_timings.json").read_text())
    assert timings == stub


def test_float_format_is_shortest_roundtrip():
    from capillary1d.cli import _fmt

    for v in (0.1, 1e-6, 2.0 / 3.0, np.float64(0.30000000000000004)):
        assert float(_fmt(v)) == float(v)
    assert _fmt(float("nan")) == "nan"


def test_readme_flags_table_names_the_parser():
    # the README's "Flags per subcommand" table ("| `name` | `--flag` (note),
    # ... |", one subcommand a row) names exactly the subcommands of
    # build_parser() and the long flags of each, --help aside
    import argparse

    from capillary1d.cli import build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("Flags per subcommand:", 1)[1].split("\n\n", 2)[1]
    documented = {}
    for row in table.splitlines()[2:]:
        _, name, flags, _ = row.split("|")
        documented[name.strip().strip("`")] = sorted(re.findall(r"`(--[\w-]+)`", flags))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {name: sorted(opt for action in p._actions for opt in action.option_strings
                           if opt.startswith("--") and opt != "--help")
              for name, p in sub.choices.items()}
    assert documented == parsed
