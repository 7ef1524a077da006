"""End-to-end acceptance checks on built-in reference configurations.

Each check pins one guarantee of the solver at a stated tolerance: exact
mass conservation, the semidiscrete energy identity with tolerance
refinement, the closed-form decay oracle, the entropy estimate with
N-refinement, nonnegativity under the epsilon sweep, the slope-ratio
threshold with the H2 plateau under the delta sweep, steady-state
relaxation, curvature-profile contrast, Galerkin weak residuals, and
byte-level determinism.  cmd_verify prints one line per criterion; the
pytest acceptance module asserts the same results.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import galerkin, kernels
from .basis import DomainSpec, eigenvalue, tables
from .config import resolve_config, run_config, run_configs
from .diagnostics import (
    energy_identity_residual,
    entropy_identity_residual,
    flux_and_weak_residual,
    mass_drift,
    slope_threshold,
)
from .experiments import SweepSpec, curvature_profile_study, run_sweep
from .model import DEFAULT_TOL_NEG_REL

# Smooth positive reference data: 1 + 0.2 e_1 + 0.25 e_2.  Mixed parity is
# deliberate -- even data would zero out every odd mode by symmetry and make
# the mode-(N+1) truncation probe vacuous.  The moderate slope (about 1.1)
# keeps the nonlinearity's spectral tail measurable but decaying.
REFERENCE_RUN = {
    "schema_version": 1,
    "domain": {"l": 1.0, "N": 16, "oversample": 8},
    "model": {"n": 2.0, "delta": 0.1, "epsilon": 0.1, "eta": 0.05,
              "pressure_mode": "nonlinear", "entropy_anchor": "auto"},
    "integrator": {"method": "rkf45", "rtol": 1e-8, "atol": 1e-10,
                   "T": 0.02, "snapshots": 9},
    "initial_data": {"kind": "coeffs",
                     "parameters": {"values": [1.4142135623730951, 0.2, 0.25]}},
    "diagnostics": {"track_entropy": True, "track_weak_residual": True,
                    "holder_probe": False},
}

ENTROPY_RUN = {  # criterion 4 base; N is swept {8, 16, 32}
    "schema_version": 1,
    "domain": {"l": 1.0, "N": 16, "oversample": 8},
    "model": {"n": 2.0, "delta": 0.1, "epsilon": 0.1, "eta": 0.0,
              "pressure_mode": "nonlinear", "entropy_anchor": "auto"},
    # tight tolerances keep the time-integration floor below the projection
    # residual even at N = 32
    "integrator": {"method": "rkf45", "rtol": 1e-9, "atol": 1e-12,
                   "T": 0.004, "snapshots": 5},
    "initial_data": {"kind": "cosine_bump", "parameters": {"base": 1.0, "amplitude": 1.0}},
    "diagnostics": {"track_entropy": True},
}

EPS_SWEEP_RUN = {  # criterion 5 base (epsilon swept)
    "schema_version": 1,
    "domain": {"l": 1.0, "N": 16, "oversample": 8},
    "model": {"n": 1.5, "delta": 0.05, "epsilon": 0.1, "eta": 0.0,
              "pressure_mode": "nonlinear", "entropy_anchor": "auto"},
    "integrator": {"method": "rkf45", "rtol": 1e-8, "atol": 1e-10,
                   "T": 0.02, "snapshots": 7},
    "initial_data": {"kind": "droplet",
                     "parameters": {"floor": 0.01, "amplitude": 1.0, "power": 3}},
    "diagnostics": {"track_entropy": True},
}

DELTA_SWEEP_RUN = {  # criterion 6 base (delta swept)
    "schema_version": 1,
    "domain": {"l": 1.0, "N": 16, "oversample": 8},
    "model": {"n": 2.0, "delta": 0.1, "epsilon": 0.1, "eta": 0.0,
              "pressure_mode": "nonlinear", "entropy_anchor": "auto"},
    "integrator": {"method": "rkf45", "rtol": 1e-8, "atol": 1e-10,
                   "T": 0.01, "snapshots": 7},
    "initial_data": {"kind": "cosine_bump", "parameters": {"base": 1.0, "amplitude": 0.6}},
    "diagnostics": {"track_entropy": True},
}

STEADY_RUN = {  # criterion 7: epsilon = 1, single-mode perturbation of a flat film
    "schema_version": 1,
    "domain": {"l": 1.0, "N": 8, "oversample": 8},
    "model": {"n": 2.0, "delta": 0.2, "epsilon": 1.0, "eta": 0.0,
              "pressure_mode": "nonlinear", "entropy_anchor": "auto"},
    "integrator": {"method": "rkf45", "rtol": 1e-8, "atol": 1e-10,
                   "T": None,  # filled from the decay estimate below
                   "snapshots": 3},
    "initial_data": {"kind": "coeffs",
                     "parameters": {"values": [np.sqrt(2.0), 0.3]}},  # 1 + 0.3 e_1
    "diagnostics": {"track_entropy": False},
}

PROFILE_RUN = {  # criterion 8: steep droplet, both pressure modes
    "schema_version": 1,
    "domain": {"l": 1.0, "N": 20, "oversample": 8},
    "model": {"n": 2.0, "delta": 0.05, "epsilon": 0.2, "eta": 0.0,
              "pressure_mode": "nonlinear", "entropy_anchor": "auto"},
    "integrator": {"method": "rkf45", "rtol": 1e-8, "atol": 1e-10,
                   "T": 0.002, "snapshots": 5},
    "initial_data": {"kind": "droplet",
                     "parameters": {"floor": 0.05, "amplitude": 1.2, "power": 3}},
    "diagnostics": {"track_entropy": False},
}

DECAY_ORACLE_MU = 0.05  # constant-mobility value for criterion 3


def _steady_run_config() -> dict:
    cfg = copy.deepcopy(STEADY_RUN)
    # linear-oracle estimate: rate = m(mean) (1+delta) lambda_1^2, T s.t.
    # the predicted single-mode residual is 1e-6
    lam1 = eigenvalue(1, DomainSpec(1.0, 8))
    rate = (1.0 ** 2 + 1.0) * (1 + cfg["model"]["delta"]) * lam1**2
    T = float(np.log(0.3 / 1e-6) / rate)
    cfg["integrator"]["T"] = T
    cfg["integrator"]["snapshots"] = [0.0, T]
    return cfg


@dataclass
class CheckResult:
    cid: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.cid, "name": self.name, "passed": self.passed,
                "details": self.details}


def render_table(results: list["CheckResult"]) -> str:
    lines = ["criterion  status  name", "---------  ------  ----"]
    for r in results:
        lines.append(f"{r.cid:9d}  {'PASS' if r.passed else 'FAIL':6s}  {r.name}")
    lines.append(f"overall: {'PASS' if all(r.passed for r in results) else 'FAIL'}")
    return "\n".join(lines)


def _check_mass(ref, ref_seconds: float) -> CheckResult:
    drift = mass_drift(ref.records)
    # runtime bound asserted as a boolean only: raw seconds would break the
    # byte-identity of repeated reports
    runtime_ok = ref_seconds <= 30.0
    return CheckResult(1, "mass conservation <= 1e-10 relative; runtime <= 30 s",
                       drift <= 1e-10 and runtime_ok,
                       {"relative_drift": drift, "runtime_within_30s": runtime_ok})


def _check_energy_identity(ref) -> CheckResult:
    _, r0 = energy_identity_residual(ref.result)
    E0 = float(ref.result.nodes.energy[0])
    tight_cfg = copy.deepcopy(REFERENCE_RUN)
    tight_cfg["integrator"]["rtol"] = 1e-9
    tight_cfg["integrator"]["atol"] = 1e-11
    tight = run_config(tight_cfg)
    _, r1 = energy_identity_residual(tight.result)
    E = ref.result.nodes.energy
    monotone = bool(np.all(np.diff(E) <= 1e-6 * E0))
    improvement = r0 / max(r1, 1e-300)
    passed = (r0 <= 1e-6 * E0) and (improvement >= 4.0) and monotone
    return CheckResult(2, "energy identity residual <= 1e-6 E(0), >= 4x refinement, monotone",
                       passed,
                       {"residual": r0, "residual_tight": r1, "E0": E0,
                        "improvement_factor": improvement, "monotone": monotone})


def _check_decay_oracle() -> CheckResult:
    domain = DomainSpec(half_length=1.0, modes=8)
    delta = 0.1
    mu = DECAY_ORACLE_MU
    rates = {j: mu * (1 + delta) * eigenvalue(j, domain) ** 2 for j in (1, 2, 3)}
    t_decay = {j: float(np.log(10.0) / rates[j]) for j in (1, 2, 3)}
    coeffs = [float(np.sqrt(2.0)), 0.1, 0.1, 0.1]
    cfg = {
        "schema_version": 1,
        "domain": {"l": 1.0, "N": 8, "oversample": 8},
        "model": {"n": 2.0, "delta": delta, "epsilon": mu, "eta": 0.0,
                  "pressure_mode": "linear", "entropy_anchor": "auto",
                  "mobility_mode": "constant"},
        "integrator": {"method": "rkf45", "rtol": 3e-9, "atol": 1e-12,
                       "T": t_decay[1],
                       "snapshots": sorted([0.0, t_decay[3], t_decay[2], t_decay[1]])},
        "initial_data": {"kind": "coeffs", "parameters": {"values": coeffs}},
        "diagnostics": {"track_entropy": False},
    }
    out = run_config(cfg)
    times = out.result.snapshot_times
    errs = {}
    for j in (1, 2, 3):
        i = int(np.argmin(np.abs(times - t_decay[j])))
        expect = coeffs[j] * np.exp(-rates[j] * times[i])
        got = float(out.result.coeffs[i][j])
        errs[j] = abs(got - expect) / abs(expect)
    worst = max(errs.values())
    return CheckResult(3, "constant-mobility decay oracle, rel err <= 1e-6 at one decay time",
                       worst <= 1e-6, {"relative_errors": {str(j): v for j, v in errs.items()}})


def _check_entropy_estimate() -> CheckResult:
    residuals = {}
    bound_ok = None
    bound_vals = {}
    for N in (8, 16, 32):
        cfg = copy.deepcopy(ENTROPY_RUN)
        cfg["domain"]["N"] = N
        out = run_config(cfg)
        _, mx = entropy_identity_residual(out.records)
        residuals[N] = mx
        if N == 16:
            ent = out.records.entropy
            bound_ok = bool(np.max(ent) <= ent[0] * (1 + 1e-3))
            bound_vals = {"entropy_initial": float(ent[0]), "entropy_max": float(ent.max())}
    shrinking = residuals[16] < residuals[8] and residuals[32] < residuals[16]
    passed = bool(bound_ok) and shrinking
    return CheckResult(4, "entropy bounded by its initial value; identity residual shrinks in N",
                       passed,
                       {"residuals": {str(k): v for k, v in residuals.items()},
                        "bound_ok": bound_ok, **bound_vals})


def _check_nonnegativity() -> CheckResult:
    values = (1e-1, 1e-2, 1e-3)
    t0 = time.perf_counter()
    spec = SweepSpec(parameter="epsilon", values=values, base_config=EPS_SWEEP_RUN)
    report = run_sweep(spec)
    runtime_ok = (time.perf_counter() - t0) <= 300.0
    scale = 1.0 + 0.01  # sup of the droplet data
    min_us = [m["maxima"]["min_u"] for m in report["members"]]
    passed = min_us[-1] >= -DEFAULT_TOL_NEG_REL * scale and runtime_ok
    return CheckResult(5, "nonnegativity at the smallest epsilon of the sweep; runtime <= 5 min",
                       passed, {"min_u_per_epsilon": dict(zip(map(str, values), min_us)),
                                "tolerance": -DEFAULT_TOL_NEG_REL * scale,
                                "runtime_within_5min": runtime_ok})


def _check_slope_bound() -> CheckResult:
    values = (0.3, 0.1, 0.03, 0.01)
    configs = []
    for delta in values:
        cfg = copy.deepcopy(DELTA_SWEEP_RUN)
        cfg["model"]["delta"] = delta
        configs.append(cfg)
    outputs, failure = run_configs(configs)  # the four members step as one stack
    if failure is not None:
        raise failure
    margins = []
    h2_sups = []
    for out in outputs:
        rec = out.records
        h2_sups.append(float(rec.h2.max()))
        l = out.config.domain.half_length
        margins += [slope_threshold(c1, c2, l) - y for c1, c2, y in zip(
            rec.energy_surface.tolist(), rec.curvature_dissipation.tolist(), rec.y_max.tolist())]
    margin_ok = min(margins) >= 0.02
    tail = h2_sups[-3:]
    plateau = max(tail) / min(tail) <= 2.0
    return CheckResult(6, "slope ratio below certified threshold (margin 0.02); H2 plateau",
                       margin_ok and plateau,
                       {"min_margin": float(min(margins)),
                        "h2_sup_per_delta": dict(zip(map(str, values), h2_sups)),
                        "h2_plateau_factor": float(max(tail) / min(tail))})


def _check_steady_state() -> CheckResult:
    cfg = _steady_run_config()
    out = run_config(cfg)
    final = out.result.snapshot_field(out.result.snapshot_times.size - 1)
    mean_coeff = out.result.coeffs[0][0]
    dev = final.coeffs.copy()
    dev[0] -= mean_coeff
    u_resid = float(np.sqrt(np.sum(dev**2)))
    d = kernels.rhs(final.coeffs, tables(out.config.domain), out.config.params)[1]
    p_resid = float(np.sqrt(np.sum(d**2)))
    passed = u_resid <= 1e-5 and p_resid <= 1e-5
    return CheckResult(7, "relaxation to the flat steady state (u and p residuals <= 1e-5)",
                       passed, {"u_residual_l2": u_resid, "p_residual_l2": p_resid,
                                "T": cfg["integrator"]["T"]})


def _check_profile_contrast() -> CheckResult:
    report = curvature_profile_study(copy.deepcopy(PROFILE_RUN))
    v = report["verdicts"]
    passed = (v["nonlinear_curvature_equilibrates"] and v["linear_uxx_equilibrates"]
              and v["curvature_flatter_than_uxx"])
    nl = report["modes"]["nonlinear"]
    li = report["modes"]["linear"]
    return CheckResult(8, "curvature (not u_xx) equilibrates in exact-curvature mode",
                       passed,
                       {"nonlinear_cov_kappa": [nl["initial"]["cov_kappa"], nl["final"]["cov_kappa"]],
                        "nonlinear_cov_uxx_final": nl["final"]["cov_uxx"],
                        "linear_cov_uxx": [li["initial"]["cov_uxx"], li["final"]["cov_uxx"]]})


def _check_weak_residual(ref) -> CheckResult:
    per_step = float(ref.result.nodes.weak_residual.max())
    # scale of the pairing at the final state
    final = ref.result.snapshot_field(ref.result.snapshot_times.size - 1)
    _, scale = flux_and_weak_residual(final, ref.config.params, ref.config.domain)
    # truncation probe at the initial state of each refinement run: diffusion
    # damps mode N+1 at rate ~lambda_{N+1}^2, so only t = 0 carries signal
    truncation = {}
    for N in (8, 16, 32):
        cfg = copy.deepcopy(REFERENCE_RUN)
        cfg["domain"]["N"] = N
        cfg["diagnostics"] = {"track_entropy": False}
        rc = resolve_config(cfg)
        resid, _ = flux_and_weak_residual(rc.u0, rc.params, rc.domain, test_modes=[N + 1])
        truncation[N] = abs(float(resid[0]))
    decreasing = truncation[16] < truncation[8] and truncation[32] < truncation[16]
    passed = per_step <= 1e-11 * scale and decreasing
    return CheckResult(9, "weak residual <= 1e-11*scale at every step; truncation decreasing",
                       passed, {"max_step_residual": per_step, "scale": scale,
                                "truncation": {str(k): v for k, v in truncation.items()}})


def _report_bytes(results: list[CheckResult]) -> bytes:
    payload = [r.as_dict() for r in results]
    return json.dumps(payload, sort_keys=True, default=str).encode()


def _run_once() -> tuple[list[CheckResult], dict]:
    # criteria 1-9 with the wall seconds, the CPU seconds and the kernel calls
    # of the runs of each, keyed by criterion id; the reference run that
    # criteria 1, 2 and 9 share is measured apart
    tallies = {"seconds": {}, "cpu_seconds": {}, "rhs_calls": {}}

    def measured(run):
        # run(), its measures kept under its result's criterion id
        t0, cpu0, n0 = time.perf_counter(), time.process_time(), galerkin.rhs_calls_tally
        out = run()
        measures = (time.perf_counter() - t0, time.process_time() - cpu0,
                    galerkin.rhs_calls_tally - n0)
        key = str(out.cid) if isinstance(out, CheckResult) else "reference_run"
        for tally, value in zip(tallies.values(), measures):
            tally[key] = value
        return out

    ref = measured(lambda: run_config(copy.deepcopy(REFERENCE_RUN)))
    ref_seconds = tallies["seconds"]["reference_run"]
    results = [measured(check) for check in (
        lambda: _check_mass(ref, ref_seconds),
        lambda: _check_energy_identity(ref),
        _check_decay_oracle,
        _check_entropy_estimate,
        _check_nonnegativity,
        _check_slope_bound,
        _check_steady_state,
        _check_profile_contrast,
        lambda: _check_weak_residual(ref))]
    return results, tallies


def run_all() -> tuple[list[CheckResult], dict]:
    """All ten criteria; criterion 10 reruns the suite and compares bytes.

    Returns the results and the timings of both passes:
    {"seconds_per_pass": [...], "cpu_seconds_per_pass": [...],
    "rhs_calls_per_pass": [...]}, each pass a dict from criterion id (and
    "reference_run") to its wall seconds, to its CPU seconds
    (time.process_time) or to the kernel calls of its simulate runs
    (stats.rhs_calls).  The timings stay out of the results: criterion 10
    compares their bytes.
    """
    results, first = _run_once()
    second, again = _run_once()
    identical = _report_bytes(results) == _report_bytes(second)
    results.append(CheckResult(10, "determinism: identical report bytes on a repeated run",
                               identical, {"identical": identical}))
    return results, {f"{name}_per_pass": [first[name], again[name]] for name in first}
