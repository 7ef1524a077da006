"""Reproducible studies mirroring the regularization-cascade limits.

eta-, epsilon-, delta- and N-sweeps with uniform-boundedness verdicts,
the curvature-profile comparison between exact and linearized pressure,
and the mobility-exponent threshold study.  Uniform boundedness is not
falsifiable numerically, so "bounded" is rendered as a plateau criterion
(within factor 2 over the final three values of a geometric sequence).
Whether the entropy estimate improves gradient compactness as delta -> 0
stays open; the sweep records the consecutive-difference trend as data only.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import kernels
from .basis import evaluate, matvec, modes, tables
from .config import (
    STACK_KEYS,
    ConfigError,
    RunOutput,
    _integer,
    check_initial_data,
    resolve_config,
    run_config,
    run_configs,
)
from .diagnostics import positivity_report
from .model import InitialDataError

PLATEAU_FACTOR = 2.0
Y_MAX_MARGIN = 0.02
SWEEP_PARAMETERS = ("eta", "epsilon", "delta", "N")
_COMPARE_POINTS = 257

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 compat


class SweepError(RuntimeError):
    """A sweep member failed; .partial_report holds what completed."""

    def __init__(self, message: str, partial_report: dict):
        super().__init__(message)
        self.partial_report = partial_report


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple
    base_config: dict
    # every sweep runs in this process; the field stays only until the
    # benchmark stops passing jobs=1 (ROADMAP item 1)
    jobs: int = 1

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}")
        if type(self.jobs) is not int or self.jobs != 1:
            raise ConfigError(f"sweep jobs must be 1, got {self.jobs!r}")
        if len(self.values) < 3:
            raise ConfigError("sweep needs at least 3 values")
        diffs = np.diff(np.asarray(self.values, dtype=float))
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("sweep values must be strictly monotone")


def _member_config(spec: SweepSpec, value) -> dict:
    cfg = copy.deepcopy(spec.base_config)
    try:
        if spec.parameter == "N":
            cfg.setdefault("domain", {})["N"] = _integer(value, "N")
        else:
            cfg.setdefault("model", {})[spec.parameter] = float(value)
        check_initial_data(resolve_config(cfg))
    except ValueError as exc:  # a ConfigError or an InitialDataError included
        raise ConfigError(f"bad sweep value {spec.parameter}={value}: {exc}") from exc
    return cfg


def _comparison_samples(out: RunOutput) -> np.ndarray:
    """Trajectory sampled on a fixed uniform grid, for cross-N comparison."""
    domain = out.config.domain
    xs = np.linspace(-domain.half_length, domain.half_length, _COMPARE_POINTS)
    # one cosine table for every snapshot; matvec keeps basis.evaluate's gemv per row
    return matvec(modes(np.arange(domain.modes + 1), xs, domain), out.result.coeffs)


def _member_summary(out: RunOutput) -> dict:
    rec = out.records
    return {
        "config": out.config.resolved,
        "flags": out.result.flags,
        "steps_accepted": out.result.stats.accepted,
        "steps_rejected": out.result.stats.rejected,
        "maxima": {
            "energy_max": float(out.result.nodes.energy.max()),
            "h2_max": float(rec.h2.max()),
            "y_max": float(rec.y_max.max()),
            "min_u": float(rec.min_u.min()),
            "entropy_max": float(rec.entropy.max()) if out.entropy_tracked else None,
            "holder_M": (out.probe.constant_time
                         if out.probe is not None and out.probe.conclusive else None),
        },
        "_samples": _comparison_samples(out),
        "_times": out.result.snapshot_times,
    }


def _run_member(cfgs: list[dict]) -> tuple[list[dict], Exception | None]:
    """One stack of members, stepped together by config.run_configs.

    Returns the summaries of the members before the first one that failed,
    in any phase, and that member's exception (None when all of them ran).
    """
    outputs, failure = run_configs(cfgs)
    members = []
    try:
        for out in outputs:
            members.append(_member_summary(out))
    except Exception as exc:  # this member fails; the later ones are dropped
        failure = exc
    return members, failure


def _l2_spacetime_difference(times: np.ndarray, ua: np.ndarray, ub: np.ndarray,
                             half_length: float) -> float:
    # L2(Omega_T) of the difference via trapezoid in x and t
    xs = np.linspace(-half_length, half_length, _COMPARE_POINTS)
    sq = _trapezoid((ua - ub) ** 2, xs, axis=1)
    return float(np.sqrt(_trapezoid(sq, times)))


def _plateau_verdict(values: list) -> str:
    tail = [v for v in values[-3:] if v is not None]
    if len(tail) < 3:
        return "not-tracked"
    lo, hi = min(tail), max(tail)
    if lo <= 0:
        return "indeterminate"
    return "bounded-uniformly" if hi / lo <= PLATEAU_FACTOR else "growing"


def run_sweep(spec: SweepSpec) -> dict:
    """One simulation per value; maxima, Cauchy trend, and verdicts.

    Every member's config is resolved and its initial data checked before
    the first member runs, so bad input is a ConfigError.  Every sweep runs
    in this process: the members of an eta, epsilon or delta sweep step
    together as one stack (config.run_configs), bit-identical to running
    them one at a time, and an N sweep runs its members one by one.  A
    failed member ends the sweep with the members before it, as a serial run
    would.  Reports are deterministic for a fixed spec.
    """
    configs = [_member_config(spec, v) for v in spec.values]
    stacks = [configs] if spec.parameter in STACK_KEYS else [[cfg] for cfg in configs]
    members: list[dict] = []
    error = None
    for stack in stacks:
        done, error = _run_member(stack)
        members += done
        if error is not None:  # partial report on member failure
            break
    failure = (None if error is None
               else f"member {spec.parameter}={spec.values[len(members)]} failed: {error}")

    half_length = float(members[0]["config"]["domain"]["l"]) if members else 0.0
    cauchy = []
    for a, b in zip(members[:-1], members[1:]):
        cauchy.append(_l2_spacetime_difference(a["_times"], a["_samples"], b["_samples"],
                                               half_length))
    for m in members:
        m.pop("_samples", None)
        m.pop("_times", None)

    values_done = list(spec.values[: len(members)])
    verdicts = {}
    for q in ("energy_max", "entropy_max", "h2_max", "holder_M"):
        verdicts[q] = _plateau_verdict([m["maxima"][q] for m in members])
    ys = [m["maxima"]["y_max"] for m in members[-3:]]
    verdicts["y_max_below_one"] = bool(ys and max(ys) < 1.0 - Y_MAX_MARGIN)
    if spec.parameter == "delta":
        verdicts["uniform"] = (verdicts["h2_max"] == "bounded-uniformly"
                               and verdicts["y_max_below_one"])
    cauchy_trend = "decreasing" if (len(cauchy) >= 2 and
                                    all(b < a for a, b in zip(cauchy[:-1], cauchy[1:]))) else "mixed"

    report = {
        "kind": "sweep",
        "parameter": spec.parameter,
        "values": values_done,
        "members": members,
        "cauchy_l2_differences": cauchy,
        "cauchy_trend": cauchy_trend if cauchy else "n/a",
        "verdicts": verdicts,
        "complete": failure is None and len(members) == len(spec.values),
    }
    if failure is not None:
        report["failure"] = failure
        raise SweepError(failure, report)
    return report


def _weighted_cov(values: np.ndarray, weights: np.ndarray, mask: np.ndarray) -> float:
    w = weights[mask]
    v = values[mask]
    if w.size == 0:
        return float("nan")
    mean = float(np.dot(w, v) / w.sum())
    var = float(np.dot(w, (v - mean) ** 2) / w.sum())
    if abs(mean) < 1e-300:
        return float("nan")
    return float(np.sqrt(var) / abs(mean))


def _profile_stats(out: RunOutput, index: int) -> dict:
    rc = out.config
    t = tables(rc.domain)
    _, _, u, _, uxx, Q, _ = kernels.fields(out.result.coeffs[index], t, rc.params)
    core = u > 0.1 * u.max()
    kappa = uxx / Q**3
    # spectral roundoff floor for u_xx: lambda_N amplifies coefficient noise
    noise = 1e-12 * float(t.lam.max()) * max(1.0, float(np.abs(u).max()))
    return {
        "cov_kappa": _weighted_cov(kappa, t.w, core),
        "cov_uxx": _weighted_cov(uxx, t.w, core),
        "core_fraction": float(np.count_nonzero(core)) / core.size,
        "kappa_scale": float(np.max(np.abs(kappa))),
        "kappa_noise_floor": noise,
    }


def curvature_profile_study(base_config: dict) -> dict:
    """Both pressure modes on identical data: does curvature equilibrate?

    Exact-curvature relaxation drives kappa = u_xx/Q^3 toward a constant on
    the droplet core (spherical-cap profile); the linearized pressure drives
    u_xx there instead (paraboloid profile).  The coefficient of variation
    on the core set {u > 0.1 max u} is the equilibration measure.
    """
    runs = {}
    for mode in ("nonlinear", "linear"):
        cfg = copy.deepcopy(base_config)
        cfg.setdefault("model", {})["pressure_mode"] = mode
        runs[mode] = run_config(cfg)

    report = {"kind": "profile", "modes": {}}
    degenerate = False
    for mode, out in runs.items():
        first = _profile_stats(out, 0)
        last = _profile_stats(out, out.result.snapshot_times.size - 1)
        if first["kappa_scale"] <= first["kappa_noise_floor"]:
            degenerate = True
        xs = np.linspace(-out.config.domain.half_length, out.config.domain.half_length, 201)
        report["modes"][mode] = {
            "config": out.config.resolved,
            "initial": first,
            "final": last,
            "profile_x": xs.tolist(),
            "profile_u0": evaluate(out.result.snapshot_field(0), xs, out.config.domain).tolist(),
            "profile_uT": evaluate(
                out.result.snapshot_field(out.result.snapshot_times.size - 1),
                xs, out.config.domain).tolist(),
        }
    nl = report["modes"]["nonlinear"]
    li = report["modes"]["linear"]
    report["degenerate"] = degenerate
    report["verdicts"] = {
        "nonlinear_curvature_equilibrates": (not degenerate and
                                             nl["final"]["cov_kappa"] < nl["initial"]["cov_kappa"]),
        "linear_uxx_equilibrates": (not degenerate and
                                    li["final"]["cov_uxx"] < li["initial"]["cov_uxx"]),
        "curvature_flatter_than_uxx": (not degenerate and
                                       nl["final"]["cov_kappa"] < nl["final"]["cov_uxx"]),
    }
    return report


def threshold_study(n_values: list, base_config: dict) -> dict:
    """Positivity trends across mobility exponents straddling 2 and 8/3.

    Limit theorems cannot be established numerically: rows report min u and
    zero-set trends at the smallest feasible epsilon, and the verdicts are
    consistency checks only.  Exponents whose data is inadmissible (infinite
    initial entropy) are skipped with the reason recorded.
    """
    rows = []
    for n in n_values:
        cfg = copy.deepcopy(base_config)
        cfg.setdefault("model", {})["n"] = float(n)
        row = {"n": float(n)}
        try:
            out = run_config(cfg)
        except InitialDataError as exc:
            row["skipped"] = str(exc)
            rows.append(row)
            continue
        rec = out.records
        rep = positivity_report(rec, out.config.params, out.config.domain)
        row.update({
            "config": out.config.resolved,
            "min_u_overall": float(rec.min_u.min()),
            "min_u_final": float(rec.min_u[-1]),
            "zero_frac_max": float(rec.zero_frac.max()),
            "nonneg_ok": rep.nonneg_ok,
            "zero_measure_ok": rep.zero_measure_ok,
            "positive_ok": rep.positive_ok,
        })
        rows.append(row)

    ran = [r for r in rows if "skipped" not in r]
    verdicts = {
        "all_nonnegative": bool(ran) and all(r["nonneg_ok"] for r in ran),
        "zero_measure_consistent": all(r["zero_measure_ok"] for r in ran
                                       if r["zero_measure_ok"] is not None),
        "positivity_consistent": all(r["positive_ok"] for r in ran
                                     if r["positive_ok"] is not None),
    }
    return {
        "kind": "thresholds",
        "n_values": [float(n) for n in n_values],
        "rows": rows,
        "verdicts": verdicts,
        "note": "trend/consistency checks only; the limit statements are not numerically falsifiable",
    }
