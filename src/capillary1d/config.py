"""Configuration ingestion and the config-driven run pipeline.

Single-file JSON configs (schema_version 1) describe domain, model,
integrator, initial data, diagnostics and output.  resolve_config turns the
raw dict into concrete objects and a fully-resolved copy of the dict (anchor
substituted, snapshot times expanded) that output writers embed for
provenance: re-running from the embedded config reproduces the series
byte-identically.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from .basis import DomainSpec, SpectralField, project, synthesize
from .diagnostics import DiagnosticsRecord, holder_probe, trajectory_records
from .galerkin import IntegratorSpec, SimulationResult, simulate
from .model import (
    InitialDataError,
    ModelParams,
    entropy_functions,
    validate_initial_data,
)

SCHEMA_VERSION = 1

DEFAULT_CONFIG: dict = {
    "schema_version": SCHEMA_VERSION,
    "domain": {"l": 1.0, "N": 16, "oversample": 8},
    "model": {
        "n": 2.0,
        "delta": 0.1,
        "epsilon": 0.1,
        "eta": 0.0,
        "pressure_mode": "nonlinear",
        "entropy_anchor": "auto",
        "mobility_mode": "standard",
    },
    "integrator": {
        "method": "rkf45",
        "rtol": 1e-8,
        "atol": 1e-10,
        "dt": None,
        "T": 0.01,
        "snapshots": 9,
    },
    "initial_data": {"kind": "cosine_bump", "parameters": {"base": 1.0, "amplitude": 0.5}},
    "diagnostics": {
        "r_values": [1.5, 2.0],
        "tol_zero": None,
        "tol_neg": None,
        "holder_probe": False,
        "track_entropy": True,
        "track_weak_residual": False,
    },
    "output": {"directory": "out", "formats": ["csv", "json"]},
}


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def merge_config(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = merge_config(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def apply_overrides(config: dict, assignments: list[str]) -> dict:
    """Apply --set key.path=value assignments (values parsed as JSON when possible)."""
    out = copy.deepcopy(config)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override must look like key.path=value, got {item!r}")
        path, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        keys = path.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object")
        node[keys[-1]] = value
    return out


def build_initial_data(kind: str, parameters: dict, domain: DomainSpec) -> SpectralField:
    """Construct u0 for the supported kinds.

    cosine_bump: b + A (1 + cos(pi x / l)) / 2 (band-limited, exact for N >= 2).
    droplet: floor + A cos^{2k}(pi x / (2l)), a smooth compact-ish bump with
    u <= 1e-6 tails (true compact support is incompatible with a finite
    cosine expansion); exact in the basis for N >= 2k.
    coeffs: raw spectral coefficients, zero-padded/truncated to N+1.
    """
    l = domain.half_length
    if kind == "constant":
        value = float(parameters.get("value", 1.0))
        return project(lambda x: np.full_like(x, value), domain)
    if kind == "cosine_bump":
        base = float(parameters.get("base", 1.0))
        amp = float(parameters.get("amplitude", 0.5))
        return project(lambda x: base + amp * 0.5 * (1.0 + np.cos(np.pi * x / l)), domain)
    if kind == "droplet":
        floor = float(parameters.get("floor", 1e-6))
        amp = float(parameters.get("amplitude", 1.0))
        power = int(parameters.get("power", 3))
        if 2 * power > domain.modes:
            raise ConfigError(
                f"droplet power {power} needs N >= {2 * power} modes for an exact representation")
        return project(lambda x: floor + amp * np.cos(np.pi * x / (2 * l)) ** (2 * power), domain)
    if kind == "coeffs":
        values = np.asarray(parameters.get("values", []), dtype=float)
        c = np.zeros(domain.modes + 1)
        m = min(values.size, c.size)
        c[:m] = values[:m]
        return SpectralField(c)
    raise ConfigError(f"unknown initial_data kind {kind!r}")


def _integer(value, name: str) -> int:
    """An integral config entry; refuses to truncate a fractional number."""
    number = float(value)
    if isinstance(value, bool) or not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(number)


@dataclass
class ResolvedConfig:
    domain: DomainSpec
    params: ModelParams
    spec: IntegratorSpec
    u0: SpectralField
    diagnostics: dict
    output: dict
    resolved: dict  # fully-resolved raw dict, embedded in outputs


def resolve_config(raw: dict) -> ResolvedConfig:
    cfg = merge_config(DEFAULT_CONFIG, raw)
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg.get('schema_version')!r}")

    dom = cfg["domain"]
    try:
        domain = DomainSpec(half_length=float(dom["l"]), modes=_integer(dom["N"], "N"),
                            oversample=_integer(dom["oversample"], "oversample"))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad domain section: {exc}") from exc

    idata = cfg["initial_data"]
    u0 = build_initial_data(idata.get("kind", "constant"), idata.get("parameters", {}), domain)

    mdl = cfg["model"]
    anchor = mdl.get("entropy_anchor", "auto")
    if anchor == "auto":
        anchor = float(synthesize(u0, domain, order=0).u.max()) + 1.0
    try:
        params = ModelParams(
            n=float(mdl["n"]),
            delta=float(mdl["delta"]),
            epsilon=float(mdl["epsilon"]),
            eta=float(mdl["eta"]),
            pressure_mode=mdl["pressure_mode"],
            entropy_anchor=float(anchor),
            mobility_mode=mdl.get("mobility_mode", "standard"),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc

    itg = cfg["integrator"]
    method = {"rk4-fixed": "rk4", "rkf45-adaptive": "rkf45"}.get(
        itg.get("method", "rkf45"), itg.get("method", "rkf45"))
    T = float(itg["T"])
    snaps = itg.get("snapshots", 9)
    if isinstance(snaps, (int, float)) and not isinstance(snaps, bool):
        count = int(snaps)
        if count < 2:
            raise ConfigError("snapshots count must be >= 2")
        snap_times = tuple(float(s) for s in np.linspace(0.0, T, count))
    elif isinstance(snaps, (list, tuple)):
        snap_times = tuple(sorted(float(s) for s in snaps))
    else:
        raise ConfigError(f"snapshots must be a count or a list, got {snaps!r}")
    try:
        spec = IntegratorSpec(
            t_end=T,
            method=method,
            rtol=float(itg.get("rtol", 1e-8)),
            atol=float(itg.get("atol", 1e-10)),
            dt=None if itg.get("dt") is None else float(itg["dt"]),
            snapshot_times=snap_times,
        )
    except ValueError as exc:
        raise ConfigError(f"bad integrator section: {exc}") from exc

    resolved = copy.deepcopy(cfg)
    resolved["model"]["entropy_anchor"] = params.entropy_anchor
    resolved["integrator"]["snapshots"] = list(snap_times)
    return ResolvedConfig(
        domain=domain,
        params=params,
        spec=spec,
        u0=u0,
        diagnostics=cfg["diagnostics"],
        output=cfg["output"],
        resolved=resolved,
    )


@dataclass
class RunOutput:
    config: ResolvedConfig
    result: SimulationResult
    records: list[DiagnosticsRecord]
    entropy_tracked: bool
    validation_warnings: list[str]
    probe: object | None = None


def run_config(raw_or_resolved) -> RunOutput:
    """Validate, simulate and attach diagnostics for one configuration."""
    rc = raw_or_resolved if isinstance(raw_or_resolved, ResolvedConfig) else resolve_config(raw_or_resolved)
    diag = rc.diagnostics
    track_entropy = bool(diag.get("track_entropy", True))

    report = validate_initial_data(rc.u0, rc.params, rc.domain, entropy_required=track_entropy)
    if not report.valid:
        raise InitialDataError("; ".join(report.errors))

    entropy = entropy_functions(rc.params) if track_entropy else None
    r_values = tuple(float(r) for r in diag.get("r_values", [1.5, 2.0]))
    tol_zero = diag.get("tol_zero")
    if tol_zero is None:
        u0max = float(np.abs(synthesize(rc.u0, rc.domain, order=0).u).max())
        tol_zero = 1e-7 * max(1.0, u0max)
    result = simulate(
        rc.u0, rc.spec, rc.params, rc.domain,
        r_values=r_values,
        track_weak_residual=bool(diag.get("track_weak_residual", False)),
        tol_zero=float(tol_zero),
    )
    records = trajectory_records(result, entropy=entropy, tol_zero=float(tol_zero))
    probe = holder_probe(result) if diag.get("holder_probe", False) else None
    return RunOutput(
        config=rc,
        result=result,
        records=records,
        entropy_tracked=track_entropy,
        validation_warnings=report.warnings,
        probe=probe,
    )
