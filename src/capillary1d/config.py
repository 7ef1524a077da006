"""Configuration ingestion and the config-driven run pipeline.

Single-file JSON configs (schema_version 1) describe domain, model,
integrator, initial data and diagnostics; the keys of DEFAULT_CONFIG are the
schema.  resolve_config turns the raw dict into concrete objects and a fully
resolved copy (anchor substituted, snapshot times expanded, initial-data
defaults filled in) that output writers embed for provenance: re-running
from the embedded config reproduces the series byte-identically.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .basis import DomainSpec, SpectralField, project, synthesize
from .diagnostics import DiagnosticsRecord, default_tol_zero, holder_probe, trajectory_records
from .galerkin import IntegratorSpec, SimulationResult, simulate
from .model import (
    InitialDataError,
    ModelParams,
    entropy_functions,
    validate_initial_data,
)

SCHEMA_VERSION = 1
MAX_SNAPSHOTS = 10_000

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
    "initial_data": {"kind": "cosine_bump", "parameters": {}},
    "diagnostics": {
        "r_values": [1.5, 2.0],
        "tol_zero": None,
        "holder_probe": False,
        "track_entropy": True,
        "track_weak_residual": False,
    },
}

# parameter names and defaults of each initial-data kind (build_initial_data)
INITIAL_DATA_KINDS = {
    "constant": {"value": 1.0},
    "cosine_bump": {"base": 1.0, "amplitude": 0.5},
    "droplet": {"floor": 1e-6, "amplitude": 1.0, "power": 3},
    "coeffs": {"values": []},
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


def merge_config(raw: dict) -> dict:
    """DEFAULT_CONFIG with raw's values in place; refuses unknown keys and non-object sections."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in copy.deepcopy(raw).items():
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        section = cfg[key]
        if not isinstance(section, dict):
            cfg[key] = value
        elif not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be an object, got {value!r}")
        elif not set(value) <= set(section):
            unknown = sorted(set(value) - set(section))[0]
            raise ConfigError(f"unknown config key {key}.{unknown} ({key} takes {sorted(section)})")
        else:
            section.update(value)
    return cfg


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


def build_initial_data(kind: str, parameters: dict,
                       domain: DomainSpec) -> tuple[SpectralField, dict]:
    """Construct u0 for the supported kinds; returns it with the full parameters.

    cosine_bump: b + A (1 + cos(pi x / l)) / 2 (band-limited, exact for N >= 2).
    droplet: floor + A cos^{2k}(pi x / (2l)), a smooth compact-ish bump with
    u <= 1e-6 tails (true compact support is incompatible with a finite
    cosine expansion); exact in the basis for N >= 2k.
    coeffs: raw spectral coefficients, zero-padded/truncated to N+1.
    Missing parameters take the kind's defaults (INITIAL_DATA_KINDS), never another kind's.
    """
    if kind not in INITIAL_DATA_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not isinstance(parameters, dict):
        raise ValueError(f"parameters must be an object, got {parameters!r}")
    defaults = INITIAL_DATA_KINDS[kind]
    unknown = sorted(set(parameters) - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameter {unknown[0]!r} for {kind} (takes {sorted(defaults)})")
    p = {**copy.deepcopy(defaults), **parameters}
    l = domain.half_length
    if kind == "constant":
        value = _number(p["value"], "value")
        return project(lambda x: np.full_like(x, value), domain), p
    if kind == "cosine_bump":
        base, amp = _number(p["base"], "base"), _number(p["amplitude"], "amplitude")
        return project(lambda x: base + amp * 0.5 * (1.0 + np.cos(np.pi * x / l)), domain), p
    if kind == "droplet":
        floor, amp = _number(p["floor"], "floor"), _number(p["amplitude"], "amplitude")
        power = _integer(p["power"], "power")
        if 2 * power > domain.modes:
            raise ValueError(
                f"droplet power {power} needs N >= {2 * power} modes for an exact representation")
        return project(lambda x: floor + amp * np.cos(np.pi * x / (2 * l)) ** (2 * power),
                       domain), p
    if not isinstance(p["values"], (list, tuple)):
        raise ValueError(f"values must be a list of numbers, got {p['values']!r}")
    values = np.array([_number(v, "values") for v in p["values"]], dtype=float)
    c = np.zeros(domain.modes + 1)
    m = min(values.size, c.size)
    c[:m] = values[:m]
    return SpectralField(c), p


def _integer(value, name: str) -> int:
    """An integral config entry; refuses to truncate a fractional number."""
    number = _number(value, name)
    if not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _number(value, name: str) -> float:
    """A real config entry: a JSON number or a numpy scalar.

    Refuses booleans, which Python reads as 0 and 1, and strings, which
    float() would parse and the resolved config would keep as strings.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass
class ResolvedConfig:
    domain: DomainSpec
    params: ModelParams
    spec: IntegratorSpec
    u0: SpectralField
    resolved: dict  # fully-resolved raw dict, embedded in outputs


def resolve_config(raw: dict) -> ResolvedConfig:
    cfg = merge_config(raw)
    if isinstance(cfg["schema_version"], bool) or cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg['schema_version']!r}")

    dom = cfg["domain"]
    try:
        domain = DomainSpec(half_length=_number(dom["l"], "l"), modes=_integer(dom["N"], "N"),
                            oversample=_integer(dom["oversample"], "oversample"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad domain section: {exc}") from exc

    idata = cfg["initial_data"]
    try:
        u0, idata["parameters"] = build_initial_data(idata["kind"], idata["parameters"], domain)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad initial_data section: {exc}") from exc

    mdl = cfg["model"]
    anchor = mdl["entropy_anchor"]
    if anchor == "auto":
        anchor = float(synthesize(u0, domain, order=0).u.max()) + 1.0
    try:
        params = ModelParams(
            n=_number(mdl["n"], "n"),
            delta=_number(mdl["delta"], "delta"),
            epsilon=_number(mdl["epsilon"], "epsilon"),
            eta=_number(mdl["eta"], "eta"),
            pressure_mode=mdl["pressure_mode"],
            entropy_anchor=_number(anchor, "entropy_anchor"),
            mobility_mode=mdl["mobility_mode"],
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc

    itg = cfg["integrator"]
    try:
        T = _number(itg["T"], "T")
        snaps = itg["snapshots"]
        if isinstance(snaps, (int, float)) and not isinstance(snaps, bool):
            count = _integer(snaps, "snapshots count")
            if not 2 <= count <= MAX_SNAPSHOTS:
                raise ValueError(f"snapshots count must be in [2, {MAX_SNAPSHOTS}], got {count}")
            snap_times = tuple(float(s) for s in np.linspace(0.0, T, count))
        elif isinstance(snaps, (list, tuple)):
            if len(snaps) > MAX_SNAPSHOTS:
                raise ValueError(f"more than {MAX_SNAPSHOTS} snapshot times")
            snap_times = tuple(sorted(_number(s, "snapshot time") for s in snaps))
        else:
            raise ValueError(f"snapshots must be a count or a list, got {snaps!r}")
        spec = IntegratorSpec(
            t_end=T,
            method=itg["method"],
            rtol=_number(itg["rtol"], "rtol"),
            atol=_number(itg["atol"], "atol"),
            dt=None if itg["dt"] is None else _number(itg["dt"], "dt"),
            snapshot_times=snap_times,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad integrator section: {exc}") from exc

    diag = cfg["diagnostics"]
    for key in ("holder_probe", "track_entropy", "track_weak_residual"):
        if not isinstance(diag[key], bool):
            raise ConfigError(f"diagnostics.{key} must be true or false, got {diag[key]!r}")
    tol_zero, r_values = diag["tol_zero"], diag["r_values"]
    try:
        if tol_zero is not None and not 0.0 <= _number(tol_zero, "tol_zero") < math.inf:
            raise ValueError(f"tol_zero must be null or a finite number >= 0, got {tol_zero!r}")
        if not (isinstance(r_values, (list, tuple))
                and all(math.isfinite(_number(r, "r_values")) for r in r_values)):
            raise ValueError(f"r_values must be a list of finite numbers, got {r_values!r}")
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad diagnostics section: {exc}") from exc

    resolved = copy.deepcopy(cfg)
    resolved["model"]["entropy_anchor"] = params.entropy_anchor
    resolved["integrator"]["snapshots"] = list(snap_times)
    return ResolvedConfig(
        domain=domain,
        params=params,
        spec=spec,
        u0=u0,
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
    diag = rc.resolved["diagnostics"]
    track_entropy = diag["track_entropy"]

    report = validate_initial_data(rc.u0, rc.params, rc.domain, entropy_required=track_entropy)
    if not report.valid:
        raise InitialDataError("; ".join(report.errors))

    entropy = entropy_functions(rc.params) if track_entropy else None
    r_values = tuple(float(r) for r in diag["r_values"])
    tol_zero = diag["tol_zero"]
    if tol_zero is None:
        tol_zero = default_tol_zero(synthesize(rc.u0, rc.domain, order=0).u)
    result = simulate(
        rc.u0, rc.spec, rc.params, rc.domain,
        r_values=r_values,
        track_weak_residual=diag["track_weak_residual"],
        tol_zero=float(tol_zero),
    )
    records = trajectory_records(result, entropy=entropy, tol_zero=float(tol_zero))
    probe = holder_probe(result) if diag["holder_probe"] else None
    return RunOutput(
        config=rc,
        result=result,
        records=records,
        entropy_tracked=track_entropy,
        validation_warnings=report.warnings,
        probe=probe,
    )
