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
import dataclasses
import json
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import DomainSpec, SpectralField, project, tables
from .diagnostics import Records, holder_probe, trajectory_records
from .galerkin import IntegratorSpec, SimulationResult, simulate, simulate_stack
from .model import (
    ConfigError,
    InitialDataError,
    ModelParams,
    ValidationReport,
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
        # the r-weighted dissipations are gone; the key stays at their old
        # default only, which resolve_config refuses to change
        "r_values": [1.5, 2.0],
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
        if power < 1:
            raise ValueError(f"droplet power must be at least 1, got {power}")
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
        anchor = float((tables(domain).E @ u0.coeffs).max()) + 1.0
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
        # the spec refuses a bad T before the snapshot times are spread over it
        spec = IntegratorSpec(
            t_end=_number(itg["T"], "T"),
            method=itg["method"],
            rtol=_number(itg["rtol"], "rtol"),
            atol=_number(itg["atol"], "atol"),
            dt=None if itg["dt"] is None else _number(itg["dt"], "dt"),
        )
        snaps = itg["snapshots"]
        if isinstance(snaps, (int, float)) and not isinstance(snaps, bool):
            count = _integer(snaps, "snapshots count")
            if not 2 <= count <= MAX_SNAPSHOTS:
                raise ValueError(f"snapshots count must be in [2, {MAX_SNAPSHOTS}], got {count}")
            snap_times = tuple(float(s) for s in np.linspace(0.0, spec.t_end, count))
        elif isinstance(snaps, (list, tuple)):
            # an empty list would run with the default [0, T] yet embed []
            if not 1 <= len(snaps) <= MAX_SNAPSHOTS:
                raise ValueError(f"a snapshots list must hold 1 to {MAX_SNAPSHOTS} times,"
                                 f" got {len(snaps)}")
            snap_times = tuple(sorted(_number(s, "snapshot time") for s in snaps))
        else:
            raise ValueError(f"snapshots must be a count or a list, got {snaps!r}")
        spec = dataclasses.replace(spec, snapshot_times=snap_times)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad integrator section: {exc}") from exc

    diag = cfg["diagnostics"]
    for key in ("holder_probe", "track_entropy", "track_weak_residual"):
        if not isinstance(diag[key], bool):
            raise ConfigError(f"diagnostics.{key} must be true or false, got {diag[key]!r}")
    r_values = DEFAULT_CONFIG["diagnostics"]["r_values"]
    if not (isinstance(diag["r_values"], (list, tuple)) and list(diag["r_values"]) == r_values):
        raise ConfigError(f"diagnostics.r_values is {diag['r_values']!r}: the r-weighted "
                          "dissipations were removed, so omit the key")

    resolved = copy.deepcopy(cfg)
    resolved["diagnostics"]["r_values"] = list(r_values)
    resolved["model"]["entropy_anchor"] = params.entropy_anchor
    resolved["integrator"]["snapshots"] = list(snap_times)
    return ResolvedConfig(
        domain=domain,
        params=params,
        spec=spec,
        u0=u0,
        resolved=resolved,
    )


def check_initial_data(rc: ResolvedConfig) -> ValidationReport:
    """validate_initial_data on rc; raises InitialDataError when u0 is not admissible."""
    report = validate_initial_data(rc.u0, rc.params, rc.domain,
                                   entropy_required=rc.resolved["diagnostics"]["track_entropy"])
    if not report.valid:
        raise InitialDataError("; ".join(report.errors))
    return report


@dataclass
class RunOutput:
    config: ResolvedConfig
    result: SimulationResult
    records: Records
    entropy_tracked: bool
    validation_warnings: list[str]
    probe: object | None = None
    # wall seconds of each phase of run_config, keyed by the benchmark's
    # layer names; never part of a byte-compared output
    timings: dict[str, float] = field(default_factory=dict)


# the model keys in which the configs of one run_configs stack may differ
STACK_KEYS = ("delta", "epsilon", "eta", "entropy_anchor")


def run_config(raw: dict) -> RunOutput:
    """Validate, simulate and attach diagnostics for one configuration."""
    outputs, failure = run_configs([raw])
    if failure is not None:
        raise failure
    return outputs[0]


def run_configs(raws: list[dict]) -> tuple[list[RunOutput], Exception | None]:
    """run_config on each of raws in order, their integrations stepped as one stack.

    The configs may differ in the model keys STACK_KEYS only (ValueError
    otherwise).  One config runs through galerkin.simulate, several through
    galerkin.simulate_stack, and every output is bit-identical to run_config
    on its config alone; a stack member's galerkin.integrate timing is the
    whole stack's.  Returns (outputs, failure) as if the configs had run one
    after another: the outputs of the configs before the first one that
    raised in any phase, and that exception (None when every config ran).
    """
    timings = [{} for _ in raws]
    mark = time.perf_counter()

    def lap(i: int, phase: str) -> None:
        # a phase runs from the end of the previous one, so one config's
        # phases add up to its whole call
        nonlocal mark
        now = time.perf_counter()
        timings[i][phase] = now - mark
        mark = now

    prepared = []  # (rc, validation report, entropy pair) per config
    failure = None
    for i, raw in enumerate(raws):
        try:
            rc = resolve_config(raw)
            lap(i, "config.resolve")
            report = check_initial_data(rc)
            lap(i, "model.validate")
            track_entropy = rc.resolved["diagnostics"]["track_entropy"]
            entropy = entropy_functions(rc.params) if track_entropy else None
            lap(i, "model.entropy")
        except Exception as exc:  # this config fails; the later ones never run
            failure = exc
            break
        prepared.append((rc, report, entropy))
    if not prepared:
        return [], failure

    def shared(rc):
        cfg = copy.deepcopy(rc.resolved)
        for key in STACK_KEYS:
            del cfg["model"][key]
        return cfg

    rc0 = prepared[0][0]
    if any(shared(rc) != shared(rc0) for rc, *_ in prepared[1:]):
        raise ValueError(f"configs of one stack may differ in model.{STACK_KEYS} only")
    track_weak_residual = rc0.resolved["diagnostics"]["track_weak_residual"]
    if len(prepared) == 1:
        try:
            results = [simulate(rc0.u0, rc0.spec, rc0.params, rc0.domain,
                                track_weak_residual=track_weak_residual)]
        except Exception as exc:
            results, failure = [], exc
    else:
        results, abort = simulate_stack(
            [rc.u0 for rc, *_ in prepared], rc0.spec, [rc.params for rc, *_ in prepared],
            rc0.domain, track_weak_residual=track_weak_residual)
        if abort is not None:  # from a config before the one that failed, if any
            failure = abort
    elapsed = time.perf_counter() - mark
    mark += elapsed
    for t in timings[:len(results)]:
        t["galerkin.integrate"] = elapsed

    outputs = []
    for i, ((rc, report, entropy), result) in enumerate(zip(prepared, results)):
        try:
            records = trajectory_records(result, entropy=entropy)
            lap(i, "diagnostics.records")
            probe = holder_probe(result) if rc.resolved["diagnostics"]["holder_probe"] else None
            lap(i, "diagnostics.probe")
        except Exception as exc:
            return outputs, exc
        outputs.append(RunOutput(
            config=rc,
            result=result,
            records=records,
            entropy_tracked=entropy is not None,
            validation_warnings=report.warnings,
            probe=probe,
            timings=timings[i],
        ))
    return outputs, failure
