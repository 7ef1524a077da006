"""Command-line interface: simulate | sweep | compare | thresholds | verify.

Batch tool with plot-ready outputs; no interactive UI.  All floating-point
output is printed with shortest round-trip representation, files are UTF-8
with LF line endings, so identical configs reproduce identical bytes.

Exit codes: 0 success, 2 validation/config failure, 3 integrator abort or
study failure (machine-readable error JSON goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import kernels
from .basis import tables
from .config import (
    ConfigError,
    RunOutput,
    apply_overrides,
    load_config,
    run_config,
)
from .diagnostics import energy_identity_residual, mass_drift, slope_threshold
from .experiments import (
    SWEEP_PARAMETERS,
    SweepError,
    SweepSpec,
    curvature_profile_study,
    run_sweep,
    threshold_study,
)
from .galerkin import SimulationAbort
from .model import InitialDataError

# the series.csv columns, each a Records column
SERIES_COLUMNS = ("t", "mass", "energy_surface", "energy_delta", "dissipation_cum", "entropy",
                  "entropy_dissipation_cum", "min_u", "max_u", "zero_frac", "y_max", "h1", "h2",
                  "weak_residual")
SNAP_HEADER = "x,u,ux,uxx,p,Q"

DEFAULT_SWEEP_VALUES = {
    "epsilon": (1e-1, 1e-2, 1e-3),
    "delta": (0.3, 0.1, 0.03, 0.01),
    "eta": (1.0, 0.1, 0.01),
    "N": (8, 16, 32),
}
EPSILON_DEEP_FLOOR = 1e-3


def _fmt(v) -> str:
    """Shortest round-trip decimal representation."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: str, lines) -> None:
    """A header line and one line per row, UTF-8 with LF endings."""
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8", newline="\n")


def write_series_csv(out: RunOutput, path: Path) -> None:
    # every column is float64, so repr is _fmt's shortest round-trip form
    columns = [getattr(out.records, name).tolist() for name in SERIES_COLUMNS]
    _write_csv(path, ",".join(SERIES_COLUMNS),
               (",".join(map(repr, row)) for row in zip(*columns)))


def write_snapshot_csvs(out: RunOutput, outdir: Path) -> list[str]:
    rc = out.config
    t = tables(rc.domain)
    # every column is float64, so repr is _fmt's shortest round-trip form;
    # the x column is the same in every file, so it is formatted once
    x_cells = [x + "," for x in map(repr, t.x.tolist())]
    names = []
    for i, c in enumerate(out.result.coeffs):
        _, d, u, ux, uxx, Q, _ = kernels.fields(c, t, rc.params)
        rows = np.column_stack((u, ux, uxx, t.E @ d, Q)).tolist()
        name = f"snap_{i}.csv"
        _write_csv(outdir / name, SNAP_HEADER,
                   (x + ",".join(map(repr, row)) for x, row in zip(x_cells, rows)))
        names.append(name)
    return names


def _simulate_verdicts(out: RunOutput) -> dict:
    E = out.result.nodes.energy
    rec = out.records
    y_max = float(rec.y_max[-1])
    threshold = slope_threshold(rec.energy_surface[-1], rec.curvature_dissipation[-1],
                                out.config.domain.half_length)
    return {
        "mass_relative_drift": mass_drift(rec),
        "energy_monotone": bool(np.all(np.diff(E) <= 1e-9 * max(E[0], 1.0))),
        "energy_identity_max_residual": energy_identity_residual(out.result)[1],
        "slope_bound_satisfied": y_max <= threshold,
        "final_y_max": y_max,
        "final_slope_threshold": threshold,
    }


def write_run_artifacts(out: RunOutput, outdir: Path, wall_clock: float) -> dict:
    """series.csv, the snapshot CSVs and summary.json.

    wall_clock is the caller's time for run_config; summary.json adds the
    time of each phase (timings_s), the writing up to summary.json included.
    """
    start = time.perf_counter()
    outdir.mkdir(parents=True, exist_ok=True)
    write_series_csv(out, outdir / "series.csv")
    snaps = write_snapshot_csvs(out, outdir)
    summary = {
        "schema_version": out.config.resolved["schema_version"],
        "config": out.config.resolved,
        "verdicts": _simulate_verdicts(out),
        "flags": out.result.flags,
        "validation_warnings": out.validation_warnings,
        "stats": {
            "steps_accepted": out.result.stats.accepted,
            "steps_rejected": out.result.stats.rejected,
            "rhs_calls": out.result.stats.rhs_calls,
            "dt_last": out.result.stats.dt_last,
            "dt_min": out.result.stats.dt_min,
            "dt_max": out.result.stats.dt_max,
        },
        "snapshots": snaps,
        "holder_probe": (None if out.probe is None else {
            "exponent_time": out.probe.exponent_time,
            "constant_time": out.probe.constant_time,
            "exponent_space": out.probe.exponent_space,
            "constant_space": out.probe.constant_space,
            "n_samples": out.probe.n_samples,
            "conclusive": out.probe.conclusive,
        }),
        "wall_clock_seconds": wall_clock,
        "timings_s": {**out.timings, "cli.write": time.perf_counter() - start},
    }
    _write_json(outdir / "summary.json", summary)
    return summary


def _emit_error(exc: Exception, code: int) -> int:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return code


def _number_list(text: str, flag: str) -> list[float]:
    """The comma-separated numbers of a flag; a ConfigError names a bad entry."""
    values = []
    for entry in text.split(","):
        try:
            values.append(float(entry))
        except ValueError:
            raise ConfigError(f"{flag} entry {entry!r} is not a number") from None
    return values


def _load(args) -> dict:
    cfg = load_config(args.config)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load(args)
    t0 = time.perf_counter()
    out = run_config(cfg)
    wall = time.perf_counter() - t0
    write_run_artifacts(out, Path(args.out), wall)
    print(f"wrote {args.out}/series.csv ({out.records.t.size} snapshots, "
          f"{out.result.stats.accepted} steps)")
    return 0


def _sweep_csv(report: dict, path: Path) -> None:
    cols = ["value", "energy_max", "entropy_max", "h2_max", "y_max", "min_u",
            "holder_M", "steps_accepted"]
    rows = ([v] + [m["maxima"][c] for c in cols[1:-1]] + [m["steps_accepted"]]
            for v, m in zip(report["values"], report["members"]))
    _write_csv(path, ",".join(cols), (",".join("" if x is None else _fmt(x) for x in row)
                                      for row in rows))


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if args.values:
        values = tuple(_number_list(args.values, "--values"))
    else:
        values = DEFAULT_SWEEP_VALUES[args.param]
    if args.param == "epsilon" and min(values) < EPSILON_DEEP_FLOOR and not args.deep:
        raise ConfigError(
            f"epsilon below {EPSILON_DEEP_FLOOR} with degenerate data needs --deep")
    spec = SweepSpec(parameter=args.param, values=values, base_config=cfg)
    outdir = Path(args.out)
    try:
        report = run_sweep(spec)
    except SweepError as exc:
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "sweep_report.json", exc.partial_report)
        return _emit_error(exc, 3)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "sweep_report.json", report)
    _sweep_csv(report, outdir / "sweep_report.csv")
    print(f"wrote {args.out}/sweep_report.json "
          f"(param={report['parameter']}, {len(report['members'])} members)")
    return 0


def cmd_compare(args) -> int:
    cfg = _load(args)
    report = curvature_profile_study(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "profile_report.json", report)
    for mode in ("nonlinear", "linear"):
        m = report["modes"][mode]
        _write_csv(outdir / f"profile_{mode}.csv", "x,u0,uT",
                   (",".join(_fmt(v) for v in row)
                    for row in zip(m["profile_x"], m["profile_u0"], m["profile_uT"])))
    print(f"wrote {args.out}/profile_report.json")
    return 0


def cmd_thresholds(args) -> int:
    cfg = _load(args)
    report = threshold_study(_number_list(args.n_values, "--n-values"), cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "thresholds_report.json", report)
    cols = ["n", "min_u_overall", "min_u_final", "zero_frac_max", "skipped"]
    _write_csv(outdir / "thresholds.csv", ",".join(cols), (",".join(
        _fmt(row[c]) if c in row and not isinstance(row.get(c), str)
        else str(row.get(c, "")) for c in cols) for row in report["rows"]))
    print(f"wrote {args.out}/thresholds_report.json")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all, render_table

    results, timings = run_all()
    table = render_table(results)
    print(table)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "verify_report.json",
                {"criteria": [r.as_dict() for r in results],
                 "all_passed": all(r.passed for r in results)})
    # wall seconds vary from run to run, so they never enter the report
    _write_json(outdir / "verify_timings.json", timings)
    (outdir / "verify_table.txt").write_text(table + "\n", encoding="utf-8", newline="\n")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="capillary1d",
        description="1-D thin-film solver with exact-curvature surface tension")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE",
                       help="config override, repeatable")

    p = sub.add_parser("simulate", help="run one simulation and write series/snapshots")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a regularization-parameter or N sweep in this process "
                                      "(eta, epsilon and delta members step as one stack)")
    common(p)
    p.add_argument("--deep", action="store_true",
                   help="allow expensive settings (epsilon < 1e-3)")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMETERS)
    p.add_argument("--values", help="comma-separated values (default per parameter)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="curvature-profile study (both pressure modes)")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("thresholds", help="mobility-exponent threshold study")
    common(p)
    p.add_argument("--n-values", required=True, help="comma-separated exponents")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("verify", help="run the acceptance criteria end-to-end")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InitialDataError) as exc:
        return _emit_error(exc, 2)
    except SimulationAbort as exc:
        return _emit_error(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
