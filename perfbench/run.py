#!/usr/bin/env python3
"""capillary1d benchmark: one workload, whole rounds for a fixed time, checked outputs.

    python3 perfbench/run.py --workload relax --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  ``--trace 0`` reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, fixed before numpy is imported: the matrices are tiny, and
# the host's second core stays free
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans  # noqa: E402
from calibrate import Calibrator, host_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "trace"
SETUP_RUNS = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "kernels.rhs_calls": "count", "kernels.rhs_us": "us", "kernels.rhs_s": "s",
    "galerkin.integrate_s": "s", "galerkin.rhs_calls": "count",
    "galerkin.steps_accepted": "count", "galerkin.steps_rejected": "count",
    "galerkin.accept_ratio": "ratio",
    "model.entropy_s": "s", "model.entropy_G_calls": "count", "model.validate_s": "s",
    "diagnostics.records_s": "s", "diagnostics.probe_s": "s",
    "experiments.sweep_s": "s", "experiments.member_s": "s", "basis.evaluate_s": "s",
    "cli.write_s": "s", "cli.bytes_written": "bytes", "cli.files_written": "count",
    "config.resolve_s": "s", "basis.tables_s": "s",
    "trace.traced_wall_s": "s", "trace.untraced_s": "s", "trace.overhead_s": "s",
}
# counts that must repeat in every traced round; bytes_written does not, since
# summary.json embeds the run's wall-clock seconds
EXACT_COUNTS = tuple(k for k, u in PER_LAYER_UNITS.items() if u == "count")


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from process start to first operation ready, one child at a time.

    Returns (raw seconds, seconds rescaled to the reference host speed).
    """
    cal = Calibrator(in_op=False)
    before = cal.sample()
    raw, host = [], []
    for _ in range(SETUP_RUNS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]) - start)
        after = cal.sample()
        host.append(host_seconds(raw[-1], [before, after]))
        before = after
    return raw, host


def traced_round(wl) -> tuple:
    """One round under a fresh tracer: (round result, tracer, layer numbers, problems)."""
    tracer = spans.Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        rr = wl.run_round()
    finally:
        wl.tracer = None
        tracer.uninstall()
    self_t = tracer.self_times()
    rhs_total, rhs_integrate, rhs_us = tracer.rhs_call_split()
    counts = tracer.counts
    acc = counts.get("galerkin.steps_accepted", 0)
    rej = counts.get("galerkin.steps_rejected", 0)
    untraced = rr.wall - tracer.root_time()
    layer = {
        "kernels.rhs_calls": rhs_total,
        "kernels.rhs_us": rhs_us,
        "kernels.rhs_s": self_t["kernels.rhs"],
        "galerkin.integrate_s": self_t["galerkin.integrate"],
        "galerkin.rhs_calls": rhs_integrate,
        "galerkin.steps_accepted": acc,
        "galerkin.steps_rejected": rej,
        "galerkin.accept_ratio": acc / (acc + rej) if acc + rej else 0.0,
        "model.entropy_s": self_t["model.entropy"],
        "model.entropy_G_calls": counts.get("model.entropy_G_calls", 0),
        "model.validate_s": self_t["model.validate"],
        "diagnostics.records_s": self_t["diagnostics.records"],
        "diagnostics.probe_s": self_t["diagnostics.probe"],
        "experiments.sweep_s": self_t["experiments.sweep"],
        "experiments.member_s": self_t["experiments.member"],
        "basis.evaluate_s": self_t["basis.evaluate"],
        "cli.write_s": self_t["cli.write"],
        "cli.bytes_written": rr.counts.get("cli.bytes_written", 0),
        "cli.files_written": rr.counts.get("cli.files_written", 0),
        "config.resolve_s": self_t["config.resolve"],
        "basis.tables_s": self_t["basis.tables"],
        "trace.traced_wall_s": rr.wall,
        "trace.untraced_s": untraced,
    }
    problems = []
    if rhs_integrate != counts.get("galerkin.stats_rhs_calls", 0):
        problems.append(f"galerkin.rhs_calls {rhs_integrate} != program stats "
                        f"{counts.get('galerkin.stats_rhs_calls', 0)}")
    closure = sum(self_t.values()) + untraced - rr.wall
    if abs(closure) > 1e-9 * max(rr.wall, 1.0):
        problems.append(f"self times + untraced miss the traced wall by {closure:.3e} s")
    return rr, tracer, layer, problems


def layer_metrics(layers: list, traced_walls: list, plain_walls: list, problems: list) -> dict:
    """Per-round layer numbers of the traced rounds, folded into one figure each."""
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        if key == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(plain_walls)
        elif key in ("kernels.rhs_us", "cli.bytes_written"):
            value = statistics.median(layer[key] for layer in layers)
        elif key in EXACT_COUNTS:
            values = {layer[key] for layer in layers}
            if len(values) > 1:
                problems.append(f"{key} differs between traced rounds: {sorted(values)}")
            value = layers[0][key]
        else:  # self times: a mean keeps them adding up to the mean traced wall
            value = statistics.fmean(layer[key] for layer in layers)
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def write_trace(stem: str, tracers: list, layers: list, problems: list) -> None:
    merged = spans.Tracer()
    for tracer in tracers:
        offset = len(merged.spans)
        merged.spans.extend((n, s, e, p + offset if p >= 0 else -1, op)
                            for n, s, e, p, op in tracer.spans)
    TRACE_DIR.mkdir(exist_ok=True)
    merged.write(TRACE_DIR / f"{stem}.spans.csv")
    (TRACE_DIR / f"{stem}.layers.json").write_text(
        json.dumps({"rounds": layers, "problems": problems}, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "capillary1d" / "__init__.py").is_file():
        print(f"perfbench: no capillary1d source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import capillary1d
    import workloads

    if not Path(capillary1d.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: capillary1d imported from {capillary1d.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    setup_raw, setup_host = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    # in-operation calibration would put handler time inside spans, so the
    # traced mode times its untraced rounds without it too, to compare like with like
    wl = workloads.Workload(args.workload, args.seed, Calibrator(in_op=not args.trace))
    wl.setup()

    plain_walls, raw_walls, traced_walls = [], [], []
    layers, tracers, problems = [], [], []
    all_checks: dict[str, list] = {}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if args.trace and len(plain_walls) > len(traced_walls):
            rr, tracer, layer, bad = traced_round(wl)
            tracers.append(tracer)
            layers.append(layer)
            problems.extend(bad)
            traced_walls.append(rr.host_wall)
        else:
            rr = wl.run_round()
            plain_walls.append(rr.host_wall)
            raw_walls.append(rr.wall)
        attempted += rr.attempted
        failed += rr.failed
        for name, result in rr.checks.items():
            all_checks.setdefault(name, []).append(result)
        now = time.perf_counter()
        # stop before a round that would end past --seconds
        if (not args.trace or traced_walls) and now - start + (now - round_start) > args.seconds:
            break

    failing = {name for name, results in all_checks.items() for ok, _ in results if not ok}
    for name, results in sorted(all_checks.items()):
        values = [v for _, v in results]
        status = "FAIL" if name in failing else "ok"
        print(f"check {name:40s} {status:4s} {min(values):.3e} .. {max(values):.3e}")

    if args.trace:
        metrics = layer_metrics(layers, traced_walls, plain_walls, problems)
        write_trace(f"{args.workload}-seed{args.seed}", tracers, layers, problems)
    else:
        values = {
            "wall_s": statistics.median(plain_walls),
            "setup_s": statistics.median(setup_host),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for problem in problems:
        print(f"trace problem: {problem}", file=sys.stderr)

    print("round walls, host-rescaled (s): " + " ".join(f"{w:.3f}" for w in plain_walls)
          + (" | traced: " + " ".join(f"{w:.3f}" for w in traced_walls) if traced_walls else ""))
    print("round walls, raw (s): " + " ".join(f"{w:.3f}" for w in raw_walls))
    if setup_raw:
        print("set-up, raw (s): " + " ".join(f"{w:.3f}" for w in setup_raw)
              + " | host-rescaled: " + " ".join(f"{w:.3f}" for w in setup_host))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {len(plain_walls) + len(traced_walls)}  attempted {attempted}  failed {failed}")
    for key, m in metrics.items():
        print(f"  {key:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not failing and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
