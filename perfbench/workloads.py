"""Workload inputs (built from a seed) and one round of each workload's operations.

An operation is one simulation, one sweep member, or one artifact write.  A
round runs the same operations every time; only the op calls are timed, the
checks that follow are not.  The configs under ``configs/`` are copies of the
``capillary1d.verify`` reference inputs (criteria 3, 5 and 7) plus one dense
output run.  The seed varies the inputs only where the work per operation
stays the same and every check keeps its margin (README.md, "Workloads").
"""

from __future__ import annotations

import math
import os
import random
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# entry points are looked up on their modules at call time, so the traced run's
# patches (spans.py) see the benchmark's own calls too
from capillary1d import basis, cli, config, experiments

import checks
from calibrate import Calibrator, host_seconds

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
OUT = HERE / "out"

WORKLOADS = ("relax", "eps-sweep", "dense-output")
EPS_VALUES = (1e-1, 1e-2, 1e-3)
FLAT_AMPLITUDE = 0.3  # the linear decay estimate for T is taken at this amplitude


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    ops: list = field(default_factory=list)  # OpTiming of each timed call
    final_sample: float = 0.0  # calibration loop time after the last op
    checks: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        """Seconds spent inside operations."""
        return sum(op.wall for op in self.ops)

    @property
    def host_wall(self) -> float:
        """Operation time rescaled to the reference host speed (see calibrate.py)."""
        afters = [op.samples[0] for op in self.ops[1:]] + [self.final_sample]
        return sum(host_seconds(op.wall, op.samples + [after])
                   for op, after in zip(self.ops, afters))


def _merge_checks(rr: RoundResult, prefix: str, results: dict) -> None:
    for name, value in results.items():
        rr.checks[f"{prefix}.{name}"] = value


class Workload:
    """Seeded inputs, set-up and rounds of one workload."""

    def __init__(self, name: str, seed: int, calibrator: Calibrator | None = None):
        parts = {"relax": (self._relax_inputs, self._relax_round),
                 "eps-sweep": (self._sweep_inputs, self._sweep_round),
                 "dense-output": (self._dense_inputs, self._dense_round)}
        if name not in parts:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self._inputs, self._round = parts[name]
        self.name = name
        self.seed = seed
        self.rng = random.Random(seed)
        self.configs: dict[str, dict] = {}
        self.tracer = None  # set by the traced run; spans get the current op id
        self.ops = 0
        self.calibrator = calibrator or Calibrator()

    def _timed(self, rr: RoundResult, fn, *args):
        """Time one call into the program, with the host speed around it."""
        self.ops += 1
        if self.tracer is not None:
            self.tracer.op = self.ops
        with self.calibrator.op() as timing:
            rr.ops.append(timing)
            return fn(*args)

    def _op(self, rr: RoundResult, fn, *args):
        """One operation; a raised error counts it as failed and returns None."""
        rr.attempted += 1
        try:
            return self._timed(rr, fn, *args)
        except Exception:  # an operation boundary: record the failure, keep running
            rr.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def setup(self) -> None:
        """Load and resolve every config and build its basis tables."""
        self._inputs()
        for cfg in self.configs.values():
            basis.tables(config.resolve_config(cfg).domain)

    def run_round(self) -> RoundResult:
        rr = self._round()
        rr.final_sample = self.calibrator.sample()
        return rr

    # -- relax: criterion 7 flat-film relaxation + criterion 3 decay oracle --

    def _relax_inputs(self) -> None:
        flat = config.load_config(str(CONFIGS / "relax_flat.json"))
        amp = FLAT_AMPLITUDE * self.rng.uniform(0.9, 1.0) * self.rng.choice((-1.0, 1.0))
        flat["initial_data"]["parameters"]["values"][1] = amp
        l = flat["domain"]["l"]
        m_mean = 1.0 ** flat["model"]["n"] + flat["model"]["epsilon"]
        rate = m_mean * (1.0 + flat["model"]["delta"]) * checks.eigenvalue(1, l) ** 2
        T = math.log(FLAT_AMPLITUDE / 1e-6) / rate
        flat["integrator"]["T"] = T
        flat["integrator"]["snapshots"] = [0.0, T]

        decay = config.load_config(str(CONFIGS / "relax_decay.json"))
        values = decay["initial_data"]["parameters"]["values"]
        for j in (1, 2, 3):
            values[j] = 0.1 * self.rng.uniform(0.8, 1.2)
        mdl = decay["model"]
        t_decay = [math.log(10.0) / (mdl["epsilon"] * (1.0 + mdl["delta"])
                                     * checks.eigenvalue(j, l) ** 2) for j in (1, 2, 3)]
        decay["integrator"]["T"] = t_decay[0]
        decay["integrator"]["snapshots"] = sorted([0.0] + t_decay)
        self.configs = {"flat": flat, "decay": decay}

    def _relax_round(self) -> RoundResult:
        rr = RoundResult()
        flat, decay = self.configs["flat"], self.configs["decay"]
        out = self._op(rr, config.run_config, flat)
        if out is not None:
            _merge_checks(rr, "flat", checks.check_flat_film(
                out.result, flat["domain"]["l"], flat["model"]["delta"]))
        out = self._op(rr, config.run_config, decay)
        if out is not None:
            _merge_checks(rr, "decay", checks.check_decay(
                out.result, decay["initial_data"]["parameters"]["values"],
                decay["model"]["epsilon"], decay["model"]["delta"], decay["domain"]["l"]))
        return rr

    # -- eps-sweep: criterion 5's epsilon sweep, members run serially --

    def _sweep_inputs(self) -> None:
        # criterion 5's droplet is used as is: its nonnegativity margin at
        # epsilon = 1e-3 is lost about 1% above amplitude 1, so the seed only
        # chooses the direction of the (monotone) sweep
        base = config.load_config(str(CONFIGS / "eps_sweep.json"))
        self.eps_values = EPS_VALUES if self.rng.random() < 0.5 else EPS_VALUES[::-1]
        self.configs = {"base": base}
        p = base["initial_data"]["parameters"]
        self.E0 = checks.droplet_energy(p["floor"], p["amplitude"], p["power"],
                                        base["model"]["delta"], base["domain"]["l"])
        self.sup_u0 = p["floor"] + p["amplitude"]

    def _sweep_round(self) -> RoundResult:
        rr = RoundResult()
        spec = experiments.SweepSpec(parameter="epsilon", values=self.eps_values,
                                     base_config=self.configs["base"], jobs=1)
        try:
            report = self._timed(rr, experiments.run_sweep, spec)
        except experiments.SweepError as exc:
            traceback.print_exc(file=sys.stderr)
            report = exc.partial_report
        rr.attempted = len(self.eps_values)
        rr.failed = len(self.eps_values) - len(report["members"])
        _merge_checks(rr, "sweep", checks.check_eps_sweep(
            report, self.eps_values, self.E0, self.sup_u0))
        return rr

    # -- dense-output: one simulation with 400 snapshots, then its artifacts --

    def _dense_inputs(self) -> None:
        cfg = config.load_config(str(CONFIGS / "dense_output.json"))
        p = cfg["initial_data"]["parameters"]
        p["amplitude"] = 0.6 * self.rng.uniform(0.95, 1.05)
        self.configs = {"dense": cfg}
        l = cfg["domain"]["l"]
        # int_{-l}^{l} b + A (1 + cos(pi x / l)) / 2 dx
        self.initial_mass = 2.0 * l * (p["base"] + 0.5 * p["amplitude"])
        # the Hoelder probe samples its locations from CAPILLARY1D_SEED
        os.environ["CAPILLARY1D_SEED"] = str(self.seed)
        self.outdir = OUT / self.name

    def _dense_round(self) -> RoundResult:
        rr = RoundResult()
        cfg = self.configs["dense"]
        if self.outdir.exists():
            shutil.rmtree(self.outdir)
        out = self._op(rr, config.run_config, cfg)
        written = None
        if out is not None:
            written = self._op(rr, cli.write_run_artifacts, out, self.outdir, rr.wall)
        else:
            rr.attempted += 1
            rr.failed += 1
        if written is None:
            rr.checks["dense.artifacts_written"] = (False, 0.0)
            return rr
        files = [f for f in self.outdir.iterdir() if f.is_file()]
        rr.counts["cli.files_written"] = len(files)
        rr.counts["cli.bytes_written"] = sum(f.stat().st_size for f in files)
        dom = cfg["domain"]
        _merge_checks(rr, "dense", checks.check_dense_artifacts(
            self.outdir, cfg["integrator"]["snapshots"], self.initial_mass,
            dom["N"], dom["oversample"], dom["l"]))
        return rr
