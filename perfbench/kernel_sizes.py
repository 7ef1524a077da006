#!/usr/bin/env python3
"""Reference figure: median kernels.rhs microseconds per call at N = 8, 16, 32, 64.

    python3 perfbench/kernel_sizes.py

Runs a short simulation of the dense-output config at each N under the span
tracer and reports the median duration of the kernels.rhs spans, the same
definition as the kernels.rhs_us metric of the traced benchmark run.
"""

import copy
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from capillary1d.config import run_config  # noqa: E402


def main() -> None:
    wl = workloads.Workload("dense-output", seed=0)
    wl.setup()
    print(f"{'N':>4} {'grid':>5} {'rhs calls':>10} {'median us/call':>15}")
    for N in (8, 16, 32, 64):
        cfg = copy.deepcopy(wl.configs["dense"])
        cfg["domain"]["N"] = N
        # explicit steps scale as dt ~ N^-4: about 1.8k kernel calls at every N
        cfg["integrator"]["T"] = 5e-6 * (64 / N) ** 4
        cfg["integrator"]["snapshots"] = 3
        cfg["diagnostics"].update(holder_probe=False, track_weak_residual=False)
        tracer = spans.Tracer()
        tracer.install()
        try:
            run_config(cfg)
        finally:
            tracer.uninstall()
        calls, _, median_us = tracer.rhs_call_split()
        print(f"{N:>4} {cfg['domain']['oversample'] * (N + 1):>5} {calls:>10} {median_us:>15.1f}")


if __name__ == "__main__":
    main()
