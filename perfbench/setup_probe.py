"""Set-up timing child: imports, config load, resolve_config, basis tables.

Run by run.py as ``python3 setup_probe.py <workload> <seed>``; prints the
system-wide monotonic clock once the first operation is ready, so the parent
can measure from just before it started this process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy, scipy and capillary1d)

workloads.Workload(sys.argv[1], int(sys.argv[2])).setup()
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
