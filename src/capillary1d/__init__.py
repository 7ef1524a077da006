"""capillary1d: spectral Galerkin solver for the 1-D thin-film equation
with the exact mean-curvature pressure, plus the diagnostics and parameter
studies needed to certify its dissipation structure numerically."""

import os

# one BLAS thread unless the caller chose otherwise, set before numpy loads:
# the kernel's matrices are at most 520 x 65, and on them a second thread
# spends CPU without saving wall time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .basis import DomainSpec  # noqa: F401, E402
from .model import ModelParams  # noqa: F401, E402
