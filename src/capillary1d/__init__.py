"""capillary1d: spectral Galerkin solver for the 1-D thin-film equation
with the exact mean-curvature pressure, plus the diagnostics and parameter
studies needed to certify its dissipation structure numerically."""

__version__ = "0.1.0"

from .basis import DomainSpec  # noqa: F401
from .model import ModelParams  # noqa: F401
