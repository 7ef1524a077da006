"""Neumann cosine eigenbasis on the interval (-l, l).

The basis consists of the L2-normalized eigenfunctions of -d^2/dx^2 with
homogeneous Neumann boundary conditions,

    e_0(x) = 1/sqrt(2 l),
    e_j(x) = cos(sqrt(lam_j) x + pi j / 2) / sqrt(l),   lam_j = (pi j / (2 l))^2,

together with a Gauss-Legendre quadrature rule whose nodes double as the
collocation grid.  All projections, syntheses, integrals and Sobolev norms
used by the solver go through this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class DomainSpec:
    """Interval (-l, l) with N+1 retained modes and an oversampled grid.

    The quadrature/collocation grid has ``G = oversample * (modes + 1)``
    Gauss-Legendre nodes; ``oversample >= 4`` keeps a dealiasing margin for
    the cubic-type nonlinearities fed through the rule.
    """

    half_length: float
    modes: int
    oversample: int = 8

    def __post_init__(self):
        if not (self.half_length > 0 and np.isfinite(self.half_length)):
            raise ValueError(f"half_length must be positive, got {self.half_length}")
        if self.modes < 1:
            raise ValueError(f"modes must be >= 1, got {self.modes}")
        if self.oversample < 4:
            raise ValueError(f"oversample must be >= 4, got {self.oversample}")

    @property
    def grid_size(self) -> int:
        return self.oversample * (self.modes + 1)

    @property
    def measure(self) -> float:
        return 2.0 * self.half_length


@dataclass
class SpectralField:
    """Coefficient vector (c_0 ... c_N) in the Neumann cosine basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 1:
            raise ValueError("coeffs must be a 1-D vector")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coeffs must be finite")

    def copy(self) -> "SpectralField":
        return SpectralField(self.coeffs.copy())


@dataclass
class CollocationField:
    """Sampled values on the quadrature grid (all arrays share length G)."""

    x: np.ndarray
    u: np.ndarray
    ux: np.ndarray | None = None
    uxx: np.ndarray | None = None
    Q: np.ndarray | None = None


def eigenvalue(j: int, domain: DomainSpec) -> float:
    """lam_j = (pi j / (2 l))^2; lam_0 = 0."""
    if j < 0:
        raise IndexError(f"mode index must be >= 0, got {j}")
    return (np.pi * j / (2.0 * domain.half_length)) ** 2


def eigenpair(j: int, domain: DomainSpec) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """Return (e_j as a vectorized callable, lam_j).

    The closed form is used directly, never a numerical eigensolve.  Indices
    beyond ``domain.modes`` are allowed; they serve as extra test functions
    for truncation-error probes.
    """
    if j < 0:
        raise IndexError(f"mode index must be >= 0, got {j}")
    l = domain.half_length
    lam = eigenvalue(j, domain)
    if j == 0:
        c0 = 1.0 / np.sqrt(2.0 * l)

        def e0(x):
            return np.full_like(np.asarray(x, dtype=float), c0)

        return e0, lam

    root = np.sqrt(lam)
    phase = 0.5 * np.pi * j
    scale = 1.0 / np.sqrt(l)

    def ej(x):
        return scale * np.cos(root * np.asarray(x, dtype=float) + phase)

    return ej, lam


def eigen_deriv(j: int, domain: DomainSpec, x: np.ndarray) -> np.ndarray:
    """First derivative e_j'(x) from the closed form (zero for j = 0)."""
    x = np.asarray(x, dtype=float)
    if j == 0:
        return np.zeros_like(x)
    l = domain.half_length
    root = np.sqrt(eigenvalue(j, domain))
    return -root / np.sqrt(l) * np.sin(root * x + 0.5 * np.pi * j)


@dataclass(frozen=True)
class BasisTables:
    """Precomputed quadrature rule and basis samples for one DomainSpec.

    E, Ex hold e_j and e_j' at the G quadrature nodes (shape (G, N+1));
    ET, ExT are their contiguous transposes for the matvec-heavy kernels.
    """

    x: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    E: np.ndarray = field(repr=False)
    Ex: np.ndarray = field(repr=False)
    ET: np.ndarray = field(repr=False)
    ExT: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)


@lru_cache(maxsize=32)
def tables(domain: DomainSpec) -> BasisTables:
    """Build (and cache) the quadrature rule and sampled basis for a domain.

    Single global Gauss-Legendre rule with G = oversample*(N+1) nodes mapped
    to (-l, l): exact on polynomials up to degree 2G-1 and spectrally
    accurate on the smooth algebraic nonlinearities the solver integrates.
    """
    l = domain.half_length
    G = domain.grid_size
    xg, wg = np.polynomial.legendre.leggauss(G)
    x = l * xg
    w = l * wg
    M = domain.modes + 1
    E = np.empty((G, M))
    Ex = np.empty((G, M))
    lam = np.array([eigenvalue(j, domain) for j in range(M)])
    for j in range(M):
        ej, _ = eigenpair(j, domain)
        E[:, j] = ej(x)
        Ex[:, j] = eigen_deriv(j, domain, x)
    return BasisTables(
        x=x,
        w=w,
        E=np.ascontiguousarray(E),
        Ex=np.ascontiguousarray(Ex),
        ET=np.ascontiguousarray(E.T),
        ExT=np.ascontiguousarray(Ex.T),
        lam=lam,
    )


def quadrature(values: np.ndarray, domain: DomainSpec) -> float:
    """Integral of grid samples over (-l, l) under the module rule."""
    values = np.asarray(values, dtype=float)
    t = tables(domain)
    if values.shape != t.w.shape:
        raise ValueError(f"expected {t.w.shape[0]} grid values, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("quadrature input contains non-finite values")
    return float(np.dot(t.w, values))


def project(v, domain: DomainSpec) -> SpectralField:
    """Orthogonal L2 projection onto span{e_0..e_N}.

    ``v`` may be a callable evaluated at the quadrature nodes, a raw vector
    of grid samples, or a CollocationField (its ``u`` samples are used).
    """
    t = tables(domain)
    if callable(v):
        samples = np.asarray(v(t.x), dtype=float)
    elif isinstance(v, CollocationField):
        samples = np.asarray(v.u, dtype=float)
    else:
        samples = np.asarray(v, dtype=float)
    if samples.shape != t.x.shape:
        raise ValueError(f"expected {t.x.shape[0]} samples, got {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("projection input contains non-finite samples")
    return SpectralField(t.ET @ (t.w * samples))


def synthesize(fld: SpectralField, domain: DomainSpec, order: int = 2) -> CollocationField:
    """Evaluate u (and u_x, u_xx for order >= 1, 2) on the quadrature grid.

    Derivatives come from the term-wise closed forms; in particular
    u_xx = -sum_j lam_j c_j e_j.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    c = fld.coeffs
    t = tables(domain)
    if c.shape[0] != domain.modes + 1:
        raise ValueError(f"field has {c.shape[0]} coefficients, domain wants {domain.modes + 1}")
    u = t.E @ c
    ux = t.Ex @ c if order >= 1 else None
    uxx = -(t.E @ (t.lam * c)) if order >= 2 else None
    Q = np.sqrt(1.0 + ux * ux) if ux is not None else None
    return CollocationField(x=t.x, u=u, ux=ux, uxx=uxx, Q=Q)


def evaluate(fld: SpectralField, xs: np.ndarray, domain: DomainSpec, deriv: int = 0) -> np.ndarray:
    """Evaluate the represented function (or a derivative) at arbitrary points."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    c = fld.coeffs
    out = np.zeros_like(xs)
    for j, cj in enumerate(c):
        if cj == 0.0:
            continue
        if deriv == 0:
            ej, _ = eigenpair(j, domain)
            out += cj * ej(xs)
        elif deriv == 1:
            out += cj * eigen_deriv(j, domain, xs)
        elif deriv == 2:
            ej, lam = eigenpair(j, domain)
            out += -cj * lam * ej(xs)
        else:
            raise ValueError("deriv must be 0, 1 or 2")
    return out


@dataclass(frozen=True)
class SobolevNorms:
    l2: float
    h1: float
    h2: float
    ux_l2: float
    uxx_l2: float


def sobolev_norms(fld: SpectralField, domain: DomainSpec) -> SobolevNorms:
    """Exact L2/H1/H2 norms from the coefficients (Parseval)."""
    c = fld.coeffs
    lam = np.array([eigenvalue(j, domain) for j in range(c.shape[0])])
    l2sq = float(np.sum(c * c))
    uxsq = float(np.sum(lam * c * c))
    uxxsq = float(np.sum(lam * lam * c * c))
    return SobolevNorms(
        l2=np.sqrt(l2sq),
        h1=np.sqrt(l2sq + uxsq),
        h2=np.sqrt(l2sq + uxsq + uxxsq),
        ux_l2=np.sqrt(uxsq),
        uxx_l2=np.sqrt(uxxsq),
    )


def mass(fld: SpectralField, domain: DomainSpec) -> float:
    """Integral of u over the domain; only the constant mode contributes."""
    return float(fld.coeffs[0] * np.sqrt(2.0 * domain.half_length))
