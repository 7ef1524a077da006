"""Neumann cosine eigenbasis on the interval (-l, l).

The basis consists of the L2-normalized eigenfunctions of -d^2/dx^2 with
homogeneous Neumann boundary conditions,

    e_0(x) = 1/sqrt(2 l),
    e_j(x) = cos(sqrt(lam_j) x + pi j / 2) / sqrt(l),   lam_j = (pi j / (2 l))^2,

together with a Gauss-Legendre quadrature rule whose nodes double as the
collocation grid.  A state is its coefficient vector (c_0 ... c_N), a plain
float array of shape (N+1,), or a stack of them, shape (S, N+1).  This
module holds the rule, the basis tables, the projection, the one point
evaluator, integrals and Sobolev norms; grid values of a state's u, its
derivatives and its pressure come from the tables through kernels.rhs and
kernels.fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# leggauss(2048) takes about 1 s and its cost grows cubically beyond that
MAX_GRID_SIZE = 2048


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
        if self.grid_size > MAX_GRID_SIZE:
            raise ValueError(f"grid size oversample*(N+1) = {self.grid_size} exceeds {MAX_GRID_SIZE}")
        # the array form overflows to inf where the float form raises OverflowError
        with np.errstate(over="ignore"):
            lam_max = eigenvalue(np.asarray(self.modes), self)
        if not np.isfinite(lam_max):
            raise ValueError(f"lambda_N overflows for N = {self.modes}, l = {self.half_length}")

    @property
    def grid_size(self) -> int:
        return self.oversample * (self.modes + 1)


def eigenvalue(j, domain: DomainSpec):
    """lam_j = (pi j / (2 l))^2 for a mode index or an integer array of them; lam_0 = 0."""
    if np.any(np.asarray(j) < 0):
        raise IndexError(f"mode index must be >= 0, got {j}")
    return (np.pi * j / (2.0 * domain.half_length)) ** 2


def modes(js, x: np.ndarray, domain: DomainSpec, deriv: int = 0) -> np.ndarray:
    """e_j(x) (deriv=0) or e_j'(x) (deriv=1) from the closed form, shape (len(x), len(js)).

    Indices beyond ``domain.modes`` are allowed; they serve as extra test
    functions for truncation-error probes.
    """
    js = np.asarray(js, dtype=int)
    if deriv not in (0, 1):
        raise ValueError(f"deriv must be 0 or 1, got {deriv}")
    l = domain.half_length
    root = np.sqrt(eigenvalue(js, domain))
    arg = root * np.asarray(x, dtype=float)[:, None] + 0.5 * np.pi * js
    if deriv == 0:
        return np.where(js == 0, 1.0 / np.sqrt(2.0 * l), 1.0 / np.sqrt(l)) * np.cos(arg)
    return np.where(js == 0, 0.0, -root / np.sqrt(l)) * np.sin(arg)


@dataclass(frozen=True)
class BasisTables:
    """Precomputed quadrature rule and basis samples for one DomainSpec.

    E, Ex hold e_j and e_j' at the G quadrature nodes (shape (G, N+1)).
    They are the two halves of EEx (shape (2G, N+1)), so that one matvec
    gives u and u_x together; EEx_blocks is EEx viewed as (2, 1, G, N+1),
    so that one np.matmul gives a stack's u and u_x as two contiguous
    (B, G) blocks, one gemv per member and block.  ET, ExT are their
    contiguous transposes for the matvec-heavy kernels, and ExT_neg is
    -ExT, so that the kernel's projection -ExT (w flux) is one matvec: each
    product changes sign exactly, and so does every rounded sum.  tables()
    caches one per domain for every caller, so the tables hold no scratch
    and no state.
    """

    x: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    EEx: np.ndarray = field(repr=False)
    EEx_blocks: np.ndarray = field(repr=False)
    E: np.ndarray = field(repr=False)
    Ex: np.ndarray = field(repr=False)
    ET: np.ndarray = field(repr=False)
    ExT: np.ndarray = field(repr=False)
    ExT_neg: np.ndarray = field(repr=False)
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
    js = np.arange(domain.modes + 1)
    E = modes(js, x, domain)
    Ex = modes(js, x, domain, deriv=1)
    EEx = np.concatenate((E, Ex))
    ExT = np.ascontiguousarray(Ex.T)
    return BasisTables(
        x=x,
        w=w,
        EEx=EEx,
        EEx_blocks=EEx.reshape(2, 1, G, domain.modes + 1),
        E=EEx[:G],
        Ex=EEx[G:],
        ET=np.ascontiguousarray(E.T),
        ExT=ExT,
        ExT_neg=-ExT,
        lam=eigenvalue(js, domain),
    )


def matvec(A: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A x for one vector x of shape (n,), or for every row of a stack (..., n).

    A stack takes one gemv per row with np.dot's arguments, so each row is
    bit-identical to np.dot(A, row); one gemm over the stack, np.dot(A, x.T),
    would sum in another order and move the last bits.  out, when given,
    receives the result (C-contiguous for one vector).  One vector takes
    np.dot's routine as the method A.dot, which skips np.dot's dispatch.
    """
    if x.ndim == 1:
        return A.dot(x, out)
    if out is None:
        return np.matmul(A, x[..., None])[..., 0]
    np.matmul(A, x[..., None], out[..., None])
    return out


def quadrature(values: np.ndarray, domain: DomainSpec) -> float:
    """Integral of grid samples over (-l, l) under the module rule."""
    values = np.asarray(values, dtype=float)
    t = tables(domain)
    if values.shape != t.w.shape:
        raise ValueError(f"expected {t.w.shape[0]} grid values, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("quadrature input contains non-finite values")
    return float(np.dot(t.w, values))


def project(v, domain: DomainSpec) -> np.ndarray:
    """Orthogonal L2 projection onto span{e_0..e_N}: the coefficients, shape (N+1,).

    ``v`` may be a callable evaluated at the quadrature nodes or a raw
    vector of grid samples.
    """
    t = tables(domain)
    samples = np.asarray(v(t.x) if callable(v) else v, dtype=float)
    if samples.shape != t.x.shape:
        raise ValueError(f"expected {t.x.shape[0]} samples, got {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("projection input contains non-finite samples")
    return t.ET @ (t.w * samples)


def evaluate(c: np.ndarray, xs: np.ndarray, domain: DomainSpec, deriv: int = 0) -> np.ndarray:
    """u (deriv=0) or u_x (deriv=1) at arbitrary points xs.

    c is one coefficient row, shape (N+1,), giving shape (len(xs),), or a
    stack (S, N+1), giving (S, len(xs)); one cosine table serves every row,
    and each row is bit-identical to the call on that row alone (matvec).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return matvec(modes(np.arange(c.shape[-1]), xs, domain, deriv), c)


@dataclass(frozen=True)
class SobolevNorms:
    l2: float
    h1: float
    h2: float
    ux_l2: float
    uxx_l2: float


def sobolev_norms(c: np.ndarray, domain: DomainSpec) -> SobolevNorms:
    """Exact L2/H1/H2 norms from the coefficients (Parseval).

    c may also be a stack of coefficient rows, shape (S, N+1); each norm
    is then an array of the S rows' norms, each bit-identical to the norm of
    its row alone.
    """
    lam = eigenvalue(np.arange(c.shape[-1]), domain)
    l2sq = np.sum(c * c, axis=-1)
    uxsq = np.sum(lam * c * c, axis=-1)
    uxxsq = np.sum(lam * lam * c * c, axis=-1)
    return SobolevNorms(
        l2=np.sqrt(l2sq),
        h1=np.sqrt(l2sq + uxsq),
        h2=np.sqrt(l2sq + uxsq + uxxsq),
        ux_l2=np.sqrt(uxsq),
        uxx_l2=np.sqrt(uxxsq),
    )


def mass(c: np.ndarray, domain: DomainSpec):
    """Integral of u over the domain, per row of a stack (S, N+1) too; only c_0 contributes."""
    return c[..., 0] * np.sqrt(2.0 * domain.half_length)
