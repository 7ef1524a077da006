"""Physics of the regularized thin-film system.

Mobility with its (epsilon, eta) regularization, the weak pressure density
u_x/Q + delta u_x (exact curvature plus its elliptic delta-augmentation)
and the Galerkin pressure coefficients it defines, and the entropy pair
(g, G) with G'' = 1/m used by the entropy estimate.  m_0 is fixed to the
constant 1, so the bare mobility is exactly |s|^n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (
    BasisTables,
    DomainSpec,
    SpectralField,
    quadrature,
    synthesize,
    tables,
)

PRESSURE_MODES = ("nonlinear", "linear")
MOBILITY_MODES = ("standard", "constant")


class InitialDataError(ValueError):
    """Initial data violates the admissibility hypotheses."""


@dataclass(frozen=True)
class ModelParams:
    """Mobility exponent, regularization triple and entropy anchor.

    delta augments the pressure operator elliptically, epsilon lifts the
    mobility away from zero, eta caps it from above.  eta > 0 is needed by
    the discrete existence argument only, not by the formulas: eta = 0 runs
    are allowed (callers flag them).  mobility_mode="constant" is a test
    hook that freezes the mobility at epsilon for closed-form decay checks.
    """

    n: float
    delta: float = 0.0
    epsilon: float = 0.0
    eta: float = 0.0
    pressure_mode: str = "nonlinear"
    entropy_anchor: float | None = None
    mobility_mode: str = "standard"

    def __post_init__(self):
        if not (self.n >= 1.0 and np.isfinite(self.n)):
            raise ValueError(f"mobility growth exponent must be finite with n >= 1, got {self.n}")
        for name in ("delta", "epsilon", "eta"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.pressure_mode not in PRESSURE_MODES:
            raise ValueError(f"pressure_mode must be one of {PRESSURE_MODES}")
        if self.mobility_mode not in MOBILITY_MODES:
            raise ValueError(f"mobility_mode must be one of {MOBILITY_MODES}")
        if self.entropy_anchor is not None and not (
            np.isfinite(self.entropy_anchor) and self.entropy_anchor > 0
        ):
            raise ValueError(f"entropy_anchor must be positive and finite, got {self.entropy_anchor}")


def mobility(s, params: ModelParams):
    """Regularized mobility m_{eps,eta}(s) = |s|^n / (1 + eta |s|^n) + eps.

    Bounds eps <= m <= 1/eta + 1 hold for eta > 0; eta = 0 gives |s|^n + eps
    and eta = eps = 0 the bare |s|^n.
    """
    if params.mobility_mode == "constant":
        return params.epsilon * np.ones_like(np.asarray(s, dtype=float))
    m = np.abs(np.asarray(s, dtype=float)) ** params.n
    if params.eta > 0.0:
        m = m / (1.0 + params.eta * m)
    return m + params.epsilon


def pressure_density(ux: np.ndarray, Q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Integrand s of the weak pairing: u_x/Q + delta u_x, or (1+delta) u_x in linear mode.

    Q = sqrt(1 + u_x^2) on the same grid, passed in because the RHS kernel
    needs it too.
    """
    if params.pressure_mode == "linear":
        return (1.0 + params.delta) * ux
    return ux / Q + params.delta * ux


def galerkin_pressure_coeffs(u: SpectralField, params: ModelParams,
                             domain: DomainSpec) -> SpectralField:
    """Pressure coefficients d_k = <A_delta(u), e_k>; d_0 = 0 identically.

    The weak pairing with v in the Galerkin space is d . v; it satisfies
    |<A_delta(u), v>| <= (1+delta) ||u||_H1 ||v||_H1 and the coercivity
    <A_delta(w), w> >= delta ||w_x||_L2^2.  d_0 vanishes because e_0' = 0 --
    this is the mean-zero-pressure mechanism that makes the constant mode
    stationary.
    """
    f = synthesize(u, domain, order=1)
    return SpectralField(pressure_coeffs(f.ux, f.Q, tables(domain), params))


def pressure_coeffs(ux: np.ndarray, Q: np.ndarray, t: BasisTables,
                    params: ModelParams) -> np.ndarray:
    """d = Ex^T (w s) from grid values of u_x and Q on the tables t."""
    return t.ExT @ (t.w * pressure_density(ux, Q, params))


# -- entropy pair ------------------------------------------------------------
#
# g_eps(s) = -int_s^a dr / m_eps(r),   G_eps(s) = -int_s^a g_eps(r) dr
# with m_eps(r) = |r|^n + eps (the eta cap never enters the entropy).
# Fubini collapses G to the single integral int_s^a (r - s)/m_eps(r) dr.
#
# Without a closed form, _TABLE_SIZE geometric nodes s_i from a*_TABLE_FLOOR
# to a carry B_i = int_{s_i}^a 1/m and G_i = G(s_i), summed backwards from
# the anchor (B = G = 0 at s = a) over 8-point Gauss-Legendre panels:
#   B_i = B_{i+1} + int_{s_i}^{s_{i+1}} 1/m
#   G_i = G_{i+1} + (s_{i+1} - s_i) B_{i+1} + int_{s_i}^{s_{i+1}} (r - s_i)/m
# Every term is positive, so nothing cancels near the anchor.  A value s
# inside the table adds one more panel [s, s_j] to its next node s_j >= s,
# by the same recursions; s < 0 with |s| in the table reflects through 0
# (m is even), and only the remaining values go to adaptive quadrature.

_TABLE_SIZE = 4096
_TABLE_FLOOR = 1e-9  # table covers s in [a*_TABLE_FLOOR, a]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass
class EntropyEval:
    """Vectorized g and G for fixed (n, epsilon, anchor)."""

    g: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    closed_form: bool
    n: float
    epsilon: float
    anchor: float


def _entropy_closed_eps0(n: float, a: float):
    def g(s):
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape, -np.inf)
        pos = s > 0.0
        sp = s[pos]
        if n == 1.0:
            out[pos] = np.log(sp / a)
        else:
            out[pos] = (sp ** (1.0 - n) - a ** (1.0 - n)) / (1.0 - n)
        return out

    def G(s):
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape, np.inf)
        pos = s > 0.0
        sp = s[pos]
        if n == 1.0:
            out[pos] = a - sp + sp * np.log(sp / a)
        elif n == 2.0:
            out[pos] = np.log(a / sp) - 1.0 + sp / a
        else:
            out[pos] = ((a ** (2.0 - n) - sp ** (2.0 - n)) / (2.0 - n)
                        - a ** (1.0 - n) * (a - sp)) / (n - 1.0)
        if n < 2.0:
            # the double integral stays finite at the contact value s = 0
            out[s == 0.0] = a ** (2.0 - n) / (2.0 - n)
        return out

    return g, G


def _entropy_closed_n1(eps: float, a: float):
    # m(r) = |r| + eps; piecewise primitives glued continuously at 0
    def Phi(r):
        r = np.asarray(r, dtype=float)
        return np.where(r >= 0.0,
                        np.log(np.maximum(r, 0.0) + eps),
                        2.0 * np.log(eps) - np.log(eps - np.minimum(r, 0.0)))

    def Psi(r):
        r = np.asarray(r, dtype=float)
        return np.where(r >= 0.0,
                        r - eps * np.log(np.maximum(r, 0.0) + eps),
                        -r - eps * np.log(eps - np.minimum(r, 0.0)))

    Phia = float(Phi(np.array(a)))
    Psia = float(Psi(np.array(a)))

    def g(s):
        return Phi(s) - Phia

    def G(s):
        s = np.asarray(s, dtype=float)
        return (Psia - Psi(s)) + s * g(s)

    return g, G


def _entropy_closed_n2(eps: float, a: float):
    # m(r) = r^2 + eps
    rt = math.sqrt(eps)

    def Phi(r):
        return np.arctan(np.asarray(r, dtype=float) / rt) / rt

    Phia = float(Phi(np.array(a)))

    def g(s):
        return Phi(s) - Phia

    def G(s):
        s = np.asarray(s, dtype=float)
        return 0.5 * np.log((a * a + eps) / (s * s + eps)) + s * g(s)

    return g, G


def _adaptive_quad(f, lo, hi, **kwargs):
    """scipy.integrate.quad, imported on first use: it dominates the import time."""
    from scipy.integrate import quad

    return quad(f, lo, hi, **kwargs)


def _panels(lo, hi, m):
    """int_lo^hi 1/m and int_lo^hi (r - lo)/m per panel, 8-point Gauss-Legendre."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    inv = np.zeros_like(half)
    moment = np.zeros_like(half)
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        q = w / m(mid + half * x)
        inv += q
        moment += (1.0 + x) * q  # r - lo = half (1 + x), positive
    return half * inv, half * half * moment


def _entropy_numeric(n: float, eps: float, a: float):
    def m(r):
        return np.abs(r) ** n + eps

    def g_scalar(s):
        val, _ = _adaptive_quad(lambda r: 1.0 / m(r), s, a, epsabs=1e-12, epsrel=1e-12, limit=400)
        return -val

    def G_scalar(s):
        val, _ = _adaptive_quad(lambda r: (r - s) / m(r), s, a, epsabs=1e-12, epsrel=1e-12, limit=400)
        return val

    nodes = np.geomspace(a * _TABLE_FLOOR, a, _TABLE_SIZE)
    B_panel, L_panel = _panels(nodes[:-1], nodes[1:], m)
    B = np.zeros(_TABLE_SIZE)
    B[:-1] = np.cumsum(B_panel[::-1])[::-1]
    G_nodes = np.zeros(_TABLE_SIZE)
    G_nodes[:-1] = np.cumsum((L_panel + (nodes[1:] - nodes[:-1]) * B[1:])[::-1])[::-1]

    @functools.cache
    def zero_to_anchor():
        """int_0^a 1/m: the table's int_{s_0}^a plus [0, s_0] by quadrature."""
        val, _ = _adaptive_quad(lambda r: 1.0 / m(r), 0.0, nodes[0],
                                epsabs=1e-12, epsrel=1e-12, limit=400)
        return B[0] + val

    def tail(s):
        """(int_s^a 1/m, G(s)) for |s| in the table: node s_j >= |s| plus the panel [|s|, s_j].

        s < 0 reflects through 0, where m is even: int_s^a 1/m = 2 B_0 - int_|s|^a 1/m
        and G(s) = G(|s|) + 2 |s| B_0 with B_0 = int_0^a 1/m.
        """
        x = np.abs(s)
        j = np.searchsorted(nodes, x)
        sj = nodes[j]
        B_x, L_x = _panels(x, sj, m)
        inv = B[j] + B_x
        G = G_nodes[j] + (sj - x) * B[j] + L_x
        neg = s < 0.0
        if np.any(neg):
            B_0 = zero_to_anchor()
            inv[neg] = 2.0 * B_0 - inv[neg]
            G[neg] += 2.0 * x[neg] * B_0
        return inv, G

    def evaluate(s, pick, scalar):
        s = np.asarray(s, dtype=float)
        flat = np.atleast_1d(s)
        out = np.empty(flat.shape)
        size = np.abs(flat)
        inside = (size >= nodes[0]) & (size <= a)
        if np.any(inside):
            out[inside] = pick(*tail(flat[inside]))
        rest = ~inside
        if np.any(rest):
            out[rest] = [scalar(v) for v in flat[rest]]
        return out.reshape(s.shape)

    def g(s):
        return evaluate(s, lambda inv, G: -inv, g_scalar)

    def G(s):
        return evaluate(s, lambda inv, G: G, G_scalar)

    return g, G


def entropy_functions(params: ModelParams) -> EntropyEval:
    """Build the entropy pair for params (anchor must be set).

    Closed forms: any n with eps = 0 (power/log primitives), and n in {1, 2}
    with eps > 0.  Everything else uses a node table of int_s^a 1/m and G
    on [a*_TABLE_FLOOR, a], summed from 8-point Gauss-Legendre panels; g and
    G at s add one more panel from s to the next node, which keeps them at
    roundoff accuracy.  s < 0 reflects through 0, and only |s| outside the
    table uses adaptive quadrature.  With eps = 0, evaluation at s <= 0
    returns the +/-inf sentinel instead of raising; the blow-up is exactly
    what the nonnegativity argument rests on.
    """
    a = params.entropy_anchor
    if a is None or not np.isfinite(a) or a <= 0:
        raise ValueError(f"entropy anchor must be positive and finite, got {a}")
    n, eps = params.n, params.epsilon
    closed = True
    if eps == 0.0:
        g, G = _entropy_closed_eps0(n, a)
    elif n == 1.0:
        g, G = _entropy_closed_n1(eps, a)
    elif n == 2.0:
        g, G = _entropy_closed_n2(eps, a)
    else:
        g, G = _entropy_numeric(n, eps, a)
        closed = False
    return EntropyEval(g=g, G=G, closed_form=closed, n=n, epsilon=eps, anchor=a)


def entropy_integral(u_grid: np.ndarray, entropy: EntropyEval, domain: DomainSpec) -> float:
    """int G(u) dx over the grid; +inf as soon as any node blows up."""
    vals = entropy.G(u_grid)
    if not np.all(np.isfinite(vals)):
        return float("inf")
    return quadrature(vals, domain)


# -- initial data ------------------------------------------------------------

# positivity-set membership: below spectral truncation noise at N <= 64
DEFAULT_TOL_ZERO_REL = 1e-7
# nonnegativity verdict; violations beyond this are genuine findings
DEFAULT_TOL_NEG_REL = 1e-8


@dataclass
class ValidationReport:
    valid: bool
    errors: list[str]
    warnings: list[str]
    touches_zero: bool
    entropy_integral: float


def validate_initial_data(u0: SpectralField, params: ModelParams, domain: DomainSpec,
                          entropy_required: bool = False) -> ValidationReport:
    """Check u0 >= 0 and finiteness of the initial entropy.

    Grid values below -tol_neg are a hard error.  Data touching zero with
    n >= 2 has infinite entropy: hard error when entropy tracking is
    requested, a warning otherwise (the admissibility hypothesis forces the
    zero set of u0 to be null for n >= 2, and compact support is only
    admissible for 1 <= n < 2).
    """
    fld = synthesize(u0, domain, order=0)
    umin = float(fld.u.min())
    umax = float(fld.u.max())
    scale = max(1.0, abs(umax))
    tol_neg = DEFAULT_TOL_NEG_REL * scale
    tol_touch = DEFAULT_TOL_ZERO_REL * scale

    errors: list[str] = []
    warnings: list[str] = []
    if umin < -tol_neg:
        errors.append(f"initial data negative on the grid: min u0 = {umin:.3e}")
    touches = umin < tol_touch

    anchor = params.entropy_anchor if params.entropy_anchor is not None else umax + 1.0
    if anchor <= umax:
        errors.append(f"entropy anchor {anchor} must exceed sup u0 = {umax}")

    ent = float("nan")
    if anchor > umax:
        # the admissibility hypothesis constrains the *limit* entropy (eps = 0);
        # computed even for rejected data so the report can carry the value
        h2_params = ModelParams(params.n, params.delta, 0.0, 0.0,
                                params.pressure_mode, anchor, params.mobility_mode)
        entropy = entropy_functions(h2_params)
        u_eval = np.maximum(fld.u, 0.0)  # negative dips evaluate at the contact value
        ent = entropy_integral(u_eval, entropy, domain)
        if not np.isfinite(ent):
            msg = (f"initial entropy integral is infinite (u0 touches zero with n = {params.n}"
                   " >= 2)")
            if entropy_required:
                errors.append(msg)
            else:
                warnings.append(msg)
        elif touches and params.n >= 2.0:
            warnings.append("u0 is within the zero tolerance and n >= 2; entropy nearly singular")

    return ValidationReport(
        valid=not errors,
        errors=errors,
        warnings=warnings,
        touches_zero=touches,
        entropy_integral=ent,
    )
