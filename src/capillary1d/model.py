"""Physics of the regularized thin-film system.

Mobility with its (epsilon, eta) regularization, the weak pressure density
u_x/Q + delta u_x (exact curvature plus its elliptic delta-augmentation)
and the Galerkin pressure coefficients it defines, and the entropy pair
(g, G) with G'' = 1/m used by the entropy estimate.  m_0 is fixed to the
constant 1, so the bare mobility is exactly |s|^n.  The mobility and the
pressure also take a stack of members that differ in delta, epsilon and
eta only (StackedParams), with grid values of shape (B, G).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisTables, DomainSpec, SpectralField, matvec, quadrature, tables

PRESSURE_MODES = ("nonlinear", "linear")
MOBILITY_MODES = ("standard", "constant")
# the entropy table's top panel forms half * half * moment with a half-width
# of about 0.04 a, which overflows from a of about 3e155 on
MAX_ENTROPY_ANCHOR = 1e150


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


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
        if 0.0 < self.epsilon < 1e-300:
            # the entropy table's first node (1e-6 eps)^(1/n) must be a normal float
            raise ValueError(f"epsilon must be 0 or at least 1e-300, got {self.epsilon}")
        if self.pressure_mode not in PRESSURE_MODES:
            raise ValueError(f"pressure_mode must be one of {PRESSURE_MODES}")
        if self.mobility_mode not in MOBILITY_MODES:
            raise ValueError(f"mobility_mode must be one of {MOBILITY_MODES}")
        if self.entropy_anchor is not None and not (
            np.isfinite(self.entropy_anchor) and self.entropy_anchor > 0
        ):
            raise ValueError(f"entropy_anchor must be positive and finite, got {self.entropy_anchor}")
        if self.entropy_anchor is not None and self.entropy_anchor > MAX_ENTROPY_ANCHOR:
            raise ValueError(f"entropy_anchor must be at most {MAX_ENTROPY_ANCHOR:g},"
                             f" got {self.entropy_anchor}")

    @property
    def capped(self) -> bool:
        """Whether the mobility applies the eta cap."""
        return self.eta > 0.0


@dataclass(frozen=True)
class StackedParams:
    """The parameters of a stack of B members that differ in delta, epsilon and eta only.

    delta, epsilon and eta are (B, 1) columns, so that they broadcast
    against grid values of shape (B, G) row by row.  The eta cap applies to
    the whole stack when any member has eta > 0: for finite m,
    m / (1 + 0 m) is exactly m, so a member with eta = 0 keeps its bits.
    """

    n: float
    delta: np.ndarray
    epsilon: np.ndarray
    eta: np.ndarray
    pressure_mode: str
    mobility_mode: str
    capped: bool


def stacked_params(members: list[ModelParams]) -> ModelParams | StackedParams:
    """The parameters of members as one stack; one member's own ModelParams for B = 1.

    Every member must share n, pressure_mode and mobility_mode
    (ValueError otherwise); the entropy anchor is not read by the RHS.
    """
    first = members[0]
    if len(members) == 1:
        return first
    for p in members[1:]:
        if (p.n, p.pressure_mode, p.mobility_mode) != (
                first.n, first.pressure_mode, first.mobility_mode):
            raise ValueError("a stack's members may differ in delta, epsilon and eta only")

    def column(name):
        return np.array([[getattr(p, name)] for p in members])

    return StackedParams(n=first.n, delta=column("delta"), epsilon=column("epsilon"),
                         eta=column("eta"), pressure_mode=first.pressure_mode,
                         mobility_mode=first.mobility_mode,
                         capped=any(p.capped for p in members))


def mobility(s, params: ModelParams | StackedParams, out: np.ndarray | None = None):
    """Regularized mobility m_{eps,eta}(s) = |s|^n / (1 + eta |s|^n) + eps.

    Bounds eps <= m <= 1/eta + 1 hold for eta > 0; eta = 0 gives |s|^n + eps
    and eta = eps = 0 the bare |s|^n.  out, when given, receives the values.
    """
    if params.mobility_mode == "constant":
        return np.multiply(params.epsilon, np.ones_like(np.asarray(s, dtype=float)), out=out)
    m = np.abs(np.asarray(s, dtype=float)) ** params.n
    if params.capped:
        m = m / (1.0 + params.eta * m)
    return np.add(m, params.epsilon, out=out)


def pressure_density(ux: np.ndarray, Q: np.ndarray,
                     params: ModelParams | StackedParams) -> np.ndarray:
    """Integrand s of the weak pairing: u_x/Q + delta u_x, or (1+delta) u_x in linear mode.

    Q = sqrt(1 + u_x^2) on the same grid, passed in because the RHS kernel
    needs it too.
    """
    if params.pressure_mode == "linear":
        return (1.0 + params.delta) * ux
    return ux / Q + params.delta * ux


def pressure_coeffs(ux: np.ndarray, Q: np.ndarray, t: BasisTables,
                    params: ModelParams | StackedParams) -> np.ndarray:
    """Pressure coefficients d_k = <A_delta(u), e_k> = Ex^T (w s), per member of a stack.

    ux and Q are grid values on the tables t.  The weak pairing with v in
    the Galerkin space is d . v; it satisfies
    |<A_delta(u), v>| <= (1+delta) ||u||_H1 ||v||_H1 and the coercivity
    <A_delta(w), w> >= delta ||w_x||_L2^2.  d_0 = 0 identically because
    e_0' = 0 -- this is the mean-zero-pressure mechanism that makes the
    constant mode stationary.
    """
    return matvec(t.ExT, t.w * pressure_density(ux, Q, params))


# -- entropy pair ------------------------------------------------------------
#
# g_eps(s) = -int_s^a dr / m_eps(r),   G_eps(s) = -int_s^a g_eps(r) dr
# with m_eps(r) = |r|^n + eps (the eta cap never enters the entropy).
# Fubini collapses G to the single integral int_s^a (r - s)/m_eps(r) dr.
#
# For eps > 0, _TABLE_SIZE geometric nodes s_i from s_0 to a carry
# B_i = int_{s_i}^a 1/m and G_i = G(s_i), summed backwards from the anchor
# (B = G = 0 at s = a) over 8-point Gauss-Legendre panels:
#   B_i = B_{i+1} + int_{s_i}^{s_{i+1}} 1/m
#   G_i = G_{i+1} + (s_{i+1} - s_i) B_{i+1} + int_{s_i}^{s_{i+1}} (r - s_i)/m
# Every term is positive, so nothing cancels near the anchor.  A value s adds
# one more panel [|s|, s_j] to its next node s_j >= |s|, by the same
# recursions.  s_0 = min(a*_TABLE_FLOOR, (1e-6 eps)^(1/n)) keeps m within a
# relative 1e-6 of eps on [0, s_0], so that single panel is exact to
# roundoff for every |s| < s_0, and it also gives B_0 = int_0^a 1/m, through
# which s < 0 reflects (m is even).

_TABLE_SIZE = 4096
_TABLE_FLOOR = 1e-9  # the first node is at most a*_TABLE_FLOOR
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass
class EntropyEval:
    """Vectorized g and G for fixed (n, epsilon, anchor)."""

    g: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
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
        # near a large anchor |r|^n can overflow for n > 2; 1/m is then 0,
        # its value to roundoff
        with np.errstate(over="ignore"):
            return np.abs(r) ** n + eps

    nodes = np.geomspace(min(a * _TABLE_FLOOR, (1e-6 * eps) ** (1.0 / n)), a, _TABLE_SIZE)
    B_panel, L_panel = _panels(nodes[:-1], nodes[1:], m)
    B = np.zeros(_TABLE_SIZE)
    B[:-1] = np.cumsum(B_panel[::-1])[::-1]
    G_nodes = np.zeros(_TABLE_SIZE)
    G_nodes[:-1] = np.cumsum((L_panel + (nodes[1:] - nodes[:-1]) * B[1:])[::-1])[::-1]
    B_0 = B[0] + _panels(0.0, nodes[0], m)[0]  # int_0^a 1/m

    def tail(s):
        """(int_s^a 1/m, G(s)) from the node s_j >= |s| plus the panel [|s|, s_j].

        s < 0 reflects through 0, where m is even: int_s^a 1/m = 2 B_0 - int_|s|^a 1/m
        and G(s) = G(|s|) + 2 |s| B_0.
        """
        x = np.abs(s)
        j = np.searchsorted(nodes, x)
        sj = nodes[j]
        B_x, L_x = _panels(x, sj, m)
        inv = B[j] + B_x
        G = G_nodes[j] + (sj - x) * B[j] + L_x
        neg = s < 0.0
        inv[neg] = 2.0 * B_0 - inv[neg]
        G[neg] += 2.0 * x[neg] * B_0
        return inv, G

    def evaluate(s, pick):
        s = np.asarray(s, dtype=float)
        flat = np.atleast_1d(s)
        if not np.all(np.abs(flat) <= a):
            raise ValueError(f"entropy pair evaluated outside [-a, a] with a = {a}")
        return pick(*tail(flat)).reshape(s.shape)

    def g(s):
        return evaluate(s, lambda inv, G: -inv)

    def G(s):
        return evaluate(s, lambda inv, G: G)

    return g, G


def entropy_functions(params: ModelParams) -> EntropyEval:
    """Build the entropy pair for params (anchor must be set).

    Closed forms for eps = 0 (power/log primitives, any n).  Every eps > 0
    uses the node table of int_s^a 1/m and G summed from 8-point
    Gauss-Legendre panels; g and G at s add one more panel from |s| to the
    next node, which keeps them at roundoff accuracy, and s < 0 reflects
    through 0.  The table refuses
    |s| > a with a ValueError.  With eps = 0, evaluation at s <= 0 returns
    the +/-inf sentinel instead of raising; the blow-up is exactly what the
    nonnegativity argument rests on.
    """
    a = params.entropy_anchor
    if a is None or not np.isfinite(a) or a <= 0:
        raise ValueError(f"entropy anchor must be positive and finite, got {a}")
    n, eps = params.n, params.epsilon
    if eps == 0.0:
        g, G = _entropy_closed_eps0(n, a)
    else:
        g, G = _entropy_numeric(n, eps, a)
    return EntropyEval(g=g, G=G, anchor=a)


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


def default_tol_zero(u: np.ndarray) -> float:
    """Positivity-set tolerance for grid values u, relative to max(1, max|u|)."""
    return DEFAULT_TOL_ZERO_REL * max(1.0, float(np.abs(u).max()))


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
    u = tables(domain).E @ u0.coeffs
    umin = float(u.min())
    umax = float(u.max())
    scale = max(1.0, abs(umax))
    tol_neg = DEFAULT_TOL_NEG_REL * scale

    errors: list[str] = []
    warnings: list[str] = []
    if umin < -tol_neg:
        errors.append(f"initial data negative on the grid: min u0 = {umin:.3e}")
    touches = umin < default_tol_zero(u)

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
        u_eval = np.maximum(u, 0.0)  # negative dips evaluate at the contact value
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
