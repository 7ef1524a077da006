"""kernels.rhs is bit-identical to the plain form of the same arithmetic.

_reference_rhs is the kernel as it stood before its numpy calls were cut
(separate syntheses of u and u_x, one np.sum per integral, the pressure
density inline).  Every floating-point operation of the fast kernel and its
order must match it, so all five outputs are compared with array_equal,
not with a tolerance.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from capillary1d import kernels
from capillary1d.basis import DomainSpec, eigenvalue, modes, tables
from capillary1d.model import ModelParams, mobility


def _reference_tables(domain):
    # the tables as separate contiguous arrays, built from the closed form
    xg, wg = np.polynomial.legendre.leggauss(domain.grid_size)
    l = domain.half_length
    x, w = l * xg, l * wg
    js = np.arange(domain.modes + 1)
    E = modes(js, x, domain)
    Ex = modes(js, x, domain, deriv=1)
    return SimpleNamespace(w=w, E=np.ascontiguousarray(E), Ex=np.ascontiguousarray(Ex),
                           ExT=np.ascontiguousarray(Ex.T), lam=eigenvalue(js, domain))


def _reference_rhs(c, t, params, r_values):
    w = t.w
    u = np.dot(t.E, c)
    ux = np.dot(t.Ex, c)
    uxx = -np.dot(t.E, t.lam * c)

    Qsq = 1.0 + ux * ux
    Q = np.sqrt(Qsq)

    if params.pressure_mode == "linear":
        s = (1.0 + params.delta) * ux
    else:
        s = ux / np.sqrt(1.0 + ux * ux) + params.delta * ux
    d = t.ExT @ (t.w * s)
    px = np.dot(t.Ex, d)
    mob = mobility(u, params)
    flux = mob * px
    c_dot = -np.dot(t.ExT, w * flux)

    pxsq = px * px
    nr = r_values.shape[0]
    delta = params.delta
    aux = np.empty(5 + nr)
    aux[0] = np.sum(w * mob * pxsq)
    aux[1] = np.sum(w * (uxx * uxx / (Q * Qsq) + delta * uxx * uxx))
    for k in range(nr):
        aux[2 + k] = np.sum(w * mob ** r_values[k] * pxsq)
    aux[2 + nr] = np.sum(w * Q)
    aux[3 + nr] = 0.5 * delta * np.sum(w * ux * ux)
    aux[4 + nr] = np.max(np.abs(u))
    return c_dot, d, u, flux, aux


def _draws(N, rng, count=3):
    # a positive film with decaying modes, and a rough one that changes sign
    scale = 1.0 / np.arange(1, N + 1) ** 2
    for i in range(count):
        c = np.empty(N + 1)
        c[0] = rng.uniform(0.5, 2.0)
        c[1:] = rng.standard_normal(N) * (scale if i % 2 == 0 else 0.5)
        yield c


@pytest.mark.parametrize("N", [8, 16, 32])
@pytest.mark.parametrize("pressure_mode, mobility_mode",
                         list(itertools.product(("nonlinear", "linear"),
                                                ("standard", "constant"))))
def test_rhs_bit_identical_to_reference(N, pressure_mode, mobility_mode):
    domain = DomainSpec(half_length=1.3, modes=N)
    t = tables(domain)
    ref_t = _reference_tables(domain)
    rng = np.random.default_rng(1000 * N + len(pressure_mode) + len(mobility_mode))
    for eta, n, delta, r in itertools.product((0.0, 0.05), (1.0, 1.5, 2.0, 3.0),
                                              (0.0, 0.2), ((), (1.5, 2.0))):
        params = ModelParams(n=n, delta=delta, epsilon=0.01, eta=eta,
                             pressure_mode=pressure_mode, mobility_mode=mobility_mode)
        r_values = np.asarray(r, dtype=float)
        for c in _draws(N, rng):
            got = kernels.rhs(c, t, params, r_values)
            want = _reference_rhs(c, ref_t, params, r_values)
            assert len(got) == 5
            for name, a, b in zip(("c_dot", "d", "u", "flux", "aux"), got, want):
                assert np.array_equal(a, b), (name, eta, n, delta, r)


@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_stacked_table_halves_are_the_mode_tables(N):
    domain = DomainSpec(half_length=0.7, modes=N)
    t = tables(domain)
    ref_t = _reference_tables(domain)
    assert np.array_equal(t.E, ref_t.E)
    assert np.array_equal(t.Ex, ref_t.Ex)
    assert t.EEx.shape == (2 * domain.grid_size, N + 1) and t.EEx.flags.c_contiguous
    # views into the stacked table: no second copy of either half
    assert t.E.base is t.EEx and t.Ex.base is t.EEx
    assert t.E.flags.c_contiguous and t.Ex.flags.c_contiguous
