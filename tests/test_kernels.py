"""kernels.rhs is bit-identical to the plain form of the same arithmetic.

_reference_rhs is the kernel as it stood before its numpy calls were cut
(separate syntheses of u and u_x, one np.sum per integral, the pressure
density inline).  Every floating-point operation of the fast kernel and its
order must match it, so all five outputs are compared with array_equal,
not with a tolerance.  A call that asks for no aux, or fills a workspace,
must return the same arrays as the full call, and the integrands pass over
the workspaces must give the full call's leading aux entries [D, S, D_r...].
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from capillary1d import kernels
from capillary1d.basis import DomainSpec, eigenvalue, modes, tables
from capillary1d.model import ModelParams, mobility, stacked_params


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


def _grid(N, pressure_mode, mobility_mode):
    # (label, params, r_values, c) over eta x n x delta x r_values x draws
    rng = np.random.default_rng(1000 * N + len(pressure_mode) + len(mobility_mode))
    for eta, n, delta, r in itertools.product((0.0, 0.05), (1.0, 1.5, 2.0, 3.0),
                                              (0.0, 0.2), ((), (1.5, 2.0))):
        params = ModelParams(n=n, delta=delta, epsilon=0.01, eta=eta,
                             pressure_mode=pressure_mode, mobility_mode=mobility_mode)
        r_values = np.asarray(r, dtype=float)
        for c in _draws(N, rng):
            yield (eta, n, delta, r), params, r_values, c


GRID = pytest.mark.parametrize("pressure_mode, mobility_mode",
                               list(itertools.product(("nonlinear", "linear"),
                                                      ("standard", "constant"))))


@pytest.mark.parametrize("N", [8, 16, 32])
@GRID
def test_rhs_bit_identical_to_reference(N, pressure_mode, mobility_mode):
    domain = DomainSpec(half_length=1.3, modes=N)
    t = tables(domain)
    ref_t = _reference_tables(domain)
    for label, params, r_values, c in _grid(N, pressure_mode, mobility_mode):
        got = kernels.rhs(c, t, params, r_values)
        want = _reference_rhs(c, ref_t, params, r_values)
        assert len(got) == 5
        for name, a, b in zip(("c_dot", "d", "u", "flux", "aux"), got, want):
            assert np.array_equal(a, b), (name, label)


def _workspace(lead, t):
    # the integrands' workspace (Q^2, Q, p_x, m(u)) for lead states, NaN until written
    return np.full((4,) + lead + t.w.shape, np.nan)


@pytest.mark.parametrize("N", [8, 16, 32])
@GRID
def test_rhs_aux_prefix_is_the_full_calls(N, pressure_mode, mobility_mode):
    # the lighter calls a Runge-Kutta stage makes change nothing they return;
    # the workspace a stage call fills holds the full call's Q^2, Q, p_x and
    # m(u), and the integrands pass over it gives the full call's aux prefix
    # [D, S, D_r...]
    t = tables(DomainSpec(half_length=1.3, modes=N))
    for label, params, r_values, c in _grid(N, pressure_mode, mobility_mode):
        nq = 2 + r_values.shape[0]
        full = kernels.rhs(c, t, params, r_values)
        assert full[4].shape == (nq + 3,)
        for n_aux, fill in itertools.product((None, 0), (False, True)):
            work = _workspace((1,), t)
            got = kernels.rhs(c, t, params, r_values, n_aux, tuple(work[:, 0]) if fill else None)
            for name, a, b in zip(("c_dot", "d", "u", "flux"), got, full):
                assert np.array_equal(a, b), (name, n_aux, fill, label)
            want = full[4] if n_aux is None else full[4][:0]
            assert got[4].shape == want.shape, (n_aux, fill, label)
            assert np.array_equal(got[4], want), (n_aux, fill, label)
            if not fill:
                continue
            ux = np.dot(t.Ex, c)
            assert np.array_equal(work[0, 0], 1.0 + ux * ux), label
            assert np.array_equal(work[1, 0], np.sqrt(1.0 + ux * ux)), label
            assert np.array_equal(work[2, 0], np.dot(t.Ex, full[1])), label
            assert np.array_equal(work[3, 0], mobility(full[2], params)), label
            prefix = kernels.integrands(c[None], tuple(work), t, params, r_values)
            assert prefix.shape == (1, nq), label
            assert np.array_equal(prefix[0], full[4][:nq]), (n_aux, label)


@pytest.mark.parametrize("N", [8, 16, 32])
@GRID
def test_integrands_pass_is_the_reference_prefix(N, pressure_mode, mobility_mode):
    # one pass over a (3,) stack of stages of one member, and over a (3, B)
    # stack of stages by members, equals the reference aux prefix of every
    # (stage, member) state alone
    domain = DomainSpec(half_length=1.3, modes=N)
    t = tables(domain)
    ref_t = _reference_tables(domain)
    rng = np.random.default_rng(7 * N + len(pressure_mode) + len(mobility_mode))
    # (delta, epsilon, eta) of the stack's members: eta = 0 next to capped ones
    triples = ((0.0, 0.01, 0.0), (0.2, 0.01, 0.05), (0.2, 0.1, 0.0), (0.05, 0.05, 0.05))
    for n, r in itertools.product((1.0, 1.5, 2.0, 3.0), ((), (1.5, 2.0))):
        r_values = np.asarray(r, dtype=float)
        nq = 2 + r_values.shape[0]
        members = [ModelParams(n=n, delta=dl, epsilon=e, eta=eta, pressure_mode=pressure_mode,
                               mobility_mode=mobility_mode) for dl, e, eta in triples]
        draws = np.array(list(_draws(N, rng, count=3 * len(members))))
        stacks = [(members[1], (), draws[:3]),
                  (stacked_params(members), (len(members),), draws.reshape(3, len(members), -1))]
        for params, lead, cs in stacks:
            work = _workspace((3,) + lead, t)
            for i in range(3):
                kernels.rhs(cs[i], t, params, r_values, 0, tuple(work[:, i]))
            got = kernels.integrands(cs, tuple(work), t, params, r_values)
            assert got.shape == (3,) + lead + (nq,)
            for i, j in itertools.product(range(3), range(len(members)) if lead else [None]):
                p = members[1] if j is None else members[j]
                c = cs[i] if j is None else cs[i, j]
                want = _reference_rhs(c, ref_t, p, r_values)[4][:nq]
                assert np.array_equal(got[i] if j is None else got[i, j], want), (n, r, lead, i, j)


@pytest.mark.parametrize("n_aux", [1, 3, 4, 5, -1])
def test_rhs_refuses_an_aux_prefix_it_does_not_compute(n_aux):
    # 4 = 2 + nr was the dissipation prefix: the integrands pass computes it now
    t = tables(DomainSpec(half_length=1.0, modes=8))
    c = np.array([1.5, 0.1, 0.05, 0, 0, 0, 0, 0, 0.0])
    with pytest.raises(ValueError, match="n_aux must be None or 0"):
        kernels.rhs(c, t, ModelParams(n=2.0, delta=0.1, epsilon=0.1),
                    np.array([1.5, 2.0]), n_aux)


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
