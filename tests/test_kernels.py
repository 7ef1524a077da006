"""kernels.rhs and the aux pass are bit-identical to the plain form of the same arithmetic.

_reference_rhs is the kernel as it stood before its numpy calls were cut
(separate syntheses of u and u_x, one np.sum per integral, the pressure
density inline, aux computed in the same call).  Every floating-point
operation of the fast kernel and its order must match it, so every output
is compared with array_equal, not with a tolerance: rhs's c_dot, d, u, flux
and u_x, and every row of the integrands pass, which computes all of aux
from the workspaces the rhs calls fill.
"""

import itertools
import sys
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


def _reference_rhs(c, t, params):
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

    delta = params.delta
    aux = np.empty(4)
    aux[0] = np.sum(w * mob * (px * px))
    aux[1] = np.sum(w * (uxx * uxx / (Q * Qsq) + delta * uxx * uxx))
    aux[2] = np.sum(w * Q)
    aux[3] = 0.5 * delta * np.sum(w * ux * ux)
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
    # (label, params, c) over eta x n x delta x draws
    rng = np.random.default_rng(1000 * N + len(pressure_mode) + len(mobility_mode))
    for eta, n, delta in itertools.product((0.0, 0.05), (1.0, 1.5, 2.0, 3.0), (0.0, 0.2)):
        params = ModelParams(n=n, delta=delta, epsilon=0.01, eta=eta,
                             pressure_mode=pressure_mode, mobility_mode=mobility_mode)
        for c in _draws(N, rng):
            yield (eta, n, delta), params, c


GRID = pytest.mark.parametrize("pressure_mode, mobility_mode",
                               list(itertools.product(("nonlinear", "linear"),
                                                      ("standard", "constant"))))


def _workspace(lead, t):
    # the pass's workspace for lead[0] calls at states of leading shape
    # lead[1:], NaN until an rhs call writes it: u and u_x as two blocks,
    # (2,) + lead[1:] + (G,) per call (flat for one member), then Q^2, Q,
    # p_x and m(u)
    G = t.w.shape[0]
    uux = (2,) + lead[1:] + (G,) if lead[1:] else (2 * G,)
    return (np.full(lead[:1] + uux, np.nan), *np.full((4,) + lead + (G,), np.nan))


def _slot(work, i):
    return tuple(a[i] for a in work)


@pytest.mark.parametrize("N", [8, 16, 32])
@GRID
def test_rhs_bit_identical_to_reference(N, pressure_mode, mobility_mode):
    # rhs returns the reference's c_dot, d, u and flux, and u_x; the pass
    # over the state alone returns the reference's aux
    domain = DomainSpec(half_length=1.3, modes=N)
    t = tables(domain)
    ref_t = _reference_tables(domain)
    for label, params, c in _grid(N, pressure_mode, mobility_mode):
        got = kernels.rhs(c, t, params)
        want = _reference_rhs(c, ref_t, params)
        assert len(got) == 5
        for name, a, b in zip(("c_dot", "d", "u", "flux"), got, want):
            assert np.array_equal(a, b), (name, label)
        assert np.array_equal(got[4], np.dot(ref_t.Ex, c)), ("ux", label)
        work = _workspace((1,), t)
        kernels.rhs(c, t, params, _slot(work, 0))
        aux = kernels.integrands(c[None], work, t, params)
        assert aux.shape == (1, 4), label
        assert np.array_equal(aux[0], want[4]), label


@pytest.mark.parametrize("N", [8, 16, 32])
@GRID
def test_rhs_aux_prefix_is_the_full_calls(N, pressure_mode, mobility_mode):
    # a call that fills a workspace slot returns what a call without one
    # returns, and the slot holds the kernel's own u, u_x, Q^2, Q, p_x and
    # m(u): the grid values the pass reads besides c
    t = tables(DomainSpec(half_length=1.3, modes=N))
    G = t.w.shape[0]
    for label, params, c in _grid(N, pressure_mode, mobility_mode):
        plain = kernels.rhs(c, t, params)
        work = _workspace((1,), t)
        got = kernels.rhs(c, t, params, _slot(work, 0))
        for name, a, b in zip(("c_dot", "d", "u", "flux", "ux"), got, plain):
            assert np.array_equal(a, b), (name, label)
        ux = np.dot(t.Ex, c)
        assert np.array_equal(work[0][0, :G], plain[2]), label
        assert np.array_equal(work[0][0, G:], ux), label
        assert np.array_equal(work[1][0], 1.0 + ux * ux), label
        assert np.array_equal(work[2][0], np.sqrt(1.0 + ux * ux)), label
        assert np.array_equal(work[3][0], np.dot(t.Ex, plain[1])), label
        assert np.array_equal(work[4][0], mobility(plain[2], params)), label


@pytest.mark.parametrize("N", [8, 16, 32])
@GRID
def test_integrands_pass_is_the_reference_prefix(N, pressure_mode, mobility_mode):
    # one pass over a (3,) stack of states of one member, and over a (3, B)
    # stack of states by members, gives every (state, member) row the
    # reference's aux of that state alone, [D, S, E_surface, E_delta];
    # so does a pass over a chunk of 3 steps of 4 states each, flattened as
    # the stepping loop passes it, (12,) for one member and (12, B) for a
    # stack, and unflattened, a (3, 4) block of one member's states
    domain = DomainSpec(half_length=1.3, modes=N)
    t = tables(domain)
    ref_t = _reference_tables(domain)
    rng = np.random.default_rng(7 * N + len(pressure_mode) + len(mobility_mode))
    # (delta, epsilon, eta) of the stack's members: eta = 0 next to capped ones
    triples = ((0.0, 0.01, 0.0), (0.2, 0.01, 0.05), (0.2, 0.1, 0.0), (0.05, 0.05, 0.05))
    for n in (1.0, 1.5, 2.0, 3.0):
        members = [ModelParams(n=n, delta=dl, epsilon=e, eta=eta, pressure_mode=pressure_mode,
                               mobility_mode=mobility_mode) for dl, e, eta in triples]
        draws = np.array(list(_draws(N, rng, count=12 * len(members))))
        stacked = stacked_params(members, t.w)
        stacks = [(members[1], (), draws[:3]),
                  (stacked, (len(members),), draws[:3 * len(members)].reshape(3, len(members), -1)),
                  (members[1], (), draws[:12]),
                  (stacked, (len(members),), draws.reshape(12, len(members), -1)),
                  (members[1], (), draws[:12].reshape(3, 4, -1))]
        for params, lead, cs in stacks:
            work = _workspace(cs.shape[:-1], t)
            for i in range(len(cs)):
                kernels.rhs(cs[i], t, params, _slot(work, i))
            got = kernels.integrands(cs, work, t, params)
            assert got.shape == cs.shape[:-1] + (4,)
            for idx in np.ndindex(cs.shape[:-1]):
                p = members[idx[-1]] if lead else members[1]
                want = _reference_rhs(cs[idx], ref_t, p)[4]
                assert np.array_equal(got[idx], want), (n, lead, idx)


def test_integrands_pass_allocates_one_grid_row_and_keeps_u():
    # the pass over a full chunk of the epsilon sweep's stack, 16 steps of 4
    # states by 3 members at N = 16, writes its integrands over the
    # workspace: it allocates one grid row of the chunk, the u_xx synthesis,
    # besides what does not grow with the grid (the buffers of numpy's
    # iterator for a broadcast or strided operand, np.getbufsize() elements
    # each, and a few (64, 3) arrays) or stays below it (lam c); and it
    # leaves u and u_x (work[0]) bit for bit as the rhs calls wrote them
    import tracemalloc

    N = 16
    t = tables(DomainSpec(half_length=1.0, modes=N))
    members = [ModelParams(n=1.5, delta=0.05, epsilon=e, eta=0.0) for e in (1e-1, 1e-2, 1e-3)]
    params = stacked_params(members, t.w)
    cs = np.array(list(_draws(N, np.random.default_rng(5), count=64 * 3))).reshape(64, 3, N + 1)
    work = _workspace(cs.shape[:-1], t)
    for i in range(len(cs)):
        kernels.rhs(cs[i], t, params, _slot(work, i))
    uux = work[0].copy()
    grid_row = work[1].nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        aux = kernels.integrands(cs, work, t, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aux.shape == (64, 3, 4) and np.isfinite(aux).all()
    assert peak - base <= grid_row + 2 * np.getbufsize() * 8 + 4096, (peak - base, grid_row)
    assert work[0].tobytes() == uux.tobytes()


@pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
@GRID
def test_rhs_outputs_outlive_the_next_call_into_the_slot(stack, pressure_mode, mobility_mode):
    # c_dot, d and flux are fresh arrays: the stepping loop keeps a call's
    # slope past the next call into the same workspace slot, on another state
    t = tables(DomainSpec(half_length=1.3, modes=8))
    members = [ModelParams(n=2.0, delta=0.2, epsilon=e, eta=eta, pressure_mode=pressure_mode,
                           mobility_mode=mobility_mode) for e, eta in ((0.01, 0.0), (0.1, 0.05))]
    params = stacked_params(members, t.w) if stack else members[0]
    draws = np.array(list(_draws(8, np.random.default_rng(13), count=4)))
    first, second = (draws[:2], draws[2:]) if stack else (draws[0], draws[1])
    slot = _slot(_workspace((1,) + first.shape[:-1], t), 0)
    c_dot, d, _, flux, _ = kernels.rhs(first, t, params, slot)
    kept = [a.copy() for a in (c_dot, d, flux)]
    later = kernels.rhs(second, t, params, slot)
    for name, a, b, c in zip(("c_dot", "d", "flux"), (c_dot, d, flux), kept,
                             (later[0], later[1], later[3])):
        assert np.array_equal(a, b), name
        assert not np.array_equal(c, b), name  # the second call's value is another


@pytest.mark.parametrize("eta", [0.0, 0.05], ids=["uncapped", "capped"])
@GRID
def test_rhs_runs_no_python_function_but_the_physics(pressure_mode, mobility_mode, eta):
    # a 1-D call with a workspace enters three Python frames: rhs, the
    # pressure density and the mobility, and so does a stacked call into a
    # chunk slot.  numpy's dispatchers (np.dot, np.copyto), properties and
    # helpers such as basis.matvec would each add one; the per-call cost of
    # the stepping loop is mostly such overhead
    t = tables(DomainSpec(half_length=1.3, modes=8))
    draws = np.array(list(_draws(8, np.random.default_rng(17), count=2)))
    for n in (1.5, 2.0):
        members = [ModelParams(n=n, delta=dl, epsilon=e, eta=eta, pressure_mode=pressure_mode,
                               mobility_mode=mobility_mode) for dl, e in ((0.2, 0.01), (0.1, 0.1))]
        cases = ((draws[0], members[0], kernels.workspace((), t)),
                 (draws, stacked_params(members, t.w), _slot(kernels.workspace((3, 2), t), 1)))
        for c, params, work in cases:
            frames = []

            def profile(frame, event, arg):
                if event == "call":
                    frames.append(f"{frame.f_globals['__name__']}.{frame.f_code.co_name}")

            sys.setprofile(profile)
            try:
                kernels.rhs(c, t, params, work)
            finally:
                sys.setprofile(None)
            assert frames == ["capillary1d.kernels.rhs", "capillary1d.model.pressure_density",
                              "capillary1d.model.mobility"], (n, c.shape)


@pytest.mark.parametrize("pressure_mode", ["nonlinear", "linear"])
@pytest.mark.parametrize("B", [2, 3, 4])
def test_stacked_call_meets_contiguous_member_rows(B, pressure_mode):
    # a stacked call into a chunk slot writes u and u_x as two C-contiguous
    # (B, G) blocks, the halves of work[0], and every elementwise operand
    # its stack brings is a read-only C-contiguous (B, G) row block (their
    # values: test_model) or the 0-d n_op; so no ufunc of the call meets a
    # broadcast or strided operand besides the 0-d ones
    N = 16
    t = tables(DomainSpec(half_length=1.0, modes=N))
    G = t.w.shape[0]
    members = [ModelParams(n=1.5, delta=0.05 * (b + 1), epsilon=10.0 ** -(b + 1), eta=0.02 * b,
                           pressure_mode=pressure_mode) for b in range(B)]
    params = stacked_params(members, t.w)
    for name in ("delta_op", "one_plus_delta_op", "epsilon_op", "eta_op", "w_op"):
        a = getattr(params, name)
        assert a.shape == (B, G) and a.flags.c_contiguous and not a.flags.writeable, name
    assert params.n_op.shape == () and not params.n_op.flags.writeable
    work = kernels.workspace((5, B), t)
    slot = _slot(work, 3)
    cs = np.array(list(_draws(N, np.random.default_rng(23), count=B)))
    c_dot, d, u, flux, ux = kernels.rhs(cs, t, params, slot)
    base = slot[0].ctypes.data
    assert slot[0].shape == (2, B, G) and slot[0].flags.c_contiguous
    for block, a in enumerate((u, ux)):
        assert a.shape == (B, G) and a.flags.c_contiguous
        assert a.ctypes.data == base + block * B * G * a.itemsize
    for a in slot[1:] + (c_dot, d, flux):
        assert a.flags.c_contiguous
    for b, (p, c) in enumerate(zip(members, cs)):
        for name, x, y in zip(("c_dot", "d", "u", "flux", "ux"), (c_dot, d, u, flux, ux),
                              kernels.rhs(c, t, p)):
            assert np.array_equal(x[b], y), (name, b)


@pytest.mark.parametrize("n_aux", [1, 3, 4, 5, -1])
def test_rhs_refuses_an_aux_prefix_it_does_not_compute(n_aux):
    # the kernel computes no aux, so a call that asks for some, by an
    # array and an aux count after params, is refused rather than read as a
    # workspace
    t = tables(DomainSpec(half_length=1.0, modes=8))
    c = np.array([1.5, 0.1, 0.05, 0, 0, 0, 0, 0, 0.0])
    params = ModelParams(n=2.0, delta=0.1, epsilon=0.1)
    with pytest.raises(TypeError):
        kernels.rhs(c, t, params, np.array([1.5, 2.0]), n_aux)
    with pytest.raises(TypeError):
        kernels.rhs(c, t, params, n_aux=n_aux)


@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_stacked_table_halves_are_the_mode_tables(N):
    domain = DomainSpec(half_length=0.7, modes=N)
    t = tables(domain)
    ref_t = _reference_tables(domain)
    assert np.array_equal(t.E, ref_t.E)
    assert np.array_equal(t.Ex, ref_t.Ex)
    assert np.array_equal(t.ExT, ref_t.ExT)
    assert np.array_equal(t.ExT_neg, -ref_t.ExT) and t.ExT_neg.flags.c_contiguous
    assert t.EEx.shape == (2 * domain.grid_size, N + 1) and t.EEx.flags.c_contiguous
    # views into the stacked table: no second copy of either half, nor of
    # the (2, 1, G, N+1) blocks a stack's synthesis multiplies by
    assert t.E.base is t.EEx and t.Ex.base is t.EEx and t.EEx_blocks.base is t.EEx
    assert t.EEx_blocks.shape == (2, 1, domain.grid_size, N + 1)
    assert np.array_equal(t.EEx_blocks[0, 0], t.E) and np.array_equal(t.EEx_blocks[1, 0], t.Ex)
    assert t.E.flags.c_contiguous and t.Ex.flags.c_contiguous


FIELD_NAMES = ("c_dot", "d", "u", "ux", "uxx", "Q", "flux")


@pytest.mark.parametrize("N", [8, 16, 32])
@GRID
def test_fields_stack_rows_are_the_single_calls(N, pressure_mode, mobility_mode):
    # one ModelParams over an (S, N+1) stack: every row is array_equal to
    # the call on that row alone and to the call with S copies stacked; the
    # single call is rhs's output with u_xx and Q beside it
    t = tables(DomainSpec(half_length=1.3, modes=N))
    rng = np.random.default_rng(11 * N + len(pressure_mode) + len(mobility_mode))
    for eta, n, delta in itertools.product((0.0, 0.05), (1.0, 1.5, 2.0, 3.0), (0.0, 0.2)):
        params = ModelParams(n=n, delta=delta, epsilon=0.01, eta=eta,
                             pressure_mode=pressure_mode, mobility_mode=mobility_mode)
        cs = np.array(list(_draws(N, rng, count=5)))
        got = kernels.fields(cs, t, params)
        stacked = kernels.fields(cs, t, stacked_params([params] * len(cs), t.w))
        assert len(got) == len(FIELD_NAMES)
        for i, c in enumerate(cs):
            one = dict(zip(FIELD_NAMES, kernels.fields(c, t, params)))
            for name, a, s in zip(FIELD_NAMES, got, stacked):
                assert np.array_equal(a[i], one[name]), (name, eta, n, delta, i)
                assert np.array_equal(s[i], one[name]), (name, eta, n, delta, i)
            plain = kernels.rhs(c, t, params)
            for name, a in zip(("c_dot", "d", "u", "flux", "ux"), plain):
                assert np.array_equal(a, one[name]), (name, eta, n, delta, i)
            assert np.array_equal(one["uxx"], -np.dot(t.E, t.lam * c))
            assert np.array_equal(one["Q"], np.sqrt(1.0 + one["ux"] ** 2))


@pytest.mark.parametrize("N", [8, 16, 32])
def test_fields_uxx_on_an_eigenmode(N):
    # u_xx carries its true sign: -lam_j e_j at c = e_j
    domain = DomainSpec(half_length=0.9, modes=N)
    t = tables(domain)
    params = ModelParams(n=2.0, delta=0.1, epsilon=0.1)
    for j in range(N + 1):
        c = np.zeros(N + 1)
        c[j] = 1.0
        uxx = kernels.fields(c, t, params)[4]
        assert np.array_equal(uxx, -eigenvalue(j, domain) * t.E[:, j]), j
