import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from capillary1d import kernels, model
from capillary1d.basis import DomainSpec, eigenvalue, modes, project, tables
from capillary1d.model import (
    ModelParams,
    entropy_functions,
    entropy_integral,
    mobility,
    stacked_params,
    validate_initial_data,
)

D8 = DomainSpec(half_length=1.0, modes=8)
EPS_SWEEP = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "eps_sweep.json"


def unit_mode(j, domain, amp=1.0):
    c = np.zeros(domain.modes + 1)
    c[j] = amp
    return c


def pressure_coeffs(u, p, domain):
    # the Galerkin pressure coefficients d, as the RHS kernel forms them
    return kernels.rhs(u, tables(domain), p)[1]


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=0.5)
    with pytest.raises(ValueError):
        ModelParams(n=2, delta=1.5)
    with pytest.raises(ValueError):
        ModelParams(n=2, pressure_mode="exact")
    ModelParams(n=1.0, delta=0.0, epsilon=0.0, eta=0.0)


def test_params_operands_are_read_only_floats_beside_the_fields():
    # capped and the kernel's ufunc operands are built once per instance,
    # rebuilt by dataclasses.replace and stacked_params, and bit-equal to
    # the floats; they are no fields, so equality, hash, repr and asdict
    # see the seven fields only.  A stack's are (B, G) rows, each member's
    # value repeated over the grid, and its weight rows w_op repeat w; n_op
    # is 0-d in both
    def assert_operands(q, delta, epsilon, eta, shape):
        ops = (("delta_op", delta), ("one_plus_delta_op", 1.0 + np.asarray(delta)),
               ("epsilon_op", epsilon), ("eta_op", eta), ("n_op", q.n))
        if shape:
            ops += (("w_op", [q.w]),)
        for name, want in ops:
            a = getattr(q, name)
            want_shape = () if name == "n_op" else shape
            assert a.shape == want_shape and a.dtype == np.float64, name
            assert a.flags.c_contiguous and not a.flags.writeable, name
            want = np.broadcast_to(np.asarray(want, dtype=float), want_shape)
            assert a.tobytes() == want.tobytes(), name
            with pytest.raises(ValueError):
                a[...] = 0.5
        assert q.capped == bool(np.any(np.asarray(eta) > 0.0))

    p = ModelParams(n=2.0, delta=0.3, epsilon=0.1, eta=0.05)
    assert_operands(p, 0.3, 0.1, 0.05, ())
    q = dataclasses.replace(p, delta=0.7, epsilon=1e-3, eta=0.0)
    assert_operands(q, 0.7, 1e-3, 0.0, ())
    assert_operands(p, 0.3, 0.1, 0.05, ())
    w = tables(D8).w
    G = w.shape[0]
    s = stacked_params([p, q, ModelParams(n=2.0, delta=0.1)], w)
    assert_operands(s, [[0.3], [0.7], [0.1]], [[0.1], [1e-3], [0.0]], [[0.05], [0.0], [0.0]],
                    (3, G))
    assert_operands(stacked_params([q, q], w), [[0.7], [0.7]], [[1e-3], [1e-3]], [[0.0], [0.0]],
                    (2, G))

    names = ["n", "delta", "epsilon", "eta", "pressure_mode", "entropy_anchor",
             "mobility_mode"]
    assert [f.name for f in dataclasses.fields(ModelParams)] == names
    assert dataclasses.asdict(p) == dict(zip(names, (2.0, 0.3, 0.1, 0.05, "nonlinear", None,
                                                     "standard")))
    assert repr(p) == ("ModelParams(n=2.0, delta=0.3, epsilon=0.1, eta=0.05, "
                       "pressure_mode='nonlinear', entropy_anchor=None, mobility_mode='standard')")
    twin = ModelParams(n=2.0, delta=0.3, epsilon=0.1, eta=0.05)
    assert p == twin and hash(p) == hash(twin) == hash(tuple(getattr(p, f) for f in names))
    assert p != q and p == dataclasses.replace(q, delta=0.3, epsilon=0.1, eta=0.05)


# -- mobility -----------------------------------------------------------------

def test_mobility_epsilon_floor():
    p = ModelParams(n=2, epsilon=0.1, eta=0.3)
    assert abs(float(mobility(0.0, p)) - 0.1) < 1e-15


def test_mobility_eta_cap_limit():
    # m/(1 + eta m) -> 1/eta as s -> inf
    p = ModelParams(n=2, epsilon=0.0, eta=0.5)
    assert abs(float(mobility(1e8, p)) - 2.0) < 1e-6


def test_mobility_bare_power():
    p = ModelParams(n=2, epsilon=0.0, eta=0.0)
    assert abs(float(mobility(3.0, p)) - 9.0) < 1e-14
    assert abs(float(mobility(-3.0, p)) - 9.0) < 1e-14


def test_mobility_bounds_randomized():
    rng = np.random.default_rng(0)
    s = rng.standard_normal(500) * 10
    for eta in (0.1, 0.5, 1.0):
        p = ModelParams(n=1.7, epsilon=0.05, eta=eta)
        m = mobility(s, p)
        assert np.all(m >= p.epsilon - 1e-15)
        assert np.all(m <= 1.0 / eta + 1.0 + 1e-12)


def test_mobility_constant_hook():
    p = ModelParams(n=3, epsilon=0.25, mobility_mode="constant")
    np.testing.assert_allclose(mobility(np.array([0.0, 2.0, -7.0]), p), 0.25)


# negative values, subnormals and signed zeros
EDGE = np.array([-3.0, -0.7, -1e-160, -5e-324, -0.0, 0.0, 5e-324, 2.2e-308, 1e-160, 0.7, 3.0])


@pytest.mark.parametrize("n", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("eta", [0.0, 0.3])
def test_mobility_in_place_is_the_power_form(n, eta):
    # mobility writes into out, bit for bit np.abs(s) ** n (+ the cap) + eps;
    # at n = 2 it forms s * s, which numpy's ** 2.0 equals, and so does each
    # row of a stack with its member's (B, G) rows
    def want(s, q):
        m = np.abs(s) ** n
        return (m / (1.0 + q.eta * m) if q.capped else m) + q.epsilon

    p = ModelParams(n=n, epsilon=0.01, eta=eta)
    out = np.full(EDGE.shape, np.nan)
    assert mobility(EDGE, p, out=out) is out
    assert np.array_equal(out, want(EDGE, p))
    members = [ModelParams(n=n, epsilon=e, eta=eta) for e in (0.0, 1e-3, 0.5)]
    s = np.stack([EDGE, -EDGE, EDGE[::-1]])
    out = np.full(s.shape, np.nan)
    mobility(s, stacked_params(members, np.ones(EDGE.size)), out=out)
    for row, srow, q in zip(out, s, members):
        assert np.array_equal(row, want(srow, q)), q


def test_mobility_constant_mode_fills_each_member_row():
    # constant mode copies epsilon into out, a stack's (B, G) rows row by row
    members = [ModelParams(n=2.0, epsilon=e, mobility_mode="constant") for e in (0.05, 0.25)]
    out = np.full(EDGE.shape, np.nan)
    assert np.array_equal(mobility(EDGE, members[0], out=out), np.full(EDGE.shape, 0.05))
    out = np.full((2,) + EDGE.shape, np.nan)
    mobility(np.stack([EDGE, -EDGE]), stacked_params(members, np.ones(EDGE.size)), out=out)
    assert np.array_equal(out, np.repeat([[0.05], [0.25]], EDGE.size, axis=1))


# -- A_delta ------------------------------------------------------------------

def a_delta(u, v, p, domain):
    # the weak pairing <A_delta(u), v> in the Galerkin space
    return pressure_coeffs(u, p, domain) @ v


def test_a_delta_constant_arguments():
    p = ModelParams(n=2, delta=0.1)
    u = unit_mode(0, D8, 2.0)
    v = unit_mode(3, D8, 1.0)
    assert a_delta(u, v, p, D8) == 0.0
    # v constant: the mean-zero-pressure mechanism
    w = project(lambda x: 1 + 0.4 * np.cos(np.pi * x), D8)
    assert abs(a_delta(w, unit_mode(0, D8, 5.0), p, D8)) < 1e-14


def test_a_delta_against_adaptive_oracle():
    p = ModelParams(n=2, delta=0.1)
    u = unit_mode(1, D8, 0.5)

    def integrand(x):
        ux = 0.5 * modes([1], [x], D8, deriv=1)[0, 0]
        return (ux / np.sqrt(1 + ux**2) + p.delta * ux) * ux

    ref, _ = quad(integrand, -1, 1, epsabs=1e-13, epsrel=1e-13)
    got = a_delta(u, u, p, D8)
    assert abs(got - ref) < 1e-11


def test_a_delta_bounds_coercivity_monotonicity():
    rng = np.random.default_rng(5)
    p = ModelParams(n=2, delta=0.15)
    from capillary1d.basis import sobolev_norms

    for _ in range(20):
        u = rng.standard_normal(9) * 0.5
        v = rng.standard_normal(9) * 0.5
        val = a_delta(u, v, p, D8)
        bound = (1 + p.delta) * sobolev_norms(u, D8).h1 * sobolev_norms(v, D8).h1
        assert abs(val) <= bound + 1e-12
        # coercivity
        uu = a_delta(u, u, p, D8)
        assert uu >= p.delta * sobolev_norms(u, D8).ux_l2 ** 2 - 1e-12
        # monotonicity of the slope density => nonnegative pairing
        diff = u - v
        mono = a_delta(u, diff, p, D8) - a_delta(v, diff, p, D8)
        assert mono >= -1e-14


# -- Galerkin pressure coefficients -------------------------------------------

def test_pressure_coeffs_constant_state():
    p = ModelParams(n=2, delta=0.1)
    d = pressure_coeffs(unit_mode(0, D8, 3.0), p, D8)
    np.testing.assert_array_equal(d, 0.0)


def test_pressure_coeffs_linear_mode_decoupling():
    p = ModelParams(n=2, delta=0.1, pressure_mode="linear")
    c1 = 0.7
    d = pressure_coeffs(unit_mode(1, D8, c1), p, D8)
    lam1 = eigenvalue(1, D8)
    expect = np.zeros(9)
    expect[1] = (1 + p.delta) * lam1 * c1
    np.testing.assert_allclose(d, expect, atol=1e-12)


def test_pressure_coeffs_nonlinear_against_quadrature_oracle():
    p = ModelParams(n=2, delta=0.05)
    u = unit_mode(1, D8, 0.4)
    d = pressure_coeffs(u, p, D8)
    for k in range(9):
        def integrand(x, kk=k):
            ux = 0.4 * modes([1], [x], D8, deriv=1)[0, 0]
            vx = modes([kk], [x], D8, deriv=1)[0, 0]
            return (ux / np.sqrt(1 + ux**2) + p.delta * ux) * vx

        ref, _ = quad(integrand, -1, 1, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(d[k] - ref) < 1e-10


def test_pressure_coeffs_mean_zero_always():
    rng = np.random.default_rng(9)
    p = ModelParams(n=2, delta=0.2)
    for _ in range(10):
        u = rng.standard_normal(9)
        assert pressure_coeffs(u, p, D8)[0] == 0.0


# -- entropy ------------------------------------------------------------------

def test_entropy_n1_eps0_closed_form():
    ent = entropy_functions(ModelParams(n=1, entropy_anchor=1.0))
    s = np.array([0.2, 0.5, 0.9, 1.0])
    np.testing.assert_allclose(ent.G(s), 1 - s + s * np.log(s), atol=1e-14)
    assert ent.G(np.array([1.0]))[0] == 0.0
    # limit s -> 0 is the anchor value
    assert abs(ent.G(np.array([1e-12]))[0] - 1.0) < 1e-10


def test_entropy_growth_law_log_for_n2():
    # G(s) ~ c1 log(1/s) as s -> 0: ratios along a geometric sequence settle
    ent = entropy_functions(ModelParams(n=2, entropy_anchor=1.0))
    s = 10.0 ** -np.arange(3, 10)
    ratios = ent.G(s) / np.log(1.0 / s)
    diffs = np.abs(np.diff(ratios))
    assert np.all(np.diff(diffs) < 0)  # differences shrink monotonically
    assert diffs[-1] < 0.01 * abs(ratios[-1])


def test_entropy_growth_law_power_for_n3():
    # G(s)/s^{2-n} converges as s -> 0 (constant not asserted, only the trend)
    n = 3.0
    ent = entropy_functions(ModelParams(n=n, entropy_anchor=1.0))
    s = 10.0 ** -np.arange(2, 8)
    ratios = ent.G(s) / s ** (2 - n)
    rel = np.abs(np.diff(ratios)) / np.abs(ratios[:-1])
    assert np.all(np.diff(rel) < 0)  # geometric improvement
    assert rel[-1] < 1e-4


def test_entropy_anchor_zeroes():
    for n, eps in ((1.0, 0.0), (2.5, 0.0), (1.0, 0.3), (2.0, 0.3), (1.7, 0.2)):
        ent = entropy_functions(ModelParams(n=n, epsilon=eps, entropy_anchor=2.0))
        assert abs(ent.g(np.array([2.0]))[0]) < 1e-12
        assert abs(ent.G(np.array([2.0]))[0]) < 1e-12


def test_entropy_shape_and_monotonicity_in_eps():
    s = np.linspace(1e-4, 2.0, 50)
    prev = None
    for eps in (0.01, 0.1, 0.5):
        ent = entropy_functions(ModelParams(n=2, epsilon=eps, entropy_anchor=2.0))
        g, G = ent.g(s), ent.G(s)
        assert np.all(g <= 1e-15)
        assert np.all(G >= -1e-15)
        if prev is not None:
            assert np.all(G <= prev + 1e-12)  # larger eps => smaller G
        prev = G


def test_entropy_closed_forms_match_adaptive_oracle():
    # n = 2 with eps > 0, from the table, against quad directly
    n, eps, a = 2.0, 0.1, 1.5
    ent = entropy_functions(ModelParams(n=n, epsilon=eps, entropy_anchor=a))
    for s in (-0.3, 0.0, 0.4, 1.1):
        g_ref, _ = quad(lambda r: 1.0 / (abs(r) ** n + eps), s, a,
                        epsabs=1e-13, epsrel=1e-13)
        G_ref, _ = quad(lambda r: (r - s) / (abs(r) ** n + eps), s, a,
                        epsabs=1e-13, epsrel=1e-13)
        assert abs(ent.g(np.array([s]))[0] + g_ref) < 1e-11
        assert abs(ent.G(np.array([s]))[0] - G_ref) < 1e-11


@pytest.mark.parametrize("eps, a", [(0.1, 1.5), (1e-3, 1.5), (0.1, 3.0), (1e-2, 0.5),
                                    (1e-6, 1.5)])
def test_entropy_n2_table_near_the_anchor(eps, a):
    # the arctan/log primitives of n = 2 cancel near the anchor (at eps = 0.1
    # and a = 1.5 they put G(a - 1.5e-6) 2.5e-3 and G(a - 1.5e-7) 1.1e-1 off);
    # the table's g and G match quad there to 1e-12 relative, and it refuses
    # values beyond the anchor
    ent = entropy_functions(ModelParams(n=2.0, epsilon=eps, entropy_anchor=a))
    d = np.concatenate([np.geomspace(1e-9, 0.249, 25), [0.26, 0.3]])
    s = a - a * d
    G, g = ent.G(s), ent.g(s)
    for x, G_x, g_x in zip(s, G, g):
        # the offset y = r - x as the variable keeps the oracle's integrand
        # exact near x; a - x is exact too (Sterbenz)
        G_ref, _ = quad(lambda y: y / ((x + y) ** 2 + eps), 0.0, a - x, epsabs=0.0, epsrel=1e-13)
        g_ref, _ = quad(lambda y: 1.0 / ((x + y) ** 2 + eps), 0.0, a - x, epsabs=0.0,
                        epsrel=1e-13)
        assert abs(G_x - G_ref) <= 1e-12 * abs(G_ref), (x, G_x, G_ref)
        assert abs(g_x + g_ref) <= 1e-12 * abs(g_ref), (x, g_x, g_ref)
    beyond = a + a * np.geomspace(1e-9, 0.2, 6)
    for pair in (ent.G, ent.g):
        with pytest.raises(ValueError, match="outside"):
            pair(beyond)


def test_entropy_numeric_path_matches_nested_oracle():
    a = 1.5
    n, eps = 1.5, 0.05
    ent = entropy_functions(ModelParams(n=n, epsilon=eps, entropy_anchor=a))
    for s in (1e-4, 0.3, 1.0):
        # nested double integral, the definition itself
        def inner(r):
            v, _ = quad(lambda t: 1.0 / (abs(t) ** n + eps), r, a, epsabs=1e-12, epsrel=1e-12)
            return v

        G_ref, _ = quad(inner, s, a, epsabs=1e-10, epsrel=1e-10, limit=200)
        assert abs(ent.G(np.array([s]))[0] - G_ref) < 1e-8


@pytest.mark.parametrize("n, eps, a", [(1.5, 1e-1, 2.009), (1.5, 1e-3, 2.009),
                                       (2.5, 0.2, 1.5), (3.0, 0.01, 1.5), (1.0, 0.2, 1.5),
                                       (1.0, 1e-12, 1.5), (1.0, 1e-9, 1.5), (1.1, 1e-10, 1.5),
                                       (1.5, 1e-10, 1.5), (1.5, 1e-14, 1.5),
                                       (2.0, 0.1, 1.5), (2.0, 1e-3, 1.5), (2.0, 1e-6, 1.5),
                                       (2.0, 1e-2, 0.5)])
def test_entropy_numeric_table_matches_quad_oracle(n, eps, a):
    # the whole table range, log-spaced, plus points within 0.5% of the anchor,
    # negative values, which reflect through 0, and values below the first node
    ent = entropy_functions(ModelParams(n=n, epsilon=eps, entropy_anchor=a))
    s = np.concatenate([np.geomspace(a * 1e-8, a, 90), a * (1.0 - np.linspace(0.0, 5e-3, 20)),
                        -np.geomspace(a * 1e-8, 0.05 * a, 10),
                        [-0.3, -1e-6, -1e-10, 0.0, 1e-11, 1e-6, 0.5]])
    G, g = ent.G(s), ent.g(s)
    # m turns from eps to |r|^n at r ~ eps^(1/n): quad split geometrically from
    # there to the anchor agrees with 30-digit mpmath to 1e-15 on these cases,
    # while unsplit quad misses the eps^(1/n) scale at tiny eps
    scale = np.geomspace(1e-3 * eps ** (1.0 / n), a, 25)
    splits = np.concatenate([-scale, [0.0], scale])
    # int_0^a 1/m grows like eps^(1/n - 1) (log(1/eps) at n = 1): compare
    # relative (at n = 2, eps = 1e-6 g reaches 1570, where 1e-12 is 3 ulp)
    tiny = eps <= 1e-6
    for x, G_x, g_x in zip(s, G, g):
        kw = dict(epsabs=1e-13, epsrel=1e-13, limit=400,
                  points=splits[(splits > x) & (splits < a)])
        G_ref, _ = quad(lambda r: (r - x) / (abs(r) ** n + eps), x, a, **kw)
        g_ref, _ = quad(lambda r: 1.0 / (abs(r) ** n + eps), x, a, **kw)
        assert abs(G_x - G_ref) <= 1e-12 * (abs(G_ref) if tiny else 1.0)
        assert abs(g_x + g_ref) <= 1e-12 * (abs(g_ref) if tiny else 1.0)


def test_entropy_numeric_table_refuses_out_of_domain():
    a = 2.009
    ent = entropy_functions(ModelParams(n=1.5, epsilon=1e-3, entropy_anchor=a))
    for s in (a + 0.1, -a - 0.1, np.nan):
        with pytest.raises(ValueError, match="outside"):
            ent.G(np.array([0.5, s]))
        with pytest.raises(ValueError, match="outside"):
            ent.g(np.array([s]))
    # the first table node (1e-6 eps)^(1/n) must stay a normal float
    with pytest.raises(ValueError, match="epsilon must be 0 or at least 1e-300"):
        ModelParams(n=1.0, epsilon=1e-310)


def test_runtime_runs_without_scipy():
    # the package needs numpy only: with scipy unimportable, the CLI imports,
    # the numeric entropy pair evaluates and a config with entropy tracking runs
    code = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
import capillary1d.cli
from capillary1d.config import load_config, run_config
from capillary1d.model import ModelParams, entropy_functions
a = 2.0
ent = entropy_functions(ModelParams(n=1.5, epsilon=1e-3, entropy_anchor=a))
s = np.array([-1e-12, 0.0, 1e-15, a / 2])
assert np.all(np.isfinite(ent.G(s))) and np.all(np.isfinite(ent.g(s)))
cfg = load_config({str(EPS_SWEEP)!r})
cfg["integrator"]["T"] = 1e-3
out = run_config(cfg)
assert out.entropy_tracked and np.isfinite(out.records.entropy[-1])
print("ok")
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_src_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def _src_env() -> dict:
    src = str(Path(model.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate is most of the import time; the package never imports it
    code = "import sys, capillary1d.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=_src_env())
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("preset, want", [({}, ["1", "1", "1"]),
                                          ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])],
                         ids=["default", "explicit"])
def test_cli_import_pins_one_blas_thread_before_numpy_loads(preset, want):
    # importing the package sets each BLAS thread variable to 1 unless it is
    # set, and does so before numpy (which reads them at load) is imported
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = f"""
import builtins, os, sys
seen = []
real_import = builtins.__import__
def spy(name, *args, **kwargs):
    if name.split(".")[0] == "numpy" and "numpy" not in sys.modules and not seen:
        seen.append([os.environ.get(n) for n in {names!r}])
    return real_import(name, *args, **kwargs)
builtins.__import__ = spy
import capillary1d.cli
print(seen)
"""
    env = {k: v for k, v in _src_env().items() if k not in names}
    env.update(preset)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == repr([want])


def test_cli_import_leaves_process_pools_unloaded():
    # every sweep runs in this process, so no process-pool machinery is imported
    code = ("import sys, capillary1d.cli; "
            "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=_src_env())
    assert out.stdout.strip() == "False False"


def test_entropy_infinite_sentinel():
    ent = entropy_functions(ModelParams(n=2, epsilon=0.0, entropy_anchor=1.0))
    vals = ent.G(np.array([-0.5, 0.0]))
    assert np.all(np.isinf(vals))
    g = ent.g(np.array([-0.5, 0.0]))
    assert np.all(np.isneginf(g))


def test_entropy_convexity():
    # G'' = 1/m >= 0: finite-difference curvature is nonnegative
    ent = entropy_functions(ModelParams(n=2, epsilon=0.1, entropy_anchor=2.0))
    s = np.linspace(0.1, 1.9, 30)
    h = 1e-4
    curv = (ent.G(s + h) - 2 * ent.G(s) + ent.G(s - h)) / h**2
    assert np.all(curv > 0)


def test_entropy_requires_anchor():
    with pytest.raises(ValueError):
        entropy_functions(ModelParams(n=2))


@pytest.mark.parametrize("n", [1.0, 2.0, 8.0])
def test_entropy_pair_finite_at_the_anchor_bound(n):
    # at the largest accepted anchor the table's panels stay finite, and an
    # |r|^n that overflows (n > 2) only makes 1/m zero, without a warning
    a = model.MAX_ENTROPY_ANCHOR
    s = np.array([-1.0, 0.0, 1e-3, 1.0, 1e10, 0.5 * a, a])
    for eps in (1e-300, 1e-3, 1.0):
        ent = entropy_functions(ModelParams(n=n, epsilon=eps, entropy_anchor=a))
        assert np.all(np.isfinite(ent.g(s))) and np.all(np.isfinite(ent.G(s)))


def test_entropy_reflection_overflows_to_inf_without_a_warning():
    # n = 3, eps = 1e-300: B_0 = int_0^a 1/m is about 1e200, so the reflection
    # G(s) = G(|s|) + 2 |s| B_0 leaves the float range far below 0, while
    # g(s) = -(2 B_0 - int_|s|^a 1/m) stays finite
    a = 1e150
    ent = entropy_functions(ModelParams(n=3, epsilon=1e-300, entropy_anchor=a))
    s = np.array([-0.99 * a, -1e120])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = ent.G(s)
        g = ent.g(s)
    np.testing.assert_array_equal(G, np.inf)
    assert np.all(np.isfinite(g))


# -- initial data validation ---------------------------------------------------

def test_validate_positive_constant():
    u0 = project(lambda x: np.ones_like(x), D8)
    rep = validate_initial_data(u0, ModelParams(n=3), D8)
    assert rep.valid and not rep.errors
    assert np.isfinite(rep.entropy_integral)


def test_validate_rejects_negative():
    u0 = project(lambda x: -0.5 + 0.1 * np.cos(np.pi * x), D8)
    rep = validate_initial_data(u0, ModelParams(n=2), D8)
    assert not rep.valid


def test_validate_zero_touching_entropy_mode():
    # data sitting exactly at zero: admissible for n < 2 (finite contact
    # entropy), rejected in entropy mode for n >= 2, soft warning otherwise
    d = DomainSpec(half_length=1.0, modes=8)
    u0 = np.zeros(9)
    rep_low = validate_initial_data(u0, ModelParams(n=1.5), d, entropy_required=True)
    assert rep_low.valid
    assert np.isfinite(rep_low.entropy_integral)

    rep_high = validate_initial_data(u0, ModelParams(n=2.5), d, entropy_required=True)
    assert not rep_high.valid

    rep_soft = validate_initial_data(u0, ModelParams(n=2.5), d, entropy_required=False)
    assert rep_soft.valid and rep_soft.warnings


def test_validate_projected_compact_support_profile():
    # projecting the clipped parabola overshoots below zero (hard error), but
    # the n = 1.5 contact entropy of the clipped values is still finite and
    # reported
    d = DomainSpec(half_length=1.0, modes=16)
    u0 = project(lambda x: np.maximum(0.0, 0.5 - x**2), d)
    rep = validate_initial_data(u0, ModelParams(n=1.5), d)
    assert not rep.valid  # projection wiggles below -tol_neg
    assert rep.touches_zero
    assert np.isfinite(rep.entropy_integral)


def test_entropy_integral_of_projected_droplet():
    # quadrature of the closed-form G for n = 1.5: finite and matches a
    # per-node oracle evaluation
    d = DomainSpec(half_length=1.0, modes=16)
    u0 = project(lambda x: np.maximum(0.0, 0.5 - x**2), d)
    u = tables(d).E @ u0
    params = ModelParams(n=1.5, entropy_anchor=float(u.max()) + 1.0)
    ent = entropy_functions(params)
    val = entropy_integral(np.maximum(u, 0.0), ent, d)
    assert np.isfinite(val) and val > 0
