import numpy as np
import pytest
from scipy.integrate import quad

from capillary1d import kernels
from capillary1d.basis import (
    MAX_GRID_SIZE,
    DomainSpec,
    SpectralField,
    eigenvalue,
    evaluate,
    mass,
    modes,
    project,
    quadrature,
    sobolev_norms,
    tables,
)
from capillary1d.model import ModelParams


def grid_values(c: np.ndarray, d: DomainSpec):
    """u, u_x and u_xx of coefficients c on the grid, from kernels.fields."""
    _, _, u, ux, uxx, _, _ = kernels.fields(c, tables(d), ModelParams(n=2.0))
    return u, ux, uxx


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec(half_length=-1.0, modes=8)
    with pytest.raises(ValueError):
        DomainSpec(half_length=1.0, modes=0)
    with pytest.raises(ValueError):
        DomainSpec(half_length=1.0, modes=8, oversample=2)
    with pytest.raises(ValueError, match="grid size"):
        DomainSpec(half_length=1.0, modes=255, oversample=9)
    with pytest.raises(ValueError, match="overflows"):
        DomainSpec(half_length=1.98e-294, modes=16)
    assert DomainSpec(half_length=1.0, modes=255, oversample=8).grid_size == MAX_GRID_SIZE
    d = DomainSpec(half_length=1.0, modes=8)
    assert d.grid_size == 8 * 9


def test_modes_constant_mode():
    d = DomainSpec(half_length=0.5, modes=4)
    assert eigenvalue(0, d) == 0.0
    xs = np.linspace(-0.5, 0.5, 7)
    # mu(Omega)^{-1/2} = 1 for the unit-measure interval
    np.testing.assert_allclose(modes([0], xs, d)[:, 0], 1.0)
    np.testing.assert_array_equal(modes([0], xs, d, deriv=1), 0.0)


def test_eigenvalue_formula():
    d = DomainSpec(half_length=1.0, modes=8)
    lam3 = eigenvalue(3, d)
    assert abs(lam3 - (3 * np.pi / 2) ** 2) < 1e-14
    assert abs(lam3 - 22.2066) < 1e-3
    np.testing.assert_array_equal(eigenvalue(np.arange(5), d),
                                  [eigenvalue(j, d) for j in range(5)])


def test_modes_are_laplacian_eigenfunctions():
    d = DomainSpec(half_length=1.3, modes=6)
    xs = np.linspace(-1.3, 1.3, 41)
    js = np.array([1, 4])
    h = 1e-4
    e = modes(js, xs, d)
    second = (modes(js, xs + h, d) - 2 * e + modes(js, xs - h, d)) / h**2
    np.testing.assert_allclose(-second, eigenvalue(js, d) * e, rtol=1e-5, atol=1e-5)


def test_neumann_compatibility_closed_form():
    # e_j'(+-l) vanishes identically: sin hits a multiple of pi at the ends
    d = DomainSpec(half_length=0.7, modes=16)
    ends = np.array([-0.7, 0.7])
    assert np.abs(modes(np.arange(17), ends, d, deriv=1)).max() <= 1e-12


def test_modes_index_error():
    d = DomainSpec(half_length=1.0, modes=4)
    with pytest.raises(IndexError):
        modes([-1], np.zeros(3), d)
    with pytest.raises(IndexError):
        eigenvalue(-1, d)


@pytest.mark.parametrize("N", [8, 16, 64])
def test_orthonormality_under_module_quadrature(N):
    d = DomainSpec(half_length=1.0, modes=N)
    t = tables(d)
    gram = t.ET @ (t.w[:, None] * t.E)
    assert np.abs(gram - np.eye(N + 1)).max() <= 1e-12


@pytest.mark.parametrize("N", [8, 16, 64])
def test_out_of_range_modes_orthonormal(N):
    # the j > N test modes of the truncation probe: orthonormal to each
    # other and to the retained basis under the module quadrature
    d = DomainSpec(half_length=1.0, modes=N)
    t = tables(d)
    E = np.hstack([t.E, modes(range(N + 1, N + 5), t.x, d)])
    gram = E.T @ (t.w[:, None] * E)
    assert np.abs(gram - np.eye(N + 5)).max() <= 1e-12


@pytest.mark.parametrize("l", [0.5, 0.7, 1.0, 1.3])
def test_modes_equal_single_mode_closed_form(l):
    # reference: each mode on its own, scalar eigenvalue, same operation order
    d = DomainSpec(half_length=l, modes=32)
    x = tables(d).x
    js = np.arange(40)
    E, Ex = modes(js, x, d), modes(js, x, d, deriv=1)
    for j in js[1:]:
        root = np.sqrt(eigenvalue(int(j), d))
        np.testing.assert_array_equal(E[:, j], 1.0 / np.sqrt(l) * np.cos(root * x + 0.5 * np.pi * j))
        np.testing.assert_array_equal(Ex[:, j], -root / np.sqrt(l) * np.sin(root * x + 0.5 * np.pi * j))
    np.testing.assert_array_equal(E[:, 0], 1.0 / np.sqrt(2.0 * l))
    np.testing.assert_array_equal(Ex[:, 0], 0.0)


def test_project_single_mode_and_constant():
    d = DomainSpec(half_length=1.0, modes=6)
    c = project(lambda x: modes([2], x, d)[:, 0], d).coeffs
    expect = np.zeros(7)
    expect[2] = 1.0
    np.testing.assert_allclose(c, expect, atol=1e-13)

    d5 = DomainSpec(half_length=0.5, modes=6)
    c5 = project(lambda x: np.full_like(x, 5.0), d5).coeffs
    np.testing.assert_allclose(c5, [5.0, 0, 0, 0, 0, 0, 0], atol=1e-13)


def test_project_x_squared_against_adaptive_oracle():
    # independent oracle: adaptive quadrature of (x^2, e_j) per mode
    d = DomainSpec(half_length=1.0, modes=8)
    got = project(lambda x: x**2, d).coeffs
    for j in range(9):
        ref, _ = quad(lambda x: x**2 * modes([j], [x], d)[0, 0], -1, 1,
                      epsabs=1e-14, epsrel=1e-14, limit=200)
        assert abs(got[j] - ref) < 1e-10


def test_project_rejects_bad_input():
    d = DomainSpec(half_length=1.0, modes=4)
    with pytest.raises(ValueError):
        project(np.ones(3), d)
    with pytest.raises(ValueError):
        project(lambda x: np.full_like(x, np.nan), d)


def test_synthesize_constant_mode():
    d = DomainSpec(half_length=1.0, modes=4)
    c = np.zeros(5)
    c[0] = 2.5
    u, ux, uxx = grid_values(c, d)
    e0 = 1 / np.sqrt(2.0)
    np.testing.assert_allclose(u, 2.5 * e0)
    np.testing.assert_allclose(ux, 0.0)
    np.testing.assert_allclose(uxx, 0.0)


def test_synthesize_eigenfunction_identity():
    d = DomainSpec(half_length=1.0, modes=4)
    c = np.zeros(5)
    c[1] = 1.0
    u, _, uxx = grid_values(c, d)
    assert np.abs(uxx + eigenvalue(1, d) * u).max() <= 1e-12


def test_evaluate_derivative_against_finite_differences():
    rng = np.random.default_rng(3)
    d = DomainSpec(half_length=1.0, modes=16)
    f = SpectralField(rng.standard_normal(17) * np.exp(-0.3 * np.arange(17)))
    xs = np.linspace(-0.9, 0.9, 31)
    got = evaluate(f, xs, d, deriv=1)
    errs = []
    for h in (1e-3, 5e-4):
        fd = (evaluate(f, xs + h, d) - evaluate(f, xs - h, d)) / (2 * h)
        errs.append(np.abs(fd - got).max())
    # central differences: O(h^2) convergence toward the spectral derivative
    assert errs[1] < errs[0]
    assert errs[0] < 1e-3
    order = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert 1.8 < order < 2.2


def test_quadrature_basics():
    d = DomainSpec(half_length=1.0, modes=8)
    t = tables(d)
    assert abs(quadrature(np.ones(d.grid_size), d) - 2.0) < 1e-14
    assert abs(quadrature(modes([1], t.x, d)[:, 0] ** 2, d) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        quadrature(np.ones(5), d)


def test_quadrature_against_adaptive_oracle():
    d = DomainSpec(half_length=1.0, modes=16)
    t = tables(d)
    vals = np.sqrt(1 + np.cos(np.pi * t.x / 2) ** 2)
    ref, _ = quad(lambda x: np.sqrt(1 + np.cos(np.pi * x / 2) ** 2), -1, 1,
                  epsabs=1e-13, epsrel=1e-13)
    assert abs(quadrature(vals, d) - ref) < 1e-12


def test_sobolev_norms_examples():
    d = DomainSpec(half_length=1.0, modes=4)
    c = np.zeros(5)
    c[1] = 1.0
    nrm = sobolev_norms(SpectralField(c), d)
    assert abs(nrm.l2 - 1.0) < 1e-14
    assert abs(nrm.ux_l2**2 - (np.pi / 2) ** 2) < 1e-12

    const = np.zeros(5)
    const[0] = 3.0
    nc = sobolev_norms(SpectralField(const), d)
    assert abs(nc.h2 - 3.0) < 1e-14


def test_parseval_consistency():
    # spectral H^k norms match quadrature of the grid derivatives
    rng = np.random.default_rng(7)
    for N in (16, 64):
        d = DomainSpec(half_length=1.0, modes=N)
        f = SpectralField(rng.standard_normal(N + 1))
        u, ux, uxx = grid_values(f.coeffs, d)
        nrm = sobolev_norms(f, d)
        for series, ref in ((u, nrm.l2), (ux, nrm.ux_l2), (uxx, nrm.uxx_l2)):
            got = np.sqrt(quadrature(series**2, d))
            assert abs(got - ref) <= 1e-10 * max(1.0, ref)


def test_project_synthesize_roundtrip():
    rng = np.random.default_rng(11)
    d = DomainSpec(half_length=1.0, modes=24)
    f = SpectralField(rng.standard_normal(25))
    back = project(grid_values(f.coeffs, d)[0], d)
    rel = np.abs(back.coeffs - f.coeffs).max() / np.abs(f.coeffs).max()
    assert rel <= 1e-12


def test_mass_is_constant_mode():
    d = DomainSpec(half_length=1.5, modes=4)
    f = project(lambda x: 2.0 + 0.1 * x, d)
    assert abs(mass(f, d) - 2.0 * 3.0) < 1e-12
    # a stack of rows gives each row's mass, bit for bit
    stack = np.stack([f.coeffs, 2.0 * f.coeffs, -f.coeffs])
    np.testing.assert_array_equal(mass(stack, d), [mass(SpectralField(c), d) for c in stack])
