"""Gauss-Jacobi rules of the sphere quadrature (moments, the scipy oracle, total measure) and the node blocks."""

import math

import numpy as np
import pytest

from weylmass import quadrature
from weylmass.model import ModelSpace, sphere_volume
from weylmass.quadrature import (QuadratureSpec, fiber_rule, gauss_jacobi, gauss_legendre, node_blocks, sphere_rule,
                                 sphere_rule_product)

ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_gauss_jacobi_even_moments(alpha):
    """sum w x^(2k) = Gamma(k + 1/2) Gamma(alpha + 1) / Gamma(k + alpha + 3/2) for every 2k <= 2n - 1."""
    worst = 0.0
    for n in range(4, 41):
        x, w = gauss_jacobi(n, alpha)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        for k in range(n):
            exact = math.exp(math.lgamma(k + 0.5) + math.lgamma(alpha + 1.0) - math.lgamma(k + alpha + 1.5))
            worst = max(worst, abs(np.sum(w * x ** (2 * k)) - exact) / exact)
    assert worst <= 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_gauss_jacobi_matches_scipy_roots(alpha):
    special = pytest.importorskip("scipy.special")
    for n in range(4, 41):
        x, w = gauss_jacobi(n, alpha)
        xs, ws = special.roots_jacobi(n, alpha, alpha)
        assert np.max(np.abs(x - xs)) <= 4e-16
        assert np.max(np.abs(w - ws) / ws) <= 5e-12


def test_gauss_jacobi_rule_is_symmetric():
    for n in (4, 5, 17, 40):
        x, w = gauss_jacobi(n, 1.0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("n_polar", [4, 5, 9])
def test_sphere_rule_product_total_measure(m, n_polar):
    u, w = sphere_rule_product(m, n_polar)
    assert u.shape == (m, w.size)
    assert np.allclose(np.sum(u * u, axis=0), 1.0, rtol=0, atol=1e-15)
    assert abs(np.sum(w) - sphere_volume(m)) <= 1e-13 * sphere_volume(m)


@pytest.mark.parametrize("m,fibration", [(3, "trivial"), (3, "hopf"), (5, "trivial")])
@pytest.mark.parametrize("node_bytes", [1, 7 * 4096, 1 << 20])
def test_node_blocks_are_the_product_rule_in_blocks(m, fibration, node_bytes):
    """Concatenated, the blocks are the whole radial x sphere x fiber product rule, radius-major and
    bitwise, built here in one piece from a meshgrid; every block but the last holds
    BLOCK_BYTES // node_bytes nodes, and the weights sum to the model volume of the annulus."""
    model = ModelSpace(m=m, fibration=fibration)
    quad = QuadratureSpec(sphere=30, fiber=5, radial=3)
    r, wr = gauss_legendre(1.3, 1.8, quad.radial)
    u, wu = sphere_rule(m, quad.sphere)
    t, wt = fiber_rule(model.L, quad.fiber)
    R, U, T = (axis.ravel() for axis in np.meshgrid(np.arange(r.size), np.arange(wu.size), np.arange(t.size),
                                                     indexing="ij"))
    blocks = list(node_blocks(model, r, wr, quad, node_bytes))
    size = quadrature.BLOCK_BYTES // node_bytes
    assert [w.size for _, w, _ in blocks[:-1]] == [size] * (len(blocks) - 1) and 0 < blocks[-1][1].size <= size
    pts, weights, normals = (np.concatenate(part, axis=-1) for part in zip(*blocks))
    assert np.array_equal(pts, np.concatenate([r[R] * u[:, U], t[T][None, :]]))
    assert np.array_equal(weights, r[R] ** (m - 1) * wr[R] * wu[U] * wt[T])
    assert np.array_equal(normals, u[:, U])
    volume = sphere_volume(m) * model.L * (1.8**m - 1.3**m) / m
    assert np.sum(weights) == pytest.approx(volume, rel=1e-13)


def test_shell_blocks_have_unit_radial_weight():
    """A shell is one radius of weight 1.0: weights r^(m-1) w_sphere w_fiber, normals the directions."""
    model = ModelSpace(m=5)
    quad = QuadratureSpec(fiber=2)
    pts, weights, normals = (np.concatenate(part, axis=-1)
                             for part in zip(*node_blocks(model, [40.0], [1.0], quad, 12 * model.dim**3)))
    assert weights.size == 2500
    assert np.allclose(model.radius(pts), 40.0, rtol=1e-15, atol=0.0)
    assert np.array_equal(pts[:5], 40.0 * normals)
    assert np.sum(weights) == pytest.approx(40.0**4 * sphere_volume(5) * model.L, rel=1e-13)
