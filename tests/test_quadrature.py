"""Sphere rules (the symmetric rule's and its embedded rule's moments, which rule a request gets, the
Gauss-Jacobi rules' moments, the scipy oracle, total measure) and the node blocks."""

import itertools
import math

import numpy as np
import pytest

from weylmass import quadrature
from weylmass.model import ModelSpace, sphere_volume
from weylmass.quadrature import (PRODUCT_RULE, SYMMETRIC_RULE, QuadratureSpec, embedded_weights, fiber_rule,
                                 gauss_jacobi, gauss_legendre, node_blocks, sphere_rule, sphere_rule_name,
                                 sphere_rule_product, sphere_rule_symmetric)

ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0)


def monomial_integral(alpha) -> float:
    """The integral of x^alpha over S^(m-1): 0 where an exponent is odd, else 2 prod Gamma(b_i) / Gamma(sum b_i)
    with b_i = (alpha_i + 1) / 2."""
    b = (np.asarray(alpha) + 1) / 2.0
    return 0.0 if np.any(np.asarray(alpha) % 2) else 2.0 * math.prod(map(math.gamma, b)) / math.gamma(np.sum(b))


@pytest.mark.parametrize("m", range(3, 8))
def test_symmetric_rule_and_its_embedded_rule_are_exact_through_degrees_7_and_5(m):
    """Every monomial of degree <= 7 (odd ones to 0) on the degree-7 rule, and of degree <= 5 on its embedded
    rule, to 1e-14 of vol(S^(m-1)); x_1^8, and x_1^6 on the embedded rule, miss by more than 1e-5 of it.
    The rule has 2m + 2m(m-1) + 2^m positive weights summing to vol(S^(m-1)), the embedded rule the
    2m + 2^m of the axis and corner points."""
    u, w, w5 = sphere_rule_symmetric(m)
    vol = sphere_volume(m)
    assert u.shape == (m, 2 * m + 2 * m * (m - 1) + 2**m)
    assert np.allclose(np.sum(u * u, axis=0), 1.0, rtol=0.0, atol=1e-15)
    assert np.all(w > 0) and np.sum(w) == pytest.approx(vol, rel=1e-15)
    assert np.count_nonzero(w5) == 2 * m + 2**m and np.all(w5 >= 0) and np.sum(w5) == pytest.approx(vol, rel=1e-15)
    for degree in range(8):
        for slots in itertools.combinations_with_replacement(range(m), degree):
            alpha = np.bincount(slots, minlength=m)
            values, exact = np.prod(u ** alpha[:, None], axis=0), monomial_integral(alpha)
            assert abs(np.sum(w * values) - exact) <= 1e-14 * vol
            if degree <= 5:
                assert abs(np.sum(w5 * values) - exact) <= 1e-14 * vol
    e1 = np.eye(m, dtype=int)[0]
    assert abs(np.sum(w * u[0] ** 8) - monomial_integral(8 * e1)) > 1e-5 * vol
    assert abs(np.sum(w5 * u[0] ** 6) - monomial_integral(6 * e1)) > 1e-5 * vol


def test_symmetric_rule_at_m3_is_the_octahedral_rule_bit_for_bit():
    """At m = 3 the symmetric rule is, bit for bit, the 26-node octahedral rule built directly: 6 axis points,
    12 edge midpoints and 8 cube corners, weighted 1/21, 4/105 and 27/840 of 4 pi, rotated by the fixed
    rotation that keeps nodes off the Hopf seam; every request up to 26 directions gets it."""
    eye, signs = np.eye(3), (-1.0, 1.0)
    inv, inv3 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)
    pts = ([s * eye[i] for i in range(3) for s in signs]
           + [(si * eye[i] + sj * eye[j]) * inv for i, j in ((0, 1), (0, 2), (1, 2)) for si in signs for sj in signs]
           + [np.array(corner) * inv3 for corner in itertools.product(signs, repeat=3)])
    wts = np.repeat((1.0 / 21.0, 4.0 / 105.0, 27.0 / 840.0), (6, 12, 8)) * (4.0 * math.pi)
    for nodes in (1, 10, 26):
        u, w = sphere_rule(3, nodes)
        assert np.array_equal(u, (np.array(pts) @ quadrature._rotation(3).T).T) and np.array_equal(w, wts)
    assert sphere_volume(3) == 4.0 * math.pi


def test_sphere_rule_is_symmetric_up_to_26_directions_while_its_weights_are_positive():
    """3 <= m <= 7: up to 26 directions the symmetric rule (unrotated at m >= 4, so its second node is e_1)
    with embedded weights, above 26 the product rule of 2 n_polar^(m-1) directions with none.  At m = 8 the
    symmetric rule's axis weight is 0, so every request gets the product rule."""
    for m in range(3, 8):
        assert sphere_rule_name(m, 26) == SYMMETRIC_RULE and sphere_rule_name(m, 27) == PRODUCT_RULE
        u, w = sphere_rule(m, 26)
        assert np.array_equal(w, sphere_rule_symmetric(m)[1]) and embedded_weights(m, 26) is not None
        assert m == 3 or np.array_equal(u[:, 1], np.eye(m)[0])
        assert embedded_weights(m, 27) is None
    assert sphere_rule(4, 36)[1].size == 2 * 6**3
    assert sphere_rule_name(8, 26) == PRODUCT_RULE and embedded_weights(8, 26) is None
    assert sphere_rule(8, 4)[1].size == 2 * 4**7


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
    assert weights.size == 164
    assert np.allclose(model.radius(pts), 40.0, rtol=1e-15, atol=0.0)
    assert np.array_equal(pts[:5], 40.0 * normals)
    assert np.sum(weights) == pytest.approx(40.0**4 * sphere_volume(5) * model.L, rel=1e-13)
