"""Gauss-Jacobi rules of the sphere quadrature: moments, the scipy oracle, total measure."""

import math

import numpy as np
import pytest

from weylmass.model import sphere_volume
from weylmass.quadrature import gauss_jacobi, sphere_rule_product

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
