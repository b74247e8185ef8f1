"""Pointwise multilinear algebra (the test oracle layer): musical maps, wedge, interior, Hodge, inner.

The package's one form-algebra kernel, ``insert_alt``, builds F ^ w for a 2-form F by the same pair
alternation that gives (d^D)^2 w; it is checked here against the oracle ``wedge``."""

import itertools
import math

import numpy as np
import pytest

from weylmass.errors import DegreeError, GaugeMismatchError
from weylmass.identities import alternate_pair, antisymmetrize

from oracles import (DimensionMismatchError, PointMetric, TensorValue, WeightedForm, flat, form_inner, hodge_star,
                     interior, levi_civita, sharp, volume_form, wedge)

RNG = np.random.default_rng(1234)


def random_metric(n, scale=0.25):
    A = RNG.normal(size=(n, n)) * scale
    return PointMetric.from_matrix(np.eye(n) + (A + A.T) / 2)


def random_form(n, p, gauge="g", weight=0.0):
    comps = RNG.normal(size=(n,) * p) if p else np.asarray(RNG.normal())
    if p >= 2:
        comps = antisymmetrize(comps)
    return WeightedForm(n, p, weight, comps, gauge)


def covector_form(n, index, gauge="g", weight=0.0):
    comps = np.zeros(n)
    comps[index] = 1.0
    return WeightedForm(n, 1, weight, comps, gauge)


def test_sharp_identity_metric():
    g = PointMetric.from_matrix(np.eye(4))
    alpha = TensorValue.covector([1.0, 0, 0, 0])
    assert np.allclose(sharp(alpha, g).components, [1, 0, 0, 0])


def test_sharp_diagonal_metric():
    g = PointMetric.from_matrix(np.diag([4.0, 1, 1, 1]))
    alpha = TensorValue.covector([1.0, 0, 0, 0])
    assert np.allclose(sharp(alpha, g).components, [0.25, 0, 0, 0])


def test_sharp_matches_linear_solve_oracle():
    # dr-aligned covector under g = (1 + 2/r) delta at r = 2
    r = 2.0
    g = PointMetric.from_matrix((1 + 2 / r) * np.eye(4))
    alpha = np.array([1.0, 0.5, -0.25, 0.0])
    got = sharp(TensorValue.covector(alpha), g).components
    expected = np.linalg.solve(g.g, alpha)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_flat_sharp_roundtrip():
    for _ in range(20):
        g = random_metric(4)
        alpha = TensorValue.covector(RNG.normal(size=4))
        back = flat(sharp(alpha, g), g)
        assert np.max(np.abs(back.components - alpha.components)) < 1e-12


def test_sharp_dimension_mismatch():
    g = PointMetric.from_matrix(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        sharp(TensorValue.covector([1.0, 0, 0, 0]), g)


def test_wedge_anticommutativity_basis():
    a = covector_form(4, 0)
    b = covector_form(4, 1)
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert ab.components[0, 1] == 1.0
    assert np.allclose(ab.components, -ba.components)


def test_wedge_square_of_odd_degree_vanishes():
    a = random_form(4, 1)
    assert np.max(np.abs(wedge(a, a).components)) < 1e-12
    c = random_form(4, 3)
    # degree 3+3 > 4 is rejected rather than silently zero
    with pytest.raises(DegreeError):
        wedge(c, c)


def shuffle_wedge_oracle(a: WeightedForm, b: WeightedForm) -> np.ndarray:
    """Brute-force shuffle sum over index permutations."""
    p, q, n = a.degree, b.degree, a.dim
    out = np.zeros((n,) * (p + q))
    for idx in itertools.product(range(n), repeat=p + q):
        total = 0.0
        for comb in itertools.combinations(range(p + q), p):
            rest = [i for i in range(p + q) if i not in comb]
            perm = list(comb) + rest
            sign = _perm_sign_of(perm)
            total += sign * a.components[tuple(idx[i] for i in comb)] * b.components[tuple(idx[i] for i in rest)]
        out[idx] = total
    return out


def _perm_sign_of(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_wedge_matches_shuffle_oracle():
    a = random_form(4, 1)
    b = random_form(4, 2)
    got = wedge(a, b).components
    assert np.max(np.abs(got - shuffle_wedge_oracle(a, b))) < 1e-12


def test_wedge_associativity_random_triples():
    for _ in range(10):
        a, b, c = random_form(4, 1), random_form(4, 1), random_form(4, 1)
        left = wedge(wedge(a, b), c).components
        right = wedge(a, wedge(b, c)).components
        assert np.max(np.abs(left - right)) < 1e-10


def test_wedge_gauge_mismatch_rejected():
    a = random_form(4, 1, gauge="g")
    b = random_form(4, 1, gauge="g2")
    with pytest.raises(GaugeMismatchError):
        wedge(a, b)


@pytest.mark.parametrize("n", [4, 6])
def test_pair_alternation_of_a_two_form_is_twice_the_wedge(n):
    """1/2 ``alternate_pair`` of F (x) w is the oracle F ^ w for p = 0..n-2, at a point and on a batch.

    The batch is batch-last, as in the package; each of its columns equals the point result bitwise.
    """
    rng = np.random.default_rng(np.random.SeedSequence([n, 2024]))
    batch = 3
    for p in range(n - 1):
        Fs = [antisymmetrize(rng.normal(size=(n, n))) for _ in range(batch)]
        ws = [antisymmetrize(rng.normal(size=(n,) * p)) for _ in range(batch)]
        F, w = np.stack(Fs, axis=-1), np.stack(ws, axis=-1)
        got = 0.5 * alternate_pair(F.reshape((n, n) + (1,) * p + (batch,)) * w, p)
        assert got.shape == (n,) * (p + 2) + (batch,)
        for b in range(batch):
            at_point = 0.5 * alternate_pair(np.multiply.outer(Fs[b], ws[b]), p)
            assert np.array_equal(got[..., b], at_point)
            want = wedge(WeightedForm(n, 2, 0.0, Fs[b]), WeightedForm(n, p, 0.0, ws[b])).components
            assert np.max(np.abs(at_point - want)) < 1e-13


def test_wedge_weights_add():
    a = random_form(4, 1, weight=1.5)
    b = random_form(4, 2, weight=-2.0)
    assert wedge(a, b).weight == -0.5


def test_interior_basis_cases():
    dx12 = wedge(covector_form(4, 0), covector_form(4, 1))
    e1 = TensorValue.vector([1.0, 0, 0, 0])
    e3 = TensorValue.vector([0, 0, 1.0, 0])
    assert np.allclose(interior(e1, dx12).components, [0, 1, 0, 0])
    assert np.max(np.abs(interior(e3, dx12).components)) == 0.0


def test_interior_nilpotent_and_degree_error():
    w = random_form(4, 2)
    X = TensorValue.vector(RNG.normal(size=4))
    z = interior(X, interior(X, w))
    assert abs(float(z.components)) < 1e-12
    with pytest.raises(DegreeError):
        interior(X, random_form(4, 0))


def test_interior_antiderivation_leibniz():
    for _ in range(10):
        a = random_form(4, 1)
        b = random_form(4, 2)
        X = TensorValue.vector(RNG.normal(size=4))
        lhs = interior(X, wedge(a, b)).components
        rhs = wedge(interior(X, a), b).components - wedge(a, interior(X, b)).components
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_hodge_flat_basis():
    g = PointMetric.from_matrix(np.eye(4))
    dx1 = covector_form(4, 0)
    star = hodge_star(dx1, g)
    dx234 = wedge(wedge(covector_form(4, 1), covector_form(4, 2)), covector_form(4, 3))
    assert np.allclose(star.components, dx234.components)


def test_hodge_of_one_is_volume():
    g = PointMetric.from_matrix(np.diag([4.0, 1.0, 9.0, 1.0]))
    one = WeightedForm(4, 0, 0.0, 1.0)
    star = hodge_star(one, g)
    assert abs(star.components[0, 1, 2, 3] - math.sqrt(g.det)) < 1e-12
    assert np.allclose(star.components, volume_form(g).components)


def test_hodge_double_application_sign():
    for p in range(5):
        g = random_metric(4)
        w = random_form(4, p)
        back = hodge_star(hodge_star(w, g), g)
        sign = (-1) ** (p * (4 - p))
        assert np.max(np.abs(back.components - sign * w.components)) < 1e-10


def test_inner_product_pairing_with_hodge():
    # <a, b> vol = a ^ *b for random diagonal and full metrics
    for metric in (PointMetric.from_matrix(np.diag([2.0, 1.0, 0.5, 3.0])), random_metric(4)):
        for p in (1, 2, 3):
            a, b = random_form(4, p), random_form(4, p)
            lhs = wedge(a, hodge_star(b, metric)).components
            rhs = form_inner(a, b, metric) * volume_form(metric).components
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_inner_product_trivial_cases():
    g = PointMetric.from_matrix(np.eye(4))
    dx1, dx2 = covector_form(4, 0), covector_form(4, 1)
    assert form_inner(dx1, dx1, g) == 1.0
    assert form_inner(dx1, dx2, g) == 0.0


def test_inner_product_gram_oracle():
    g = random_metric(4)
    a, b = random_form(4, 2), random_form(4, 2)
    # explicit Gram expansion over increasing index tuples
    total = 0.0
    for i, j in itertools.combinations(range(4), 2):
        for k, l in itertools.combinations(range(4), 2):
            gram = g.g_inv[i, k] * g.g_inv[j, l] - g.g_inv[i, l] * g.g_inv[j, k]
            total += a.components[i, j] * gram * b.components[k, l]
    assert abs(form_inner(a, b, g) - total) < 1e-10


def test_inner_product_positive_definite():
    g = random_metric(4)
    for p in (1, 2, 3):
        w = random_form(4, p)
        assert form_inner(w, w, g) > 0.0


def test_regauging_rule():
    w = random_form(4, 2, weight=3.0)
    f = 1.7
    rescaled = w.regauge(f, "g2")
    assert rescaled.gauge == "g2"
    assert np.allclose(rescaled.components, w.components * f**1.5)
    # round trip
    back = rescaled.regauge(1.0 / f, "g")
    assert np.max(np.abs(back.components - w.components)) < 1e-12


def test_tensor_value_shape_validation():
    with pytest.raises(DimensionMismatchError):
        TensorValue(4, 1, 1, np.zeros((4, 3)))


def test_point_metric_validation():
    with pytest.raises(ValueError):
        PointMetric.from_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        PointMetric.from_matrix(np.diag([1.0, -1.0, 1.0]))


def test_form_antisymmetry_defect():
    w = random_form(4, 2)
    assert w.antisymmetry_defect() < 1e-12
    bad = WeightedForm(4, 2, 0.0, np.eye(4))
    assert bad.antisymmetry_defect() > 1.0


def test_levi_civita_total_antisymmetry():
    eps = levi_civita(4)
    assert eps[0, 1, 2, 3] == 1.0
    assert eps[1, 0, 2, 3] == -1.0
    assert eps[0, 0, 2, 3] == 0.0
