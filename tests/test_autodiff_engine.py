"""Derivative engine: dual-number exactness, FD accuracy, mode agreement."""

import numpy as np
import pytest

from weylmass import autodiff as am
from weylmass.engine import DerivativeEngine, Field, frame_jet1
from weylmass.families import (LEE_BUILDERS, METRIC_BUILDERS, SCALAR_BUILDERS, LeeFormField, conformal_sweep,
                               directional_profile, kaluza_perturbation, kaluza_two_term, mixed_lee,
                               radial_lee, radial_profile, slow_tail)
from weylmass.identities import trial_point, trial_structure
from weylmass.mass import flux_pass
from weylmass.quadrature import QuadratureSpec
from weylmass.weyl import WeylStructure, gauge_change, lee_jet


def cubic_field():
    # polynomial of degree 3 in all coordinates, vector valued
    def fn(c):
        u = c[0] * c[1] * c[2] - 2.0 * c[3] ** 3 + c[0] ** 2
        v = c[1] ** 3 + c[0] * c[3]
        return [u, v]

    return Field(fn, shape=(2,))


def cubic_jets(p):
    x, y, z, t = p
    val = np.array([x * y * z - 2 * t**3 + x**2, y**3 + x * t])
    d1 = np.array([
        [y * z + 2 * x, t],
        [x * z, 3 * y**2],
        [x * y, 0.0],
        [-6 * t**2, x],
    ])
    d2 = np.zeros((4, 4, 2))
    d2[0, 0] = [2.0, 0.0]
    d2[0, 1] = d2[1, 0] = [z, 0.0]
    d2[0, 2] = d2[2, 0] = [y, 0.0]
    d2[0, 3] = d2[3, 0] = [0.0, 1.0]
    d2[1, 2] = d2[2, 1] = [x, 0.0]
    d2[1, 1] = [0.0, 6 * y]
    d2[3, 3] = [-12 * t, 0.0]
    return val, d1, d2


def test_dual_jets_exact_on_polynomials():
    eng = DerivativeEngine(mode="dual")
    p = np.array([0.7, -1.2, 2.1, 0.4])
    val, d1, d2 = eng.jet2(cubic_field(), p)
    v0, g0, h0 = cubic_jets(p)
    assert np.max(np.abs(val - v0)) < 1e-13
    assert np.max(np.abs(d1 - g0)) < 1e-13
    assert np.max(np.abs(d2 - h0)) < 1e-13


def test_fd_second_derivatives_on_polynomials():
    eng = DerivativeEngine(mode="fd")
    p = np.array([0.7, -1.2, 2.1, 0.4])
    val, d1, d2 = eng.jet2(cubic_field(), p)
    v0, g0, h0 = cubic_jets(p)
    assert np.max(np.abs(d1 - g0)) < 1e-8
    assert np.max(np.abs(d2 - h0)) < 1e-8


def test_dual_transcendental_jets():
    eng = DerivativeEngine(mode="dual")

    def fn(c):
        return am.sin(c[0]) * am.exp(0.3 * c[1]) + am.log(2.0 + c[2]) / am.sqrt(1.0 + c[3] ** 2)

    p = np.array([0.5, -0.8, 1.1, 0.6])
    val, d1 = eng.jet1(Field(fn, shape=()), p)
    h = 1e-6
    for i in range(4):
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        fd = (Field(fn, shape=()).values(up) - Field(fn, shape=()).values(dn)) / (2 * h)
        assert abs(d1[i] - fd) < 1e-8


def test_batched_jets_match_pointwise():
    eng = DerivativeEngine(mode="dual")
    fld = cubic_field()
    pts = np.stack([[0.7, -1.2, 2.1, 0.4], [1.0, 0.3, -0.6, 2.2]], axis=-1)
    val, d1 = eng.jet1(fld, pts)
    for i in range(2):
        v1, g1 = eng.jet1(fld, pts[:, i])
        assert np.max(np.abs(val[:, i] - v1)) < 1e-14
        assert np.max(np.abs(d1[:, :, i] - g1)) < 1e-14


@pytest.mark.parametrize("builder,kwargs", [
    (kaluza_perturbation, {"mu": 0.7}),
    (kaluza_two_term, {"mu": 0.7, "kappa": 0.4}),
    (slow_tail, {"mu": 0.5}),
    (radial_lee, {"amplitude": 0.5}),
    (mixed_lee, {"amplitude": 0.4, "fiber_amplitude": 0.2}),
])
def test_fd_dual_agreement_on_builtin_fields(model, builder, kwargs):
    dual = DerivativeEngine(mode="dual")
    fd = DerivativeEngine(mode="fd")
    fld = _jet_field(builder(model, **kwargs))
    p = model.point([2.0, -0.7, 1.3], 0.5)
    v1, g1 = dual.jet1(fld, p)
    v2, g2 = fd.jet1(fld, p)
    assert np.max(np.abs(v1 - v2)) < 1e-12
    assert np.max(np.abs(g1 - g2)) < 1e-6


def _jet_field(obj):
    """The Field of a built-in family; a Lee form with no factor is its evaluator ``fn``."""
    if isinstance(obj, LeeFormField):
        return Field(obj.fn, shape=(obj.model.dim,), name=obj.name)
    return obj.as_field()


def _covering_points(space):
    """Points at radii 1.6 ... 6, three of them inside the compact_lee support (2, 4)."""
    rng = np.random.default_rng(29)
    radii = np.array([1.6, 2.4, 3.0, 3.6, 6.0])
    u = rng.normal(size=(space.m, radii.size))
    u /= np.linalg.norm(u, axis=0)
    return np.concatenate([radii * u, rng.uniform(0.0, space.L, size=(1, radii.size))])


def _assert_close_jets(got, want, rtol, name):
    for order, (a, b, tol) in enumerate(zip(got, want, rtol)):
        scale = max(1.0, float(np.max(np.abs(b))))
        assert a.shape == b.shape and np.all(np.isfinite(a)), (name, order)
        assert np.max(np.abs(a - b)) <= tol * scale, (name, order, float(np.max(np.abs(a - b))))


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_dual_jet2_agrees_with_fd_on_every_builder(request, chart):
    """One derivative mechanism: for every registered builder, and for the Lee form of a gauge change
    (read through ``lee_jet``, from one jet2 of its factor), the dual jets agree with the fd route."""
    space = request.getfixturevalue(chart)
    dual, fd = DerivativeEngine("dual"), DerivativeEngine("fd")
    p = _covering_points(space)
    builders = [(name, b) for table in (METRIC_BUILDERS, LEE_BUILDERS, SCALAR_BUILDERS) for name, b in table.items()
                if name != "hopf_model" or space.fibration == "hopf"]
    for name, b in builders:
        fld = _jet_field(b(space))
        _assert_close_jets(dual.jet2(fld, p), fd.jet2(fld, p), (1e-14, 1e-10, 1e-7), name)
    assert np.any(dual.jet2(_jet_field(LEE_BUILDERS["compact_lee"](space)), p)[2])
    ws = gauge_change(WeylStructure(space, kaluza_perturbation(space), mixed_lee(space)),
                      directional_profile(space, beta=0.3, axis=1))
    _assert_close_jets(lee_jet(dual, ws.lee, p, order=1), lee_jet(fd, ws.lee, p, order=1), (1e-12, 1e-8),
                       ws.lee.name)


def test_frame_jet_reduces_to_coordinate_jet_on_trivial_fibration(model, engine):
    fam = kaluza_perturbation(model, mu=1.0)
    p = model.point([2.0, 0.5, -1.0], 0.2)
    val, d1 = engine.jet1(fam.as_field(), p)
    _, dframe = frame_jet1(engine, model, fam.as_field(), p)
    assert np.max(np.abs(dframe - d1)) < 1e-14


def test_frame_jet_uses_connection_on_hopf(hopf_space, engine):
    # t-dependent scalar: E_a f = df/dx_a - A_a df/dt
    def fn(c):
        return am.sin(2.0 * np.pi * c[3] / hopf_space.L) + c[0]

    fld = Field(fn, shape=())
    p = hopf_space.point([1.5, 0.8, 0.9], 1.0)
    _, dframe = frame_jet1(engine, hopf_space, fld, p)
    x = p[:3]
    A = hopf_space.connection_potential(x)
    w = 2.0 * np.pi / hopf_space.L
    dt = w * np.cos(w * p[3])
    expected = np.array([1.0 - A[0] * dt, -A[1] * dt, -A[2] * dt, dt])
    assert np.max(np.abs(dframe - expected)) < 1e-12


def test_engine_step_schedule():
    eng = DerivativeEngine(mode="fd")
    assert eng.step(np.array([100.0, 0, 0, 0])) == pytest.approx(1e-2)
    assert eng.step(np.array([0.01, 0, 0, 0])) == pytest.approx(1e-5)
    # r is the base radius: the fiber coordinate t (the last row) does not enlarge the step
    assert eng.step(np.array([3.0, 4.0, 0.0, 6.0])) == pytest.approx(5e-4)
    # a batch of base radii 1 and 2, at t = 0 and t = 6: the largest base radius sets the step
    assert eng.step(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [0.0, 6.0]])) == pytest.approx(2e-4)


def test_engine_rejects_bad_mode():
    with pytest.raises(ValueError):
        DerivativeEngine(mode="symbolic")


# ---------------------------------------------------------------------------
# first-order jets: jet1 in dual mode seeds no Hessian
# ---------------------------------------------------------------------------


def _trial_points(space, batch):
    rng = np.random.default_rng(17)
    if batch is None:
        return trial_point(space, rng)
    return np.stack([trial_point(space, rng) for _ in range(batch)], axis=1)


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
@pytest.mark.parametrize("batch", [None, 5])
def test_dual_jet1_equals_jet2_on_builtin_fields(request, engine, chart, batch):
    """Every built-in metric family, Lee form and conformal factor, and a conformal sweep."""
    space = request.getfixturevalue(chart)
    builders = [b for table in (METRIC_BUILDERS, LEE_BUILDERS, SCALAR_BUILDERS) for name, b in table.items()
                if name != "hopf_model" or space.fibration == "hopf"]
    fields = [_jet_field(b(space)) for b in builders]
    fields.append(conformal_sweep(kaluza_perturbation(space, mu=0.7), radial_profile(space, beta=0.4)).as_field())
    p = _trial_points(space, batch)
    for fld in fields:
        first, second = engine.jet1(fld, p), engine.jet2(fld, p)
        assert len(first) == 2
        for a, b in zip(first, second[:2]):
            assert a.shape == b.shape and np.array_equal(a, b), fld.name


def _recording(fn, seen):
    def rec(coords):
        seen.extend(c.hess for c in coords if isinstance(c, am.Taylor2))
        return fn(coords)
    return rec


def test_dual_jet1_never_seeds_a_hessian():
    seen = []
    fld = Field(_recording(cubic_field().fn, seen), shape=(2,))
    p = np.array([0.7, -1.2, 2.1, 0.4])
    val, d1 = DerivativeEngine(mode="dual").jet1(fld, p)
    assert len(seen) == 4 and all(h is am.NO_HESSIAN for h in seen)
    v0, g0, _ = cubic_jets(p)
    assert np.max(np.abs(val - v0)) < 1e-13 and np.max(np.abs(d1 - g0)) < 1e-13
    seen.clear()
    DerivativeEngine(mode="dual").jet2(fld, p)
    assert len(seen) == 4 and all(h.shape == (4, 4) for h in seen)


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_flux_pass_takes_first_order_jets_only(request, engine, chart):
    """Without the decay probes (which take jet2) a flux pass seeds no Hessian into the metric."""
    space = request.getfixturevalue(chart)
    ws = trial_structure(space, 3, 0)
    seen = []
    ws.metric.fn = _recording(ws.metric.fn, seen)
    flux_pass(engine, ws, [radial_profile(space, beta=0.3)], radii=[40.0, 80.0],
              quad=QuadratureSpec(sphere=6, fiber=2), check_decay=False)
    assert len(seen) == 2 * space.dim and all(h is am.NO_HESSIAN for h in seen)


# ---------------------------------------------------------------------------
# where: piecewise fields as jets
# ---------------------------------------------------------------------------


def _piecewise(c):
    """sin(x0) x1 + t where x0 > 0.5, x1^3 + x0 x2 elsewhere; smooth away from x0 = 0.5."""
    return am.where(am.value(c[0]) > 0.5, am.sin(c[0]) * c[1] + c[3], c[1] ** 3 + c[0] * c[2])


def test_where_jets_against_fd():
    """Value, gradient and Hessian of a where-built field against the fd jets, on a batch that takes
    both branches; the value equals numpy's where on the float evaluation bitwise."""
    pts = np.array([[0.2, 0.9, 1.4, -0.3], [1.1, -0.7, 0.6, 0.8], [2.0, 1.3, -0.4, 0.2], [0.3, 0.5, 0.1, 0.7]])
    fld = Field(_piecewise, shape=())
    val, d1, d2 = DerivativeEngine("dual").jet2(fld, pts)
    assert np.array_equal(val, fld.values(pts))
    _assert_close_jets((val, d1, d2), DerivativeEngine("fd").jet2(fld, pts), (0.0, 1e-9, 1e-7), "piecewise")
    # the branches are really taken: d/dx3 is 1 on the first branch and 0 on the second
    assert np.array_equal(d1[3], (pts[0] > 0.5).astype(float))


def test_where_keeps_the_jet_order():
    p = np.array([[0.9, 0.1], [0.2, 0.3], [1.4, 1.0], [-0.3, 0.5]])
    first, second = am.seed_point(p, order=1), am.seed_point(p)
    mask = np.array([True, False])
    assert am.where(mask, first[0], 2.0).hess is am.NO_HESSIAN
    assert am.where(mask, 2.0, first[1] * first[2]).hess is am.NO_HESSIAN
    assert am.where(mask, second[0], first[1]).hess is am.NO_HESSIAN
    both = am.where(mask, second[0], second[1] * second[1])
    assert both.grad.shape == (4, 2) and both.hess.shape == (4, 4, 2)
    assert np.array_equal(both.hess[:, :, 0], np.zeros((4, 4)))
    assert np.array_equal(both.hess[:, :, 1], np.diag([0.0, 2.0, 0.0, 0.0]))
    plain = am.where(mask, p[0], 0.0)
    assert isinstance(plain, np.ndarray) and np.array_equal(plain, [0.9, 0.0])


def test_where_masks_components_and_batch():
    """A component x batch mask picks each entry's jet from its own operand; a batch mask
    broadcasts over the components, and a scalar jet broadcasts against an array-valued one."""
    p = np.array([[0.9, 1.2, 2.5], [0.2, -0.3, 0.7], [1.4, 1.0, -0.6], [0.3, 0.5, 0.1]])
    c = am.seed_point(p)
    vec = am.lincomb(np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]]), [c[0], c[1], c[2]])
    other = am.sin(vec)
    mask = np.array([[True, False, True], [False, False, True]])
    got = am.where(mask, vec, other)
    for i, b in np.ndindex(mask.shape):
        pick = vec if mask[i, b] else other
        assert got.val[i, b] == pick.val[i, b]
        assert np.array_equal(got.grad[:, i, b], pick.grad[:, i, b])
        assert np.array_equal(got.hess[:, :, i, b], pick.hess[:, :, i, b])
    rows = am.where(np.array([True, False, True]), vec, c[3])
    assert rows.val.shape == (2, 3) and rows.grad.shape == (4, 2, 3) and rows.hess.shape == (4, 4, 2, 3)
    for i in range(2):
        assert np.array_equal(rows.grad[:, i, 1], c[3].grad[:, 1])
        assert np.array_equal(rows.grad[:, i, 2], vec.grad[:, i, 2])
