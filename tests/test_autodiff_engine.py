"""Derivative engine: dual-number exactness, FD accuracy, mode agreement."""

import numpy as np
import pytest

from weylmass import autodiff as am
from weylmass.engine import DerivativeEngine, Field, frame_jet1
from weylmass.families import (LEE_BUILDERS, METRIC_BUILDERS, SCALAR_BUILDERS, conformal_sweep,
                               kaluza_perturbation, kaluza_two_term, mixed_lee, radial_lee,
                               radial_profile, slow_tail)
from weylmass.identities import trial_point, trial_structure
from weylmass.mass import flux_pass
from weylmass.quadrature import QuadratureSpec


def cubic_field():
    # polynomial of degree 3 in all coordinates, vector valued
    def fn(c):
        u = c[0] * c[1] * c[2] - 2.0 * c[3] ** 3 + c[0] ** 2
        v = c[1] ** 3 + c[0] * c[3]
        return [u, v]

    return Field(fn, shape=(2,), analytic=True)


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
    obj = builder(model, **kwargs)
    fld = obj.as_field()
    p = model.point([2.0, -0.7, 1.3], 0.5)
    v1, g1 = dual.jet1(fld, p)
    v2, g2 = fd.jet1(fld, p)
    assert np.max(np.abs(v1 - v2)) < 1e-12
    assert np.max(np.abs(g1 - g2)) < 1e-6


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
    fields = [b(space).as_field() for b in builders]
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
