"""Array-valued Taylor jets: layout, mixed-rank arithmetic and the trial-field evaluators.

The nested-list evaluators below are the trial fields as they were written
before they became array-valued: one scalar jet per component.  They are
the oracle; the array-valued evaluators must reproduce them exactly.
"""

import math
import re

import numpy as np
import pytest

from weylmass import autodiff as am
from weylmass.engine import DerivativeEngine, Field, frame_jet1
from weylmass.families import radial_profile, random_local_lee, random_local_metric
from weylmass.identities import (antisymmetrize, extended_lee, random_form_field, random_vector_field,
                                 trial_point, trial_structure)
from weylmass.model import ModelSpace
from weylmass.probes import metric_probes
from weylmass.weyl import WeylStructure, gauge_change, lee_jet

from oracles import probe_jet, regauge


# ---------------------------------------------------------------------------
# nested-list oracles (same random draws, one scalar jet per component)
# ---------------------------------------------------------------------------


def nested_metric(model, seed, amplitude=0.12, fiber_dependence=False, wave_scale=0.7):
    n, m = model.dim, model.m
    rng = np.random.default_rng(np.random.SeedSequence([seed, 901]))
    nterms = 3
    syms = rng.normal(size=(nterms, n, n))
    syms = (syms + np.swapaxes(syms, 1, 2)) / 2.0
    waves = rng.uniform(-1.0, 1.0, size=(nterms, m)) * wave_scale
    phases = rng.uniform(0, 2 * math.pi, size=nterms)
    omega_t = 2.0 * math.pi * (1 if fiber_dependence else 0) / model.L

    def fn(coords):
        rows = [[0.0] * n for _ in range(n)]
        for q in range(nterms):
            arg = 0.0
            for a in range(m):
                arg = arg + waves[q, a] * coords[a]
            if omega_t and q == 0:
                arg = arg + omega_t * coords[m]
            s = am.sin(arg + phases[q])
            for i in range(n):
                for j in range(n):
                    rows[i][j] = rows[i][j] + amplitude * syms[q, i, j] * s
        for i in range(n):
            rows[i][i] = rows[i][i] + 1.0
        return rows

    return fn


def nested_lee(model, seed, amplitude=0.3, fiber_dependence=False, wave_scale=0.6):
    n, m = model.dim, model.m
    rng = np.random.default_rng(np.random.SeedSequence([seed, 902]))
    coef = rng.uniform(-1.0, 1.0, size=(n, m)) * wave_scale
    phases = rng.uniform(0, 2 * math.pi, size=n)
    amps = rng.normal(size=n) * amplitude
    omega_t = 2.0 * math.pi / model.L if fiber_dependence else 0.0

    def fn(coords):
        comps = []
        for i in range(n):
            arg = phases[i]
            for a in range(m):
                arg = arg + coef[i, a] * coords[a]
            if omega_t and i == 0:
                arg = arg + omega_t * coords[m]
            comps.append(amps[i] * am.sin(arg))
        return comps

    return fn


def nested_form(model, rng, degree, fiber_dependence=False, wave_scale=0.8):
    n, m = model.dim, model.m
    nterms = 2
    coefs = [rng.normal(size=(n,) * degree) if degree else rng.normal() for _ in range(nterms)]
    coefs = [antisymmetrize(c) if degree >= 2 else c for c in coefs]
    waves = rng.uniform(-1.0, 1.0, size=(nterms, m)) * wave_scale
    phases = rng.uniform(0, 2 * math.pi, size=nterms)
    omega_t = 2.0 * math.pi / model.L if fiber_dependence else 0.0

    def scaled(coef, s, depth):
        if depth == 0:
            return coef * s
        return [scaled(coef[i], s, depth - 1) for i in range(n)]

    def add(a, b):
        return [add(x, y) for x, y in zip(a, b)] if isinstance(a, list) else a + b

    def fn(coords):
        total = None
        for q in range(nterms):
            arg = phases[q]
            for a in range(m):
                arg = arg + waves[q, a] * coords[a]
            if omega_t and q == 0:
                arg = arg + omega_t * coords[m]
            term = scaled(coefs[q], am.sin(arg), degree)
            total = term if total is None else add(total, term)
        return total

    return fn


def nested_vector(model, rng):
    n, m = model.dim, model.m
    coefs = rng.normal(size=n)
    waves = rng.uniform(-1.0, 1.0, size=(n, m)) * 0.6
    phases = rng.uniform(0, 2 * math.pi, size=n)

    def fn(coords):
        out = []
        for i in range(n):
            arg = phases[i]
            for a in range(m):
                arg = arg + waves[i, a] * coords[a]
            out.append(coefs[i] * am.sin(arg))
        return out

    return fn


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

# the trivial chart at m = 5 takes forms of degree 0..6 and 6 x 6 metrics
CHARTS = [("model", False), ("model", True), ("hopf_space", False), ("hopf_space", True), ("model_m5", True)]


@pytest.fixture(scope="module")
def model_m5():
    return ModelSpace(m=5, R=1.0, L=2.0 * np.pi, fibration="trivial")


def _points(space, seed, batch):
    rng = np.random.default_rng(seed)
    if batch is None:
        return trial_point(space, rng)
    return np.stack([trial_point(space, rng) for _ in range(batch)], axis=1)


def _jet(fn, p, comp):
    return am.collect_jet(fn(am.seed_point(p)), comp, p.shape[0], p.shape[1:])


def assert_same_jet(new_fn, old_fn, p):
    # plain evaluation (Field.values and the fd engine) takes the same arithmetic
    plain_new = np.asarray(new_fn(list(p)), dtype=float)
    comp = plain_new.shape[:plain_new.ndim - p.ndim + 1]
    for new, old in zip(_jet(new_fn, p, comp), _jet(old_fn, p, comp)):
        assert new.shape == old.shape
        assert np.array_equal(new, old)
    plain_old = _jet(old_fn, p, comp)[0]
    assert np.array_equal(plain_new, plain_old)


# ---------------------------------------------------------------------------
# layout and arithmetic
# ---------------------------------------------------------------------------


def _rank_jets(order=2):
    """A rank-0, rank-1 and rank-2 jet at d = n = 4 over a batch of 4 points, by plain Taylor arithmetic."""
    rng = np.random.default_rng(7)
    p = rng.uniform(0.5, 1.5, size=(4, 4))
    x = am.seed_point(p, order)

    def combination(C):  # sum_a C[..., a] x_a, C laid out over the batch axis
        return sum((C[..., a, None] * x[a] for a in range(4)), 0.0)

    C = rng.normal(size=5)
    s = am.sin(C[0] + combination(C[1:]))
    C = rng.normal(size=(4, 5))
    v = am.sin(C[:, 0, None] + combination(C[:, 1:])) + 2.0
    t = combination(rng.normal(size=(4, 4, 4))) * rng.normal(size=(4, 4))[..., None]
    return s, v, t


def test_collect_jet_of_array_jet_equals_nested_components():
    _, v, t = _rank_jets()
    nested_v = [v[i] for i in range(4)]
    nested_t = [[t[i, j] for j in range(4)] for i in range(4)]
    for arr, nested in ((v, nested_v), (t, nested_t)):
        direct = am.collect_jet(arr, arr.val.shape[:-1], 4, (4,))
        gathered = am.collect_jet(nested, arr.val.shape[:-1], 4, (4,))
        for a, b in zip(direct, gathered):
            assert a.shape == b.shape
            assert np.array_equal(a, b)


@pytest.mark.parametrize("batch", [(), (1,), (512,)], ids=["point", "batch1", "batch512"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("comp", [(), (4,), (4, 4)], ids=["rank0", "rank1", "rank2"])
def test_collect_jet_of_sine_series_shares_its_memory(comp, order, batch):
    """``sine_series`` accumulates component-major and hands out transposed views, so ``collect_jet`` returns
    the jet's own gradient and Hessian, not copies, with the values of generic Taylor arithmetic on
    ``sin`` over scalar jets, summed left to right."""
    rng = np.random.default_rng(17)
    x = am.seed_point(rng.uniform(0.5, 1.5, size=(4,) + batch), order)
    K, A = rng.normal(size=(3,) + comp + (1,)), rng.normal(size=(3, 5, 1))
    jet = am.sine_series(K, A, [1.0] + x, "test")
    val, grad, hess = am.collect_jet(jet, comp, 4, batch)
    assert grad.shape == (4,) + comp + batch and np.shares_memory(grad, jet.grad)
    if order == 1:
        assert hess is am.NO_HESSIAN and jet.hess is am.NO_HESSIAN
    else:
        assert hess.shape == (4, 4) + comp + batch and np.shares_memory(hess, jet.hess)

    sines = []
    for q in range(3):
        arg = A[q, 0, 0] * 1.0
        for a in range(4):
            arg = arg + A[q, a + 1, 0] * x[a]
        sines.append(am.sin(arg))

    def nested(index):  # one scalar jet per component, summed left to right
        if len(index) < len(comp):
            return [nested(index + (i,)) for i in range(comp[len(index)])]
        acc = 0.0
        for q, term in enumerate(sines):
            acc = acc + K[(q,) + index + (0,)] * term
        return acc

    for got, want in zip((val, grad, hess), am.collect_jet(nested(()), comp, 4, batch)):
        assert got.shape == want.shape and np.array_equal(got, want)


OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_mixed_rank_arithmetic_is_componentwise(op):
    """d = n = batch = 4: numpy broadcasting alone would pair the derivative axis with a component axis."""
    f = OPS[op]
    s, v, t = _rank_jets()
    cases = [(s, v, lambda i: (s, v[i])), (v, s, lambda i: (v[i], s)),
             (v, t, lambda ij: (v[ij[1]], t[ij])), (t, v, lambda ij: (t[ij], v[ij[1]])),
             (s, t, lambda ij: (s, t[ij])), (t, s, lambda ij: (t[ij], s))]
    for a, b, parts in cases:
        out = f(a, b)
        comp = out.val.shape[:-1]
        assert out.grad.shape == (4,) + out.val.shape and out.hess.shape == (4, 4) + out.val.shape
        for idx in np.ndindex(comp):
            ref = f(*parts(idx if len(idx) > 1 else idx[0]))
            assert np.array_equal(out[idx].val, ref.val)
            assert np.array_equal(out[idx].grad, ref.grad)
            assert np.array_equal(out[idx].hess, ref.hess)


def test_constant_operands_broadcast_over_points():
    s, v, _ = _rank_jets()
    C = np.arange(1.0, 5.0)
    Cb = C[:, None]  # C at every point of the batch
    for out, ref in ((v * Cb, lambda i: v[i] * C[i]),
                     (Cb * s, lambda i: C[i] * s),
                     (v + Cb, lambda i: v[i] + C[i]),
                     (Cb - v, lambda i: C[i] - v[i])):
        for i in range(4):
            for x, y in zip((out[i].val, out[i].grad, out[i].hess), (ref(i).val, ref(i).grad, ref(i).hess)):
                assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# first-order jets
# ---------------------------------------------------------------------------

_C4 = np.arange(1.0, 5.0)[:, None]

# every Taylor2 operator and math function, on scalar, vector and matrix jets (v > 1 everywhere)
FIRST_ORDER_CASES = {
    "add": lambda s, v, t: v + v,
    "add-mixed-rank": lambda s, v, t: t + v,
    "radd": lambda s, v, t: 2.0 + s,
    "add-constant": lambda s, v, t: v + _C4,
    "sub": lambda s, v, t: t - v,
    "rsub": lambda s, v, t: 1.0 - v,
    "neg": lambda s, v, t: -t,
    "mul": lambda s, v, t: s * t,
    "rmul": lambda s, v, t: 3.0 * v,
    "mul-constant": lambda s, v, t: _C4 * s,
    "div": lambda s, v, t: t / v,
    "rtruediv": lambda s, v, t: 1.0 / v,
    "div-number": lambda s, v, t: v / 2.0,
    "pow": lambda s, v, t: v ** 1.5,
    "sqrt": lambda s, v, t: am.sqrt(v),
    "exp": lambda s, v, t: am.exp(s),
    "log": lambda s, v, t: am.log(v),
    "sin": lambda s, v, t: am.sin(t),
    "cos": lambda s, v, t: am.cos(t),
    "getitem": lambda s, v, t: t[1],
    "getitem-pair": lambda s, v, t: t[1, 2],
    "getitem-slice": lambda s, v, t: t[:, 0],
}


@pytest.mark.parametrize("case", sorted(FIRST_ORDER_CASES))
def test_first_order_jets_carry_no_hessian(case):
    """A first-order jet keeps NO_HESSIAN through every operation, with the second-order path's gradient."""
    f = FIRST_ORDER_CASES[case]
    first, second = f(*_rank_jets(order=1)), f(*_rank_jets(order=2))
    assert all(j.hess is am.NO_HESSIAN for j in _rank_jets(order=1))
    assert first.hess is am.NO_HESSIAN
    assert second.hess.shape == (4, 4) + second.val.shape
    assert np.array_equal(first.val, second.val) and np.array_equal(first.grad, second.grad)


@pytest.mark.parametrize("op", sorted(OPS))
def test_mixed_orders_give_first_order(op):
    s1, v1, _ = _rank_jets(order=1)
    s2, v2, _ = _rank_jets(order=2)
    for a, b, ref in ((s1, v2, OPS[op](s2, v2)), (v2, s1, OPS[op](v2, s2))):
        out = OPS[op](a, b)
        assert out.hess is am.NO_HESSIAN
        assert np.array_equal(out.val, ref.val) and np.array_equal(out.grad, ref.grad)
    x1, x2 = am.seed_point(np.ones((4, 3)), order=1), am.seed_point(np.ones((4, 3)))
    K, A = np.random.default_rng(3).normal(size=(2, 2, 3, 1)), np.random.default_rng(4).normal(size=(2, 5, 1))
    ref = am.sine_series(K, A, [1.0] + x2, "test")
    for mixed in ([1.0, x1[0]] + x2[1:], [1.0] + x2[:3] + x1[3:]):
        out = am.sine_series(K, A, mixed, "test")
        assert out.hess is am.NO_HESSIAN
        assert np.array_equal(out.val, ref.val) and np.array_equal(out.grad, ref.grad)


def test_collect_jet_of_first_order_tree_has_no_hessian():
    _, v1, t1 = _rank_jets(order=1)
    _, v2, t2 = _rank_jets(order=2)
    trees = [(t1, t2), ([[t1[i, j] for j in range(4)] for i in range(4)], [[t2[i, j] for j in range(4)] for i in range(4)]),
             ([v1[0], 2.0, v1[2], v1[3]], [v2[0], 2.0, v2[2], v2[3]])]
    for (first, second), comp in zip(trees, [(4, 4), (4, 4), (4,)]):
        val, grad, hess = am.collect_jet(first, comp, 4, (4,))
        ref = am.collect_jet(second, comp, 4, (4,))
        assert hess is am.NO_HESSIAN and ref[2].shape == (4, 4) + ref[0].shape
        assert np.array_equal(val, ref[0]) and np.array_equal(grad, ref[1])


# ---------------------------------------------------------------------------
# trial evaluators against their nested-list form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chart,fiber", CHARTS)
@pytest.mark.parametrize("batch", [None, 5])
def test_trial_evaluators_equal_nested_oracles(request, chart, fiber, batch):
    space = request.getfixturevalue(chart)
    p = _points(space, 3, batch)
    for seed in (11, 12):
        assert_same_jet(random_local_metric(space, [seed], fiber_dependence=fiber).fn,
                        nested_metric(space, seed, fiber_dependence=fiber), p)
        assert_same_jet(random_local_lee(space, [seed], fiber_dependence=fiber).fn,
                        nested_lee(space, seed, fiber_dependence=fiber), p)
    ws = trial_structure(space, 5, [1])
    for degree in range(space.dim + 1):
        spec = random_form_field(ws, [np.random.default_rng(degree)], degree, 0.5, fiber_dependence=fiber)
        assert_same_jet(spec.field.fn, nested_form(space, np.random.default_rng(degree), degree, fiber), p)
    assert_same_jet(random_vector_field(space, [np.random.default_rng(9)]).fn,
                    nested_vector(space, np.random.default_rng(9)), p)


def test_trial_fields_refuse_jets_that_are_not_coordinate_seeds(model):
    """The closed-form jet holds for coordinate seeds only: each trial field fed a composed jet raises a
    one-line TypeError naming the field, and through the engine a JetError, never a wrong derivative."""
    from weylmass.errors import JetError

    p = _points(model, 2, 3)
    ws = trial_structure(model, 5, [1])
    fields = [random_local_metric(model, [11]).as_field(),
              Field(random_local_lee(model, [11]).fn, shape=(model.dim,), name=random_local_lee(model, [11]).name),
              random_form_field(ws, [np.random.default_rng(2)], 2, 0.5).field,
              random_vector_field(model, [np.random.default_rng(9)])]
    for fld in fields:
        seeds = am.seed_point(p)
        for bad in (2.0 * seeds[0], seeds[0] + 0.0, am.sin(seeds[1])):
            with pytest.raises(TypeError) as info:
                fld.fn([bad] + seeds[1:])
            assert str(info.value).startswith(fld.name + ":") and "\n" not in str(info.value)
        composed = Field(lambda c, fld=fld: fld.fn([2.0 * x for x in c]), shape=fld.shape, name="composed")
        with pytest.raises(JetError, match="^field 'composed' cannot take Taylor jets: " + re.escape(fld.name)):
            DerivativeEngine().jet2(composed, p)
        assert np.array_equal(composed.values(p), fld.values(2.0 * p))


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_stacked_trial_fields_equal_the_one_trial_fields_bitwise(request, chart):
    """Stacking changes no draw: for each trial-field builder, the slice for trial t of a T-trial field
    taken at its T points equals the one-trial field of the same draws at trial t's point alone, bit for
    bit: value, frame gradient and frame Hessian (``frame_jet2``).  The trials mix fiber-dependent with
    fiber-independent ones, which take the fiber term at a zero coefficient, and Lee forms with zero ones
    (zero amplitudes, whose slices are zero).  Adding 0.0 reads -0 as +0 on both sides: on the Hopf chart the
    stack's fiber-dependent trials make ``frame_from_coord`` subtract A dt = 0 from the others too, which may
    turn a -0 of theirs into +0, the one bit that may differ."""
    from weylmass.engine import frame_jet2

    space = request.getfixturevalue(chart)
    fiber = [True, False, False, True, False]
    lee_amplitude = [0.3, 0.0, 0.3, 0.0, 0.3]
    seeds = [101, 102, 103, 104, 105]
    p = _points(space, 7, len(seeds))
    ws = trial_structure(space, 8, [0])

    def builders(ts):
        """The four builders over trials ts, each form and vector field on its own fresh generators."""
        fb = [fiber[t] for t in ts]
        return [random_local_metric(space, [seeds[t] for t in ts], fiber_dependence=fb).as_field(),
                Field(random_local_lee(space, [seeds[t] for t in ts], amplitude=[lee_amplitude[t] for t in ts],
                                       fiber_dependence=fb).fn, shape=(space.dim,)),
                random_form_field(ws, [np.random.default_rng(20 + t) for t in ts], 0, 0.5, fiber_dependence=fb).field,
                random_form_field(ws, [np.random.default_rng(30 + t) for t in ts], 2, 0.5, fiber_dependence=fb).field,
                random_vector_field(space, [np.random.default_rng(40 + t) for t in ts])]

    engine = DerivativeEngine()
    stacked = [frame_jet2(engine, space, fld, p) for fld in builders(range(len(seeds)))]
    assert np.any(stacked[0][1][..., space.m, :, :, 0]) and not np.any(stacked[0][1][..., space.m, :, :, 1])
    for t in range(len(seeds)):
        for jets, fld in zip(stacked, builders([t]), strict=True):
            for got, want in zip(jets, frame_jet2(engine, space, fld, p[:, t]), strict=True):
                assert (got[..., t] + 0.0).tobytes() == (want + 0.0).tobytes()
        if not lee_amplitude[t]:
            assert all(not np.any(part[..., t]) for part in stacked[1])


@pytest.mark.parametrize("chart,fiber", CHARTS)
@pytest.mark.parametrize("batch", [None, 5])
def test_dual_jet1_equals_jet2_on_trial_fields(request, chart, fiber, batch):
    """engine.jet1 returns jet2's value and gradient bitwise, from first-order seeds."""
    space = request.getfixturevalue(chart)
    p = _points(space, 6, batch)
    engine = DerivativeEngine()
    ws = trial_structure(space, 5, [1])
    lee = random_local_lee(space, [11], fiber_dependence=fiber)
    fields = [random_local_metric(space, [11], fiber_dependence=fiber).as_field(), Field(lee.fn, shape=(space.dim,))]
    fields += [random_form_field(ws, [np.random.default_rng(degree)], degree, 0.5, fiber_dependence=fiber).field
               for degree in range(space.dim + 1)]
    for fld in fields:
        first, second = engine.jet1(fld, p), engine.jet2(fld, p)
        for a, b in zip(first, second[:2]):
            assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_gauge_change_and_extended_lee_on_array_lee(request, chart):
    """Evaluators that index an array-valued Lee form keep their nested-list jets; a gauge change keeps
    the array-valued evaluator and records its factor, and ``lee_jet`` reads theta - df/(2f) and its
    frame derivatives as the nested evaluator with the factor's closed-form gradient gives them."""
    space = request.getfixturevalue(chart)
    p = _points(space, 4, 3)
    base = random_local_lee(space, [21], fiber_dependence=True)
    extra = random_local_lee(space, [22])
    ext = extended_lee(base, extra)
    old_base, old_extra = nested_lee(space, 21, fiber_dependence=True), nested_lee(space, 22)
    assert_same_jet(ext.fn, lambda c: [x + y for x, y in zip(old_base(c), old_extra(c))], p)

    fam = random_local_metric(space, [21])
    factor = radial_profile(space, beta=0.3)
    ws2 = gauge_change(WeylStructure(space, fam, base), factor)

    def old_lee(c):
        f, r = factor.fn(c), am.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
        gf = [0.3 * -1.0 * r ** -3.0 * c[a] for a in range(3)] + [0.0]  # d(1 + 0.3/r)
        return [th - gfi / (2.0 * f) for th, gfi in zip(old_base(c), gf)]

    def old_metric(c):
        f, g = factor.fn(c), nested_metric(space, 21)(c)
        return [[f * gij for gij in row] for row in g]

    assert ws2.lee.fn is base.fn and ws2.lee.factor is factor
    engine = DerivativeEngine()
    old = frame_jet1(engine, space, Field(old_lee, shape=(space.dim,)), p)
    for got, want in zip(lee_jet(engine, ws2.lee, p, order=1), old, strict=True):
        assert np.max(np.abs(got - want)) < 1e-15 * np.max(np.abs(want))
    assert_same_jet(ws2.metric.fn, old_metric, p)


def _scale_leaves(tree, scale):
    return [_scale_leaves(e, scale) for e in tree] if isinstance(tree, list) else tree * scale


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_regauge_and_probe_deviation_on_array_fields(request, chart):
    """The oracle ``regauge`` scales an array-valued form; the metric probes index an array-valued metric."""
    space = request.getfixturevalue(chart)
    p = _points(space, 5, 3)
    ws = trial_structure(space, 6, [0])
    factor = radial_profile(space, beta=0.4)
    for degree in (0, 2):
        spec = random_form_field(ws, [np.random.default_rng(degree)], degree, 1.5, fiber_dependence=True)
        old = nested_form(space, np.random.default_rng(degree), degree, True)
        assert_same_jet(regauge(spec, factor, "g~f").field.fn,
                        lambda c, old=old: _scale_leaves(old(c), factor.fn(c) ** 0.75), p)
    engine = DerivativeEngine()
    fam = random_local_metric(space, [8])
    reports = metric_probes(space, fam.name, probe_jet(engine, fam))
    assert len(reports) == 3 and all(np.isfinite(r.slope) for r in reports)


def test_metric_jet_object_count_does_not_grow_with_m(monkeypatch):
    """One dual evaluation of random_local_metric builds the same number of Taylor2 jets at m = 3 and m = 5."""
    counts = {}
    init = am.Taylor2.__init__
    built = [0]

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    for m in (3, 5):
        space = ModelSpace(m=m, R=1.0, L=2.0 * np.pi, fibration="trivial")
        fam = random_local_metric(space, [3], fiber_dependence=True)
        seeds = am.seed_point(trial_point(space, np.random.default_rng(m)))
        monkeypatch.setattr(am.Taylor2, "__init__", counting_init)
        built[0] = 0
        fam.fn(seeds)
        monkeypatch.setattr(am.Taylor2, "__init__", init)
        counts[m] = built[0]
    assert counts[3] == counts[5], counts


def test_dual_engine_returns_array_jet_unchanged():
    space = ModelSpace(m=3, R=1.0, L=2.0 * np.pi, fibration="trivial")
    fld = random_local_metric(space, [2]).as_field()
    p = _points(space, 1, 6)
    val, grad, hess = DerivativeEngine().jet2(fld, p)
    assert val.shape == (4, 4, 6) and grad.shape == (4, 4, 4, 6) and hess.shape == (4, 4, 4, 4, 6)
    assert np.array_equal(val, fld.values(p))
