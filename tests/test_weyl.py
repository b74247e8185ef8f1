"""Weyl-connection operators: derivative laws, curvature, gauge behavior."""

from dataclasses import fields

import numpy as np
import pytest

from weylmass import autodiff as am
from weylmass.engine import Field, frame_jet1
from weylmass.errors import DegreeError, GaugeMismatchError
from weylmass.families import (LeeFormField, directional_profile, flat_product, kaluza_perturbation,
                               radial_lee, radial_profile, random_local_metric, zero_lee)
from weylmass.identities import _rng, random_form_field, trial_point, trial_structure
from weylmass.model import ModelSpace
from weylmass.weyl import (FormFieldSpec, WeylJet, WeylStructure, _brackets, _coeff_curvature, _covd_slots,
                           _ricci, _ricci_jet, _weyl_jet, christoffel, covd2_form_block, covd_form_block, dD, deltaD,
                           form_field_of, gauge_change, inv_gram, lc_form_block, lee_jet, lie_bracket, weyl_coeffs,
                           weyl_connect_vec, weyl_curvature)

from oracles import (FDEngine, PointMetric, WeightedForm, frame_exterior_derivative, full_christoffel_jet,
                     full_coeff_curvature, full_weyl_jet, hodge_star, inverse, regauge, ricci_trace_convention,
                     unit_scalar, wedge_covd_form_block)

CHARTS = [("model", False), ("model", True), ("hopf_space", False), ("hopf_space", True)]
# the finite-difference route for fields whose evaluators call the engine themselves
FD = FDEngine()


def constant_vec(model, comps):
    comps = list(comps)
    return Field(lambda c: comps, shape=(model.dim,))


# --- connection on vectors -----------------------------------------------------


def test_connect_vec_reduces_to_levi_civita(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=0.8), zero_lee(model))
    p = model.point([2.1, -0.4, 0.9], 0.3)
    X = constant_vec(model, [1, 0, 0, 0])
    Y = constant_vec(model, [0, 1, 0, 0])
    got = weyl_connect_vec(engine, ws, X, Y, p)
    gam = christoffel(engine, model, ws.metric, p)[0]
    assert np.max(np.abs(got - gam[1, 0])) < 1e-12


def test_connect_vec_constant_lee_hand_case(model, engine):
    # flat metric, theta = a dx1, constant frames: D_{e2} e1 = a e2
    a = 0.7
    lee = LeeFormField("const", model, lambda c: [a, 0.0, 0.0, 0.0])
    ws = WeylStructure(model, flat_product(model), lee)
    p = model.point([2.0, 0.5, -1.0], 0.1)
    X = constant_vec(model, [1, 0, 0, 0])
    Y = constant_vec(model, [0, 1, 0, 0])
    got = weyl_connect_vec(engine, ws, X, Y, p)
    assert np.max(np.abs(got - np.array([0, a, 0, 0]))) < 1e-14


def test_torsion_free_random_fields(model, engine):
    rng = _rng(7, 1, 0)
    ws = trial_structure(model, 7, [0], fiber_dependence=True)
    from weylmass.identities import random_vector_field

    X = random_vector_field(model, [rng])
    Y = random_vector_field(model, [rng])
    p = trial_point(model, rng)
    t = weyl_connect_vec(engine, ws, Y, X, p) - weyl_connect_vec(engine, ws, X, Y, p) \
        - lie_bracket(engine, model, X, Y, p)
    assert np.max(np.abs(t)) < 1e-7


def test_torsion_free_on_hopf_frame(hopf_space, engine):
    ws = WeylStructure(hopf_space, hopf_space and flat_product(hopf_space), radial_lee(hopf_space, 0.3))
    rng = _rng(8, 1, 0)
    from weylmass.identities import random_vector_field

    X = random_vector_field(hopf_space, [rng])
    Y = random_vector_field(hopf_space, [rng])
    p = hopf_space.point([1.5, 0.9, 1.1], 0.7)
    t = weyl_connect_vec(engine, ws, Y, X, p) - weyl_connect_vec(engine, ws, X, Y, p) \
        - lie_bracket(engine, hopf_space, X, Y, p)
    assert np.max(np.abs(t)) < 1e-7


# --- weighted derivative ---------------------------------------------------------


def test_weighted_derivative_theta_zero_is_covariant_derivative(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=0.5), zero_lee(model))
    rng = _rng(9, 2, 0)
    spec = random_form_field(ws, [rng], 2, 1.5)
    p = trial_point(model, rng)
    H = covd_form_block(engine, ws, spec, p)[1]
    # the Levi-Civita block over the Christoffel symbols: the weight drops out with theta
    w, dw = frame_jet1(engine, model, spec.field, p)
    Ht = lc_form_block(dw, w, christoffel(engine, model, ws.metric, p)[0], 2)
    assert np.max(np.abs(H - Ht)) < 1e-12


def test_weighted_derivative_weight_zero_scalar(model, engine):
    ws = trial_structure(model, 11, [0])
    spec = form_field_of(ws, lambda c: am.sin(c[0]) * c[1], degree=0, weight=0.0)
    p = model.point([2.0, 1.0, -0.3], 0.4)
    H = covd_form_block(engine, ws, spec, p)[1]
    expected = np.array([np.cos(p[0]) * p[1], np.sin(p[0]), 0.0, 0.0])
    assert np.max(np.abs(H - expected)) < 1e-12


@pytest.mark.parametrize("chart,fiber,mode,deg", [(chart, fiber, mode, deg) for chart, fiber in CHARTS
                                                   for mode in ("engine", "fd_engine") for deg in range(5)])
def test_covd_form_block_matches_wedge_oracle(request, chart, fiber, mode, deg):
    """The slot kernel against the wedge/interior assembly of D, theta != 0, degrees 0..n."""
    space = request.getfixturevalue(chart)
    eng = request.getfixturevalue(mode)
    ws = trial_structure(space, 12, [3], fiber_dependence=fiber)
    rng = _rng(12, 3, deg)
    for k in (0.0, -1.0, 1.5):
        spec = random_form_field(ws, [rng], deg, k, fiber_dependence=fiber)
        p = trial_point(space, rng)
        H = covd_form_block(eng, ws, spec, p)[1]
        assert np.max(np.abs(H - wedge_covd_form_block(eng, ws, spec, p))) < 1e-11


def test_weighted_derivative_operator_against_algebra_ops(model, engine):
    """D_X w assembled independently from the pointwise algebra primitives."""
    from oracles import PointMetric, TensorValue, WeightedForm, interior, sharp, wedge

    ws = trial_structure(model, 29, [0])
    rng = _rng(29, 16, 0)
    p = trial_point(model, rng)
    xvec = rng.normal(size=4)
    for deg, k in ((2, 2.0), (2, -1.0), (1, 1.0)):
        spec = random_form_field(ws, [rng], deg, k)
        got = np.einsum("i,i...->...", xvec, covd_form_block(engine, ws, spec, p)[1])

        w, dw = frame_jet1(engine, model, spec.field, p)
        gam = christoffel(engine, model, ws.metric, p)[0]
        nabla_x = np.einsum("i,i...->...", xvec, lc_form_block(dw, w, gam, deg))
        g = ws.gram(p)
        theta = lee_jet(engine, ws.lee, p)
        pm = PointMetric.from_matrix(g)
        w_wf = WeightedForm(4, deg, k, w)
        theta_wf = WeightedForm(4, 1, 0.0, theta)
        xt = TensorValue.vector(xvec)
        xflat = WeightedForm(4, 1, 0.0, g @ xvec)
        theta_sharp = sharp(TensorValue.covector(theta), pm)
        expected = (nabla_x
                    + (k - deg) * float(theta @ xvec) * w
                    - wedge(theta_wf, interior(xt, w_wf)).components
                    + wedge(xflat, interior(theta_sharp, w_wf)).components)
        assert np.max(np.abs(got - expected)) < 1e-11
        if k == deg:
            # first correction term is absent: the theta(X)-proportional part drops
            assert (k - deg) == 0.0


# --- d^D -------------------------------------------------------------------------


def test_dD_weight_zero_equals_exterior_derivative(model, engine):
    ws = trial_structure(model, 13, [0])  # random lee form present
    rng = _rng(13, 4, 0)
    for deg in (0, 1, 2):
        spec = random_form_field(ws, [rng], deg, 0.0)
        p = trial_point(model, rng)
        got = dD(engine, ws, spec, p)
        oracle = frame_exterior_derivative(engine, model, spec.field, deg, p)
        assert got.shape == oracle.shape == (4,) * (deg + 1)
        assert np.max(np.abs(got - oracle)) < 1e-10


def test_dD_and_deltaD_return_batch_last_component_arrays(model, engine):
    """d^D w has shape (n,)^(p+1) + batch and delta^D w (n,)^(p-1) + batch; d^D of a 4-form is refused."""
    ws = trial_structure(model, 14, [0])
    rng = _rng(14, 5, 0)
    pts = np.stack([trial_point(model, rng) for _ in range(3)], axis=1)
    for deg in range(5):
        spec = random_form_field(ws, [rng], deg, -2.0)
        for op, out_deg in ((dD, deg + 1), (deltaD, max(deg - 1, 0))):
            if out_deg > 4:
                with pytest.raises(DegreeError):
                    op(engine, ws, spec, pts)
                continue
            got = op(engine, ws, spec, pts)
            assert got.shape == (4,) * out_deg + (3,)
            for j in range(3):
                assert np.allclose(got[..., j], op(engine, ws, spec, pts[:, j]), rtol=1e-13, atol=1e-13)


def test_dD_gauge_mismatch_rejected(model, engine):
    ws = trial_structure(model, 15, [0])
    rng = _rng(15, 6, 0)
    spec = random_form_field(ws, [rng], 1, 0.0)
    bad = FormFieldSpec(spec.field, spec.degree, spec.weight, "other_gauge")
    with pytest.raises(GaugeMismatchError):
        dD(engine, ws, bad, trial_point(model, rng))
    # d^D and delta^D at degrees 0 and 1: a 0-form has delta^D = 0, but only in its own gauge
    for deg in (0, 1):
        other = FormFieldSpec(random_form_field(ws, [rng], deg, 0.0).field, deg, 0.0, "other_gauge")
        for operator in (dD, deltaD):
            with pytest.raises(GaugeMismatchError):
                operator(engine, ws, other, trial_point(model, rng))


# --- delta^D ----------------------------------------------------------------------


def test_deltaD_of_scalar_is_zero(model, engine):
    ws = trial_structure(model, 16, [0])
    spec = form_field_of(ws, lambda c: 1.0 + 0.0 * c[0], degree=0, weight=2.0)
    out = deltaD(engine, ws, spec, model.point([2, 1, 0.5], 0.2))
    assert out.shape == ()
    assert float(out) == 0.0


def test_deltaD_matches_hodge_codifferential_oracle(model, engine):
    """theta = 0: delta equals -*d* on 1-forms in dimension 4 (n even)."""
    fam = random_local_metric(model, [33])
    ws = WeylStructure(model, fam, zero_lee(model))
    rng = _rng(17, 7, 0)
    spec = random_form_field(ws, [rng], 1, 0.0)
    p = trial_point(model, rng)

    def star_spec_fn(c):
        c = np.asarray(c, dtype=float)
        pm = PointMetric.from_matrix(fam.as_field().values(c))
        w = WeightedForm(4, 1, 0.0, spec.field.values(c))
        return hodge_star(w, pm).components

    star_field = Field(star_spec_fn, shape=(4, 4, 4))
    d_star = frame_exterior_derivative(FD, model, star_field, 3, p)
    pm = PointMetric.from_matrix(fam.as_field().values(p))
    star_d_star = hodge_star(WeightedForm(4, 4, 0.0, d_star), pm).components
    got = deltaD(engine, ws, spec, p)
    sign = (-1.0) ** (4 * (1 + 1) + 1)  # = -1: delta = -*d* for n = 4
    assert np.max(np.abs(got - sign * star_d_star)) < 1e-8


def test_codifferential_shift_printed_variant_fails(model, engine):
    """Negative control: the alternate printed coefficient breaks off p = 2."""
    from weylmass.identities import check_codifferential_transform

    rep = check_codifferential_transform(engine, model, seed=5, trials=25, tolerance=1e-6)
    assert rep.passed
    assert rep.details["printed_variant_max_residual"] > 1e-3
    assert rep.details["coefficient_fit_gap"] < 1e-9


# --- faraday ---------------------------------------------------------------------


def test_faraday_zero_for_exact_lee(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), radial_lee(model, 0.7))
    F = weyl_curvature(engine, ws, model.point([2.5, 0.3, -0.8], 0.9)).F
    assert np.max(np.abs(F)) < 1e-12


def test_faraday_linear_lee_hand_case(model, engine):
    # theta = x2 dx1 -> F = -dx1 ^ dx2
    lee = LeeFormField("x2dx1", model, lambda c: [c[1], 0.0, 0.0, 0.0])
    ws = WeylStructure(model, flat_product(model), lee)
    F = weyl_curvature(engine, ws, model.point([2.0, 1.5, 0.0], 0.0)).F
    assert F[0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert F[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_faraday_flat_zero(model, engine):
    ws = WeylStructure(model, flat_product(model), zero_lee(model))
    F = weyl_curvature(engine, ws, model.point([2.0, 1.5, 0.0], 0.0)).F
    assert np.max(np.abs(F)) == 0.0


def test_faraday_closed_and_gauge_independent(model, hopf_space, engine):
    """On both charts dF = 0, and F is unchanged to roundoff by a gauge change: the Lee jet of f g adds
    -E_p E_i f/(2f) + E_i f E_p f/(2f^2), whose skew part cancels the bracket term of df/(2f)."""
    for space in (model, hopf_space):
        ws = trial_structure(space, 18, [1])
        p = trial_point(space, _rng(18, 8, 0))
        n = space.dim

        def F_fn(c):
            return weyl_curvature(engine, ws, np.asarray(c, dtype=float)).F

        dF = frame_exterior_derivative(FD, space, Field(F_fn, shape=(n, n)), 2, p)
        assert np.max(np.abs(dF)) < 1e-6

        F1 = weyl_curvature(engine, ws, p).F
        for f in (radial_profile(space, beta=0.5), directional_profile(space, beta=0.3, axis=1)):
            F2 = weyl_curvature(engine, gauge_change(ws, f), p).F
            assert np.max(np.abs(F1 - F2)) < 1e-15 * max(1.0, np.max(np.abs(F1)))


# --- curvature --------------------------------------------------------------------


def test_curvature_flat_zero(model, engine):
    ws = WeylStructure(model, flat_product(model), zero_lee(model))
    bundle = weyl_curvature(engine, ws, model.point([2, 1, -0.5], 0.7))
    assert np.max(np.abs(bundle.R)) < 1e-12
    assert np.max(np.abs(bundle.Ric)) < 1e-12
    assert abs(bundle.Scal) < 1e-12


def test_ricci_matches_riemannian_oracle_at_zero_lee(model, engine):
    fam = random_local_metric(model, [21])
    ws = WeylStructure(model, fam, zero_lee(model))
    p = model.point([2.3, 0.6, -0.2], 0.8)
    bundle = weyl_curvature(engine, ws, p)
    R = bundle.R
    ric_oracle = ricci_trace_convention(R)
    assert np.max(np.abs(bundle.Ric - ric_oracle)) < 1e-6
    g = ws.gram(p)
    assert bundle.Scal == pytest.approx(float(np.einsum("ij,ij->", np.linalg.inv(g), ric_oracle)), abs=1e-6)


def test_curvature_split_residual(model, engine):
    ws = trial_structure(model, 22, [4])
    bundle = weyl_curvature(engine, ws, trial_point(model, _rng(22, 9, 0)))
    assert bundle.split_residual < 1e-7


def _nested_fd_jet(engine, model, coeff_fn, p):
    """The FD route: an fd-mode frame_jet1 of a field wrapping a coefficient evaluator."""
    n = model.dim
    fld = Field(lambda c: coeff_fn(np.asarray(c, dtype=float)), shape=(n, n, n))
    return frame_jet1(FD, model, fld, p)


@pytest.mark.parametrize("chart,fiber", CHARTS)
def test_weyl_jet_matches_nested_fd(request, engine, chart, fiber):
    space = request.getfixturevalue(chart)
    for trial in range(2):
        ws = trial_structure(space, 41, [trial], fiber_dependence=fiber)
        p = trial_point(space, _rng(41, 30, trial))
        jet = _weyl_jet(engine, ws, p)
        W_fd, dW_fd = _nested_fd_jet(engine, space, lambda c: weyl_coeffs(engine, ws, c).W, p)
        assert np.array_equal(jet.W, weyl_coeffs(engine, ws, p).W)
        assert np.max(np.abs(jet.dW - dW_fd)) < 1e-9 * np.max(np.abs(dW_fd))


@pytest.mark.parametrize("chart,fiber", CHARTS)
def test_lc_riemann_matches_nested_fd(request, engine, chart, fiber):
    space = request.getfixturevalue(chart)
    fam = random_local_metric(space, [42], fiber_dependence=fiber)
    p = trial_point(space, _rng(42, 31, 0))
    gam, dgam = _nested_fd_jet(engine, space, lambda c: christoffel(engine, space, fam, c)[0], p)
    oracle = _coeff_curvature(gam, dgam, space.structure_constants(p))
    R = weyl_curvature(engine, WeylStructure(space, fam, zero_lee(space)), p).R
    assert np.max(np.abs(R - oracle)) < 1e-9 * np.max(np.abs(oracle))


@pytest.mark.parametrize("batch", [None, 512], ids=["point", "block512"])
@pytest.mark.parametrize("chart", ["model", "hopf_space"], ids=["trivial", "hopf"])
def test_jets_equal_full_bracket_formulas(request, engine, chart, batch):
    """The jets and the curvature skip the bracket terms on the holonomic trivial frame and add
    theta on diagonal slices; the full formulas, with explicit zero C and E C there and the
    identity outer products as einsums, give the same bits.  The Hopf path is the full formula.  With
    theta = 0, W and dW are the Christoffel coefficients G and their frame derivatives E G, bit for bit."""
    space = request.getfixturevalue(chart)
    ws = trial_structure(space, 44, [0], fiber_dependence=True)
    rng = _rng(44, 33, 0)
    p = (trial_point(space, rng) if batch is None
         else np.stack([trial_point(space, rng) for _ in range(batch)], axis=1))
    C = space.structure_constants(p)
    assert space.holonomic == (chart == "model") == (not np.any(C) and not np.any(space.structure_jacobian(p)))
    got = _weyl_jet(engine, WeylStructure(space, ws.metric, zero_lee(space)), p)
    gam, dgam, g, _, ginv = full_christoffel_jet(engine, space, ws.metric, p)
    assert all(np.array_equal(a, b) for a, b in zip((got.W, got.dW, got.g, got.ginv), (gam, dgam, g, ginv),
                                                    strict=True))
    got, want = _weyl_jet(engine, ws, p), full_weyl_jet(engine, ws, p)
    for f in fields(WeylJet):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a is b is None or np.array_equal(a, b), f.name
    R = _coeff_curvature(got.W, got.dW, None if space.holonomic else C)
    assert np.array_equal(R, full_coeff_curvature(want.W, want.dW, C))


@pytest.mark.parametrize("batch", [None, 512], ids=["point", "block512"])
@pytest.mark.parametrize("m,fibration", [(3, "trivial"), (3, "hopf"), (4, "trivial"), (5, "trivial")],
                         ids=["trivial-m3", "hopf-m3", "trivial-m4", "trivial-m5"])
def test_ricci_jet_form_equals_the_curvature_route(engine, m, fibration, batch):
    """Ric^D(a#, a#) read off v = a# contracted into each factor equals a# Ric^D a# of the full curvature R of
    ``_weyl_jet`` to 1e-13 relative, on fiber-dependent data with a Lee form, and in a recorded gauge, for a
    random covector a and for the values of a trial 1-form; W, g, g^-1 and theta are the same bits, and
    sqrt(det g) is LAPACK's to 1e-14 relative.  m = 4 is the n of the m = 4 annulus smoke in CI."""
    space = ModelSpace(m=m, fibration=fibration)
    ws = trial_structure(space, 46, [0], fiber_dependence=True)
    rng = _rng(46, 35, 0)
    p = (trial_point(space, rng) if batch is None
         else np.stack([trial_point(space, rng) for _ in range(batch)], axis=1))
    form = random_form_field(ws, [rng], 1, 0.0, fiber_dependence=True).field.values(p)
    for structure in (ws, gauge_change(ws, radial_profile(space, beta=0.3))):
        jet = _weyl_jet(engine, structure, p)
        ric = _ricci(_coeff_curvature(jet.W, jet.dW, _brackets(space, p)), jet.g, jet.ginv)
        for a in (rng.normal(size=(space.dim,) + p.shape[1:]), form):
            got = _ricci_jet(engine, structure, p, a)
            for name in ("W", "g", "ginv", "theta"):
                have, want = getattr(got, name), getattr(jet, name)
                assert have.shape == want.shape and np.array_equal(have, want)
            det = np.sqrt(np.linalg.det(np.moveaxis(got.g, (0, 1), (-2, -1))))
            assert got.vol.shape == det.shape and np.max(np.abs(got.vol - det) / det) <= 1e-14
            v = np.einsum("ab...,b...->a...", jet.ginv, a)
            want = np.einsum("a...,ab...,b...->...", v, ric, v)
            assert got.ric_aa.shape == want.shape == p.shape[1:]
            assert np.max(np.abs(got.ric_aa - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("chart,fiber", CHARTS)
def test_curvature_split_exact_in_dual_mode(request, engine, chart, fiber):
    space = request.getfixturevalue(chart)
    ws = trial_structure(space, 43, [0], fiber_dependence=fiber)
    for j in range(3):
        bundle = weyl_curvature(engine, ws, trial_point(space, _rng(43, 32, j)))
        assert bundle.split_residual < 1e-12


def test_weyl_jet_fd_mode_agrees_with_dual(hopf_space, engine, fd_engine):
    ws = trial_structure(hopf_space, 44, [0], fiber_dependence=True)
    p = trial_point(hopf_space, _rng(44, 33, 0))
    dW = _weyl_jet(engine, ws, p).dW
    dW_fd = _weyl_jet(fd_engine, ws, p).dW
    assert np.max(np.abs(dW - dW_fd)) < 1e-7


def _nested_fd_covd2(engine, ws, spec, p):
    """The wedge-form oracle H, and D H as the kernel over a finite-difference jet of that oracle."""
    n = ws.model.dim
    H_field = Field(lambda c: wedge_covd_form_block(engine, ws, spec, np.asarray(c, dtype=float)),
                    shape=(n,) * (spec.degree + 1))
    H, dH = frame_jet1(FD, ws.model, H_field, p)
    jet = weyl_coeffs(engine, ws, p)
    return H, _covd_slots(H, dH, jet.W, jet.theta, spec.weight, spec.degree + 1)


@pytest.mark.parametrize("chart,fiber", CHARTS)
def test_covd2_form_block_matches_nested_fd(request, engine, fd_engine, chart, fiber):
    space = request.getfixturevalue(chart)
    ws = trial_structure(space, 45, [0], fiber_dependence=fiber)
    rng = _rng(45, 34, 0)
    for deg, k in ((0, 0.0), (0, 1.0), (1, -1.0), (2, 1.5), (3, -1.0), (4, 0.5)):
        spec = random_form_field(ws, [rng], deg, k, fiber_dependence=fiber)
        p = trial_point(space, rng)
        w, H, DH, jet = covd2_form_block(engine, ws, spec, p)
        ginv = jet.ginv
        H_oracle, DH_oracle = _nested_fd_covd2(engine, ws, spec, p)
        scale = np.max(np.abs(DH))
        assert np.array_equal(w, spec.field.values(p))
        assert np.array_equal(ginv, inv_gram(ws.gram(p)))
        assert np.max(np.abs(H - H_oracle)) < 1e-12 * np.max(np.abs(H_oracle))
        assert np.max(np.abs(DH - DH_oracle)) < 1e-8 * scale
        DH_fd = covd2_form_block(fd_engine, ws, spec, p)[2]
        assert np.max(np.abs(DH - DH_fd)) < 1e-7 * scale


def test_ricci_antisymmetric_part_proportional_to_faraday(model, engine):
    """The skew part of Ric^D is a fixed multiple of F^D, same at every point."""
    ws = trial_structure(model, 23, [2])
    lams = []
    for j in range(3):
        p = trial_point(model, _rng(23, 10, j))
        b = weyl_curvature(engine, ws, p)
        skew = 0.5 * (b.Ric - b.Ric.T)
        denom = float(np.sum(b.F * b.F))
        assert denom > 1e-12
        lam = float(np.sum(skew * b.F) / denom)
        assert np.max(np.abs(skew - lam * b.F)) < 1e-7
        lams.append(lam)
    assert max(lams) - min(lams) < 1e-6


def test_scalar_weight_tag_and_constant_rescale(model, engine):
    ws = trial_structure(model, 24, [1])
    p = trial_point(model, _rng(24, 11, 0))
    bundle = weyl_curvature(engine, ws, p)
    c = 1.9
    ws2 = gauge_change(ws, _const_scalar(model, c))
    bundle2 = weyl_curvature(engine, ws2, p)
    assert bundle2.Scal == pytest.approx(bundle.Scal / c, rel=1e-6)


def _const_scalar(model, c):
    from weylmass.families import ScalarField

    return ScalarField("const", model, lambda pt: c)


# --- laplacian and dirac ------------------------------------------------------------


def laplacian(engine, ws, spec, p):
    """Lap^D w = -g^{ab} D(Dw)[a; b]: the trace of ``covd2_form_block``."""
    _, _, DH, jet = covd2_form_block(engine, ws, spec, p)
    return -np.einsum("ab...,ab...->...", jet.ginv, DH)


def test_laplacian_flat_cases(model, engine):
    ws = WeylStructure(model, flat_product(model), zero_lee(model))
    p = model.point([2.0, 0.8, -0.5], 0.3)
    const = form_field_of(ws, lambda c: [1.0, 0.0, 0.0, 0.0], degree=1, weight=0.0)
    assert np.max(np.abs(laplacian(engine, ws, const, p))) < 1e-10
    assert abs(float(deltaD(engine, ws, const, p))) < 1e-10  # the Dirac pair: delta^D and d^D
    assert np.max(np.abs(dD(engine, ws, const, p))) < 1e-10

    sine = form_field_of(ws, lambda c: [am.sin(c[1]), 0.0, 0.0, 0.0], degree=1, weight=0.0)
    lap = laplacian(engine, ws, sine, p)
    expected = np.array([np.sin(p[1]), 0, 0, 0])
    assert np.max(np.abs(lap - expected)) < 1e-9


# --- gauge change ---------------------------------------------------------------------


def test_gauge_change_unit_factor(model, engine):
    ws = trial_structure(model, 26, [0])
    ws2 = gauge_change(ws, unit_scalar(model))
    p = trial_point(model, _rng(26, 13, 0))
    assert np.max(np.abs(lee_jet(engine, ws.lee, p) - lee_jet(engine, ws2.lee, p))) < 1e-14
    assert np.max(np.abs(ws2.gram(p) - ws.gram(p))) < 1e-14


def test_gauge_change_analytic_gradient_oracle(model, engine, fd_engine):
    """theta = 0, f = 1 + 1/r: the new Lee form -df/(2f) = x dx / (2 (r^3 + r^2)) and its frame
    derivatives E_p theta_i = delta_pi / (2D) - (3r + 2) x_p x_i / (2 D^2), D = r^3 + r^2, in closed form.
    In fd mode theta takes a Richardson jet1 of f and its derivatives a jet2."""
    ws = WeylStructure(model, flat_product(model), zero_lee(model))
    f = radial_profile(model, beta=1.0, power=-1.0)
    ws2 = gauge_change(ws, f)
    p = model.point([2.0, 1.0, -2.0], 0.4)
    x = p[:3]
    r = np.linalg.norm(x)
    D = r**3 + r**2
    expected = np.concatenate([x / (2.0 * D), [0.0]])
    d_expected = np.zeros((4, 4))
    d_expected[:3, :3] = np.eye(3) / (2.0 * D) - (3.0 * r + 2.0) * np.outer(x, x) / (2.0 * D * D)
    for eng, tol, dtol in ((engine, 1e-15, 1e-15), (fd_engine, 1e-12, 1e-9)):
        theta, dtheta = lee_jet(eng, ws2.lee, p, order=1)
        assert np.array_equal(theta, lee_jet(eng, ws2.lee, p))
        assert np.max(np.abs(theta - expected)) < tol
        assert np.max(np.abs(dtheta - d_expected)) < dtol


def test_gauge_change_roundtrip(model, engine):
    ws = trial_structure(model, 27, [0])
    f = radial_profile(model, beta=0.6)
    back = gauge_change(gauge_change(ws, f), inverse(f))
    p = trial_point(model, _rng(27, 14, 0))
    assert np.max(np.abs(lee_jet(engine, back.lee, p) - lee_jet(engine, ws.lee, p))) < 1e-12
    assert back.lee.factor.name == f"{f.name}*inv({f.name})"
    assert np.max(np.abs(back.gram(p) - ws.gram(p))) < 1e-12


@pytest.mark.parametrize("op", ["dD", "deltaD", "laplacian"])
def test_gauge_covariance_of_operators(model, engine, op):
    """Compute in gauge g and in gauge f g; components match after f^(k/2) regauging."""
    ws = trial_structure(model, 28, [1])
    f = radial_profile(model, beta=0.5)
    ws2 = gauge_change(ws, f)
    # a fixed trial index per operator: str hashes change from process to process
    rng = _rng(28, 15, {"dD": 0, "deltaD": 1, "laplacian": 2}[op])
    k = 1.0
    spec = random_form_field(ws, [rng], 1, k)
    spec2 = regauge(spec, f, ws2.gauge)
    p = trial_point(model, rng)
    fval = float(f.fn(list(p)))
    # the output weight: d^D keeps k, delta^D and Lap^D lower it by 2
    operator, weight = {"dD": (dD, k), "deltaD": (deltaD, k - 2.0), "laplacian": (laplacian, k - 2.0)}[op]
    out1 = operator(engine, ws, spec, p)
    out2 = operator(engine, ws2, spec2, p)
    expected = out1 * fval ** (weight / 2.0)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(out2 - expected)) / scale < 1e-6


# --- the Cholesky kernel of gram blocks ---------------------------------------------


def _gram_block(n: int, seed: int):
    """A batch-last (n, n, N) block and the condition number of each of its symmetric matrices.

    Random SPD matrices with condition numbers from 1 up to 1e10 (one at exactly 1e10), then, with
    condition number inf: a semidefinite matrix whose 2 x 2 block [[1, 1], [1, 1]] gives an exactly zero
    pivot, an indefinite one, and matrices holding NaN, +inf or -inf entries.
    """
    rng = np.random.default_rng([seed, n])
    conds = np.concatenate([[1.0, 1e10], 10.0 ** rng.uniform(0.0, 10.0, 38)])
    q = np.linalg.qr(rng.normal(size=(conds.size, n, n)))[0]
    eig = rng.uniform(0.1, 10.0, (conds.size, 1)) * conds[:, None] ** np.linspace(0.0, 1.0, n)
    spd = (q * eig[:, None, :]) @ q.swapaxes(1, 2)
    spd = 0.5 * (spd + spd.swapaxes(1, 2))
    semi = np.eye(n)
    semi[1, 2] = semi[2, 1] = semi[2, 2] = 1.0
    indefinite = q[0] @ np.diag(np.r_[-1.0, np.linspace(1.0, 2.0, n - 1)]) @ q[0].T
    bad = []
    for i, j, v in ((0, 0, np.nan), (n - 1, 0, np.nan), (1, 1, np.inf), (n - 1, 1, np.inf), (2, 2, -np.inf)):
        a = spd[2].copy()
        a[i, j] = a[j, i] = v
        bad.append(a)
    mats = np.concatenate([spd, [semi, indefinite], bad])
    return np.ascontiguousarray(np.moveaxis(mats, 0, -1)), np.concatenate([conds, np.full(2 + len(bad), np.inf)])


def _lapack_verdict(a) -> bool:
    """np.linalg.cholesky's verdict on one matrix: it factors a, and the factor is finite."""
    try:
        return bool(np.all(np.isfinite(np.linalg.cholesky(a))))
    except np.linalg.LinAlgError:
        return False


@pytest.mark.parametrize("n", [4, 6])
def test_gram_factor_agrees_with_lapack_node_by_node(n):
    """The verdict equals np.linalg.cholesky's at every node, raising nothing under errstate(all="raise");
    on the SPD nodes g^-1 and sqrt(det g) agree with np.linalg.inv and sqrt(np.linalg.det) to 1e-12
    relative, scaled by the node's condition number.  ``inv_gram_volume`` gives the same g^-1 bits as
    ``inv_gram``."""
    from weylmass.weyl import gram_factor, inv_gram, inv_gram_volume

    block, conds = _gram_block(n, 3)
    with np.errstate(all="raise"):
        L, definite = gram_factor(block)
    assert L.shape == block.shape and definite.shape == block.shape[2:]
    assert definite.tolist() == [_lapack_verdict(a) for a in np.moveaxis(block, -1, 0)]
    assert definite.tolist() == list(np.isfinite(conds))

    spd = block[..., definite]
    mats = np.moveaxis(spd, -1, 0)
    ginv = inv_gram(spd)
    assert ginv.flags.c_contiguous and ginv.shape == spd.shape
    inv_err = np.max(np.abs(np.moveaxis(ginv, -1, 0) - np.linalg.inv(mats)), axis=(1, 2))
    assert np.all(inv_err <= 1e-12 * conds[definite] * np.max(np.abs(np.linalg.inv(mats)), axis=(1, 2)))
    ginv2, vol = inv_gram_volume(spd)
    assert np.array_equal(ginv2, ginv)
    ref = np.sqrt(np.linalg.det(mats))
    assert np.all(np.abs(vol - ref) <= 1e-12 * conds[definite] * ref)
    assert np.allclose(np.einsum("ik...,jk...->ij...", L[..., definite], L[..., definite]), spd,
                       rtol=0.0, atol=1e-12 * np.max(np.abs(spd)))


@pytest.mark.parametrize("n", [4, 6])
def test_gram_factor_is_independent_of_the_block_size(n):
    """A block factored whole equals its nodes factored in smaller blocks, on a second batch axis, or one gram
    with no batch axis, bit for bit; so do g^-1 and sqrt(det g) of its SPD nodes."""
    from weylmass.weyl import gram_factor, inv_gram, inv_gram_volume

    block, conds = _gram_block(n, 4)
    L, definite = gram_factor(block)
    parts = [gram_factor(block[..., a:b]) for a, b in ((0, 1), (1, 8), (8, block.shape[-1]))]
    assert np.array_equal(np.concatenate([p[0] for p in parts], axis=-1), L, equal_nan=True)
    assert np.array_equal(np.concatenate([p[1] for p in parts]), definite)
    L2, definite2 = gram_factor(block[..., :40].reshape(n, n, 5, 8))
    assert np.array_equal(L2.reshape(n, n, 40), L[..., :40]) and np.array_equal(definite2.ravel(), definite[:40])
    for node in range(block.shape[-1]):
        L0, definite0 = gram_factor(block[..., node])
        assert np.array_equal(L0, L[..., node], equal_nan=True) and definite0 == definite[node]
    spd = block[..., definite]
    for fn in (inv_gram, lambda g: inv_gram_volume(g)[1]):
        whole = fn(spd)
        assert np.array_equal(np.concatenate([fn(spd[..., :1]), fn(spd[..., 1:7]), fn(spd[..., 7:])], axis=-1), whole)
        assert all(np.array_equal(fn(spd[..., node]), whole[..., node]) for node in range(spd.shape[-1]))


@pytest.mark.parametrize("n", [4, 6])
def test_batched_inv_gram_refuses_an_indefinite_block_in_one_line(n):
    """A block with nodes that are not SPD raises one ChartDomainError line from inv_gram and inv_gram_volume
    (never FloatingPointError under the CLI's errstate); so does one batch-less gram that is not SPD."""
    from weylmass.errors import ChartDomainError
    from weylmass.weyl import inv_gram, inv_gram_volume

    block, conds = _gram_block(n, 5)
    for fn in (inv_gram, inv_gram_volume):
        with pytest.raises(ChartDomainError) as exc, np.errstate(over="raise", divide="raise", invalid="raise"):
            fn(block)
        message = str(exc.value)
        assert "\n" not in message
        assert message == f"metric is not positive definite at 7 of {conds.size} nodes of a node block"
    indefinite = block[..., -6]
    for fn in (inv_gram, inv_gram_volume):
        with pytest.raises(ChartDomainError) as exc, np.errstate(over="raise", divide="raise", invalid="raise"):
            fn(indefinite)
        assert str(exc.value) == "metric is not positive definite at 1 of 1 nodes of a node block"
