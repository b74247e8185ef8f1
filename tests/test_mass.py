"""Mass engine: flux densities, normalized limits, conformal laws, audits.

The per-direction densities and their shell fluxes (``tests/oracles.py``)
are the independent route that the package's flux pass is set against.
"""

import json
import math
import re

import numpy as np
import pytest
import sympy as sp

from weylmass.engine import frame_jet1
from weylmass.errors import ChartDomainError, MassNotDefinedError
from weylmass.families import (MetricFamily, compact_lee, conformal_sweep, directional_profile, flat_product,
                               hopf_model, kaluza_perturbation, kaluza_two_term, log_slow_profile, radial_lee,
                               radial_profile, slow_tail, sqrt_slow_profile, stacked_factors, zero_lee)
from weylmass.mass import flux_pass, gauge_audit, mass_matrix, richardson_limit
from weylmass.model import ModelSpace, sphere_volume
from weylmass.probes import _fit_decay, geometric_radii, probe_grid
from weylmass.quadrature import PRODUCT_RULE, SYMMETRIC_RULE, QuadratureSpec
from weylmass.weyl import WeylStructure, lee_jet

from oracles import (FDEngine, anisotropic_mass_matrix, anisotropic_metric, direction_limits, flux_model_metric,
                     horizontal_field, lee_correction_components, longdouble_shell_forms, per_gauge_shell_forms,
                     probe_h_jet, probe_jet, probe_lee_jet, q_flux_components, random_adapted_scalar,
                     ricci_positivity_floor, shell_nodes, translated_metric, unit_scalar)


def x1_report(engine, ws, **kw):
    """The 1*X1 record of a mass pass."""
    return mass_matrix(engine, ws, **kw)[2]["1*X1"]


# --- flux density -----------------------------------------------------------------


def test_q_vanishes_for_model_metric(model, engine):
    pts = np.stack([model.point([3.0, 1.0, -2.0], 0.5), model.point([5.0, 0.0, 1.0], 2.0)], axis=-1)
    q = q_flux_components(engine, model, flat_product(model), 0, pts)
    assert np.max(np.abs(q)) < 1e-14


def test_q_symbolic_expansion_oracle(model, engine):
    """Fully symbolic expansion of the flux density for the Kaluza profile."""
    mu = 0.8
    x1, x2, x3 = sp.symbols("x1 x2 x3", real=True)
    xs = (x1, x2, x3)
    r = sp.sqrt(x1**2 + x2**2 + x3**2)
    V = 1 + 2 * mu / r
    g = sp.diag(V, V, V, 1)
    n = 4

    def d(expr, a):
        return sp.diff(expr, xs[a]) if a < 3 else sp.Integer(0)

    for zidx in (0, 1, 2):
        alpha = [sp.Integer(1 if a == zidx else 0) for a in range(4)]
        div_term = sum(d(g[b, zidx], b) for b in range(4))
        tr = sum(g[b, b] for b in range(4))
        dtr_z = d(tr, zidx)
        gzz = g[zidx, zidx]
        q_sym = [sp.simplify((div_term - dtr_z / 2) * alpha[c] - d(gzz, c) / 2) for c in range(4)]
        fam = kaluza_perturbation(model, mu=mu)
        for point in ([2.0, 1.0, -0.5], [4.0, -2.0, 1.0]):
            subs = dict(zip(xs, point))
            expected = np.array([float(q.subs(subs)) for q in q_sym])
            got = q_flux_components(engine, model, fam, zidx, model.point(point, 0.3))
            assert np.max(np.abs(got - expected)) < 1e-12


def test_q_quadratic_in_direction_termwise(model, engine):
    """q(aZ1 + bZ2) = a^2 q(Z1) + b^2 q(Z2) + 2ab B(Z1, Z2) by polarization."""
    fam = kaluza_perturbation(model, mu=1.0)
    rng = np.random.default_rng(5)
    p = model.point([2.5, -1.0, 1.5], 0.7)
    z1 = rng.normal(size=3)
    z2 = rng.normal(size=3)
    a, b = 0.7, -1.3

    def q(z):
        return q_flux_components(engine, model, fam, z, p)

    mixed = 0.5 * (q(z1 + z2) - q(z1) - q(z2))
    got = q(a * z1 + b * z2)
    expected = a**2 * q(z1) + b**2 * q(z2) + 2 * a * b * mixed
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("m,fibration,seed", [(5, "trivial", 3), (3, "hopf", 4)])
def test_shell_forms_match_density_oracle(engine, m, fibration, seed, skip_weyl_alf_probes):
    """z^T Q z and z^T C z of the flux pass equal the fluxes of the per-Z densities for random z."""
    from weylmass.families import random_local_lee, random_local_metric

    space = ModelSpace(m=m, fibration=fibration)
    fam = random_local_metric(space, [seed], fiber_dependence=True)
    lee = random_local_lee(space, [seed], fiber_dependence=True)
    quad = QuadratureSpec(sphere=9, fiber=3)
    forms = flux_pass(engine, WeylStructure(space, fam, lee), radii=[2.5, 7.0], quad=quad)
    norm = sphere_volume(m) * space.L
    rng = np.random.default_rng(seed)
    for r, Q, C in zip((2.5, 7.0), forms.q[0], forms.c[0]):
        pts, weights, normals = shell_nodes(space, r, quad)
        assert np.array_equal(Q, Q.T) and np.array_equal(C, C.T)
        for _ in range(3):
            z = rng.normal(size=m)
            q = flux_model_metric(space, q_flux_components(engine, space, fam, z, pts), normals, weights)
            c = flux_model_metric(space, lee_correction_components(engine, space, lee, z, pts), normals, weights)
            assert z @ Q @ z == pytest.approx(q / norm, rel=1e-12, abs=0.0)
            assert z @ C @ z == pytest.approx(c / norm, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("chart", ["model", "hopf_space"], ids=["trivial", "hopf"])
def test_flux_pass_independent_of_block_size(engine, chart, request, monkeypatch):
    """416-node shells cut into blocks of 37 nodes give the forms of the shells taken whole, each form to
    1e-14 of its largest entry: summing the blocks' forms only regroups the sums over the nodes.  Two
    swept factors cover the rescaled gauges and the df forms; the Hopf chart runs the connection terms."""
    from weylmass import quadrature

    space = request.getfixturevalue(chart)
    ws = WeylStructure(space, kaluza_perturbation(space, mu=1.0), radial_lee(space, 0.4))
    factors = [radial_profile(space, beta=0.2), random_adapted_scalar(space, seed=5)]
    radii = [40.0, 80.0, 160.0]
    assert quadrature.BLOCK_BYTES // (12 * space.dim**3) >= 416
    whole = flux_pass(engine, ws, factors, radii=radii)
    monkeypatch.setattr(quadrature, "BLOCK_BYTES", 37 * 12 * space.dim**3)
    split = flux_pass(engine, ws, factors, radii=radii)
    assert split.nodes == whole.nodes == 416
    for a, b in ((whole.q, split.q), (whole.c, split.c), (whole.df, split.df)):
        scale = np.max(np.abs(a), axis=(-2, -1))
        assert np.all(np.max(np.abs(a - b), axis=(-2, -1)) <= 1e-14 * scale) and np.all(scale > 0)
        assert np.array_equal(b, np.swapaxes(b, -2, -1))


def test_flux_pass_memory_stays_bounded_as_the_rule_is_refined(engine):
    """m = 5 shells of 20,000 nodes (fiber 16) keep the traced peak of a flux pass within 1.5x of its
    peak at 2,500 nodes (fiber 2): each shell is streamed in node blocks, never held whole.  The request of
    30 directions keeps the 1,250-direction product rule, so the fine shells span ten blocks."""
    import tracemalloc

    space = ModelSpace(m=5)
    ws = WeylStructure(space, kaluza_perturbation(space, mu=1.0), radial_lee(space, 0.4))

    def peak(fiber):
        tracemalloc.start()
        try:
            flux_pass(engine, ws, quad=QuadratureSpec(sphere=30, fiber=fiber))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-call allocations are not the pass's
    coarse, fine = peak(2), peak(16)
    assert fine <= 1.5 * coarse, (coarse, fine)


def test_shell_forms_refuse_indefinite_metric(model, engine):
    """mu = -1 makes g negative at r < 2: the flux pass raises instead of integrating."""
    ws = WeylStructure(model, kaluza_perturbation(model, mu=-1.0), radial_lee(model, 0.4))
    with pytest.raises(ChartDomainError, match="not positive definite"):
        mass_matrix(engine, ws, radii=geometric_radii(1.5, 12.0, 6))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_metric_not_finite_at_flux_nodes_is_refused_as_not_positive_definite(request, engine, chart, bad):
    """A metric that is NaN or infinite only at the flux nodes of r = 40 nearest the X1 axis is refused with
    the ChartDomainError of the definiteness check, under the CLI's errstate: the Cholesky kernel reports
    its non-finite pivots instead of raising FloatingPointError ("numerical failure"), and the message says
    that g is not finite there, where it named a NaN eigenvalue."""
    from weylmass import autodiff as am

    space = request.getfixturevalue(chart)
    smooth = kaluza_perturbation(space, mu=1.0)

    def fn(c):
        x = [am.value(c[a]) for a in range(space.m)]
        hole = (x[0] > 39.2) & (np.sqrt(sum(v * v for v in x)) < 40.01)
        return [[am.where(hole, bad, e) for e in row] for row in smooth.fn(c)]

    ws = WeylStructure(space, MetricFamily("holed", space, fn), radial_lee(space, 0.4))
    with pytest.raises(ChartDomainError) as exc, np.errstate(over="raise", divide="raise", invalid="raise"):
        mass_matrix(engine, ws, radii=[40.0, 80.0])
    assert str(exc.value).startswith("metric 'holed' is not positive definite on the flux shell r=40 ")
    assert str(exc.value).endswith(" (g is not finite there)")


# --- Riemannian mass -----------------------------------------------------------------


def test_flat_product_mass_zero_all_directions(model, engine):
    ws = WeylStructure(model, flat_product(model), zero_lee(model))
    _, q_matrix, reports = mass_matrix(engine, ws)
    for z in (0, 1, 2, np.array([1.0, -2.0, 0.5])):
        z = horizontal_field(model, z)
        assert abs(z @ q_matrix @ z) < 1e-8
    for rep in reports.values():
        assert abs(rep.q_limit) < 1e-8
        assert rep.converged


def test_quadratic_scaling(model, engine):
    """The per-direction oracle route scales quadratically in Z."""
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    base = direction_limits(engine, ws, np.array([1.0, 0.5, -0.25]))[0]
    for lam in (-1.0, 2.0, 3.0):
        scaled = direction_limits(engine, ws, lam * np.array([1.0, 0.5, -0.25]))[0]
        assert abs(scaled - lam**2 * base) < 1e-8


def test_kaluza_mass_sympy_angular_oracle(model, engine):
    """Closed-form surface integral of the Kaluza flux density: Q = 4 mu / 3."""
    mu = 1.3
    th, ph, u = sp.symbols("theta phi u", real=True)
    # q(nu) * r^2 on the sphere: mu (1 + u1^2) with u1 = sin(theta) cos(phi)
    integrand = mu * (1 + (sp.sin(th) * sp.cos(ph)) ** 2) * sp.sin(th)
    total = sp.integrate(sp.integrate(integrand, (ph, 0, 2 * sp.pi)), (th, 0, sp.pi))
    expected_Q = float(total / (4 * sp.pi))  # fiber length cancels in the normalization
    assert expected_Q == pytest.approx(4 * mu / 3)

    ws = WeylStructure(model, kaluza_perturbation(model, mu=mu), zero_lee(model))
    rep = x1_report(engine, ws)
    assert rep.q_limit == pytest.approx(expected_Q, abs=1e-10)


def test_kaluza_mass_refined_quadrature_oracle(model, engine):
    """Default rule against an independent product rule at 4x density, large radius."""
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    rep = x1_report(engine, ws)
    norm = sphere_volume(3) * model.L
    pts, weights, normals = shell_nodes(model, 250.0, QuadratureSpec(sphere=120, fiber=32))
    q = q_flux_components(engine, model, ws.metric, 0, pts)
    refined = flux_model_metric(model, q, normals, weights) / norm
    assert rep.q_limit == pytest.approx(refined, abs=1e-9)


def test_mass_report_diagnostics(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    rep = x1_report(engine, ws)
    assert rep.omega_n == pytest.approx(4 * math.pi)
    assert rep.fiber_length == pytest.approx(model.L)
    assert rep.converged
    rows = rep.csv_rows()
    assert len(rows) == len(rep.radii)
    assert math.isnan(rows[0][3]) and rows[-1][3] == pytest.approx(rep.q_limit + rep.correction_limit)
    d = rep.as_dict()
    assert d["mass"] == rep.mass and d["quadrature"]["sphere"] == 26
    assert d["shell_nodes"] == 26 * 16


def test_mass_report_counts_nodes_actually_used(model, engine):
    """The sphere request is rounded to a rule; the report gives the nodes of that rule: the symmetric rule up
    to 26 directions (26 at m = 3, 82 at m = 5), the product rule above (2 * 6^3 directions at m = 4)."""
    ws = WeylStructure(model, flat_product(model), zero_lee(model))
    rep = x1_report(engine, ws, quad=QuadratureSpec(sphere=10, fiber=3))
    assert rep.as_dict()["shell_nodes"] == 26 * 3
    space = ModelSpace(m=5)
    ws5 = WeylStructure(space, flat_product(space), zero_lee(space))
    rep5 = x1_report(engine, ws5, quad=QuadratureSpec(sphere=26, fiber=1))
    assert rep5.as_dict()["shell_nodes"] == 82
    space = ModelSpace(m=4)
    ws4 = WeylStructure(space, flat_product(space), zero_lee(space))
    rep4 = x1_report(engine, ws4, quad=QuadratureSpec(sphere=36, fiber=1))
    assert rep4.as_dict()["shell_nodes"] == 432


def test_nonconvergent_flux_is_flagged(model, engine, skip_weyl_alf_probes):
    from weylmass import autodiff as am

    def osc_fn(coords):
        r = am.sqrt(coords[0] ** 2 + coords[1] ** 2 + coords[2] ** 2)
        V = 1.0 + am.sin(r) / r
        rows = []
        for i in range(4):
            rows.append([(V if i == j and i < 3 else (1.0 if i == j else 0.0)) for j in range(4)])
        return rows

    fam = MetricFamily("oscillating", model, osc_fn)
    ws = WeylStructure(model, fam, zero_lee(model))
    rep = x1_report(engine, ws)
    assert not rep.converged


def test_mass_report_converged_iff_last_gap_within_tolerance():
    """``converged`` is derived from the report's numbers: the totals Q + C of the last two shells differ by less
    than tol_conv * max(1, |last total|), the scale 1 below |total| = 1; its record writes that verdict."""
    from weylmass.mass import MassReport

    cases = {(0.0, 0.99e-6): True, (0.0, 1.01e-6): False, (1000.0, 1000.000999): True, (1000.0, 1000.001001): False}
    for (before, last), converged in cases.items():
        # the totals split between Q and C, so the rule reads their sums
        rep = MassReport("1*X1", [40.0, 80.0, 160.0], [5.0, before - 0.25, last - 0.5], [0.0, 0.25, 0.5], last, 0.0,
                         1e-6, 4 * math.pi, 2 * math.pi, {}, 416, -1.0, "symmetric", None)
        assert rep.converged is converged, (before, last)
        assert rep.as_dict()["converged"] is rep.converged


def test_mass_requires_alf_decay(model, engine, monkeypatch):
    """flux_pass, gauge_audit and mass_matrix each run the Weyl-ALF probes, which no argument skips: a metric
    conformal to the flat product by a sqrt-slow factor, and the slow_tail metric, whose deviation decays as
    r^(-1/2), are refused before any shell form."""
    from weylmass.families import sqrt_slow_profile

    calls = _count_shell_contractions(monkeypatch)
    for fam in (conformal_sweep(flat_product(model), sqrt_slow_profile(model, beta=1.0)), slow_tail(model, mu=1.0)):
        ws = WeylStructure(model, fam, zero_lee(model))
        for run in (lambda: flux_pass(engine, ws), lambda: gauge_audit(engine, ws, [radial_profile(model, beta=0.3)]),
                    lambda: mass_matrix(engine, ws)):
            with pytest.raises(MassNotDefinedError, match=re.escape(f"metric family '{fam.name}' fails decay probes")):
                run()
    assert calls == []


def test_flux_radii_validation(model, engine, monkeypatch):
    """Both entry points refuse fewer than two radii, radii that do not increase strictly or that do not
    exceed R, with a ValueError before any flux work."""
    import weylmass.mass as mass_mod

    calls = []
    monkeypatch.setattr(mass_mod, "node_blocks", lambda *args: calls.append(args))
    ws = WeylStructure(model, flat_product(model), zero_lee(model))
    for radii in ([0.5, 2.0], [40.0, 30.0], [80.0], [80.0, 80.0], [], [40.0, float("nan")]):
        with pytest.raises(ValueError, match="flux radii"):
            mass_matrix(engine, ws, radii=radii)
        with pytest.raises(ValueError, match="flux radii"):
            gauge_audit(engine, ws, [radial_profile(model, beta=0.3)], radii=radii)
    assert calls == []


def test_oracle_direction_validation(model):
    with pytest.raises(ValueError):
        horizontal_field(model, 5)
    with pytest.raises(ValueError):
        horizontal_field(model, np.array([1.0, 2.0]))


# --- conformal mass ---------------------------------------------------------------------


def test_conformal_mass_reduces_to_q_at_zero_lee(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    rep = x1_report(engine, ws)
    assert rep.correction_limit == 0.0
    assert rep.mass == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_conformal_mass_compact_lee_correction_vanishes(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0),
                       compact_lee(model, amplitude=0.5, r0=2.0, r1=4.0))
    rep = x1_report(engine, ws)
    assert abs(rep.correction_limit) < 1e-14
    assert rep.mass == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_conformal_correction_sympy_angular_oracle(model, engine):
    """theta = a r^(-2) dr: correction = -5a/3 by the closed-form angular integral."""
    a = 0.45
    th, ph = sp.symbols("theta phi", real=True)
    u1 = sp.sin(th) * sp.cos(ph)
    # G(nu) r^2 = -2 a u1^2 - a on the unit sphere (m = 3, Z = X1)
    integrand = (-2 * a * u1**2 - a) * sp.sin(th)
    total = sp.integrate(sp.integrate(integrand, (ph, 0, 2 * sp.pi)), (th, 0, sp.pi))
    expected_correction = float(total / (4 * sp.pi))
    assert expected_correction == pytest.approx(-5 * a / 3)

    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), radial_lee(model, amplitude=a))
    rep = x1_report(engine, ws)
    assert rep.correction_limit == pytest.approx(expected_correction, abs=1e-10)
    assert rep.mass == pytest.approx(4.0 / 3.0 - 5 * a / 3, abs=1e-9)


def test_conformal_mass_refuses_bad_lee_decay(model, engine):
    from weylmass.families import LeeFormField

    slow = LeeFormField("slow", model, lambda c: [0.3, 0.0, 0.0, 0.0])
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), slow)
    with pytest.raises(MassNotDefinedError):
        mass_matrix(engine, ws)


# --- conformal change law ------------------------------------------------------------------


def test_prediction_zero_for_unit_factor(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    _, rep = gauge_audit(engine, ws, [unit_scalar(model)])[0]
    assert abs(rep.predicted_delta) < 1e-14
    assert abs(rep.direct_delta) < 1e-10


def test_prediction_matches_direct_recompute(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    for f in (radial_profile(model, beta=0.3), radial_profile(model, beta=-0.2),
              random_adapted_scalar(model, seed=2)):
        _, rep = gauge_audit(engine, ws, [f])[0]
        assert rep.rel_error < 1e-4, f"{f.name}: {rep.rel_error}"


def test_prediction_kaluza_closed_form(model, engine):
    # f = 1 + beta/r on the Kaluza profile: delta Q = 5 beta / 6 exactly
    beta = 0.3
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    _, rep = gauge_audit(engine, ws, [radial_profile(model, beta=beta)])[0]
    assert rep.predicted_delta == pytest.approx(5 * beta / 6, abs=1e-10)
    assert rep.direct_delta == pytest.approx(5 * beta / 6, abs=1e-8)


def test_prediction_compact_gradient_gives_zero(model, engine):
    from weylmass import autodiff as am
    from weylmass.families import ScalarField

    def fn(c):
        r = am.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
        s = (2.0 * r - 6.0) / 2.0
        u = 1.0 - s * s
        return 1.0 + 0.2 * am.where(am.value(u) > 0.0, u * u * u * u, 0.0)

    f = ScalarField("compact_factor", model, fn)
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    _, rep = gauge_audit(engine, ws, [f])[0]
    assert abs(rep.predicted_delta) < 1e-14
    assert abs(rep.direct_delta) < 1e-8


def test_prediction_rejects_non_adapted_factor(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    with pytest.raises(MassNotDefinedError):
        gauge_audit(engine, ws, [log_slow_profile(model)])


# --- gauge invariance ------------------------------------------------------------------------


def test_invariance_unit_factor_exact(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), radial_lee(model, 0.4))
    rep = gauge_audit(engine, ws, [unit_scalar(model)])[0][0][0]
    assert rep.abs_difference < 1e-12
    assert rep.passed


def test_invariance_kaluza_with_lee(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), radial_lee(model, 0.4))
    f = radial_profile(model, beta=0.5)
    rep = gauge_audit(engine, ws, [f])[0][0][0]
    assert rep.rel_difference < 1e-4
    assert rep.passed


def test_invariance_zero_lee_termwise_cancellation(model, engine):
    """theta = 0: the mass-shift prediction must cancel the induced Lee correction."""
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    f = radial_profile(model, beta=0.4)
    _, pred = gauge_audit(engine, ws, [f])[0]
    from weylmass.weyl import gauge_change

    ws2 = gauge_change(ws, f)
    rep2 = x1_report(engine, ws2)
    # Q_{fg} - Q_g == - correction(theta_{fg}) up to the audit tolerance
    assert pred.direct_delta == pytest.approx(-rep2.correction_limit, rel=1e-5)
    base = x1_report(engine, ws).mass
    assert rep2.mass == pytest.approx(base, rel=1e-6)


def test_invariance_across_random_adapted_factors(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), radial_lee(model, 0.4))
    for seed in range(5):
        f = random_adapted_scalar(model, seed=seed)
        rep = gauge_audit(engine, ws, [f])[0][0][seed % 3]
        assert rep.rel_difference < 1e-4, f"seed {seed}: {rep.rel_difference}"


def _audit_against_single_passes(space, engine, base, f, swept_equal):
    """Run a one-factor audit and set every report against ``mass_matrix`` on each gauge alone.

    The swept gauge's metric is differentiated directly there, not by the product rule: the swept
    masses are compared with ``swept_equal``, as are the Q limits.  Both routes read the Lee form
    theta - df/(2f) of gauge f g off the factor's jet1 (``lee_jet`` there).  The base masses and Q
    limits are equal, and so is the predicted shift: half the correction limit of a structure whose Lee
    form is the factor's df.  That Lee form is read off a jet of its own, which the probe grid's Lee jet
    cannot differentiate, so its ``mass_matrix`` runs with the gauge probes stubbed out; the per-direction
    route (``direction_limits``) gives the same shift to roundoff.
    """
    import weylmass.mass as mass_mod
    from weylmass.families import LeeFormField
    from weylmass.weyl import gauge_change

    ws = WeylStructure(space, base, radial_lee(space, 0.4))
    radii = geometric_radii(40.0, 320.0, 4)
    quad = QuadratureSpec(sphere=26, fiber=4)

    def reports(w):
        return mass_matrix(engine, w, radii=radii, quad=quad)[2]

    audits, pred = gauge_audit(engine, ws, [f], radii=radii, quad=quad)[0]
    assert [a.z_label for a in audits] == ["1*X1", "1*X2", "1*X3"]
    base_reports, gauged_reports = reports(ws), reports(gauge_change(ws, f))
    for audit in audits:
        assert audit.mass_base == base_reports[audit.z_label].mass
        swept_equal(audit.mass_swept, gauged_reports[audit.z_label].mass)
    swept = WeylStructure(space, conformal_sweep(ws.metric, f), ws.lee)
    assert pred.base_mass == base_reports["1*X1"].q_limit
    swept_equal(pred.swept_mass, reports(swept)["1*X1"].q_limit)
    df_lee = LeeFormField("df", space, lambda c: frame_jet1(engine, space, f.as_field(), np.asarray(c))[1])
    df_ws = WeylStructure(space, base, df_lee)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mass_mod, "_probe_gauges", lambda *args: None)
        correction = reports(df_ws)["1*X1"].correction_limit
    assert pred.predicted_delta == 0.5 * correction
    direct = direction_limits(engine, df_ws, np.eye(space.m)[0], radii, quad)[1]
    assert pred.predicted_delta == pytest.approx(0.5 * direct, rel=1e-14, abs=1e-16)


def test_lee_form_that_cannot_take_taylor_jets_is_refused_by_name(model, engine):
    """A Lee form read off a jet of its own (the df Lee form of ``_audit_against_single_passes``) cannot take
    the dual engine's Taylor seeds: ``mass_matrix`` refuses it in one line that names it, a ValueError,
    not numpy's bare message from inside the evaluator."""
    from weylmass.errors import JetError
    from weylmass.families import LeeFormField

    f = radial_profile(model, beta=0.3)
    df_lee = LeeFormField("df", model, lambda c: frame_jet1(engine, model, f.as_field(), np.asarray(c))[1])
    with pytest.raises(JetError) as info:
        mass_matrix(engine, WeylStructure(model, kaluza_perturbation(model, mu=1.0), df_lee),
                    radii=geometric_radii(40.0, 320.0, 4), quad=QuadratureSpec(sphere=26, fiber=4))
    # the reason after the colon is numpy's own message, which numpy may word differently
    message = str(info.value)
    assert isinstance(info.value, ValueError) and "\n" not in message
    assert message.startswith("field 'df' cannot take Taylor jets: ")


def _to_roundoff(got, want):
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_gauge_audit_reads_every_report_off_two_passes(model, hopf_space, engine, skip_weyl_alf_probes):
    """In dual mode the audit's base reports and predicted shift equal the single-gauge pipelines bitwise,
    and its swept masses and Q limits equal them to 1e-14 relative.

    The swept forms come from g's integrands by the product rule, summed over the nodes in a different
    order than on the jet of f g, so they agree to roundoff, not bitwise.  The swept masses also hold the
    Lee form of f g, which both routes form as theta - df/(2f) off the factor's jet1.  Both charts, a base
    that returns a nested list of jets (``kaluza_perturbation``) and one that
    returns an array-valued jet (``random_local_metric``), and three factors.
    """
    from weylmass.families import directional_profile, random_local_metric

    for space in (model, hopf_space):
        for fam in (kaluza_perturbation(space, mu=1.0), random_local_metric(space, [4])):
            for f in (radial_profile(space, beta=0.3), random_adapted_scalar(space, seed=3),
                      directional_profile(space, beta=0.3)):
                _audit_against_single_passes(space, engine, fam, f, _to_roundoff)


@pytest.mark.parametrize("factor", [lambda s: radial_profile(s, beta=0.3),
                                    lambda s: random_adapted_scalar(s, seed=3)])
def test_gauge_audit_fd_swept_jets_match_direct_fd(hopf_space, fd_engine, factor, tmp_path):
    """On the FD route the product rule on FD jets of f and g agrees with the FD jet of f g to 1e-8.

    Then the Hopf sweep of radial_profile at beta 0.2 and 0.4, with this factor appended, runs as
    ``weylmass sweep`` runs that config but on the FD route: every audit and prediction passes at 1e-4.
    """
    from weylmass.cli import RunConfig, build_parser

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-8, abs=0.0)

    _audit_against_single_passes(hopf_space, fd_engine, kaluza_perturbation(hopf_space, mu=1.0),
                                 factor(hopf_space), close)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"model": {"fibration": "hopf"},
                                "sweep": {"name": "radial_profile", "param": "beta", "values": [0.2, 0.4]}}))
    cfg = RunConfig.load(str(path), build_parser().parse_args(["sweep"]))
    tol = cfg.config["tolerances"]["mass"]
    assert tol == 1e-4
    results = gauge_audit(fd_engine, cfg.structure, cfg.factors + [factor(cfg.model)], radii=cfg.radii,
                          quad=cfg.quad, tolerance=tol)
    assert len(results) == 3
    for audits, pred in results:
        assert all(audit.passed for audit in audits), [audit.rel_difference for audit in audits]
        assert pred.rel_error < tol, pred.rel_error


def _count_shell_contractions(monkeypatch) -> list:
    """Names of the metrics whose shell forms are contracted, one list of every gauge's per block."""
    import weylmass.mass as mass_mod

    calls = []
    contract = mass_mod._contract_shell

    def counted(model, names, *args):
        calls.append(list(names))
        return contract(model, names, *args)

    monkeypatch.setattr(mass_mod, "_contract_shell", counted)
    return calls


def test_gauge_audit_sweep_takes_one_base_pass(hopf_space, monkeypatch):
    """N factors on R radii cost R metric jets, R stacked factor jets (no jet of a factor on its own), R shell
    contractions (each of all N + 1 gauges), R calls of the Cholesky kernel ``gram_factor`` and R evaluations
    of the h-Christoffel coefficients, plus one for the metric probes of g and of the first swept gauge
    together; no f g is differentiated.

    Each factor's reports equal a one-factor call.
    """
    import weylmass.mass as mass_mod
    from weylmass.engine import DerivativeEngine

    engine = DerivativeEngine()
    ws = WeylStructure(hopf_space, kaluza_perturbation(hopf_space, mu=1.0), radial_lee(hopf_space, 0.4))
    radii = geometric_radii(40.0, 320.0, 3)
    quad = QuadratureSpec(sphere=6, fiber=2)
    factors = [radial_profile(hopf_space, beta=0.2), random_adapted_scalar(hopf_space, seed=5),
               radial_profile(hopf_space, beta=0.45)]
    calls = _count_shell_contractions(monkeypatch)
    jets = []
    jet1 = engine.jet1
    monkeypatch.setattr(engine, "jet1", lambda fld, coords: jets.append(fld.name) or jet1(fld, coords))
    lc_calls = []
    lc_coeffs_h = ModelSpace.lc_coeffs_h
    monkeypatch.setattr(ModelSpace, "lc_coeffs_h",
                        lambda self, coords: lc_calls.append(1) or lc_coeffs_h(self, coords))
    factor_calls = []
    gram_factor = mass_mod.gram_factor
    monkeypatch.setattr(mass_mod, "gram_factor", lambda g: factor_calls.append(g.shape) or gram_factor(g))
    results = gauge_audit(engine, ws, factors, radii=radii, quad=quad)
    assert len(lc_calls) == len(radii) + 1
    assert len(factor_calls) == len(radii)
    swept_names = [conformal_sweep(ws.metric, f).name for f in factors]
    assert calls == [[ws.metric.name] + swept_names] * len(radii)
    assert jets.count(ws.metric.name) == len(radii)
    assert not [name for name in jets if name.startswith("conformal_sweep(")]
    assert jets.count(stacked_factors(factors).name) == len(radii)
    assert sum(jets.count(name) for name in {f.name for f in factors}) == 0
    assert len(results) == len(factors)
    for f, (audits, pred) in zip(factors, results):
        alone_audits, alone_pred = gauge_audit(engine, ws, [f], radii=radii, quad=quad)[0]
        assert [a.factor for a in audits] == [f.name] * hopf_space.m
        assert audits == alone_audits
        assert pred == alone_pred


def _stacked(f_jets) -> tuple:
    """The factor jets of one block stacked as ``_contract_shell`` takes them: f (F, N) and df (d, F, N)."""
    return np.array([f for f, _ in f_jets]), np.stack([df for _, df in f_jets], axis=1)


def test_probed_gauges_share_one_h_connection(hopf_space, engine, monkeypatch):
    """A Hopf sweep probes g and its first swept gauge on one grid: h's connection there (``lc_coeffs_h`` and
    ``structure_jacobian`` on the probe grid) is taken once and handed to both metric probe suites."""
    from weylmass.probes import probe_grid

    grid = probe_grid(hopf_space)
    calls = []
    for name in ("lc_coeffs_h", "structure_jacobian"):
        method = getattr(ModelSpace, name)
        monkeypatch.setattr(ModelSpace, name, lambda self, coords, name=name, method=method:
                            calls.append((name, np.shape(coords) == grid.shape and np.array_equal(coords, grid)))
                            or method(self, coords))
    ws = WeylStructure(hopf_space, kaluza_perturbation(hopf_space, mu=1.0), radial_lee(hopf_space, 0.4))
    factors = [radial_profile(hopf_space, beta=0.2), radial_profile(hopf_space, beta=0.4)]
    flux_pass(engine, ws, factors, radii=[40.0, 80.0], quad=QuadratureSpec(sphere=6, fiber=2))
    assert [call for call in calls if call[1]] == [("structure_jacobian", True), ("lc_coeffs_h", True)]


def test_holonomic_flux_and_probes_build_no_connection_terms(model, engine, monkeypatch):
    """On the trivial chart the flux pass, the sweep with decay probes, the Weyl-ALF probes and the Lie
    bracket never build h's Christoffel coefficients or the frame brackets, and each shell's forms of
    every gauge (Q_r, C_r and the df forms) equal, bitwise, the contraction fed the explicit zero
    h-Christoffel array."""
    import weylmass.mass as mass_mod
    from weylmass.identities import random_vector_field
    from weylmass.probes import require_weyl_alf
    from weylmass.weyl import lie_bracket

    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), radial_lee(model, 0.4))
    radii = geometric_radii(40.0, 320.0, 3)
    quad = QuadratureSpec(sphere=6, fiber=2)
    factors = [radial_profile(model, beta=0.2), random_adapted_scalar(model, seed=5)]
    lc_coeffs_h = ModelSpace.lc_coeffs_h
    calls = []
    for name in ("lc_coeffs_h", "structure_constants", "structure_jacobian"):
        method = getattr(ModelSpace, name)
        monkeypatch.setattr(ModelSpace, name, lambda self, coords, name=name, method=method:
                            calls.append(name) or method(self, coords))
    mass_matrix(engine, ws, radii=radii, quad=quad)
    gauge_audit(engine, ws, factors, radii=radii, quad=quad)
    require_weyl_alf(ws, probe_jet(engine, ws.metric), probe_lee_jet(engine, ws.lee), probe_h_jet(model))
    rng = np.random.default_rng(3)
    lie_bracket(engine, model, random_vector_field(model, [rng]), random_vector_field(model, [rng]),
                model.point([2.0, 0.5, -1.0], 0.1))
    forms = flux_pass(engine, ws, factors, radii=radii, quad=quad)
    assert calls == []

    norm = sphere_volume(model.m) * model.L
    for s, r in enumerate(radii):
        pts, weights, normals = shell_nodes(model, r, quad)
        gam = lc_coeffs_h(model, pts)
        assert gam.shape == (4, 4, 4, pts.shape[1]) and not np.any(gam)
        jet = engine.jet1(ws.metric.as_field(), pts)
        theta = lee_jet(engine, ws.lee, pts)
        f, df = _stacked([engine.jet1(f.as_field(), pts) for f in factors])
        q, c, df_forms, _ = mass_mod._contract_shell(model, ["g", "f g", "f' g"], *jet, theta, f, df, pts,
                                                     weights * normals, gam)
        assert np.array_equal(forms.q[:, s], q / norm) and np.array_equal(forms.c[:, s], c / norm)
        assert np.array_equal(forms.df[:, s], df_forms / norm)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is double here")
@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_swept_forms_are_no_farther_from_longdouble_than_the_per_gauge_route(request, engine, chart):
    """The swept (Q, C) that ``_contract_shell`` forms from g's integrands by the product rule are, over
    two bases, three factors and two radii, no farther from a ``np.longdouble`` evaluation of the same
    float jets than the per-gauge route: the jet of f g by ``rescaled_jet``, contracted as a gauge of its
    own."""
    from weylmass.families import directional_profile, random_local_metric
    from weylmass.mass import _contract_shell

    space = request.getfixturevalue(chart)
    factors = [radial_profile(space, beta=0.3), random_adapted_scalar(space, seed=3),
               directional_profile(space, beta=0.3)]
    err = {"kernel": 0.0, "per_gauge": 0.0}
    for fam in (kaluza_perturbation(space, mu=1.0), random_local_metric(space, [4])):
        ws = WeylStructure(space, fam, radial_lee(space, 0.4))
        for r in (40.0, 320.0):
            pts, weights, normals = shell_nodes(space, r, QuadratureSpec())
            wn, gam = weights * normals, space.lc_coeffs_h(pts)
            gam_or_none = None if space.holonomic else gam
            jet, theta = engine.jet1(fam.as_field(), pts), lee_jet(engine, ws.lee, pts)
            f_jets = [engine.jet1(f.as_field(), pts) for f in factors]
            q, c, _, _ = _contract_shell(space, ["g"] * 4, *jet, theta, *_stacked(f_jets), pts, wn, gam_or_none)
            for k, f_jet in enumerate(f_jets, 1):
                want = longdouble_shell_forms(space, jet, theta, f_jet, pts, wn, gam)
                scale = max(float(np.max(np.abs(w))) for w in want)
                per_gauge = per_gauge_shell_forms(space, "f g", jet, theta, f_jet, pts, wn, gam_or_none)
                for route, got in (("kernel", (q[k], c[k])), ("per_gauge", per_gauge)):
                    err[route] = max(err[route], *(float(np.max(np.abs(a - b))) / scale
                                                   for a, b in zip(got, want)))
    assert 0.0 < err["kernel"] <= err["per_gauge"] < 1e-13, err


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan])
@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_factor_not_positive_at_flux_nodes_past_the_probes_is_refused_as_before(request, engine, chart, bad):
    """A factor that is zero, negative or NaN only at the flux nodes of r = 40 nearest the X1 axis passes
    the positivity and adapted-class probes, which do not sample there.  The flux pass then raises the
    ChartDomainError of the per-gauge route on the same block, which factorizes the gram of f g: the
    message names the swept metric, the shell and the smallest eigenvalue."""
    from weylmass import autodiff as am
    from weylmass.engine import DerivativeEngine
    from weylmass.families import ScalarField

    space = request.getfixturevalue(chart)
    smooth = radial_profile(space, beta=0.4)

    def fn(c):
        x = [am.value(c[a]) for a in range(space.m)]
        dent = (x[0] > 39.2) & (np.sqrt(sum(v * v for v in x)) < 40.01)
        return am.where(dent, bad, smooth.fn(c))

    dented = ScalarField("dented", space, fn)
    ws = WeylStructure(space, kaluza_perturbation(space, mu=1.0), radial_lee(space, 0.4))
    pts, weights, normals = shell_nodes(space, 40.0, QuadratureSpec())
    f_jet = engine.jet1(dented.as_field(), pts)
    assert 0 < np.sum(~(f_jet[0] > 0)) < pts.shape[1]
    with pytest.raises(ChartDomainError) as want, np.errstate(invalid="ignore"):  # theta - df/(2f) at f = 0
        per_gauge_shell_forms(space, conformal_sweep(ws.metric, dented).name, engine.jet1(ws.metric.as_field(), pts),
                              lee_jet(engine, ws.lee, pts), f_jet, pts, weights * normals,
                              None if space.holonomic else space.lc_coeffs_h(pts))
    assert "conformal_sweep(kaluza_perturbation,dented)' is not positive definite on the flux shell r=40 " \
        in str(want.value)
    with pytest.raises(ChartDomainError) as got:
        gauge_audit(DerivativeEngine(), ws, [radial_profile(space, beta=0.2), dented], radii=[40.0, 80.0, 160.0])
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_swept_decay_probe_reads_f_g_off_the_probe_jets(request, monkeypatch, chart):
    """A sweep takes one probe-grid jet2 of g and one of its stacked factors, and no jet of any f g: the first
    swept gauge's metric probes read f g off g's and f's jet2 by the second-order product rule.  Those probes
    equal the ones of a direct jet2 of f g in pass/fail, and in norms and slopes to 1e-14, for a factor with
    an angular df and an off-diagonal ddf."""
    from weylmass.engine import DerivativeEngine, frame_jet2
    from weylmass.families import directional_profile
    from weylmass.probes import metric_probes, probe_grid, rescaled_frame_jet2
    from weylmass.weyl import gauge_change

    space = request.getfixturevalue(chart)
    ws = WeylStructure(space, kaluza_perturbation(space, mu=1.0), radial_lee(space, 0.4))
    factors = [directional_profile(space, beta=0.3), radial_profile(space, beta=0.2)]
    jets = []
    jet2 = DerivativeEngine.jet2
    monkeypatch.setattr(DerivativeEngine, "jet2", lambda self, fld, c: jets.append(fld.name) or jet2(self, fld, c))
    engine = DerivativeEngine()
    flux_pass(engine, ws, factors, radii=[40.0, 80.0], quad=QuadratureSpec(sphere=6, fiber=2))
    assert jets.count(ws.metric.name) == 1
    assert not [name for name in jets if name.startswith("conformal_sweep(")]

    pts = probe_grid(space)
    f_jet, g_jet = (frame_jet2(engine, space, fld.as_field(), pts) for fld in (factors[0], ws.metric))
    swept = gauge_change(ws, factors[0]).metric
    h_jet = probe_h_jet(space)
    direct = metric_probes(space, swept.name, probe_jet(engine, swept), h_jet)
    for want, got in zip(direct, metric_probes(space, swept.name, rescaled_frame_jet2(f_jet, g_jet), h_jet), strict=True):
        assert (got.name, got.passed) == (want.name, want.passed) and want.passed
        assert got.norms == pytest.approx(want.norms, rel=1e-14, abs=0.0)
        assert got.slope == pytest.approx(want.slope, rel=1e-14)


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_swept_lee_probes_read_theta_f_g_off_the_probe_jets(request, monkeypatch, chart):
    """The probes take one probe-grid jet1 of the Lee form (the base gauge's) and one jet2 of the stacked
    factors (their adapted-class probes) and nothing else of either: the first swept gauge's Lee probes read
    theta - df/(2f) off those jets by ``weyl.regauged_lee_jet``, the rule ``lee_jet`` applies.  Its probes
    equal those of a direct ``lee_jet`` of the swept Lee form, bit for bit."""
    from weylmass.engine import DerivativeEngine, frame_jet2
    from weylmass.families import directional_profile
    from weylmass.probes import lee_probes, probe_grid
    from weylmass.weyl import gauge_change, regauged_lee_jet

    space = request.getfixturevalue(chart)
    ws = WeylStructure(space, kaluza_perturbation(space, mu=1.0), radial_lee(space, 0.4))
    factors = [directional_profile(space, beta=0.3), radial_profile(space, beta=0.2)]
    jets = []
    for order in ("jet1", "jet2"):
        method = getattr(DerivativeEngine, order)
        monkeypatch.setattr(DerivativeEngine, order,
                            lambda self, fld, c, order=order, method=method: (jets.append((order, fld.name, c.shape))
                                                                               or method(self, fld, c)))
    engine = DerivativeEngine()
    flux_pass(engine, ws, factors, radii=[40.0, 80.0], quad=QuadratureSpec(sphere=6, fiber=2))
    probe_nodes = (space.dim, 40)
    assert [j for j in jets if j[2] == probe_nodes] == [("jet2", stacked_factors(factors).name, probe_nodes),
        ("jet2", ws.metric.name, probe_nodes), ("jet1", ws.lee.name, probe_nodes)]

    monkeypatch.undo()
    pts = probe_grid(space)
    swept = gauge_change(ws, factors[0]).lee
    got = lee_probes(space, swept.name, regauged_lee_jet(lee_jet(engine, ws.lee, pts, order=1),
                                                         frame_jet2(engine, space, factors[0].as_field(), pts)))
    want = lee_probes(space, swept.name, probe_lee_jet(engine, swept))
    assert all(w.passed for w in want)
    assert [(r.name, r.passed, r.norms, r.slope) for r in got] == [(r.name, r.passed, r.norms, r.slope) for r in want]


@pytest.mark.parametrize("mode", ["dual", "fd"])
def test_flux_pass_probes_take_one_jet_per_field(model, monkeypatch, mode):
    """On the probe grid a one-factor sweep takes one jet2 of the stacked factors, one jet2 of g and one jet1
    of its Lee form, in that order, and nothing else: the swept gauge's probes read their jets off these."""
    from weylmass.engine import DerivativeEngine

    cls = {"dual": DerivativeEngine, "fd": FDEngine}[mode]
    jets = []
    for method in ("jet1", "jet2"):
        original = getattr(cls, method)

        def counted(self, fld, coords, method=method, original=original):
            jets.append((method, fld.name, np.shape(coords)))
            return original(self, fld, coords)

        monkeypatch.setattr(cls, method, counted)
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), radial_lee(model, 0.5))
    factors = [radial_profile(model, beta=0.3)]
    flux_pass(cls(), ws, factors, radii=[40.0, 80.0], quad=QuadratureSpec(sphere=6, fiber=2))
    grid = probe_grid(model).shape
    assert [j[:2] for j in jets if j[2] == grid] == [
        ("jet2", stacked_factors(factors).name), ("jet2", ws.metric.name), ("jet1", ws.lee.name)]


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_stacked_factor_jets_equal_the_per_factor_jets_bitwise(request, engine, chart):
    """The jet of ``stacked_factors`` equals each factor's own jet bit for bit: value and frame gradient
    (``frame_jet1``) on a flux shell, value, frame gradient and frame Hessian (``frame_jet2``) on the probe
    grid.  The fiber-dependent factor between two that are not makes ``frame_from_coord`` convert the
    whole stack on the Hopf chart, where the others alone would be returned as they are."""
    from weylmass import autodiff as am
    from weylmass.engine import frame_jet2
    from weylmass.families import ScalarField
    from weylmass.probes import probe_grid

    space = request.getfixturevalue(chart)
    smooth = radial_profile(space, beta=0.3)

    def fn(c):
        return smooth.fn(c) + 0.1 * am.sin(2.0 * math.pi * c[space.m] / space.L)

    fiber = ScalarField("fiber_wave", space, fn)
    factors = [radial_profile(space, beta=0.2), fiber, random_adapted_scalar(space, seed=5)]
    stacked = stacked_factors(factors)
    pts = shell_nodes(space, 40.0, QuadratureSpec())[0]
    for frame_jet, grid in ((frame_jet1, pts), (frame_jet2, probe_grid(space))):
        got = frame_jet(engine, space, stacked, grid)
        assert got[0].shape == (3, grid.shape[1])
        for k, f in enumerate(factors):
            want = frame_jet(engine, space, f.as_field(), grid)
            assert np.any(want[1][space.m]) == (f is fiber)
            for g, w in zip(got, want, strict=True):
                assert np.ascontiguousarray(g[..., k, :]).tobytes() == np.ascontiguousarray(w).tobytes()


def _hand_built_factor(space):
    """A factor that reads r by ``_radius`` itself, not through the shared jets, and varies along the fiber."""
    from weylmass import autodiff as am
    from weylmass.families import ScalarField, _radius

    def fn(c):
        return 1.0 + 0.2 * _radius(c[:space.m]) ** -1 + 0.1 * am.sin(2.0 * math.pi * c[space.m] / space.L)

    return ScalarField("hand_built", space, fn)


SHARED_RADIUS_SWEEPS = {
    "beta": lambda s: [radial_profile(s, beta=b) for b in (0.1, 0.25, 0.4)],
    # distinct exponents, and an int and a float exponent of equal value (the shared jets key on the value)
    "power": lambda s: [radial_profile(s, beta=0.3, power=p) for p in (-1, -2, -1.0, 0.5, -2.0)],
    "axis": lambda s: [directional_profile(s, beta=0.3, axis=a) for a in range(s.m)],
    "mixed": lambda s: [radial_profile(s, beta=0.2), _hand_built_factor(s), directional_profile(s, axis=1),
                        log_slow_profile(s), random_adapted_scalar(s, seed=5), sqrt_slow_profile(s),
                        radial_profile(s, beta=0.3, power=-1.0)],
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("sweep", sorted(SHARED_RADIUS_SWEEPS))
@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_stacked_factors_sharing_radius_jets_equal_the_per_factor_jets_bitwise(request, engine, chart, sweep,
                                                                               reverse):
    """The factors of one stacked evaluation share the radius jet and each r**s; the stacked ``jet1`` and
    ``jet2`` and the plain values still equal each factor's own, bit for bit.  Reversing the factors
    changes which one builds each shared jet, so a factor that changed a jet it was handed would show."""
    space = request.getfixturevalue(chart)
    factors = SHARED_RADIUS_SWEEPS[sweep](space)[::-1 if reverse else 1]
    stacked = stacked_factors(factors)
    pts = np.concatenate([shell_nodes(space, 40.0, QuadratureSpec())[0], probe_grid(space)], axis=1)
    for jet in (engine.jet1, engine.jet2, lambda fld, c: (fld.values(c),)):
        got = jet(stacked, pts)
        for k, f in enumerate(factors):
            want = jet(f.as_field(), pts)
            for g, w in zip(got, want, strict=True):
                assert np.ascontiguousarray(g[..., k, :]).tobytes() == np.ascontiguousarray(w).tobytes(), f.params


@pytest.mark.parametrize("count", [1, 4, 12])
def test_stacked_factors_build_one_radius_jet_per_evaluation(model, monkeypatch, count):
    """One evaluation of ``stacked_factors`` over F radial factors of one exponent builds one radius jet and one
    r**s, not F of each; a second evaluation builds them again, so the shared jets live for one call."""
    from weylmass import autodiff as am
    from weylmass import families

    radius_calls, powers = [], []
    radius = families._radius
    monkeypatch.setattr(families, "_radius", lambda xs: radius_calls.append(1) or radius(xs))
    power = am.Taylor2.__pow__
    monkeypatch.setattr(am.Taylor2, "__pow__", lambda self, e: powers.append(e) or power(self, e))
    stacked = stacked_factors([radial_profile(model, beta=0.05 * (k + 1)) for k in range(count)])
    pts = shell_nodes(model, 40.0, QuadratureSpec())[0]
    for evaluation in (1, 2):
        stacked.fn(am.seed_point(pts, order=evaluation))
        assert (len(radius_calls), len(powers)) == (evaluation, evaluation)


def test_radial_points_equal_the_per_radius_concatenation(hopf_space):
    """The broadcast grid is, bit for bit, the directions concatenated radius by radius."""
    from weylmass.probes import PROBE_DIRECTIONS, _radial_points, direction_samples, positivity_grid

    u, t = direction_samples(hopf_space, PROBE_DIRECTIONS)
    radii, pts = positivity_grid(hopf_space, 320.0)
    for rr in (radii, list(radii[:5]), [7.5]):
        want = np.concatenate([np.concatenate([r * u, t[None, :]], axis=0) for r in rr], axis=1)
        assert _radial_points(rr, u, t).tobytes() == want.tobytes()
    assert pts.tobytes() == _radial_points(radii, u, t).tobytes()


@pytest.mark.parametrize("bad", [log_slow_profile, lambda model: radial_profile(model, beta=-3.0)])
def test_gauge_audit_refuses_any_factor_before_flux_work(model, engine, monkeypatch, bad):
    """A non-adapted or non-positive factor anywhere in the sweep is refused before the first shell form."""
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), radial_lee(model, 0.4))
    calls = _count_shell_contractions(monkeypatch)
    with pytest.raises(MassNotDefinedError):
        gauge_audit(engine, ws, [radial_profile(model, beta=0.3), bad(model)])
    assert calls == []


def test_positivity_probe_reports_the_smallest_sample(model):
    from weylmass.probes import positivity_grid, require_positive

    grid = positivity_grid(model, 320.0)
    require_positive(radial_profile(model, beta=-0.9), grid)
    require_positive(unit_scalar(model), grid)
    with pytest.raises(MassNotDefinedError, match=r"radial_profile\(beta=-3.0, power=-1\) is not positive: "
                                                  r"f = -2 at r = 1\b"):
        require_positive(radial_profile(model, beta=-3.0), grid)


# --- flux sequence rates -----------------------------------------------------------------------


def test_flux_remainder_pointwise_rate(model, engine):
    """|q_two_term - q_one_term| decays at the pointwise remainder rate r^(3-2m)."""
    fam2 = kaluza_two_term(model, mu=1.0, kappa=0.6)
    fam1 = kaluza_perturbation(model, mu=1.0)
    radii = geometric_radii(8, 128, 5)
    u = np.array([0.4, -0.8, 0.44721])
    u /= np.linalg.norm(u)

    def norm_at(r):
        p = model.point(r * u, 0.3)
        dq = q_flux_components(engine, model, fam2, 0, p) - q_flux_components(engine, model, fam1, 0, p)
        return float(np.linalg.norm(dq))

    rep = _fit_decay(radii, [norm_at(r) for r in radii], 3 - 2 * model.m, "q-remainder")
    assert rep.passed, f"slope {rep.slope}"


def test_flux_sequence_cauchy_rate(model, engine):
    """Normalized flux differences decay at the integrated rate r^(2-m)."""
    ws = WeylStructure(model, kaluza_two_term(model, mu=1.0, kappa=0.6), zero_lee(model))
    radii = list(geometric_radii(20, 320, 6))
    rep = x1_report(engine, ws, radii=radii)
    diffs = np.abs(np.diff(rep.q_values))
    assert np.all(diffs > 0)
    lx = np.log(np.asarray(radii[1:]))
    slope = np.polyfit(lx, np.log(diffs), 1)[0]
    assert slope <= (2 - model.m) + 0.3, f"fitted {slope}"


def test_richardson_limit_exact_on_model_sequence():
    radii = [10.0, 20.0, 40.0]
    values = [1.0 + 5.0 / r for r in radii]
    assert richardson_limit(radii, values, -1.0) == pytest.approx(1.0, abs=1e-14)


# --- matrix, positivity --------------------------------------------------------------------------


def test_mass_matrix_isotropy(model, engine):
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    mat, _, reports = mass_matrix(engine, ws)
    assert np.allclose(np.diag(mat), 4.0 / 3.0, atol=1e-9)
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) < 1e-6
    assert set(reports) >= {"1*X1", "1*X2", "1*X3"}


# --- non-radial oracles and the angular error of the symmetric sphere rule ------------------------

ANISOTROPIC_CHARTS = [(3, "trivial"), (3, "hopf"), (4, "trivial"), (5, "trivial")]


def random_symmetric(m: int, seed: int) -> np.ndarray:
    b = np.random.default_rng(np.random.SeedSequence([seed, 905])).normal(size=(m, m))
    return 0.5 * (b + b.T)


def anisotropic_matrix(engine, space, A, sphere=26) -> tuple:
    """(mass matrix, 1*X1 report) of ``anisotropic_metric`` with ``zero_lee``; the metric is t-independent."""
    ws = WeylStructure(space, anisotropic_metric(space, A), zero_lee(space))
    matrix, _, reports = mass_matrix(engine, ws, quad=QuadratureSpec(sphere=sphere, fiber=2))
    return matrix, reports["1*X1"]


@pytest.mark.parametrize("sphere", [26, 30], ids=["symmetric", "product"])
@pytest.mark.parametrize("m,fibration", ANISOTROPIC_CHARTS)
def test_anisotropic_mass_matrix_closed_form(engine, m, fibration, sphere):
    """g = h + A r^(2-m) on the horizontal block has the mass matrix (m - 2) / (2m) (tr A I + (m - 2) A), off-
    diagonal entries included, to 1e-12 of its largest entry: on both sphere rules (26 directions and 30)."""
    space = ModelSpace(m=m, fibration=fibration)
    A = random_symmetric(m, seed=m)
    want = anisotropic_mass_matrix(A)
    assert np.max(np.abs(want - np.diag(np.diag(want)))) > 0.1
    matrix, rep = anisotropic_matrix(engine, space, A, sphere)
    assert rep.sphere_rule == (SYMMETRIC_RULE if sphere <= 26 else PRODUCT_RULE)
    assert np.max(np.abs(matrix - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m,fibration", [(3, "trivial"), (3, "hopf"), (5, "trivial")])
def test_anisotropic_mass_matrix_is_equivariant(engine, m, fibration):
    """A -> P A P^T for an orthogonal P gives M -> P M P^T, to 1e-12 of the largest entry of M: for a random
    P and for the reflection diag(-1, 1, ..., 1)."""
    space = ModelSpace(m=m, fibration=fibration)
    A = random_symmetric(m, seed=10 + m)
    matrix = anisotropic_matrix(engine, space, A)[0]
    reflection = np.diag([-1.0] + [1.0] * (m - 1))
    for P in (np.linalg.qr(np.random.default_rng(m).normal(size=(m, m)))[0], reflection):
        moved = anisotropic_matrix(engine, space, P @ A @ P.T)[0]
        assert np.max(np.abs(moved - P @ matrix @ P.T)) <= 1e-12 * np.max(np.abs(matrix))


def test_anisotropic_closed_form_tells_the_off_diagonal_part(engine):
    """Negative control: with A's off-diagonal part dropped, the matrix meets the closed form of that
    diagonal A but misses the full A's by more than 1e-2 of its largest entry."""
    space = ModelSpace(m=5)
    A = random_symmetric(5, seed=5)
    matrix = anisotropic_matrix(engine, space, np.diag(np.diag(A)))[0]
    assert np.max(np.abs(matrix - anisotropic_mass_matrix(np.diag(np.diag(A))))) <= 1e-12 * np.max(np.abs(matrix))
    want = anisotropic_mass_matrix(A)
    assert np.max(np.abs(matrix - want)) > 1e-2 * np.max(np.abs(want))


def test_off_centre_source_lies_within_its_angular_error(engine):
    """kaluza_perturbation moved to (3, -2, 1.5, 2, -1) at m = 5, with radial_lee: by translation invariance
    its mass is the centred closed form |z|^2 (2 mu (m-1)(m-2)/m - amplitude (2m-1)/m).  On the symmetric
    rule each direction's mass misses it, by more than roundoff, but by less than its ``angular_error``;
    on the product rule (30 directions requested) each mass is within 1e-12 and ``angular_error`` is None."""
    space = ModelSpace(m=5)
    mu, amplitude = 1.3, 0.45
    ws = WeylStructure(space, translated_metric(kaluza_perturbation(space, mu=mu), (3.0, -2.0, 1.5, 2.0, -1.0)),
                       radial_lee(space, amplitude))
    diag = 2.0 * mu * 4 * 3 / 5 - amplitude * 9 / 5
    reports = mass_matrix(engine, ws, quad=QuadratureSpec(fiber=2))[2]
    misses = []
    for key, rep in reports.items():
        want = diag * (key.count("+") + 1)
        assert rep.sphere_rule == SYMMETRIC_RULE
        assert abs(rep.mass - want) <= rep.angular_error < 1e-6
        misses.append(abs(rep.mass - want))
    assert max(misses) > 1e-11
    for key, rep in mass_matrix(engine, ws, quad=QuadratureSpec(sphere=30, fiber=2))[2].items():
        assert rep.sphere_rule == PRODUCT_RULE and rep.angular_error is None
        assert rep.mass == pytest.approx(diag * (key.count("+") + 1), rel=1e-12)


def test_angular_error_is_the_gap_to_the_embedded_rule(engine, monkeypatch):
    """A mass pass sums g's forms on the embedded degree-5 rule too, and each report's ``angular_error`` is
    |mass - the limit of those forms|: the same forms as a pass on the degree-5 weights alone (patched in as
    the sphere rule), to 1e-14 of their largest entry, and the same gap to the roundoff of masses near 1
    (4e-15), on an off-centre source where the gap is above 1e-10.  A pass without ``angular``, as a sweep
    makes, sums none."""
    from weylmass import quadrature

    space = ModelSpace(m=4)
    ws = WeylStructure(space, translated_metric(kaluza_perturbation(space, mu=1.0), (2.0, -1.0, 0.5, 1.0)),
                       radial_lee(space, 0.3))
    quad = QuadratureSpec(fiber=2)
    forms = flux_pass(engine, ws, quad=quad, angular=True)
    assert forms.embedded.shape == (2, 6, 4, 4) and flux_pass(engine, ws, quad=quad).embedded is None
    u, _, w5 = quadrature.sphere_rule_symmetric(4)
    monkeypatch.setattr(quadrature, "sphere_rule", lambda m, nodes: (u, w5))
    degree5 = flux_pass(engine, ws, quad=quad)
    monkeypatch.undo()
    for mine, theirs in zip(forms.embedded, (degree5.q[0], degree5.c[0])):
        assert np.max(np.abs(mine - theirs)) <= 1e-14 * np.max(np.abs(theirs))
    for key, rep in mass_matrix(engine, ws, quad=quad)[2].items():
        z = sum(np.eye(4)[int(term[len("1*X"):]) - 1] for term in key.split("+"))
        q5 = richardson_limit(forms.radii, [z @ q @ z for q in degree5.q[0]], -2)
        c5 = richardson_limit(forms.radii, [z @ c @ z for c in degree5.c[0]], -2)
        assert rep.angular_error == pytest.approx(abs(rep.mass - q5 - c5), rel=0.0, abs=4e-15)
        assert rep.angular_error > 1e-10


def test_ricci_positivity_floor_flat(model, engine):
    ws = WeylStructure(model, flat_product(model), zero_lee(model))
    assert abs(ricci_positivity_floor(engine, ws)) < 1e-9


def test_soft_positivity_on_verified_examples(model, hopf_space, engine):
    """Mass eigenvalues are above -1e-4 whenever the Ricci floor certifies >= 0."""
    examples = [
        WeylStructure(model, flat_product(model), zero_lee(model)),
        WeylStructure(hopf_space, hopf_model(hopf_space), zero_lee(hopf_space)),
        WeylStructure(model, kaluza_perturbation(model, mu=0.5), zero_lee(model)),
    ]
    verified = 0
    for ws in examples:
        floor = ricci_positivity_floor(engine, ws, sample_count=8)
        if floor >= -1e-6:
            verified += 1
            mat, _, _ = mass_matrix(engine, ws)
            assert np.min(np.linalg.eigvalsh(mat)) >= -1e-4
    assert verified >= 1  # at least the flat product must qualify
