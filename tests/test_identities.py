"""Identity suite behavior: residuals, sign resolution, quadrature order."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weylmass.families import flat_product, zero_lee
from weylmass.identities import (IdentityReport, _rng, bochner_divergence_residual,
                                 bochner_integral_sides, bochner_pointwise_residual,
                                 check_bochner_divergence, check_bochner_integral, check_bochner_pointwise,
                                 check_codifferential_transform, check_curvature_split,
                                 check_d_squared, check_d_transform, check_torsion, random_form_field,
                                 resolve_bochner_sign, run_suite, trial_point, trial_structure)
from weylmass.quadrature import QuadratureSpec, gauss_legendre, node_blocks
from weylmass.weyl import WeylStructure, form_field_of

from oracles import check_weighted_derivative_oracle


def test_identity_report_pass_iff_within_tolerance():
    rep = IdentityReport("x", 3, 2e-6, 1e-6, 2e-6 < 1e-6)
    assert not rep.passed
    rep2 = IdentityReport("x", 3, 5e-7, 1e-6, True)
    assert rep2.passed


def test_operator_identity_checks_small_runs(engine, model):
    for check in (check_torsion, check_d_transform, check_codifferential_transform,
                  check_d_squared, check_curvature_split, check_weighted_derivative_oracle):
        rep = check(engine, model, seed=3, trials=12, tolerance=1e-6)
        assert rep.passed, f"{rep.identity}: {rep.max_residual}"


def test_d_squared_check_fails_on_a_wrong_curvature(engine, model, monkeypatch):
    """Negative control: with F^D replaced by -F^D, (d^D)^2 w = k F^D ^ w fails on weighted trials."""
    from weylmass import identities

    assert check_d_squared(engine, model, seed=3, trials=12, tolerance=1e-6).passed
    faraday = identities._faraday_components
    monkeypatch.setattr(identities, "_faraday_components", lambda *args: -faraday(*args))
    rep = check_d_squared(engine, model, seed=3, trials=12, tolerance=1e-6)
    assert not rep.passed and rep.max_residual > 1e-3


def test_bochner_flat_trivial_case(engine, model):
    ws = WeylStructure(model, flat_product(model), zero_lee(model))
    spec = form_field_of(ws, lambda c: [1.0, 0.0, 0.0, 0.0], degree=1, weight=0.0)
    p = model.point([2.0, 0.4, -0.6], 0.2)
    for sign in (+1.0, -1.0):
        res, ric_mag, f_term = bochner_pointwise_residual(engine, ws, spec, p, sign)
        assert res < 1e-10 and ric_mag < 1e-12 and f_term < 1e-12
    assert bochner_divergence_residual(engine, ws, spec, p) < 1e-10


def test_bochner_sign_unique_and_stable(engine, model):
    rep = resolve_bochner_sign(engine, model, seed=11, trials=8)
    assert rep.passed
    assert rep.details["resolved_sign"] == 1.0
    assert rep.details["min_loser_winner_ratio"] > 100.0


def test_bochner_loser_residual_tracks_twice_ricci(engine, model):
    rng = _rng(31, 17, 2)
    ws = trial_structure(model, 31, 2, with_lee=False)
    spec = random_form_field(ws, rng, 1, 0.0)
    p = trial_point(model, rng)
    r_plus, ric_mag, _ = bochner_pointwise_residual(engine, ws, spec, p, +1.0)
    r_minus, _, _ = bochner_pointwise_residual(engine, ws, spec, p, -1.0)
    assert r_plus < 1e-8
    assert r_minus == pytest.approx(2.0 * ric_mag, rel=1e-6)


def test_contracted_faraday_term_vanishes(engine, model):
    worst = 0.0
    for trial in range(6):
        rng = _rng(32, 18, trial)
        ws = trial_structure(model, 32, trial)
        spec = random_form_field(ws, rng, 1, 1.0)
        _, _, f_term = bochner_pointwise_residual(engine, ws, spec, trial_point(model, rng), +1.0)
        worst = max(worst, f_term)
    assert worst < 1e-10


@pytest.mark.parametrize("weight", [-2.0, 0.0, 0.5, 1.0])
def test_bochner_divergence_holds_at_any_weight(engine, model, weight):
    rng = _rng(33, 19, int(weight * 10) % 97)
    ws = trial_structure(model, 33, 1)
    spec = random_form_field(ws, rng, 1, weight)
    res = bochner_divergence_residual(engine, ws, spec, trial_point(model, rng))
    assert res < 1e-8


def test_bochner_integral_compact_support(engine, model):
    """Compactly supported alpha: both sides vanish together."""
    ws = trial_structure(model, 34, 1, wave_scale=0.4)
    n = model.dim

    def bump_fn(c):
        c = [np.asarray(ci, dtype=float) for ci in c]
        r = np.sqrt(c[0] ** 2 + c[1] ** 2 + c[2] ** 2)
        s = (2.0 * r - (1.9 + 2.3)) / (2.3 - 1.9)
        bump = np.where(np.abs(s) < 1.0, np.maximum(1.0 - s**2, 0.0) ** 5, 0.0)
        zero = np.zeros_like(bump)
        return [bump, 0.3 * bump, zero, zero]

    from weylmass.engine import DerivativeEngine, Field
    from weylmass.weyl import FormFieldSpec

    spec = FormFieldSpec(Field(bump_fn, shape=(n,)), 1, 0.0, ws.gauge)
    # annulus strictly containing the support; the bump is numpy-only, so its jets are fd-mode
    vol, bnd = bochner_integral_sides(DerivativeEngine("fd"), ws, spec, 1.6, 2.6, QuadratureSpec(64, 8, 48))
    assert abs(bnd) < 1e-12
    assert abs(vol) < 1e-4


def test_bochner_integral_flat_harmonic(engine, model):
    ws = WeylStructure(model, flat_product(model), zero_lee(model))
    spec = form_field_of(ws, lambda c: [1.0, 0.0, 0.0, 0.0], degree=1, weight=0.0)
    vol, bnd = bochner_integral_sides(engine, ws, spec, 1.6, 2.4, QuadratureSpec(26, 8, 6))
    assert abs(vol) < 1e-10 and abs(bnd) < 1e-10


@pytest.mark.parametrize("chart", ["model", "hopf_space"], ids=["trivial", "hopf"])
def test_bochner_integral_sides_independent_of_chunk_size(engine, chart, request, monkeypatch):
    """Streaming changes no bit of either side.  At the default budget the 2,496-node annulus runs in
    blocks of 512 (the last one partial) and each 416-node zeta shell in one block; with the budget cut
    to 37 annulus nodes the zeta shells run in blocks of 185, and with it raised to the whole annulus
    every loop is one block.  On the Hopf chart the blocks run the bracket terms."""
    from weylmass import quadrature

    space = request.getfixturevalue(chart)
    ws = trial_structure(space, 42, 0, fiber_dependence=True, wave_scale=0.45)
    spec = random_form_field(ws, _rng(42, 20, 0), 1, 0.0, fiber_dependence=True, wave_scale=0.45)
    quad = QuadratureSpec(sphere=26, fiber=16, radial=6)
    total, density_bytes, zeta_bytes = 26 * 16 * 6, 40 * space.dim**4, 32 * space.dim**3
    assert quadrature.BLOCK_BYTES // density_bytes == 512 and total % 512
    assert quadrature.BLOCK_BYTES // zeta_bytes >= 26 * 16
    streamed = bochner_integral_sides(engine, ws, spec, 1.4, 1.9, quad)
    monkeypatch.setattr(quadrature, "BLOCK_BYTES", 37 * density_bytes)
    assert quadrature.BLOCK_BYTES // zeta_bytes == 185
    assert bochner_integral_sides(engine, ws, spec, 1.4, 1.9, quad) == streamed
    monkeypatch.setattr(quadrature, "BLOCK_BYTES", total * density_bytes)
    assert bochner_integral_sides(engine, ws, spec, 1.4, 1.9, quad) == streamed


def test_bochner_integral_memory_stays_bounded_as_the_sphere_rule_is_refined(engine, model):
    """A 4x finer sphere rule (1,600 -> 6,400 nodes in the annulus and in each zeta shell) keeps the
    traced peak of ``bochner_integral_sides`` within 1.5x: the annulus and both shells are streamed."""
    import tracemalloc

    ws = trial_structure(model, 42, 0, fiber_dependence=True, wave_scale=0.45)
    spec = random_form_field(ws, _rng(42, 20, 0), 1, 0.0, fiber_dependence=True, wave_scale=0.45)

    def peak(sphere):
        tracemalloc.start()
        try:
            bochner_integral_sides(engine, ws, spec, 1.4, 1.9, QuadratureSpec(sphere=sphere, fiber=8, radial=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # first-call allocations are not the integral's
    coarse, fine = peak(100), peak(400)
    assert fine <= 1.5 * coarse, (coarse, fine)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts the page faults of glibc's malloc")
def test_streamed_blocks_stay_mapped_between_blocks():
    """In a fresh process, a repeated 5-block annulus integral takes almost no minor page faults: the
    blocks' freed arrays stay mapped for the next block (without the allocation ``node_blocks`` makes
    first, 6,741 faults per call against 1)."""
    script = """
import resource
from weylmass.engine import DerivativeEngine
from weylmass.identities import _rng, bochner_integral_sides, random_form_field, trial_structure
from weylmass.model import ModelSpace
from weylmass.quadrature import QuadratureSpec
ws = trial_structure(ModelSpace(m=3), 42, 0, fiber_dependence=True, wave_scale=0.45)
spec = random_form_field(ws, _rng(42, 20, 0), 1, 0.0, fiber_dependence=True, wave_scale=0.45)
args = (DerivativeEngine("dual"), ws, spec, 1.4, 1.9, QuadratureSpec(26, 16, 6))
bochner_integral_sides(*args)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
bochner_integral_sides(*args)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) < 500


def test_bochner_integral_reports_annulus_nodes(engine, model):
    assert check_bochner_integral(engine, model, seed=42, trials=0).details["annulus_nodes"] == 0
    # a sphere request of 100 becomes the 10 x 20 product rule
    for quad, nodes in ((QuadratureSpec(sphere=100, fiber=16, radial=8), 25600), (QuadratureSpec(26, 4, 2), 208)):
        blocks = node_blocks(model, *gauss_legendre(1.3, 1.8, quad.radial), quad, 40 * model.dim**4)
        assert sum(weights.size for _, weights, _ in blocks) == nodes
    rep = check_bochner_integral(engine, model, seed=42, trials=1, quad=QuadratureSpec(26, 4, 2))
    assert rep.details["annulus_nodes"] == 26 * 4 * 2


def test_bochner_integral_random_trials(engine, model):
    rep = check_bochner_integral(engine, model, seed=42, trials=2)
    assert rep.passed
    assert rep.max_residual < 1e-4


def test_bochner_integral_quadrature_order(engine, model):
    coarse = check_bochner_integral(engine, model, seed=42, trials=2,
                                    quad=QuadratureSpec(sphere=30, fiber=6, radial=4))
    fine = check_bochner_integral(engine, model, seed=42, trials=2)
    assert fine.max_residual < coarse.max_residual / 4.0


def test_run_suite_passes_and_serializes(engine, model):
    reports = run_suite(engine, model, seed=4, trials={"identity": 6, "bochner": 3, "integral": 1})
    assert all(r.passed for r in reports)
    names = [r.identity for r in reports]
    assert names == ["torsion_free", "d_transform", "codifferential_transform",
                     "d_squared_curvature", "curvature_split", "bochner_sign",
                     "bochner_pointwise", "bochner_divergence", "bochner_integral"]
    for r in reports:
        d = r.as_dict()
        assert d["passed"] == r.passed and "max_residual" in d


def test_run_suite_corrupted_sign_fails(engine, model):
    reports = run_suite(engine, model, seed=4, trials={"identity": 4, "bochner": 3, "integral": 1},
                        corrupt_bochner_sign=True)
    failed = {r.identity for r in reports if not r.passed}
    assert "bochner_pointwise" in failed
    assert "bochner_divergence" in failed


def test_fd_mode_meets_relaxed_tolerance(fd_engine, model):
    for check in (check_torsion, check_d_transform, check_codifferential_transform,
                  check_d_squared, check_curvature_split):
        rep = check(fd_engine, model, seed=3, trials=8, tolerance=1e-5)
        assert rep.passed, f"{rep.identity}: {rep.max_residual}"
    for check in (check_bochner_pointwise, check_bochner_divergence):
        rep = check(fd_engine, model, seed=3, trials=3, tolerance=1e-5)
        assert rep.passed, f"{rep.identity}: {rep.max_residual}"


def test_dual_mode_takes_no_fd_jet(engine, model, hopf_space, monkeypatch):
    """Analytic inputs in dual mode: the suite without an integral trial and a default mass run use no FD."""
    from weylmass.cli import RunConfig, build_parser
    from weylmass.engine import DerivativeEngine
    from weylmass.mass import mass_matrix

    def refuse(self, *args):
        raise AssertionError("finite-difference jet in dual mode")

    monkeypatch.setattr(DerivativeEngine, "_fd_jet1", refuse)
    monkeypatch.setattr(DerivativeEngine, "_fd_hessian", refuse)
    for space in (model, hopf_space):
        reports = run_suite(engine, space, seed=4, trials={"identity": 4, "bochner": 3, "integral": 0})
        assert all(r.passed for r in reports)
    cfg = RunConfig.load(None, build_parser().parse_args(["mass"]))
    mass_matrix(cfg.engine, cfg.structure, radii=cfg.radii, quad=cfg.quad)
