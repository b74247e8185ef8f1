"""Identity suite behavior: residuals, sign resolution, quadrature order."""

import dataclasses
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weylmass.families import flat_product, zero_lee
from weylmass.identities import (SUITE_TOLERANCES, IdentityReport, _bochner_pointwise_terms, _rng,
                                 bochner_divergence_residual,
                                 bochner_integral_sides, bochner_pointwise_residual,
                                 check_bochner_divergence, check_bochner_integral, check_bochner_pointwise,
                                 check_codifferential_transform, check_curvature_split,
                                 check_d_squared, check_d_transform, check_torsion, random_form_field,
                                 resolve_bochner_sign, run_suite, trial_point, trial_structure)
from weylmass.quadrature import QuadratureSpec, gauss_legendre, node_blocks
from weylmass.weyl import WeylStructure, form_field_of

from oracles import FDEngine, check_weighted_derivative_oracle


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
    diff, ric_term, f_term = _bochner_pointwise_terms(engine, ws, spec, p)
    for sign in (+1.0, -1.0):
        assert abs(diff - sign * ric_term) < 1e-10
    assert abs(ric_term) < 1e-12 and f_term < 1e-12
    assert bochner_pointwise_residual(engine, ws, spec, p)[0] < 1e-10
    assert bochner_divergence_residual(engine, ws, spec, p) < 1e-10


def test_bochner_sign_unique_and_stable(engine, model):
    rep = resolve_bochner_sign(engine, model, seed=11, trials=8)
    assert rep.passed
    assert rep.details["resolved_sign"] == 1.0
    assert rep.details["min_loser_winner_ratio"] > 100.0


@pytest.mark.parametrize("skipped,batches,votes",
                         [({1, 2, 6}, [5, 2, 1], 5), (set(range(15)) - {4, 9}, [5, 4, 4, 2], 2)],
                         ids=["tops-up", "runs-out"])
def test_bochner_sign_keeps_its_vote_rule_across_batches(engine, model, monkeypatch, skipped, batches, votes):
    """A named patch zeroes Ric(a#, a#) at the skipped candidates, below the 1e-6 vote threshold, and reads the
    other terms off each candidate's point alone, so every candidate's numbers are the same in any batch.  The
    batched check runs its first 5 candidates as one batch, then batches of the shortfall, and ends where the
    one-at-a-time rule on the same draws ends: 5 votes after 8 candidates, or 3 x 5 = 15 candidates with 2 votes.
    It reports that rule's trials, max residual, resolved sign and min loser/winner ratio."""
    from weylmass import identities

    trials, seed = 5, 42
    skipped_x = {float(trial_point(model, _rng(seed, 17, t))[0]) for t in skipped}

    def ric_zeroed_at_skipped(engine, ws, spec, coords):
        ric = np.where(np.isin(coords[0], list(skipped_x)), 0.0, coords[0])
        return ric * (1.0 + 1e-12 * coords[1]), ric, np.zeros_like(ric)

    sizes = []
    monkeypatch.setattr(identities, "_bochner_pointwise_terms",
                        lambda *args: sizes.append(args[3].shape[1]) or ric_zeroed_at_skipped(*args))
    rep = resolve_bochner_sign(engine, model, seed=seed, trials=trials)

    cast, worst, margin = [], 0.0, np.inf
    t = 0
    while len(cast) < trials and t < 3 * trials:  # the one-at-a-time rule
        t += 1
        diff, ric, _ = ric_zeroed_at_skipped(None, None, None, trial_point(model, _rng(seed, 17, t - 1)))
        r_plus, r_minus = abs(diff - ric), abs(diff + ric)
        if abs(ric) < 1e-6:
            continue
        cast.append(1.0 if r_plus < r_minus else -1.0)
        worst, margin = max(worst, min(r_plus, r_minus)), min(margin, max(r_plus, r_minus) / min(r_plus, r_minus))
    assert sizes == batches and sum(sizes) == t
    assert len(cast) == votes and cast == [1.0] * votes
    assert (rep.trials, rep.max_residual) == (votes, worst) and worst > 0.0
    assert rep.details == {"resolved_sign": 1.0, "min_loser_winner_ratio": margin}


def test_bochner_loser_residual_tracks_twice_ricci(engine, model):
    rng = _rng(31, 17, 2)
    ws = trial_structure(model, 31, [2], with_lee=False)
    spec = random_form_field(ws, [rng], 1, 0.0)
    p = trial_point(model, rng)
    diff, ric_term, _ = _bochner_pointwise_terms(engine, ws, spec, p)
    r_plus, r_minus, ric_mag = abs(diff - ric_term), abs(diff + ric_term), abs(ric_term)
    assert r_plus < 1e-8
    assert r_minus == pytest.approx(2.0 * ric_mag, rel=1e-6)
    # the public residual takes the resolved sign, +1
    assert bochner_pointwise_residual(engine, ws, spec, p)[:2] == (r_plus, ric_mag)


def test_contracted_faraday_term_vanishes(engine, model):
    worst = 0.0
    for trial in range(6):
        rng = _rng(32, 18, trial)
        ws = trial_structure(model, 32, [trial])
        spec = random_form_field(ws, [rng], 1, 1.0)
        _, _, f_term = bochner_pointwise_residual(engine, ws, spec, trial_point(model, rng))
        worst = max(worst, f_term)
    assert worst < 1e-10


@pytest.mark.parametrize("weight", [-2.0, 0.0, 0.5, 1.0])
def test_bochner_divergence_holds_at_any_weight(engine, model, weight):
    rng = _rng(33, 19, int(weight * 10) % 97)
    ws = trial_structure(model, 33, [1])
    spec = random_form_field(ws, [rng], 1, weight)
    res = bochner_divergence_residual(engine, ws, spec, trial_point(model, rng))
    assert res < 1e-8


def test_bochner_integral_compact_support(engine, model):
    """Compactly supported alpha: both sides vanish together."""
    ws = trial_structure(model, 34, [1], wave_scale=0.4)
    n = model.dim

    def bump_fn(c):
        c = [np.asarray(ci, dtype=float) for ci in c]
        r = np.sqrt(c[0] ** 2 + c[1] ** 2 + c[2] ** 2)
        s = (2.0 * r - (1.9 + 2.3)) / (2.3 - 1.9)
        bump = np.where(np.abs(s) < 1.0, np.maximum(1.0 - s**2, 0.0) ** 5, 0.0)
        zero = np.zeros_like(bump)
        return [bump, 0.3 * bump, zero, zero]

    from weylmass.engine import Field
    from weylmass.weyl import FormFieldSpec

    spec = FormFieldSpec(Field(bump_fn, shape=(n,)), 1, 0.0, ws.gauge)
    # annulus strictly containing the support; the bump is numpy-only, so its jets are fd-mode
    vol, bnd = bochner_integral_sides(FDEngine(), ws, spec, 1.6, 2.6, QuadratureSpec(64, 8, 48))
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
    to 37 annulus nodes the zeta shells run in blocks of 123, and with it raised to the whole annulus
    every loop is one block.  On the Hopf chart the blocks run the bracket terms."""
    from weylmass import quadrature

    space = request.getfixturevalue(chart)
    ws = trial_structure(space, 42, [0], fiber_dependence=True, wave_scale=0.45)
    spec = random_form_field(ws, [_rng(42, 20, 0)], 1, 0.0, fiber_dependence=True, wave_scale=0.45)
    quad = QuadratureSpec(sphere=26, fiber=16, radial=6)
    total, density_bytes, zeta_bytes = 26 * 16 * 6, 40 * space.dim**4, 48 * space.dim**3
    assert quadrature.BLOCK_BYTES // density_bytes == 512 and total % 512
    assert quadrature.BLOCK_BYTES // zeta_bytes >= 26 * 16
    streamed = bochner_integral_sides(engine, ws, spec, 1.4, 1.9, quad)
    monkeypatch.setattr(quadrature, "BLOCK_BYTES", 37 * density_bytes)
    assert quadrature.BLOCK_BYTES // zeta_bytes == 123
    assert bochner_integral_sides(engine, ws, spec, 1.4, 1.9, quad) == streamed
    monkeypatch.setattr(quadrature, "BLOCK_BYTES", total * density_bytes)
    assert bochner_integral_sides(engine, ws, spec, 1.4, 1.9, quad) == streamed


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_density_block_stays_within_its_declared_working_set(request, engine, chart):
    """One 512-node annulus block of the fiber-dependent Bochner density peaks, under tracemalloc, within
    the 40 n^4 bytes per node that ``bochner_integral_sides`` declares to ``node_blocks``: on the Hopf chart
    too, where the frame Hessian takes the fiber correction and E (C g) is built and traced next to it (34.3 n^4
    measured, 27.0 on the trivial chart)."""
    import tracemalloc

    from weylmass.identities import _bochner_density
    from weylmass.quadrature import volume_integral_curved

    space = request.getfixturevalue(chart)
    n = space.dim
    ws = trial_structure(space, 42, [0], fiber_dependence=True, wave_scale=0.45)
    spec = random_form_field(ws, [_rng(42, 20, 0)], 1, 0.0, fiber_dependence=True, wave_scale=0.45)
    pts, weights, _ = next(node_blocks(space, *gauss_legendre(1.4, 1.9, 8), QuadratureSpec(100, 16, 8), 40 * n**4))
    assert pts.shape[1] == 512

    def block():
        return volume_integral_curved(*_bochner_density(engine, ws, spec, pts), weights)

    block()  # first-call allocations are not the block's
    tracemalloc.start()
    try:
        block()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * n**4 * pts.shape[1], peak / (n**4 * pts.shape[1])


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_zeta_block_stays_within_its_declared_working_set(request, engine, chart, monkeypatch):
    """One zeta-shell block of the fiber-dependent Bochner current peaks, under tracemalloc, within the bytes
    per node that ``bochner_integral_sides`` declares to ``node_blocks`` for its shells, 48 n^3: 31.7 n^3
    measured on the trivial chart and 39.2 n^3 on the Hopf chart, where the frame structure constants
    enter C g."""
    import tracemalloc

    from weylmass import identities

    space = request.getfixturevalue(chart)
    n = space.dim
    ws = trial_structure(space, 42, [0], fiber_dependence=True, wave_scale=0.45)
    spec = random_form_field(ws, [_rng(42, 20, 0)], 1, 0.0, fiber_dependence=True, wave_scale=0.45)
    declared = []
    blocks = identities.node_blocks
    monkeypatch.setattr(identities, "node_blocks", lambda model, radii, wr, quad, node_bytes: declared.append(
        (len(radii), node_bytes)) or blocks(model, radii, wr, quad, node_bytes))
    bochner_integral_sides(engine, ws, spec, 1.4, 1.9, QuadratureSpec(26, 2, 2))
    (node_bytes,) = {nb for radii, nb in declared if radii == 1}
    assert node_bytes == 48 * n**3
    block = next(node_blocks(space, [3.0], [1.0], QuadratureSpec(100, 16, 8), node_bytes))
    assert block[0].shape[1] == 1706

    identities._zeta_flux(engine, ws, spec, *block)  # first-call allocations are not the block's
    tracemalloc.start()
    try:
        identities._zeta_flux(engine, ws, spec, *block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= node_bytes * block[0].shape[1], peak / (n**3 * block[0].shape[1])


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_bochner_integral_factors_each_block_once(request, engine, chart, monkeypatch):
    """Over one whole ``bochner_integral_sides``, the Cholesky kernel ``gram_factor`` runs exactly once per
    annulus block and once per zeta-shell block: g^-1 and sqrt(det g) come off one factor.  No Koszul
    combination of the frame Hessian (``_koszul`` at lead 1) is built on the annulus path."""
    from weylmass import weyl

    space = request.getfixturevalue(chart)
    n = space.dim
    ws = trial_structure(space, 42, [0], fiber_dependence=True, wave_scale=0.45)
    spec = random_form_field(ws, [_rng(42, 20, 0)], 1, 0.0, fiber_dependence=True, wave_scale=0.45)
    quad = QuadratureSpec(sphere=26, fiber=16, radial=6)
    annulus = sum(1 for _ in node_blocks(space, *gauss_legendre(1.4, 1.9, 6), quad, 40 * n**4))
    shell = sum(1 for _ in node_blocks(space, [1.9], [1.0], quad, 48 * n**3))
    assert (annulus, shell) == (5, 1)
    factored, leads = [], []
    gram_factor, koszul = weyl.gram_factor, weyl._koszul
    monkeypatch.setattr(weyl, "gram_factor", lambda g: factored.append(g.shape[-1]) or gram_factor(g))
    monkeypatch.setattr(weyl, "_koszul", lambda dg, cg, lead=0: leads.append(lead) or koszul(dg, cg, lead))
    bochner_integral_sides(engine, ws, spec, 1.4, 1.9, quad)
    assert len(factored) == annulus + 2 * shell
    assert sum(factored) == 26 * 16 * (6 + 2)
    assert leads == [0] * (annulus + 2 * shell)


def test_bochner_integral_memory_stays_bounded_as_the_sphere_rule_is_refined(engine, model):
    """A 4x finer sphere rule (1,600 -> 6,400 nodes in the annulus and in each zeta shell) keeps the
    traced peak of ``bochner_integral_sides`` within 1.5x: the annulus and both shells are streamed."""
    import tracemalloc

    ws = trial_structure(model, 42, [0], fiber_dependence=True, wave_scale=0.45)
    spec = random_form_field(ws, [_rng(42, 20, 0)], 1, 0.0, fiber_dependence=True, wave_scale=0.45)

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
ws = trial_structure(ModelSpace(m=3), 42, [0], fiber_dependence=True, wave_scale=0.45)
spec = random_form_field(ws, [_rng(42, 20, 0)], 1, 0.0, fiber_dependence=True, wave_scale=0.45)
args = (DerivativeEngine(), ws, spec, 1.4, 1.9, QuadratureSpec(26, 16, 6))
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


def test_run_suite_corrupted_sign_fails(engine, model, monkeypatch):
    """Negative control: with the shipped sign flipped, every kernel reads -1 when called, so the sign check
    no longer elects it and each Bochner identity fails."""
    from weylmass import identities

    monkeypatch.setattr(identities, "RESOLVED_BOCHNER_SIGN", -1.0)
    reports = run_suite(engine, model, seed=4, trials={"identity": 4, "bochner": 3, "integral": 1})
    failed = {r.identity for r in reports if not r.passed}
    assert "bochner_sign" in failed
    assert "bochner_pointwise" in failed
    assert "bochner_divergence" in failed
    assert "bochner_integral" in failed
    assert all(r.details["sign"] == -1.0 for r in reports if r.identity in ("bochner_pointwise", "bochner_divergence"))


def test_bochner_integral_fails_without_the_ricci_term(engine, model, monkeypatch):
    """Negative control for the annulus density's Ric^D by traces: with ``_ricci_jet`` returning Ric = 0 and
    everything else, the volume factor included, as it is, the integral identity fails while both sides
    stay non-zero."""
    from weylmass import identities

    assert check_bochner_integral(engine, model, seed=4, trials=1).passed
    ricci_jet = identities._ricci_jet

    def no_ricci(*args):
        jet = ricci_jet(*args)
        return dataclasses.replace(jet, ric=np.zeros_like(jet.ric))

    monkeypatch.setattr(identities, "_ricci_jet", no_ricci)
    rep = check_bochner_integral(engine, model, seed=4, trials=1)
    assert not rep.passed and rep.max_residual > 1e-2
    ((volume, boundary, _),) = rep.details["sides"]
    assert float(volume) != 0.0 and float(boundary) != 0.0


def test_fd_mode_meets_relaxed_tolerance(fd_engine, model):
    """The FD route passes every pointwise check at identity tolerance 1e-5, check by check and as the
    suite at 6/3/0 trials and seed 42 (d^D, delta^D and the (d^D)^2 check through the FD jets)."""
    for check in (check_torsion, check_d_transform, check_codifferential_transform,
                  check_d_squared, check_curvature_split):
        rep = check(fd_engine, model, seed=3, trials=8, tolerance=1e-5)
        assert rep.passed, f"{rep.identity}: {rep.max_residual}"
    for check in (check_bochner_pointwise, check_bochner_divergence):
        rep = check(fd_engine, model, seed=3, trials=3, tolerance=1e-5)
        assert rep.passed, f"{rep.identity}: {rep.max_residual}"
    reports = run_suite(fd_engine, model, seed=42, trials={"identity": 6, "bochner": 3, "integral": 0},
                        tolerances={**SUITE_TOLERANCES, "identity": 1e-5})
    assert all(rep.passed for rep in reports), [(rep.identity, rep.max_residual) for rep in reports]


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
    mass_matrix(engine, cfg.structure, radii=cfg.radii, quad=cfg.quad)
