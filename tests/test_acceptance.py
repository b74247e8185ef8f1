"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines with the measured margins.
"""

import time

import numpy as np
import pytest

from weylmass.engine import DerivativeEngine
from weylmass.errors import MassNotDefinedError
from weylmass.families import (METRIC_BUILDERS, flat_product, hopf_model, kaluza_perturbation,
                               kaluza_two_term, log_slow_profile, mixed_lee, radial_lee,
                               radial_profile, slow_tail, zero_lee)
from weylmass.identities import (check_bochner_divergence, check_bochner_integral,
                                 check_bochner_pointwise, check_codifferential_transform,
                                 check_curvature_split, check_d_squared, check_d_transform,
                                 check_torsion, resolve_bochner_sign)
from weylmass.mass import gauge_audit, mass_matrix
from weylmass.probes import PROBE_RADII, lee_probes, metric_probes, probe_grid, probe_tensor_field
from weylmass.quadrature import QuadratureSpec
from weylmass.weyl import WeylStructure

from oracles import (FDEngine, direction_limits, probe_jet, probe_lee_jet, random_adapted_scalar,
                     ricci_positivity_floor)

SEED = 42


def _announce(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def test_criterion_1_operator_identity_suite(model):
    """Five operator identities, >=100 trials each, both engine modes, < 60 s."""
    checks = (check_d_transform, check_codifferential_transform, check_d_squared,
              check_curvature_split, check_torsion)
    t0 = time.monotonic()
    worst = {}
    for mode, engine, tol in (("dual", DerivativeEngine(), 1e-6), ("fd", FDEngine(), 1e-5)):
        for check in checks:
            rep = check(engine, model, seed=SEED, trials=100, tolerance=tol)
            assert rep.trials >= 100
            assert rep.passed, f"{mode} {rep.identity}: {rep.max_residual:.3e} > {tol}"
            worst[f"{mode}:{rep.identity}"] = rep.max_residual
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"identity suite took {elapsed:.1f} s"
    top = max(worst.values())
    _announce(1, f"5 identities x 100 trials x 2 modes, worst residual {top:.2e}, {elapsed:.1f} s")


def test_criterion_2_bochner_sign_resolution(model):
    """Unique sign across >= 20 curved trials; pointwise and divergence < 1e-5."""
    engine = DerivativeEngine()
    sign_rep = resolve_bochner_sign(engine, model, seed=SEED, trials=20, tolerance=1e-5)
    assert sign_rep.trials >= 20
    assert sign_rep.passed
    sign = sign_rep.details["resolved_sign"]
    pw = check_bochner_pointwise(engine, model, seed=SEED, trials=20, tolerance=1e-5)
    dv = check_bochner_divergence(engine, model, seed=SEED, trials=20, tolerance=1e-5)
    assert pw.details["sign"] == dv.details["sign"] == sign
    assert pw.passed and dv.passed
    _announce(2, f"sign {sign:+.0f} unanimous over {sign_rep.trials} trials "
                 f"(loser/winner >= {sign_rep.details['min_loser_winner_ratio']:.1e}); "
                 f"pointwise {pw.max_residual:.2e}, divergence {dv.max_residual:.2e}")


def test_criterion_3_integral_bochner(model):
    """Volume vs boundary within 1e-4 relative on >= 5 triples; order check."""
    engine = DerivativeEngine()
    rep = check_bochner_integral(engine, model, seed=SEED, trials=5, tolerance=1e-4)
    assert rep.trials >= 5 and rep.passed
    coarse = check_bochner_integral(engine, model, seed=SEED, trials=2,
                                    quad=QuadratureSpec(sphere=30, fiber=6, radial=4))
    assert rep.max_residual < coarse.max_residual / 4.0, (
        f"node doubling only improved {coarse.max_residual:.2e} -> {rep.max_residual:.2e}"
    )
    _announce(3, f"5 annulus triples, worst relative residual {rep.max_residual:.2e}; "
                 f"coarse->fine improvement x{coarse.max_residual / rep.max_residual:.0f}")


def test_criterion_4_flat_mass_baseline(model):
    """Q and the conformal mass vanish on the flat product; quadratic scaling.

    Each per-direction limit comes from the density oracles, one direction at a time.
    """
    engine = DerivativeEngine()
    ws = WeylStructure(model, flat_product(model), zero_lee(model))
    worst = 0.0
    for z in (0, 1, 2, np.array([1.0, 1.0, 0.0]), np.array([0.3, -0.7, 1.1])):
        q, correction = direction_limits(engine, ws, z)
        worst = max(worst, abs(q), abs(q + correction))
    assert worst < 1e-8

    ws_k = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    z0 = np.array([1.0, 0.5, -0.25])
    base = direction_limits(engine, ws_k, z0)[0]
    scale_worst = 0.0
    for lam in (-1.0, 2.0, 3.0):
        val = direction_limits(engine, ws_k, lam * z0)[0]
        scale_worst = max(scale_worst, abs(val - lam**2 * base))
    assert scale_worst < 1e-8
    _announce(4, f"flat masses <= {worst:.1e}; quadratic-scaling defect <= {scale_worst:.1e}")


def test_criterion_5_conformal_change_law(model):
    """Predicted vs recomputed mass shift within 1e-4 for >= 3 adapted factors."""
    engine = DerivativeEngine()
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), zero_lee(model))
    factors = [radial_profile(model, beta=0.3), radial_profile(model, beta=-0.2),
               random_adapted_scalar(model, seed=4), random_adapted_scalar(model, seed=9)]
    worst = 0.0
    for f in factors:
        _, rep = gauge_audit(engine, ws, [f])[0]
        assert rep.rel_error < 1e-4, f"{f.name}: {rep.rel_error:.3e}"
        worst = max(worst, rep.rel_error)
    with pytest.raises(MassNotDefinedError):
        gauge_audit(engine, ws, [log_slow_profile(model)])
    _announce(5, f"{len(factors)} adapted factors, worst relative error {worst:.2e}; "
                 "slow-log factor correctly rejected")


def test_criterion_6_gauge_invariance(model):
    """|m(g) - m(fg)| relative < 1e-4 for >= 5 random factors, all basis fields."""
    engine = DerivativeEngine()
    ws = WeylStructure(model, kaluza_perturbation(model, mu=1.0), radial_lee(model, 0.4))
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for seed in range(5):
        f = random_adapted_scalar(model, seed=100 + seed)
        audits, _ = gauge_audit(engine, ws, [f])[0]
        for b, rep in enumerate(audits):
            assert rep.passed, f"{f.name} Z=X{b + 1}: {rep.rel_difference:.3e}"
            worst = max(worst, rep.rel_difference)
            count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"invariance audits took {elapsed:.1f} s"
    _announce(6, f"{count} audits (5 factors x {model.m} fields), worst rel diff {worst:.2e}, "
                 f"{elapsed:.1f} s")


def test_criterion_7_decay_probes(model, hopf_space):
    """Measured slopes reproduce the declared exponents for every built-in family."""
    engine = DerivativeEngine()
    checked = []
    for name, params in (("flat_product", {}), ("kaluza_perturbation", {"mu": 1.0}),
                         ("kaluza_two_term", {"mu": 1.0, "kappa": 0.5})):
        fam = METRIC_BUILDERS[name](model, **params)
        for rep in metric_probes(model, fam.name, probe_jet(engine, fam)):
            assert rep.passed, f"{rep.name}: slope {rep.slope:.2f} vs {rep.declared:.2f}"
            checked.append(rep.name)
    fam = hopf_model(hopf_space)
    for rep in metric_probes(hopf_space, fam.name, probe_jet(engine, fam)):
        assert rep.passed
        checked.append(rep.name)
    x, _ = hopf_space.split(probe_grid(hopf_space))
    assert probe_tensor_field(hopf_space.deta(x), 1 - hopf_space.m, "hopf:deta", PROBE_RADII).passed

    for lee in (radial_lee(model, 0.5), mixed_lee(model, 0.5, 0.3), zero_lee(model)):
        for rep in lee_probes(model, lee.name, probe_lee_jet(engine, lee)):
            assert rep.passed, f"{rep.name}: slope {rep.slope:.2f}"
            checked.append(rep.name)

    # the negative-control family reproduces its own (slow) r^(-1/2) rate
    # while failing the asymptotic requirement
    slow = slow_tail(model, mu=1.0)
    own = probe_tensor_field(_deviation_field(slow).values(probe_grid(model)), -0.5,
                             "slow_tail:own-rate", PROBE_RADII)
    assert own.passed and own.slope == pytest.approx(-0.5, abs=0.05)
    alf = metric_probes(model, slow.name, probe_jet(engine, slow))
    assert not all(r.passed for r in alf)
    _announce(7, f"{len(checked)} probes reproduce declared exponents within 0.2; "
                 "negative control matches its own rate and fails the asymptotic one")


def _deviation_field(fam):
    from weylmass.engine import Field

    n = fam.model.dim

    def fn(coords):
        g = fam.fn(coords)
        return [[g[i][j] - (1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]

    return Field(fn, shape=(n, n))


def test_criterion_8_soft_positivity(model, hopf_space):
    """Where the sampled connection Ricci is certified >= 0, mass eigenvalues >= -1e-4."""
    engine = DerivativeEngine()
    examples = [
        ("flat_product", WeylStructure(model, flat_product(model), zero_lee(model))),
        ("hopf_model", WeylStructure(hopf_space, hopf_model(hopf_space), zero_lee(hopf_space))),
        ("kaluza mu=0.5", WeylStructure(model, kaluza_perturbation(model, mu=0.5), zero_lee(model))),
        ("kaluza+lee", WeylStructure(model, kaluza_perturbation(model, mu=1.0), radial_lee(model, 0.2))),
    ]
    verified, skipped = [], []
    for name, ws in examples:
        floor = ricci_positivity_floor(engine, ws, sample_count=10)
        if floor >= -1e-6:
            mat, _, _ = mass_matrix(engine, ws)
            eig_min = float(np.min(np.linalg.eigvalsh(mat)))
            assert eig_min >= -1e-4, f"{name}: eigenvalue {eig_min:.3e}"
            verified.append((name, eig_min))
        else:
            skipped.append((name, floor))
    assert any(name == "flat_product" for name, _ in verified)
    _announce(8, f"verified {len(verified)} Ricci-nonnegative examples "
                 f"{[(n, f'{e:.1e}') for n, e in verified]}; "
                 f"hypothesis not certified for {[n for n, _ in skipped]} (skipped)")
