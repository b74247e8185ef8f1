"""Independent-path verification of the connection and Bochner identities.

Every check compares two computational routes to the same quantity and
reports the worst residual over seeded random trials.  A pointwise check
draws all its trials first and evaluates them as one batch per form degree,
on the trial axis of ``families.random_local_metric``:

* torsion of the connection difference law, checked against a finite
  difference Lie bracket;
* the shift laws of d^D and delta^D under D -> D + sigma;
* (d^D)^2 = k F^D ^ w against an independently assembled curvature 2-form;
* the symmetric/antisymmetric curvature split;
* the Bochner identity in pointwise, divergence and integral form.

(d^D)^2 and the pointwise and divergence Bochner checks set the
Weitzenboeck algebra on the closed-form second derivative D(Dw)
(``weyl.covd2_form_block``) against the curvature algebra on (W, dW); both
are read off the same jets, so their residuals sit at roundoff.  The accuracy of those jets is covered by the nested
finite-difference oracle tests, as for ``curvature_split``.

The integral check is a volume integral over an annulus of about 25,600
nodes plus the zeta flux through its two boundary shells, all streamed
through ``quadrature.node_blocks``.  The density reads Ric^D(a#, a#) off
the frame Hessian of g with a# contracted in first (``weyl._ricci_jet``), so
its block holds the metric jet but no Koszul jet of the Hessian, dGamma, dW,
curvature or Ricci tensor: its measured peak is about 21 n^4 bytes per node
on the trivial chart, in a pass over the Hessian, and 35 n^4 on the Hopf
chart, while the metric jet is taken and E (C g) built next to it.  Its budget
stays at 40 n^4 bytes per node, so a 5 MiB block holds 512 nodes at
n = 4 and each rank-4 array, 1 MiB,
stays in a 2 MB L2 cache (at 2,048 nodes the batch-last einsums streamed
from memory, at 128 or fewer per-block Python overhead dominated).  A
zeta block holds about six rank-3 arrays (48 n^3 bytes per node; measured
31.7 n^3 on the trivial chart and 39.2 n^3 on the Hopf chart).  Each
block factors its gram once: g^-1 and sqrt(det g) come off one factor
and the block hands sqrt(det g) to the curved quadrature.  No bit of
either side depends on the block size.

The literature carries the Bochner curvature term with both signs and two
variants of the delta^D shift coefficient; this suite does not guess.  It
fits the constants from the two-path residuals, asserts they are stable
across trials, and ships the resolved values, keeping the rejected variants
in the report.  The sign is one constant, ``RESOLVED_BOCHNER_SIGN`` (+1):
every Bochner kernel reads it when called, and ``resolve_bochner_sign``
(``bochner_sign`` in the report) fails unless the trials of its run elect
it.  The shift coefficient is ``codifferential_shift_coefficient``
(2p - n - k).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Mapping

import numpy as np

from . import autodiff as am
from .engine import DerivativeEngine, Field, frame_jet1
from .families import LeeFormField, random_local_lee, random_local_metric, stacked_draws
from .model import ModelSpace
from .quadrature import (QuadratureSpec, flux_curved_metric, gauss_legendre, node_blocks, sphere_rule,
                         volume_integral_curved)
from .weyl import (FormFieldSpec, WeylStructure, _brackets, _coeff_curvature, _covd_slots, _faraday_components,
                   _ricci, _ricci_jet, covd2_form_block, covd_form_block, dD, deltaD, form_field_of, insert_alt,
                   inv_gram, lee_jet, lie_bracket, outer_front, tdot, weyl_connect_vec, weyl_curvature)

RESOLVED_BOCHNER_SIGN = 1.0


def codifferential_shift_coefficient(n: int, k, p: int):
    """Resolved coefficient of sigma# _| w in the delta^D shift law."""
    return 2 * p - n - k


def printed_shift_coefficient(n: int, k, p: int):
    """Alternate coefficient found in the literature; agrees only at p = 2."""
    return 2 - n - k + p


@dataclass
class IdentityReport:
    """Outcome of one identity check over randomized trials."""

    identity: str
    trials: int
    max_residual: float
    tolerance: float
    details: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """The residual is below the tolerance, and a resolved sign, if any, is ``RESOLVED_BOCHNER_SIGN``."""
        return (self.max_residual < self.tolerance
                and self.details.get("resolved_sign", RESOLVED_BOCHNER_SIGN) == RESOLVED_BOCHNER_SIGN)

    def as_dict(self) -> dict:
        return {**{key: value for key, value in vars(self).items() if key != "details" or value}, "passed": self.passed}


# ---------------------------------------------------------------------------
# randomized trial data
# ---------------------------------------------------------------------------


def _rng(seed: int, tag: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag, trial]))


def trial_point(model: ModelSpace, rng) -> np.ndarray:
    u = rng.normal(size=model.m)
    u /= np.linalg.norm(u)
    r = rng.uniform(1.6 * model.R, 3.5 * model.R)
    return model.point(r * u, rng.uniform(0.0, model.L))


def trial_structure(model: ModelSpace, seed: int, trials, with_lee=True, fiber_dependence=False,
                    wave_scale: float = 0.7) -> WeylStructure:
    """One structure over the listed trials, on the trial axis of ``random_local_metric``; ``with_lee`` and
    ``fiber_dependence`` are one flag or one per trial, and a trial without a Lee form takes zero amplitudes."""
    seeds = [seed * 1000 + trial for trial in trials]
    fam = random_local_metric(model, seeds, fiber_dependence=fiber_dependence, wave_scale=wave_scale)
    lee = random_local_lee(model, seeds, amplitude=np.where(with_lee, 0.3, 0.0),
                           fiber_dependence=fiber_dependence, wave_scale=min(wave_scale, 0.6))
    return WeylStructure(model, fam, lee)


def antisymmetrize(arr: np.ndarray) -> np.ndarray:
    """Full alternation: average over index permutations with signs."""
    k = arr.ndim
    out = np.zeros_like(arr)
    for perm in itertools.permutations(range(k)):
        out += _perm_sign(perm) * np.transpose(arr, perm)
    return out / math.factorial(k)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def random_form_field(ws: WeylStructure, rngs, degree: int, weight, fiber_dependence=False,
                      wave_scale: float = 0.8) -> FormFieldSpec:
    """Random weighted p-forms, one per generator, on the trial axis of ``random_local_metric``; ``weight``
    (kept in the spec as given) and ``fiber_dependence`` are one value or one per generator."""
    n = ws.model.dim
    m = ws.model.m
    nterms = 2

    def draw(rng):
        coefs = [rng.normal(size=(n,) * degree) if degree else rng.normal() for _ in range(nterms)]
        return (np.stack([antisymmetrize(c) if degree >= 2 else c for c in coefs]),
                rng.uniform(-1.0, 1.0, size=(nterms, m)), rng.uniform(0, 2 * math.pi, size=nterms))

    form_coefs, waves, phases = stacked_draws(rngs, draw)
    fiber = np.zeros(phases.shape)
    fiber[0] = 2.0 * math.pi * np.broadcast_to(fiber_dependence, (len(rngs),)) / ws.model.L
    # term q: sin(phases[q] + waves[q] . x + fiber[q] t); the form is sum_q form_coefs[q] s_q
    arg_coefs = np.concatenate([phases[:, None], waves * wave_scale, fiber[:, None]], axis=1)
    name = f"random_{degree}form"

    def fn(coords):
        return am.sine_series(form_coefs, arg_coefs, [1.0] + list(coords[:m + 1]), name)

    return form_field_of(ws, fn, degree=degree, weight=weight, name=name)


def random_vector_field(model: ModelSpace, rngs) -> Field:
    """Random vector fields, one per generator, on the trial axis of ``random_local_metric``."""
    n = model.dim
    m = model.m
    coefs, waves, phases = stacked_draws(rngs, lambda rng: (
        rng.normal(size=n), rng.uniform(-1.0, 1.0, size=(n, m)), rng.uniform(0, 2 * math.pi, size=n)))
    # component i: coefs[i] sin(phases[i] + waves[i] . x)
    arg_coefs = np.concatenate([phases[:, None], waves * 0.6], axis=1)

    def fn(coords):
        return am.sine_series(coefs, arg_coefs, [1.0] + list(coords[:m]), "random_vector", diagonal=True)

    return Field(fn, shape=(n,), name="random_vector")


def extended_lee(base: LeeFormField, extra: LeeFormField) -> LeeFormField:
    """The Lee form of base plus extra, extra taken in base's gauge."""
    def fn(coords):
        return [x + y for x, y in zip(base.fn(coords), extra.fn(coords))]

    return LeeFormField(f"{base.name}+{extra.name}", base.model, fn, factor=base.factor)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_torsion(engine: DerivativeEngine, model: ModelSpace, seed: int, trials: int,
                  tolerance: float) -> IdentityReport:
    """D_X Y - D_Y X - [X, Y] = 0 with the bracket from an independent jet path."""
    worst = 0.0
    if trials:
        rngs = [_rng(seed, 11, trial) for trial in range(trials)]
        ws = trial_structure(model, seed, range(trials), fiber_dependence=[t % 3 == 0 for t in range(trials)])
        p = np.stack([trial_point(model, rng) for rng in rngs], axis=1)
        X, Y = random_vector_field(model, rngs), random_vector_field(model, rngs)
        dxy = weyl_connect_vec(engine, ws, Y, X, p)
        dyx = weyl_connect_vec(engine, ws, X, Y, p)
        br = lie_bracket(engine, model, X, Y, p)
        worst = float(np.max(np.abs(dxy - dyx - br)))
    return IdentityReport("torsion_free", trials, worst, tolerance)


def _two_structures(model, seed, trials, fiber_dependence=False):
    ws = trial_structure(model, seed, trials, fiber_dependence=fiber_dependence)
    sigma = random_local_lee(model, [seed * 1000 + t + 500000 for t in trials], fiber_dependence=fiber_dependence)
    ws2 = WeylStructure(model, ws.metric, extended_lee(ws.lee, sigma), gauge=ws.gauge)
    return ws, ws2, sigma


def _weight_pool(model: ModelSpace):
    return [-2.0, 0.0, (3.0 - model.m) / 2.0, 1.0]


def _form_groups(model: ModelSpace, seed: int, tag: int, trials: int, degrees: tuple[int, int]):
    """(degree, trial indices, generators, points (n, T), weights (T,)) per form degree, the one draw that
    changes array shapes; every trial draws first, its point, then its degree, then its weight."""
    rngs = [_rng(seed, tag, trial) for trial in range(trials)]
    points = [trial_point(model, rng) for rng in rngs]
    degs = [int(rng.integers(*degrees)) for rng in rngs]
    pool = _weight_pool(model)
    weights = np.array([pool[int(rng.integers(0, 4))] for rng in rngs])
    for deg in dict.fromkeys(degs):
        group = [trial for trial in range(trials) if degs[trial] == deg]
        yield deg, group, [rngs[t] for t in group], np.stack([points[t] for t in group], axis=1), weights[group]


def check_d_transform(engine: DerivativeEngine, model: ModelSpace, seed: int, trials: int,
                      tolerance: float) -> IdentityReport:
    """d^{D+sigma} w = d^D w + k sigma ^ w over random degrees and weights."""
    worst = 0.0
    for deg, group, rngs, p, k in _form_groups(model, seed, 12, trials, (0, model.dim)):
        ws, ws2, sigma = _two_structures(model, seed, group, fiber_dependence=[t % 4 == 0 for t in group])
        spec = random_form_field(ws, rngs, deg, k)
        spec2 = FormFieldSpec(spec.field, deg, k, ws2.gauge)
        d1 = dD(engine, ws, spec, p)
        d2 = dD(engine, ws2, spec2, p)
        sg = lee_jet(engine, sigma, p)
        w = spec.field.values(p)
        shift = k * (sg * w if deg == 0 else insert_alt(outer_front(sg, w, deg), deg))
        worst = max(worst, float(np.max(np.abs(d2 - d1 - shift))))
    return IdentityReport("d_transform", trials, worst, tolerance)


def check_codifferential_transform(engine: DerivativeEngine, model: ModelSpace, seed: int, trials: int,
                                   tolerance: float) -> IdentityReport:
    """delta^{D+sigma} w = delta^D w + (2p - n - k) sigma# _| w, with coefficient fit.

    The report carries both the resolved-coefficient residual (the pass
    criterion) and the worst residual of the alternate printed coefficient,
    plus the largest gap between the least-squares coefficient fit and the
    resolved formula.
    """
    worst = worst_printed = worst_fit_gap = 0.0
    n = model.dim
    for deg, group, rngs, p, k in _form_groups(model, seed, 13, trials, (1, n + 1)):
        ws, ws2, sigma = _two_structures(model, seed, group)
        spec = random_form_field(ws, rngs, deg, k)
        spec2 = FormFieldSpec(spec.field, deg, k, ws2.gauge)
        s1 = deltaD(engine, ws, spec, p)
        s2 = deltaD(engine, ws2, spec2, p)
        ssharp = np.einsum("ab...,b...->a...", inv_gram(ws.gram(p)), lee_jet(engine, sigma, p))
        iw = tdot(ssharp, spec.field.values(p))
        diff = s2 - s1
        c_res = codifferential_shift_coefficient(n, k, deg)
        c_alt = printed_shift_coefficient(n, k, deg)
        worst = max(worst, float(np.max(np.abs(diff - c_res * iw))))
        worst_printed = max(worst_printed, float(np.max(np.abs(diff - c_alt * iw))))
        denom = (iw * iw).reshape(-1, len(group)).sum(axis=0)
        fitted = denom > 1e-16
        fit = (diff * iw).reshape(-1, len(group)).sum(axis=0)[fitted] / denom[fitted]
        worst_fit_gap = max(worst_fit_gap, float(np.max(np.abs(fit - c_res[fitted]), initial=0.0)))
    return IdentityReport(
        "codifferential_transform", trials, worst, tolerance,
        details={
            "resolved_coefficient": "2p - n - k",
            "printed_variant_max_residual": worst_printed,
            "coefficient_fit_gap": worst_fit_gap,
        },
    )


def alternate_pair(block: np.ndarray, p: int) -> np.ndarray:
    """The (p + 2)-form of a block B[b; a; J] over a p-form J: ``insert_alt`` of a into J, then of b.

    On D(Dw) this is (d^D)^2 w (D commutes with the slot alternation); on
    F (x) w for a 2-form F it is twice the shuffle wedge F ^ w.
    """
    inner = np.moveaxis(insert_alt(np.moveaxis(block, 0, p + 1), p), p + 1, 0)
    return insert_alt(inner, p + 1)


def check_d_squared(engine: DerivativeEngine, model: ModelSpace, seed: int, trials: int,
                    tolerance: float) -> IdentityReport:
    """(d^D)^2 w = k F^D ^ w with both sides on independent paths."""
    worst = 0.0
    for deg, group, rngs, p, k in _form_groups(model, seed, 14, trials, (0, model.dim - 1)):
        ws = trial_structure(model, seed, group)
        spec = random_form_field(ws, rngs, deg, k)
        w, _, DH, jet = covd2_form_block(engine, ws, spec, p)
        F = _faraday_components(jet.theta, jet.dtheta, _brackets(model, p))
        # F (x) w, then the kernel of (d^D)^2: 1/2 of its pair alternation is F ^ w
        rhs = 0.5 * k * alternate_pair(F.reshape(F.shape[:2] + (1,) * deg + F.shape[2:]) * w, deg)
        dd = alternate_pair(DH, deg)
        worst = max(worst, float(np.max(np.abs(dd - rhs))))
    return IdentityReport("d_squared_curvature", trials, worst, tolerance)


def check_curvature_split(engine: DerivativeEngine, model: ModelSpace, seed: int, trials: int,
                          tolerance: float) -> IdentityReport:
    """Symmetric part of the curvature endomorphism equals F^D (x) Id."""
    worst = 0.0
    if trials:
        ws = trial_structure(model, seed, range(trials))
        p = np.stack([trial_point(model, _rng(seed, 15, trial)) for trial in range(trials)], axis=1)
        worst = weyl_curvature(engine, ws, p).split_residual
    return IdentityReport("curvature_split", trials, worst, tolerance)


# ---------------------------------------------------------------------------
# Bochner machinery
# ---------------------------------------------------------------------------


def _bochner_pointwise_terms(engine: DerivativeEngine, ws: WeylStructure, spec: FormFieldSpec, coords):
    """(<(DiracD)^2 a, a> - <Lap^D a, a>, Ric^D(a#, a#), |k F^D(a#, a#)|) at a point or per point of a block.

    D(Dw) and the curvature come off the same metric jet, so the residual
    for either sign of the Ricci term is read off these three numbers.
    """
    a, _, DH, jet = covd2_form_block(engine, ws, spec, coords)
    ginv, C = jet.ginv, _brackets(ws.model, coords)
    p1 = -np.einsum("ab...,cab...->c...", ginv, DH)                            # d^D delta^D a
    p2 = -np.einsum("ec...,ecj...->j...", ginv, DH - np.swapaxes(DH, 1, 2))   # delta^D d^D a
    lap = -np.einsum("ab...,abj...->j...", ginv, DH)
    lhs = np.einsum("ab...,a...,b...->...", ginv, p1 + p2, a)
    mid = np.einsum("ab...,a...,b...->...", ginv, lap, a)
    ash = np.einsum("ab...,b...->a...", ginv, a)
    ric_term = np.einsum("a...,ab...,b...->...", ash, _ricci(_coeff_curvature(jet.W, jet.dW, C), jet.g, ginv), ash)
    f_term = np.abs(spec.weight * np.einsum("a...,ab...,b...->...", ash,
                                            _faraday_components(jet.theta, jet.dtheta, C), ash))
    return lhs - mid, ric_term, f_term


def bochner_pointwise_residual(engine: DerivativeEngine, ws: WeylStructure, spec: FormFieldSpec, coords):
    """Residual of <(DiracD)^2 a, a> = <Lap^D a, a> + s Ric^D(a#, a#), s = ``RESOLVED_BOCHNER_SIGN``.

    Returns (residual, |Ric term|, |contracted F term|), each per point; the
    last is the k F^D(a#, a#) contraction that must vanish by antisymmetry.
    """
    diff, ric_term, f_term = _bochner_pointwise_terms(engine, ws, spec, np.asarray(coords, dtype=float))
    return np.abs(diff - RESOLVED_BOCHNER_SIGN * ric_term), np.abs(ric_term), f_term


def _bochner_trials(model: ModelSpace, seed: int, tag: int, trials, weights, with_lee=True):
    """(structure, form spec, points) of the listed 1-form trials, each drawing its point, then its weight
    from ``weights``, then its form."""
    rngs = [_rng(seed, tag, trial) for trial in trials]
    ws = trial_structure(model, seed, trials, with_lee=with_lee)
    p = np.stack([trial_point(model, rng) for rng in rngs], axis=1)
    k = np.array([weights[int(rng.integers(0, len(weights)))] for rng in rngs])
    return ws, random_form_field(ws, rngs, 1, k), p


def resolve_bochner_sign(engine: DerivativeEngine, model: ModelSpace, seed: int, trials: int,
                         tolerance: float) -> IdentityReport:
    """Pick the curvature-term sign that closes the identity on curved trials.

    Its ``resolved_sign`` is the sign all trials elect, 0 on a split or empty
    vote; it must be ``RESOLVED_BOCHNER_SIGN`` for the report to pass.  A candidate
    with |Ric(a#, a#)| < 1e-6 casts no vote; the first ``trials`` candidates
    run as one batch, then the shortfall, up to 3 ``trials`` candidates.
    """
    votes, worst_winner, min_margin, tried = [], 0.0, math.inf, 0
    while len(votes) < trials and tried < 3 * trials:
        batch = range(tried, min(tried + trials - len(votes), 3 * trials))
        tried = batch.stop
        ws, spec, p = _bochner_trials(model, seed, 17, batch, _weight_pool(model), with_lee=[t % 2 == 0 for t in batch])
        diff, ric_term, _ = _bochner_pointwise_terms(engine, ws, spec, p)
        voting = ~(np.abs(ric_term) < 1e-6)
        r_plus, r_minus = np.abs(diff - ric_term)[voting], np.abs(diff + ric_term)[voting]
        winner, loser = np.minimum(r_plus, r_minus), np.maximum(r_plus, r_minus)
        votes += [1.0 if plus else -1.0 for plus in r_plus < r_minus]
        worst_winner = max(worst_winner, float(np.max(winner, initial=0.0)))
        min_margin = min(min_margin, float(np.min(loser / np.maximum(winner, 1e-16), initial=math.inf)))
    sign = votes[0] if votes and all(v == votes[0] for v in votes) else 0.0
    return IdentityReport(
        "bochner_sign", len(votes), worst_winner, tolerance,
        details={"resolved_sign": sign, "min_loser_winner_ratio": min_margin},
    )


def check_bochner_pointwise(engine: DerivativeEngine, model: ModelSpace, seed: int, trials: int,
                            tolerance: float) -> IdentityReport:
    worst = worst_f = 0.0
    if trials:
        ws, spec, p = _bochner_trials(model, seed, 18, range(trials), _weight_pool(model))
        res, _, f_term = bochner_pointwise_residual(engine, ws, spec, p)
        worst, worst_f = float(np.max(res)), float(np.max(f_term))
    return IdentityReport(
        "bochner_pointwise", trials, worst, tolerance,
        details={"sign": RESOLVED_BOCHNER_SIGN, "max_contracted_faraday_term": worst_f},
    )


def _zeta(a, H, ginv):
    """zeta_c = (D_{a#} a)_c + delta^D(a) a_c, weight 2k - 2: the Bochner boundary current."""
    ash = np.einsum("ab...,b...->a...", ginv, a)
    delta = -np.einsum("ab...,ab...->...", ginv, H)
    return np.einsum("b...,bc...->c...", ash, H) + delta * a


def _zeta_codifferential(a, H, DH, ginv):
    """delta^D zeta = -g^{ec} (D_e zeta)_c by the product rule on (a, H, g^-1); D g^-1 = 0."""
    delta = -np.einsum("ab...,ab...->...", ginv, H)
    d_delta = -np.einsum("ab...,eab...->e...", ginv, DH)              # D_e delta^D a
    Dzeta = (np.einsum("bd...,ed...,bc...->ec...", ginv, H, H)       # (D_e a#) _| H
             + np.einsum("bd...,d...,ebc...->ec...", ginv, a, DH)    # a# _| D_e H
             + np.einsum("e...,c...->ec...", d_delta, a) + delta * H)
    return -np.einsum("ec...,ec...->...", ginv, Dzeta)


def _pair_norm(ginv, T):
    """g^{ac} g^{bd} T_ab T_cd in two steps: raise the first index, then contract the rest."""
    raised = np.einsum("ac...,cd...->ad...", ginv, T)
    return np.einsum("ad...,db...,ab...->...", raised, ginv, T)


def _density(ric_aa, ginv, H):
    """|Da|^2 + s Ric(a#, a#) - |DiracD a|^2 from Ric^D(a#, a#), g^-1 and H = Da, s = ``RESOLVED_BOCHNER_SIGN``."""
    delta = -np.einsum("ab...,ab...->...", ginv, H)
    dirac = delta**2 + 0.5 * _pair_norm(ginv, insert_alt(H, 1))
    return _pair_norm(ginv, H) + RESOLVED_BOCHNER_SIGN * ric_aa - dirac


def _bochner_density(engine: DerivativeEngine, ws: WeylStructure, spec: FormFieldSpec, coords):
    """(sqrt(det g), |Da|^2 + s Ric(a#, a#) - |DiracD a|^2) at a point or node block.

    H (``_covd_slots``) and Ric^D(a#, a#) come off one jet of a and one
    ``_ricci_jet`` at a, which contracts a# into each factor of Ric^D: no
    curvature and no n x n Ricci tensor is built.
    """
    a, dA = frame_jet1(engine, ws.model, spec.field, coords)
    jet = _ricci_jet(engine, ws, coords, a)
    H = _covd_slots(a, dA, jet.W, jet.theta, spec.weight, 1)
    return jet.vol, _density(jet.ric_aa, jet.ginv, H)


def bochner_divergence_residual(engine: DerivativeEngine, ws: WeylStructure, spec: FormFieldSpec, coords):
    """Residual of |Da|^2 + s Ric(a#, a#) - |DiracD a|^2 + delta^D(zeta) = 0, s = ``RESOLVED_BOCHNER_SIGN``, per point.

    Both terms come off the one metric jet of ``covd2_form_block``; Ric^D
    takes the curvature route (``_coeff_curvature``, ``_ricci``) on its jet.
    """
    coords = np.asarray(coords, dtype=float)
    a, H, DH, jet = covd2_form_block(engine, ws, spec, coords)
    ric = _ricci(_coeff_curvature(jet.W, jet.dW, _brackets(ws.model, coords)), jet.g, jet.ginv)
    ash = np.einsum("ab...,b...->a...", jet.ginv, a)
    ric_aa = np.einsum("a...,ab...,b...->...", ash, ric, ash)
    return np.abs(_density(ric_aa, jet.ginv, H) + _zeta_codifferential(a, H, DH, jet.ginv))


def check_bochner_divergence(engine: DerivativeEngine, model: ModelSpace, seed: int, trials: int,
                             tolerance: float) -> IdentityReport:
    worst = 0.0
    if trials:
        ws, spec, p = _bochner_trials(model, seed, 19, range(trials), _weight_pool(model) + [(4.0 - model.dim) / 2.0])
        worst = float(np.max(bochner_divergence_residual(engine, ws, spec, p)))
    return IdentityReport("bochner_divergence", trials, worst, tolerance,
                          details={"sign": RESOLVED_BOCHNER_SIGN})


def bochner_integral_sides(engine: DerivativeEngine, ws: WeylStructure, spec: FormFieldSpec,
                           r1: float, r2: float, quad: QuadratureSpec) -> tuple[float, float]:
    """(volume side, boundary side) of the integral identity on the annulus.

    The annulus and both boundary shells are streamed in node blocks (module
    docstring); each side sums its one array of per-node integrands once, so
    neither side depends on the block size.
    """
    model = ws.model
    n = model.dim
    volume = np.concatenate([
        volume_integral_curved(*_bochner_density(engine, ws, spec, pts), weights)
        for pts, weights, _ in node_blocks(model, *gauss_legendre(r1, r2, quad.radial), quad, 5 * 8 * n**4)])
    boundary = 0.0
    for r, orient in ((r2, +1.0), (r1, -1.0)):
        flux = np.concatenate([_zeta_flux(engine, ws, spec, *block)
                               for block in node_blocks(model, [r], [1.0], quad, 6 * 8 * n**3)])
        boundary += orient * float(np.sum(flux))
    return float(np.sum(volume)), boundary


def _zeta_flux(engine: DerivativeEngine, ws: WeylStructure, spec: FormFieldSpec, pts, weights, normals):
    """Per-node terms of the outward zeta flux of one shell block, from its one ``covd_form_block`` call."""
    a, H, jet = covd_form_block(engine, ws, spec, pts)
    return flux_curved_metric(_zeta(a, H, jet.ginv), jet.ginv, jet.vol, normals, weights)


def check_bochner_integral(engine: DerivativeEngine, model: ModelSpace, seed: int, trials: int, tolerance: float,
                           quad: QuadratureSpec | None = None) -> IdentityReport:
    """Volume integral vs boundary flux at the integrable weight (4 - n)/2."""
    worst = 0.0
    k = (4.0 - model.dim) / 2.0
    quad = quad or QuadratureSpec(sphere=100, fiber=16, radial=8)
    nodes = quad.radial * sphere_rule(model.m, quad.sphere)[1].size * quad.fiber
    pairs = []
    for trial in range(trials):
        rng = _rng(seed, 20, trial)
        ws = trial_structure(model, seed, [trial], fiber_dependence=(trial % 2 == 0), wave_scale=0.45)
        spec = random_form_field(ws, [rng], 1, k, fiber_dependence=(trial % 2 == 0), wave_scale=0.45)
        r1 = float(rng.uniform(1.3, 1.5) * model.R)
        r2 = r1 + float(rng.uniform(0.4, 0.6) * model.R)
        vol, bnd = bochner_integral_sides(engine, ws, spec, r1, r2, quad)
        rel = abs(vol - bnd) / max(abs(vol), abs(bnd), 1e-10)
        pairs.append((vol, bnd, rel))
        worst = max(worst, rel)
    return IdentityReport(
        "bochner_integral", trials, worst, tolerance,
        # nodes actually used: none when no trial ran
        details={"weight": k, "annulus_nodes": nodes if trials else 0,
                 "sides": [(f"{v:.6e}", f"{b:.6e}", f"{r:.2e}") for v, b, r in pairs]},
    )


# ---------------------------------------------------------------------------
# suite orchestration
# ---------------------------------------------------------------------------

# (check, trials/tolerance group), in report order
SUITE_CHECKS = (
    (check_torsion, "identity"),
    (check_d_transform, "identity"),
    (check_codifferential_transform, "identity"),
    (check_d_squared, "identity"),
    (check_curvature_split, "identity"),
    (resolve_bochner_sign, "bochner"),
    (check_bochner_pointwise, "bochner"),
    (check_bochner_divergence, "bochner"),
    (check_bochner_integral, "integral"),
)


# default trials and tolerance of each group
SUITE_TRIALS = {"identity": 100, "bochner": 20, "integral": 5}
SUITE_TOLERANCES = {"identity": 1e-6, "bochner": 1e-5, "integral": 1e-4}


def run_suite(engine: DerivativeEngine, model: ModelSpace, seed: int = 42, trials: Mapping = SUITE_TRIALS,
              tolerances: Mapping = SUITE_TOLERANCES) -> list[IdentityReport]:
    """Run every check of ``SUITE_CHECKS`` with its group's trial count and tolerance.

    ``trials`` and ``tolerances`` map every group to its value.  The Bochner
    checks take the curvature-term sign ``RESOLVED_BOCHNER_SIGN``, which
    ``bochner_sign`` re-derives from the trials of the same run.
    """
    return [check(engine, model, seed, trials[group], tolerances[group]) for check, group in SUITE_CHECKS]
