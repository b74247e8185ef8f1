"""Built-in metric families, Lee-form fields and conformal-factor fields.

Evaluators receive coordinates as a length-n sequence of generic scalars
(floats, batch arrays or Taylor2 seeds) and must only use the generic math
in :mod:`weylmass.autodiff`, so the derivative engine can push dual numbers
through them.  An evaluator returns nested lists of components or one
array-valued result: with Taylor2 seeds that is one array-valued jet.
``random_local_metric`` and ``random_local_lee`` are sine series, whose jet
is the one closed form ``autodiff.sine_series``, the same bits as generic
Taylor arithmetic on them.  Callers index either kind as ``out[i][j]``.
All components are taken in the model coframe ``(dx_1..dx_m, eta)``.

A metric or Lee field carries only its evaluator and name, and a conformal
factor also its parameters, which label it in the probe reports: the decay
probes of :mod:`weylmass.probes` test the class rates 2-m, 1-m and -m, and
every derivative comes from the engine's jets.

The conformal-factor builders read the radius r = |(x_1..x_m)| and its
powers r^s through ``_radial``.  ``stacked_factors`` hands its factors one
shared coordinate list per evaluation, on which ``_radial`` builds r once
and each r^s once per distinct exponent, for all the factors of a sweep;
the stored jets go with the list when the evaluation returns.  On any other
coordinates ``_radial`` builds them afresh, by the same operations, so a
factor's jets are the same bits whether it is evaluated alone or stacked.

The identity-trial builders draw each of their trials as one trial alone
would (``stacked_draws``) and give their coefficients a trailing trial axis:
T trials are evaluated at T points, one trial at a point or a node block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from . import autodiff as am
from .engine import Field
from .model import ModelSpace


def _radius(xs):
    acc = xs[0] * xs[0]
    for xi in xs[1:]:
        acc = acc + xi * xi
    return am.sqrt(acc)


class _SharedCoords(list):
    """The coordinates of one ``stacked_factors`` evaluation, with the radius jets its factors have built.

    ``jets`` maps (m, s) to r**s for r = |(x_1..x_m)|, and (m, None) to r itself.  It is filled by
    ``_radial`` and dropped with the list when the evaluation returns.
    """

    __slots__ = ("jets",)

    def __init__(self, coords):
        super().__init__(coords)
        self.jets = {}


def _radial(coords, m: int, s=None):
    """r = |(x_1..x_m)| of ``coords``, or r**s when s is given.

    On the shared coordinates of ``stacked_factors`` each is built once and reused, r**s from the stored r,
    keyed by the exponent's value; on any other coordinates both are computed as ``_radius(coords[:m]) ** s``.
    Either way a factor sees the same operations on the same operands, so its jets do not change.
    """
    if not isinstance(coords, _SharedCoords):
        r = _radius(coords[:m])
        return r if s is None else r**s
    key = (m, s)
    if key not in coords.jets:
        coords.jets[key] = _radius(coords[:m]) if s is None else _radial(coords, m) ** s
    return coords.jets[key]


@dataclass
class MetricFamily:
    """Family of frame metric components."""

    name: str
    model: ModelSpace
    fn: Callable  # coords -> nested (n, n) components

    def as_field(self) -> Field:
        n = self.model.dim
        return Field(self.fn, shape=(n, n), name=self.name)


@dataclass
class LeeFormField:
    """Frame components of a Lee form theta, or of theta - df/(2f) in the gauge f g.

    ``fn`` gives theta; a gauge change records its ``factor`` f instead of
    differentiating it, and ``weyl.lee_jet`` is the one reader of the form.
    """

    name: str
    model: ModelSpace
    fn: Callable  # coords -> nested (n,) components
    factor: Optional[ScalarField] = None


@dataclass
class ScalarField:
    """Positive conformal factor."""

    name: str
    model: ModelSpace
    fn: Callable  # coords -> scalar
    params: dict = dc_field(default_factory=dict)

    def as_field(self) -> Field:
        return Field(self.fn, shape=(), name=self.name)


def stacked_factors(factors) -> Field:
    """One field of shape (F,) over conformal factors, each evaluated on the same seeds: a sweep pays one
    jet's fixed costs per node block or probe grid, not one per factor.

    Each evaluation hands every factor one ``_SharedCoords`` list, so the built-in factors, which read r and
    r**s through ``_radial``, build the radius jet once and each r**s once per distinct exponent between
    them.  Those jets live for that one evaluation; a hand-built factor reads the list as plain coordinates.
    """

    def fn(coords):
        shared = _SharedCoords(coords)
        return [f.fn(shared) for f in factors]

    return Field(fn, shape=(len(factors),), name="stacked(" + ",".join(f.name for f in factors) + ")")


# ---------------------------------------------------------------------------
# metric families
# ---------------------------------------------------------------------------


def _diagonal_rows(V, m: int) -> list:
    """Frame components of V dx^2 + eta^2: V on the m base slots, 1 on the fiber."""
    return [[(V if i == j and i < m else (1.0 if i == j else 0.0)) for j in range(m + 1)]
            for i in range(m + 1)]


def flat_product(model: ModelSpace) -> MetricFamily:
    """The model metric itself: identity frame components."""
    n = model.dim

    def fn(coords):
        return np.eye(n)

    return MetricFamily("flat_product", model, fn)


def hopf_model(model: ModelSpace) -> MetricFamily:
    if model.fibration != "hopf":
        raise ValueError("hopf_model requires a hopf-fibered model space")
    return MetricFamily("hopf_model", model, flat_product(model).fn)


def kaluza_perturbation(model: ModelSpace, mu: float = 1.0) -> MetricFamily:
    """g = (1 + 2 mu r^(2-m)) dx^2 + eta^2 on the trivial fibration."""
    m = model.m

    def fn(coords):
        r = _radius(coords[:m])
        return _diagonal_rows(1.0 + 2.0 * mu * r ** (2 - m), m)

    return MetricFamily("kaluza_perturbation", model, fn)


def kaluza_two_term(model: ModelSpace, mu: float = 1.0, kappa: float = 0.5) -> MetricFamily:
    """Kaluza profile with an explicit subleading r^(2(2-m)) tail."""
    m = model.m

    def fn(coords):
        r = _radius(coords[:m])
        return _diagonal_rows(1.0 + 2.0 * mu * r ** (2 - m) + kappa * r ** (2 * (2 - m)), m)

    return MetricFamily("kaluza_two_term", model, fn)


def slow_tail(model: ModelSpace, mu: float = 1.0) -> MetricFamily:
    """Negative-control family: r^(-1/2) tail, too slow to be asymptotically model."""
    m = model.m

    def fn(coords):
        r = _radius(coords[:m])
        return _diagonal_rows(1.0 + 2.0 * mu * r ** (-0.5), m)

    return MetricFamily("slow_tail", model, fn)


def conformal_sweep(base: MetricFamily, factor: ScalarField) -> MetricFamily:
    """Pointwise rescaling f * g of any family by a positive factor."""
    n = base.model.dim

    def fn(coords):
        f = factor.fn(coords)
        g = base.fn(coords)
        return [[f * g[i][j] for j in range(n)] for i in range(n)]

    return MetricFamily(f"conformal_sweep({base.name},{factor.name})", base.model, fn)


def stacked_draws(rngs, draw) -> tuple:
    """``draw(rng)`` for each trial's generator, in order, each of its arrays stacked on a trailing trial axis."""
    return tuple(np.stack(arrays, axis=-1) for arrays in zip(*map(draw, rngs)))


def random_local_metric(model: ModelSpace, seeds, fiber_dependence=False, wave_scale: float = 0.7) -> MetricFamily:
    """Smooth random symmetric perturbations of the identity, one per seed, for identity trials: the
    coefficients carry a trailing trial axis (module docstring); ``fiber_dependence`` is one flag or one per seed."""
    n = model.dim
    m = model.m
    nterms = 3
    syms, waves, phases = stacked_draws(
        [np.random.default_rng(np.random.SeedSequence([seed, 901])) for seed in seeds],
        lambda rng: (rng.normal(size=(nterms, n, n)), rng.uniform(-1.0, 1.0, size=(nterms, m)),
                     rng.uniform(0, 2 * math.pi, size=nterms)))
    syms = (syms + np.swapaxes(syms, 1, 2)) / 2.0
    fiber = np.zeros(phases.shape)  # the wave number of t: 2 pi / L in term 0 of a fiber-dependent trial, else 0
    fiber[0] = 2.0 * math.pi * np.broadcast_to(fiber_dependence, (len(seeds),)) / model.L
    # term q: sin(waves[q] . x + fiber[q] t + phase[q]); the metric is identity + sum_q 0.12 syms[q] s_q
    arg_coefs = np.concatenate([waves * wave_scale, fiber[:, None], phases[:, None]], axis=1)
    coefs, name = 0.12 * syms, f"random_local_metric(seeds={list(seeds)})"

    def fn(coords):
        g = am.sine_series(coefs, arg_coefs, list(coords[:m + 1]) + [1.0], name)
        am.value(g)[range(n), range(n)] += 1.0  # the identity, added last
        return g

    return MetricFamily(name, model, fn)


# ---------------------------------------------------------------------------
# Lee forms
# ---------------------------------------------------------------------------


def zero_lee(model: ModelSpace) -> LeeFormField:
    n = model.dim

    def fn(coords):
        return [0.0] * n

    return LeeFormField("zero_lee", model, fn)


def radial_lee(model: ModelSpace, amplitude: float = 0.5) -> LeeFormField:
    """theta = amplitude * r^(1-m) dr; exact, so d(theta) = 0."""
    m = model.m

    def fn(coords):
        r = _radius(coords[:m])
        scale = amplitude * r ** (-m)
        return [scale * coords[a] for a in range(m)] + [0.0]

    return LeeFormField("radial_lee", model, fn)


def mixed_lee(model: ModelSpace, amplitude: float = 0.5, fiber_amplitude: float = 0.3) -> LeeFormField:
    """Decaying Lee form with angular and fiber components and d(theta) != 0."""
    m = model.m

    def fn(coords):
        r = _radius(coords[:m])
        fall = r ** (1 - m)
        comps = [(amplitude * fall if a == 0 else 0.0) for a in range(m)]
        comps.append(fiber_amplitude * fall)
        return comps

    return LeeFormField("mixed_lee", model, fn)


def compact_lee(model: ModelSpace, amplitude: float = 0.5, r0: float = 2.0, r1: float = 4.0) -> LeeFormField:
    """Smooth bump-supported Lee form amplitude * exp(-1/(1 - s^2)) dr, s = (2r - r0 - r1)/(r1 - r0).

    It vanishes outside r in (r0, r1).  Two ``autodiff.where`` build the
    bump: the inner one holds 1 - s^2 at 1 off the support, where -1/(1 - s^2)
    would divide by zero, and the outer one sets the bump to 0 there.
    """
    if not r0 < r1:
        raise ValueError(f"compact_lee needs r0 < r1, got r0={r0!r} r1={r1!r}")
    m = model.m

    def fn(coords):
        r = _radius(coords[:m])
        s = (2.0 * r - (r0 + r1)) / (r1 - r0)
        u = 1.0 - s * s
        inside = am.value(u) > 0.0
        bump = am.where(inside, am.exp(-1.0 / am.where(inside, u, 1.0)), 0.0)
        return [amplitude * bump * coords[a] / r for a in range(m)] + [0.0]

    return LeeFormField("compact_lee", model, fn)


def random_local_lee(model: ModelSpace, seeds, amplitude=0.3, fiber_dependence=False,
                     wave_scale: float = 0.6) -> LeeFormField:
    """Smooth random Lee forms, one per seed, for identity trials (no decay guarantees), on the trial axis
    of ``random_local_metric``; ``amplitude`` (0: the zero form) and ``fiber_dependence`` are one value or one
    per seed."""
    n = model.dim
    m = model.m
    coef, phases, amps = stacked_draws(
        [np.random.default_rng(np.random.SeedSequence([seed, 902])) for seed in seeds],
        lambda rng: (rng.uniform(-1.0, 1.0, size=(n, m)), rng.uniform(0, 2 * math.pi, size=n), rng.normal(size=n)))
    omega_t = 2.0 * math.pi * np.broadcast_to(fiber_dependence, (len(seeds),)) / model.L
    # component i: amps[i] sin(phases[i] + coef[i] . x (+ omega_t t for i = 0))
    arg_coefs = np.concatenate([phases[:, None], coef * wave_scale, np.eye(n)[:, :1, None] * omega_t], axis=1)
    amps = amps * np.asarray(amplitude)
    name = f"random_local_lee(seeds={list(seeds)})"

    def fn(coords):
        return am.sine_series(amps, arg_coefs, [1.0] + list(coords[:m + 1]), name, diagonal=True)

    return LeeFormField(name, model, fn)


# ---------------------------------------------------------------------------
# scalar conformal factors
# ---------------------------------------------------------------------------


def radial_profile(model: ModelSpace, beta: float = 0.5, power: Optional[float] = None) -> ScalarField:
    """f = 1 + beta * r^power with power defaulting to the adapted rate 2-m."""
    m = model.m
    s = (2 - m) if power is None else power

    def fn(coords):
        return 1.0 + beta * _radial(coords, m, s)

    return ScalarField("radial_profile", model, fn, params={"beta": beta, "power": s})


def directional_profile(model: ModelSpace, beta: float = 0.3, axis: int = 0) -> ScalarField:
    """f = 1 + beta * x_axis * r^(1-m): angular dependence at the adapted rate."""
    m = model.m
    if not 0 <= axis < m:
        raise ValueError(f"directional_profile axis must satisfy 0 <= axis < m = {m}, got {axis}")
    s = 1 - m

    def fn(coords):
        return 1.0 + beta * coords[axis] * _radial(coords, m, s)

    return ScalarField("directional_profile", model, fn, params={"beta": beta, "axis": axis})


def log_slow_profile(model: ModelSpace, beta: float = 1.0) -> ScalarField:
    """f = 1 + beta/log r: too slow for the adapted class, probe must reject."""
    m = model.m

    def fn(coords):
        return 1.0 + beta / am.log(_radial(coords, m))

    return ScalarField("log_slow_profile", model, fn, params={"beta": beta})


def sqrt_slow_profile(model: ModelSpace, beta: float = 1.0) -> ScalarField:
    """f = 1 + beta/sqrt(r): decays, but slower than any adapted rate for m >= 3."""
    return radial_profile(model, beta=beta, power=-0.5)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

METRIC_BUILDERS = {
    "flat_product": flat_product,
    "hopf_model": hopf_model,
    "kaluza_perturbation": kaluza_perturbation,
    "kaluza_two_term": kaluza_two_term,
    "slow_tail": slow_tail,
}

LEE_BUILDERS = {
    "zero_lee": zero_lee,
    "radial_lee": radial_lee,
    "mixed_lee": mixed_lee,
    "compact_lee": compact_lee,
}

SCALAR_BUILDERS = {
    "radial_profile": radial_profile,
    "directional_profile": directional_profile,
    "log_slow_profile": log_slow_profile,
    "sqrt_slow_profile": sqrt_slow_profile,
}
