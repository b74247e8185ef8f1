"""Built-in metric families, Lee-form fields and conformal-factor fields.

Evaluators receive coordinates as a length-n sequence of generic scalars
(floats, batch arrays or Taylor2 seeds) and must only use the generic math
in :mod:`weylmass.autodiff`, so the derivative engine can push dual numbers
through them.  An evaluator returns nested lists of components or one
array-valued result: with Taylor2 seeds that is one array-valued jet, whose
single operations act on every component (``random_local_metric`` and
``random_local_lee`` build theirs with ``autodiff.lincomb``).  Callers that
combine components index either kind as ``out[i][j]``.  All components are
taken in the model coframe ``(dx_1..dx_m, eta)``.

Declared decay exponents are carried as metadata and checked against
measured slopes by :mod:`weylmass.probes`.
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


@dataclass
class MetricFamily:
    """Analytic family of frame metric components with decay metadata."""

    name: str
    model: ModelSpace
    fn: Callable  # coords -> nested (n, n) components
    params: dict = dc_field(default_factory=dict)
    analytic: bool = True
    is_alf: bool = True
    decay_g: Optional[float] = None  # exponent of g - h
    decay_dg: Optional[float] = None
    decay_ddg: Optional[float] = None

    def as_field(self) -> Field:
        n = self.model.dim
        return Field(self.fn, shape=(n, n), analytic=self.analytic, name=self.name)


@dataclass
class LeeFormField:
    """Frame components of a Lee form, with declared decay for theta and d(theta)."""

    name: str
    model: ModelSpace
    fn: Callable  # coords -> nested (n,) components
    params: dict = dc_field(default_factory=dict)
    analytic: bool = True
    decay_theta: Optional[float] = None
    decay_dtheta: Optional[float] = None

    def as_field(self) -> Field:
        return Field(self.fn, shape=(self.model.dim,), analytic=self.analytic, name=self.name)


@dataclass
class ScalarField:
    """Positive conformal factor with a closed-form frame gradient."""

    name: str
    model: ModelSpace
    fn: Callable  # coords -> scalar
    grad_fn: Callable  # coords -> nested (n,) frame gradient components
    params: dict = dc_field(default_factory=dict)
    analytic: bool = True
    decay_fm1: Optional[float] = None  # exponent of f - 1

    def as_field(self) -> Field:
        return Field(self.fn, shape=(), analytic=self.analytic, name=self.name)


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

    return MetricFamily("flat_product", model, fn, decay_g=-math.inf, decay_dg=-math.inf, decay_ddg=-math.inf)


def hopf_model(model: ModelSpace) -> MetricFamily:
    if model.fibration != "hopf":
        raise ValueError("hopf_model requires a hopf-fibered model space")
    fam = flat_product(model)
    return MetricFamily("hopf_model", model, fam.fn, decay_g=-math.inf, decay_dg=-math.inf, decay_ddg=-math.inf)


def kaluza_perturbation(model: ModelSpace, mu: float = 1.0) -> MetricFamily:
    """g = (1 + 2 mu r^(2-m)) dx^2 + eta^2 on the trivial fibration."""
    m = model.m

    def fn(coords):
        r = _radius(coords[:m])
        return _diagonal_rows(1.0 + 2.0 * mu * r ** (2 - m), m)

    return MetricFamily(
        "kaluza_perturbation", model, fn, params={"mu": mu},
        decay_g=2 - m, decay_dg=1 - m, decay_ddg=-m,
    )


def kaluza_two_term(model: ModelSpace, mu: float = 1.0, kappa: float = 0.5) -> MetricFamily:
    """Kaluza profile with an explicit subleading r^(2(2-m)) tail."""
    m = model.m

    def fn(coords):
        r = _radius(coords[:m])
        return _diagonal_rows(1.0 + 2.0 * mu * r ** (2 - m) + kappa * r ** (2 * (2 - m)), m)

    return MetricFamily(
        "kaluza_two_term", model, fn, params={"mu": mu, "kappa": kappa},
        decay_g=2 - m, decay_dg=1 - m, decay_ddg=-m,
    )


def slow_tail(model: ModelSpace, mu: float = 1.0) -> MetricFamily:
    """Negative-control family: r^(-1/2) tail, too slow to be asymptotically model."""
    m = model.m

    def fn(coords):
        r = _radius(coords[:m])
        return _diagonal_rows(1.0 + 2.0 * mu * r ** (-0.5), m)

    return MetricFamily(
        "slow_tail", model, fn, params={"mu": mu}, is_alf=False,
        decay_g=-0.5, decay_dg=-1.5, decay_ddg=-2.5,
    )


def conformal_sweep(base: MetricFamily, factor: ScalarField) -> MetricFamily:
    """Pointwise rescaling f * g of any family by a positive factor."""
    n = base.model.dim

    def fn(coords):
        f = factor.fn(coords)
        g = base.fn(coords)
        return [[f * g[i][j] for j in range(n)] for i in range(n)]

    decay = base.decay_g
    if factor.decay_fm1 is not None:
        decay = factor.decay_fm1 if decay is None else max(decay, factor.decay_fm1)
    m = base.model.m
    return MetricFamily(
        f"conformal_sweep({base.name},{factor.name})", base.model, fn,
        params={**base.params, "factor": factor.name},
        analytic=base.analytic and factor.analytic,
        is_alf=base.is_alf and factor.decay_fm1 is not None and factor.decay_fm1 <= 2 - m,
        decay_g=decay,
        decay_dg=None if decay is None else decay - 1,
        decay_ddg=None if decay is None else decay - 2,
    )


def random_local_metric(model: ModelSpace, seed: int, amplitude: float = 0.12,
                        fiber_dependence: bool = False, wave_scale: float = 0.7) -> MetricFamily:
    """Smooth random symmetric perturbation of the identity, for identity trials."""
    n = model.dim
    m = model.m
    rng = np.random.default_rng(np.random.SeedSequence([seed, 901]))
    nterms = 3
    syms = rng.normal(size=(nterms, n, n))
    syms = (syms + np.swapaxes(syms, 1, 2)) / 2.0
    waves = rng.uniform(-1.0, 1.0, size=(nterms, m)) * wave_scale
    phases = rng.uniform(0, 2 * math.pi, size=nterms)
    fiber_k = 1 if fiber_dependence else 0
    omega_t = 2.0 * math.pi * fiber_k / model.L
    # term q: sin(waves[q] . x (+ omega_t t for q = 0) + phase[q]), one lincomb each
    arg_coefs = [np.concatenate([waves[q], [omega_t] if omega_t and q == 0 else [], [phases[q]]])
                 for q in range(nterms)]
    # sum_q amplitude syms[q] s_q + identity, with the term index last
    metric_coefs = np.moveaxis(np.concatenate([amplitude * syms, np.eye(n)[None]]), 0, -1)

    def fn(coords):
        sines = []
        for q in range(nterms):
            fiber = [coords[m]] if omega_t and q == 0 else []
            sines.append(am.sin(am.lincomb(arg_coefs[q], list(coords[:m]) + fiber + [1.0])))
        return am.lincomb(metric_coefs, sines + [1.0])

    return MetricFamily(f"random_local_metric(seed={seed})", model, fn, params={"seed": seed}, is_alf=False)


# ---------------------------------------------------------------------------
# Lee forms
# ---------------------------------------------------------------------------


def zero_lee(model: ModelSpace) -> LeeFormField:
    n = model.dim

    def fn(coords):
        return [0.0] * n

    return LeeFormField("zero_lee", model, fn, decay_theta=-math.inf, decay_dtheta=-math.inf)


def radial_lee(model: ModelSpace, amplitude: float = 0.5) -> LeeFormField:
    """theta = amplitude * r^(1-m) dr; exact, so d(theta) = 0."""
    m = model.m

    def fn(coords):
        r = _radius(coords[:m])
        scale = amplitude * r ** (-m)
        return [scale * coords[a] for a in range(m)] + [0.0]

    return LeeFormField(
        "radial_lee", model, fn, params={"amplitude": amplitude},
        decay_theta=1 - m, decay_dtheta=-math.inf,
    )


def mixed_lee(model: ModelSpace, amplitude: float = 0.5, fiber_amplitude: float = 0.3) -> LeeFormField:
    """Decaying Lee form with angular and fiber components and d(theta) != 0."""
    m = model.m

    def fn(coords):
        r = _radius(coords[:m])
        fall = r ** (1 - m)
        comps = [(amplitude * fall if a == 0 else 0.0) for a in range(m)]
        comps.append(fiber_amplitude * fall)
        return comps

    return LeeFormField(
        "mixed_lee", model, fn, params={"amplitude": amplitude, "fiber_amplitude": fiber_amplitude},
        decay_theta=1 - m, decay_dtheta=-m,
    )


def compact_lee(model: ModelSpace, amplitude: float = 0.5, r0: float = 2.0, r1: float = 4.0) -> LeeFormField:
    """Smooth bump-supported Lee form; vanishes outside r in (r0, r1)."""
    m = model.m

    def fn(coords):
        coords = [np.asarray(c, dtype=float) for c in coords]
        r = _radius(coords[:m])
        s = (2.0 * r - (r0 + r1)) / (r1 - r0)
        inside = np.abs(s) < 1.0
        bump = np.zeros_like(np.asarray(s))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = np.exp(-1.0 / np.maximum(1.0 - s**2, 1e-300))
        bump = np.where(inside, vals, 0.0)
        return [amplitude * bump * coords[a] / r for a in range(m)] + [np.zeros_like(np.asarray(s))]

    return LeeFormField(
        "compact_lee", model, fn, params={"amplitude": amplitude, "r0": r0, "r1": r1},
        analytic=False, decay_theta=-math.inf, decay_dtheta=-math.inf,
    )


def random_local_lee(model: ModelSpace, seed: int, amplitude: float = 0.3,
                     fiber_dependence: bool = False, wave_scale: float = 0.6) -> LeeFormField:
    """Smooth random Lee form for identity trials (no decay guarantees)."""
    n = model.dim
    m = model.m
    rng = np.random.default_rng(np.random.SeedSequence([seed, 902]))
    coef = rng.uniform(-1.0, 1.0, size=(n, m)) * wave_scale
    phases = rng.uniform(0, 2 * math.pi, size=n)
    amps = rng.normal(size=n) * amplitude
    omega_t = 2.0 * math.pi / model.L if fiber_dependence else 0.0
    # component i: amps[i] sin(phases[i] + coef[i] . x (+ omega_t t for i = 0))
    arg_coefs = np.concatenate([phases[:, None], coef] + ([omega_t * np.eye(n)[:, :1]] if omega_t else []), axis=1)

    def fn(coords):
        fiber = [coords[m]] if omega_t else []
        arg = am.lincomb(arg_coefs, [1.0] + list(coords[:m]) + fiber)
        return am.constant(amps, coords[0]) * am.sin(arg)

    return LeeFormField(f"random_local_lee(seed={seed})", model, fn, params={"seed": seed})


# ---------------------------------------------------------------------------
# scalar conformal factors
# ---------------------------------------------------------------------------


def unit_scalar(model: ModelSpace) -> ScalarField:
    n = model.dim

    def fn(coords):
        return 1.0

    def grad_fn(coords):
        return [0.0] * n

    return ScalarField("unit_scalar", model, fn, grad_fn, decay_fm1=-math.inf)


def radial_profile(model: ModelSpace, beta: float = 0.5, power: Optional[float] = None) -> ScalarField:
    """f = 1 + beta * r^power with power defaulting to the adapted rate 2-m."""
    m = model.m
    s = (2 - m) if power is None else power

    def fn(coords):
        r = _radius(coords[:m])
        return 1.0 + beta * r**s

    def grad_fn(coords):
        r = _radius(coords[:m])
        scale = beta * s * r ** (s - 2)
        return [scale * coords[a] for a in range(m)] + [0.0]

    return ScalarField(
        "radial_profile", model, fn, grad_fn, params={"beta": beta, "power": s}, decay_fm1=s,
    )


def directional_profile(model: ModelSpace, beta: float = 0.3, axis: int = 0) -> ScalarField:
    """f = 1 + beta * x_axis * r^(1-m): angular dependence at the adapted rate."""
    m = model.m
    if not 0 <= axis < m:
        raise ValueError(f"directional_profile axis must satisfy 0 <= axis < m = {m}, got {axis}")
    s = 1 - m

    def fn(coords):
        r = _radius(coords[:m])
        return 1.0 + beta * coords[axis] * r**s

    def grad_fn(coords):
        r = _radius(coords[:m])
        rs = r**s
        comps = [beta * coords[axis] * s * r ** (s - 2) * coords[a] for a in range(m)]
        comps[axis] = comps[axis] + beta * rs
        return comps + [0.0]

    return ScalarField(
        "directional_profile", model, fn, grad_fn, params={"beta": beta, "axis": axis}, decay_fm1=2 - m,
    )


def log_slow_profile(model: ModelSpace, beta: float = 1.0) -> ScalarField:
    """f = 1 + beta/log r: too slow for the adapted class, probe must reject."""
    m = model.m

    def fn(coords):
        r = _radius(coords[:m])
        return 1.0 + beta / am.log(r)

    def grad_fn(coords):
        r = _radius(coords[:m])
        lg = am.log(r)
        scale = -beta / (lg * lg * r * r)
        return [scale * coords[a] for a in range(m)] + [0.0]

    return ScalarField("log_slow_profile", model, fn, grad_fn, params={"beta": beta}, decay_fm1=0.0)


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
    "unit_scalar": unit_scalar,
    "radial_profile": radial_profile,
    "directional_profile": directional_profile,
    "log_slow_profile": log_slow_profile,
    "sqrt_slow_profile": sqrt_slow_profile,
}


def build_metric(name: str, model: ModelSpace, **params) -> MetricFamily:
    if name not in METRIC_BUILDERS:
        raise KeyError(f"unknown metric family {name!r}; known: {sorted(METRIC_BUILDERS)}")
    return METRIC_BUILDERS[name](model, **params)


def build_lee(name: str, model: ModelSpace, **params) -> LeeFormField:
    if name not in LEE_BUILDERS:
        raise KeyError(f"unknown lee form {name!r}; known: {sorted(LEE_BUILDERS)}")
    return LEE_BUILDERS[name](model, **params)


def build_scalar(name: str, model: ModelSpace, **params) -> ScalarField:
    if name not in SCALAR_BUILDERS:
        raise KeyError(f"unknown scalar family {name!r}; known: {sorted(SCALAR_BUILDERS)}")
    return SCALAR_BUILDERS[name](model, **params)
