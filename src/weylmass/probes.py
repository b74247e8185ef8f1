"""Decay probes: measure log-log falloff rates of fields and classify them
against the rates their class requires (2-m, 1-m and -m for a metric and
a conformal factor, 1-m and 2-m for a Lee form).

Every probe samples one fixed grid: the 8 directions of
``direction_samples`` (fixed seed) at each radius of ``PROBE_RADII``
(8 to 128, geometric).  Each suite takes one jet of its field on that grid
and reads every probed quantity off it: a metric jet2 gives g - h, grad_h g
and grad2_h g, a Lee-form jet (``weyl.lee_jet``) gives theta and d(theta),
a conformal-factor jet2 gives f - 1, df and ddf.  A probe takes the sup of the frame norm over
the directions at each radius, fits the slope of log(norm) against log(r) by
least squares, and PASSes when the slope is at most the required rate
(``declared`` in the report) plus SLOPE_MARGIN (0.2, matching the acceptance tolerance).
Identically-zero fields report slope -inf and PASS.

``require_positive`` is not a decay probe: it samples a conformal factor
from just outside the excised sphere out to the largest flux radius and
refuses it where it is not positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .engine import DerivativeEngine, frame_jet2
from .errors import MassNotDefinedError
from .families import LeeFormField, MetricFamily, ScalarField
from .model import ModelSpace
from .weyl import _brackets, _faraday_components, _slot_jet, lc_form_block, lee_jet

SLOPE_MARGIN = 0.2
ZERO_FLOOR = 1e-13
POSITIVITY_RADII = 64


@dataclass
class ProbeReport:
    """Fitted decay rate of one field against its declared exponent."""

    name: str
    declared: float
    slope: float
    passed: bool
    radii: list = dc_field(default_factory=list)
    norms: list = dc_field(default_factory=list)


def geometric_radii(r0: float, rmax: float, count: int) -> np.ndarray:
    if count < 2:
        raise ValueError("need at least two radii")
    return r0 * (rmax / r0) ** (np.arange(count) / (count - 1))


PROBE_RADII = geometric_radii(8.0, 128.0, 5)
PROBE_DIRECTIONS = 8


def direction_samples(model: ModelSpace, count: int) -> np.ndarray:
    """Unit directions on the base sphere plus random fiber values, batched (fixed seed)."""
    rng = np.random.default_rng(np.random.SeedSequence([1234, 77]))
    u = rng.normal(size=(model.m, count))
    u /= np.sqrt(np.sum(u * u, axis=0))
    t = rng.uniform(0.0, model.L, size=count)
    return u, t


def decay_probe(norm_at_radius: Callable[[float], float], radii, declared: float,
                name: str = "field", margin: float = SLOPE_MARGIN) -> ProbeReport:
    """Fit sup-norm samples against radius; classify against the declared rate."""
    radii = np.asarray(radii, dtype=float)
    if radii.size < 4:
        raise ValueError("decay probe needs at least 4 radii")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    return _fit_decay(radii, [norm_at_radius(r) for r in radii], declared, name, margin)


def _fit_decay(radii: np.ndarray, norms, declared: float, name: str, margin: float) -> ProbeReport:
    norms = np.array([float(v) for v in norms])
    if np.all(norms < ZERO_FLOOR):
        return ProbeReport(name, declared, -math.inf, True, list(radii), list(norms))
    lx = np.log(radii)
    ly = np.log(np.maximum(norms, 1e-300))
    A = np.vstack([lx, np.ones_like(lx)]).T
    slope = float(np.linalg.lstsq(A, ly, rcond=None)[0][0])
    return ProbeReport(name, declared, slope, slope <= declared + margin, list(radii), list(norms))


def _sup_norm(values: np.ndarray) -> float:
    """Frame (h-orthonormal) sup norm over the trailing batch axis."""
    comp_axes = tuple(range(values.ndim - 1))
    return float(np.max(np.sqrt(np.sum(values**2, axis=comp_axes)))) if comp_axes else float(np.max(np.abs(values)))


def _radial_points(radii, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The directions (u, t) at every radius, concatenated radius by radius along the batch axis."""
    return np.concatenate([np.concatenate([r * u, t[None, :]], axis=0) for r in radii], axis=1)


def probe_grid(model: ModelSpace) -> np.ndarray:
    """The probe grid: the 8 probe directions at every radius of PROBE_RADII."""
    u, t = direction_samples(model, PROBE_DIRECTIONS)
    return _radial_points(PROBE_RADII, u, t)


def probe_tensor_field(values: np.ndarray, declared: float, name: str, radii) -> ProbeReport:
    """Decay probe of a field's values on the probe grid over ``radii``.

    The batch axis holds the directions radius by radius; the per-radius
    sup norms are read off the one batch.
    """
    norms = [_sup_norm(block) for block in np.split(values, len(radii), axis=-1)]
    return _fit_decay(radii, norms, declared, name, SLOPE_MARGIN)


# ---------------------------------------------------------------------------
# ALF / adapted-class probe suites: one jet of each field on the probe grid
# ---------------------------------------------------------------------------


def _metric_probe_values(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily, pts):
    """g - h, grad_h g and grad2_h g at pts from one metric jet2.

    grad2_h g is closed-form; E_p of the h-coefficients comes from the
    structure Jacobian.  On a holonomic frame h's coefficients vanish, and
    grad_h g and grad2_h g are the frame derivatives dg and ddg.
    """
    g, dg, ddg = frame_jet2(engine, model, fam.as_field(), pts)
    if model.holonomic:
        return g - np.eye(model.dim)[:, :, None], dg, ddg
    gam = model.lc_coeffs_h(pts)
    dC = model.structure_jacobian(pts)
    dgam = 0.5 * (dC - np.swapaxes(dC, 2, 3) - np.moveaxis(dC, 3, 1))
    G, dG = _slot_jet(g, dg, ddg, gam, dgam, None, None, 0.0, 2)
    return g - np.eye(model.dim)[:, :, None], G, lc_form_block(dG, G, gam, 3)


def metric_probes(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily) -> list[ProbeReport]:
    """Three probes on a family: g - h, first and second model derivatives."""
    m = model.m
    values = _metric_probe_values(engine, model, fam, probe_grid(model))
    return [probe_tensor_field(v, req, f"{fam.name}:{tag}", PROBE_RADII)
            for v, req, tag in zip(values, (2 - m, 1 - m, -m), ("g-h", "grad_h g", "grad2_h g"))]


def lee_probes(engine: DerivativeEngine, model: ModelSpace, lee: LeeFormField) -> list[ProbeReport]:
    """Weyl-ALF probes: theta at rate 1-m and d(theta) at rate 2-m."""
    m = model.m
    pts = probe_grid(model)
    theta, dtheta = lee_jet(engine, lee, pts, order=1)
    dtheta = _faraday_components(theta, dtheta, _brackets(model, pts))
    return [probe_tensor_field(theta, 1 - m, f"{lee.name}:theta", PROBE_RADII),
            probe_tensor_field(dtheta, 2 - m, f"{lee.name}:dtheta", PROBE_RADII)]


def connection_probe(model: ModelSpace) -> ProbeReport:
    """Fibration curvature |d(eta)|_h at the required rate 1-m (zero when trivial)."""
    x, _ = model.split(probe_grid(model))
    return probe_tensor_field(model.deta(x), 1 - model.m, f"{model.fibration}:deta", PROBE_RADII)


def adapted_metric_check(engine: DerivativeEngine, model: ModelSpace, f: ScalarField) -> list[ProbeReport]:
    """Membership probes for the adapted conformal-factor class, from one jet2 of f:

    f - 1 at rate 2-m, first derivatives at 1-m, second derivatives at -m.
    """
    m = model.m
    val, df, ddf = frame_jet2(engine, model, f.as_field(), probe_grid(model))
    return [probe_tensor_field(v, req, f"{f.name}:{tag}", PROBE_RADII)
            for v, req, tag in zip((val - 1.0, df, ddf), (2 - m, 1 - m, -m), ("f-1", "df", "ddf"))]


def _failed_probes(reports: list[ProbeReport]) -> str:
    failed = [r for r in reports if not r.passed]
    return ", ".join(f"{r.name} (slope {r.slope:.2f} > {r.declared:.2f}+{SLOPE_MARGIN})" for r in failed)


def _factor_label(f: ScalarField) -> str:
    return f"{f.name}(" + ", ".join(f"{k}={v!r}" for k, v in f.params.items()) + ")"


def require_adapted(engine: DerivativeEngine, model: ModelSpace, f: ScalarField) -> None:
    names = _failed_probes(adapted_metric_check(engine, model, f))
    if names:
        raise MassNotDefinedError(f"conformal factor {_factor_label(f)} is not adapted: "
                                  f"rejected by probe {names}")


def require_positive(model: ModelSpace, f: ScalarField, rmax: float) -> None:
    """Refuse a conformal factor that is not positive (and finite) out to radius rmax.

    f g is a metric only where f > 0.  f is sampled on the 8 probe
    directions at POSITIVITY_RADII geometric radii from just outside the
    excised radius R to rmax.
    """
    u, t = direction_samples(model, PROBE_DIRECTIONS)
    radii = geometric_radii(model.R * (1.0 + 1e-6), rmax, POSITIVITY_RADII)
    pts = _radial_points(radii, u, t)
    vals = np.broadcast_to(np.asarray(f.fn(pts), dtype=float), pts.shape[1:])
    if not np.all(np.isfinite(vals) & (vals > 0)):
        k = int(np.argmin(np.where(np.isfinite(vals), vals, -np.inf)))
        raise MassNotDefinedError(f"conformal factor {_factor_label(f)} is not positive: "
                                  f"f = {vals[k]:.6g} at r = {radii[k // u.shape[1]]:.6g}")


def require_alf(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily) -> list[ProbeReport]:
    reports = metric_probes(engine, model, fam)
    names = _failed_probes(reports)
    if names:
        raise MassNotDefinedError(f"metric family {fam.name!r} fails decay probes: {names}")
    return reports


def require_weyl_alf(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily,
                     lee: LeeFormField) -> list[ProbeReport]:
    reports = require_alf(engine, model, fam)
    lreports = lee_probes(engine, model, lee)
    names = _failed_probes(lreports)
    if names:
        raise MassNotDefinedError(f"lee form {lee.name!r} fails decay probes: {names}")
    return reports + lreports
