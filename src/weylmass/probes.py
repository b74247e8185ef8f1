"""Decay probes: measure log-log falloff rates of fields and classify them
against the rates their class requires (2-m, 1-m and -m for a metric and
a conformal factor, 1-m and 2-m for a Lee form).

Every probe samples one fixed grid: the 8 directions of
``direction_samples`` (fixed seed) at each radius of ``PROBE_RADII``
(8 to 128, geometric).  Each suite reads every probed quantity off one jet
of its field on that grid, taken by its caller (``mass._probe_gauges``): a
metric jet2 and h's connection there (``h_connection``, one for every probed
metric) give g - h, grad_h g and grad2_h g, a Lee-form jet
(``weyl.lee_jet`` at order 1) gives theta and d(theta), a conformal-factor
jet2 gives f - 1, df and ddf.  A sweep hands each factor its slice of one
jet2 of all its factors (``families.stacked_factors``), the metric jet2 of
a swept gauge f g is read off those of g and f by the product rule
(``rescaled_frame_jet2``), and its Lee jet off g's Lee jet and f's jet2
(``weyl.regauged_lee_jet``).  A probe takes the sup of the frame norm over
the directions at each radius, read off one (radii, directions) reshape of
the grid's batch axis, fits the slope of log(norm) against log(r) by least
squares in closed form, and PASSes when the slope is at most the required
rate (``declared`` in the report) plus SLOPE_MARGIN (0.2, matching the
acceptance tolerance).  Identically-zero fields report slope -inf and PASS.

``require_positive`` is not a decay probe: it samples a conformal factor on
``positivity_grid``, from just outside the excised sphere out to the largest
flux radius, and refuses it where it is not positive.  A sweep builds that
grid once and checks every factor on it before it differentiates any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import MassNotDefinedError
from .families import ScalarField
from .model import ModelSpace
from .weyl import WeylStructure, _brackets, _faraday_components, _slot_jet, lc_form_block

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


def _fit_decay(radii: np.ndarray, norms, declared: float, name: str) -> ProbeReport:
    """The least-squares slope of log(norm) against log(r), in closed form on the centered logs."""
    norms = np.asarray(norms, dtype=float)
    if np.all(norms < ZERO_FLOOR):
        return ProbeReport(name, declared, -math.inf, True, list(radii), list(norms))
    lx = np.log(radii)
    ly = np.log(np.maximum(norms, 1e-300))
    dx = lx - np.mean(lx)
    with np.errstate(invalid="ignore"):  # a single radius fits no slope: 0/0, nan, and the probe fails
        slope = float(dx @ (ly - np.mean(ly)) / (dx @ dx))
    return ProbeReport(name, declared, slope, slope <= declared + SLOPE_MARGIN, list(radii), list(norms))


def _radial_points(radii, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The directions (u, t) at every radius, radius by radius along the batch axis."""
    x = u[:, None] * np.asarray(radii, dtype=float)[:, None]
    return np.concatenate([x, np.broadcast_to(t, (1,) + x.shape[1:])]).reshape(len(u) + 1, -1)


def probe_grid(model: ModelSpace) -> np.ndarray:
    """The probe grid: the 8 probe directions at every radius of PROBE_RADII."""
    u, t = direction_samples(model, PROBE_DIRECTIONS)
    return _radial_points(PROBE_RADII, u, t)


def probe_tensor_field(values: np.ndarray, declared: float, name: str, radii) -> ProbeReport:
    """Decay probe of a field's values on the probe grid over ``radii``.

    The batch axis holds the directions radius by radius; the per-radius
    sups of the frame (h-orthonormal) norm are read off one reshape of it
    to (radii, directions).
    """
    blocks = values.reshape(values.shape[:-1] + (len(radii), -1))
    comp_axes = tuple(range(values.ndim - 1))
    norms = np.max(np.sqrt(np.sum(blocks**2, axis=comp_axes)) if comp_axes else np.abs(blocks), axis=-1)
    return _fit_decay(radii, norms, declared, name)


# ---------------------------------------------------------------------------
# ALF / adapted-class probe suites: one jet of each field on the probe grid
# ---------------------------------------------------------------------------


def h_connection(model: ModelSpace, pts):
    """(G_h, E G_h) at pts: h's Levi-Civita coefficients and their frame derivatives, off the structure Jacobian;
    None on a holonomic frame, where both vanish.  Every metric probed on one grid reads them off one call."""
    if model.holonomic:
        return None
    dC = model.structure_jacobian(pts)
    return model.lc_coeffs_h(pts), 0.5 * (dC - np.swapaxes(dC, 2, 3) - np.moveaxis(dC, 3, 1))


def _metric_probe_values(model: ModelSpace, jet, h_jet):
    """g - h, grad_h g and grad2_h g from ``jet``, the metric's frame jet2, and ``h_jet``, h's ``h_connection``.

    grad2_h g is closed-form.  On a holonomic frame (``h_jet`` None) h's
    coefficients vanish, and grad_h g and grad2_h g are dg and ddg.
    """
    g, dg, ddg = jet
    if h_jet is None:
        return g - np.eye(model.dim)[:, :, None], dg, ddg
    gam, dgam = h_jet
    G, dG = _slot_jet(g, dg, ddg, gam, dgam, None, None, 0.0, 2)
    return g - np.eye(model.dim)[:, :, None], G, lc_form_block(dG, G, gam, 3)


def metric_probes(model: ModelSpace, name: str, jet, h_jet) -> list[ProbeReport]:
    """Three probes on metric ``name``: g - h, first and second model derivatives, off its probe-grid jets."""
    m = model.m
    values = _metric_probe_values(model, jet, h_jet)
    return [probe_tensor_field(v, req, f"{name}:{tag}", PROBE_RADII)
            for v, req, tag in zip(values, (2 - m, 1 - m, -m), ("g-h", "grad_h g", "grad2_h g"))]


def lee_probes(model: ModelSpace, name: str, jet) -> list[ProbeReport]:
    """Weyl-ALF probes of Lee form ``name``: theta at rate 1-m and d(theta) at rate 2-m, off its probe-grid
    ``lee_jet`` at order 1."""
    m = model.m
    theta, dtheta = jet
    dtheta = _faraday_components(theta, dtheta, _brackets(model, probe_grid(model)))
    return [probe_tensor_field(theta, 1 - m, f"{name}:theta", PROBE_RADII),
            probe_tensor_field(dtheta, 2 - m, f"{name}:dtheta", PROBE_RADII)]


def adapted_metric_check(model: ModelSpace, name: str, jet) -> list[ProbeReport]:
    """Membership probes for the adapted conformal-factor class, off ``jet``, the factor's probe-grid frame jet2:

    f - 1 at rate 2-m, first derivatives at 1-m, second derivatives at -m.
    """
    m = model.m
    val, df, ddf = jet
    return [probe_tensor_field(v, req, f"{name}:{tag}", PROBE_RADII)
            for v, req, tag in zip((val - 1.0, df, ddf), (2 - m, 1 - m, -m), ("f-1", "df", "ddf"))]


def _failed_probes(reports: list[ProbeReport]) -> str:
    failed = [r for r in reports if not r.passed]
    return ", ".join(f"{r.name} (slope {r.slope:.2f} > {r.declared:.2f}+{SLOPE_MARGIN})" for r in failed)


def _factor_label(f: ScalarField) -> str:
    return f"{f.name}(" + ", ".join(f"{k}={v!r}" for k, v in f.params.items()) + ")"


def require_adapted(model: ModelSpace, f: ScalarField, jet) -> None:
    """Refuse a factor outside the adapted class, read off ``jet``, its frame jet2 on the probe grid."""
    names = _failed_probes(adapted_metric_check(model, f.name, jet))
    if names:
        raise MassNotDefinedError(f"conformal factor {_factor_label(f)} is not adapted: "
                                  f"rejected by probe {names}")


def rescaled_frame_jet2(f_jet, g_jet) -> tuple:
    """Frame jet2 of f g from the frame jet2s of a scalar f and a 2-tensor g (the product rule).

    E_p E_i (f g) = f E_p E_i g + E_p f E_i g + E_i f E_p g + (E_p E_i f) g.
    """
    f, df, ddf = f_jet
    g, dg, ddg = g_jet
    return (f * g, f * dg + df[:, None, None] * g,
            f * ddg + df[:, None, None, None] * dg + df[:, None, None] * dg[:, None] + ddf[:, :, None, None] * g)


def positivity_grid(model: ModelSpace, rmax: float) -> tuple:
    """(radii, points): the 8 probe directions at POSITIVITY_RADII geometric radii from just outside the
    excised radius R to rmax."""
    radii = geometric_radii(model.R * (1.0 + 1e-6), rmax, POSITIVITY_RADII)
    return radii, _radial_points(radii, *direction_samples(model, PROBE_DIRECTIONS))


def require_positive(f: ScalarField, grid) -> None:
    """Refuse a conformal factor that is not positive (and finite) on ``grid``, a ``positivity_grid``.

    f g is a metric only where f > 0.
    """
    radii, pts = grid
    vals = np.broadcast_to(np.asarray(f.fn(pts), dtype=float), pts.shape[1:])
    if not np.all(np.isfinite(vals) & (vals > 0)):
        k = int(np.argmin(np.where(np.isfinite(vals), vals, -np.inf)))
        raise MassNotDefinedError(f"conformal factor {_factor_label(f)} is not positive: "
                                  f"f = {vals[k]:.6g} at r = {radii[k // PROBE_DIRECTIONS]:.6g}")


def require_alf(model: ModelSpace, name: str, jet, h_jet) -> list[ProbeReport]:
    """Refuse metric ``name`` where its probe-grid jets (``metric_probes``) fail the ALF decay probes."""
    reports = metric_probes(model, name, jet, h_jet)
    names = _failed_probes(reports)
    if names:
        raise MassNotDefinedError(f"metric family {name!r} fails decay probes: {names}")
    return reports


def require_weyl_alf(ws: WeylStructure, jet, theta_jet, h_jet) -> list[ProbeReport]:
    """Metric and Lee-form decay probes of ``ws``, off its metric's probe-grid frame jet2 ``jet`` with h's
    ``h_connection`` there, ``h_jet``, and its Lee form's probe-grid jet1 ``theta_jet``."""
    reports = require_alf(ws.model, ws.metric.name, jet, h_jet)
    lreports = lee_probes(ws.model, ws.lee.name, theta_jet)
    names = _failed_probes(lreports)
    if names:
        raise MassNotDefinedError(f"lee form {ws.lee.name!r} fails decay probes: {names}")
    return reports + lreports
