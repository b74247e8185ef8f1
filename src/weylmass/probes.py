"""Decay probes: measure log-log falloff rates of fields and classify them
against declared exponents.

A probe samples the sup of a field norm over random directions on a
geometric radius schedule (one field evaluation on the directions at all
radii), fits the slope of log(norm) against log(r) by least squares, and
PASSes when the measured slope is at most the declared exponent plus a
fixed margin (0.2 by default, matching the acceptance tolerance).
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

from .engine import DerivativeEngine, Field, frame_jet1, frame_jet2
from .errors import MassNotDefinedError
from .families import LeeFormField, MetricFamily, ScalarField
from .model import ModelSpace
from .weyl import _faraday_components, _slot_jet, lc_form_block

SLOPE_MARGIN = 0.2
ZERO_FLOOR = 1e-13
POSITIVITY_RADII = 64


@dataclass
class ProbeReport:
    """Fitted decay rate of one field against its declared exponent."""

    name: str
    declared: float
    slope: float
    residual_band: float
    passed: bool
    radii: list = dc_field(default_factory=list)
    norms: list = dc_field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "declared": self.declared,
            "slope": self.slope,
            "residual_band": self.residual_band,
            "passed": bool(self.passed),
            "radii": [float(r) for r in self.radii],
            "norms": [float(v) for v in self.norms],
        }


def geometric_radii(r0: float, rmax: float, count: int) -> np.ndarray:
    if count < 2:
        raise ValueError("need at least two radii")
    return r0 * (rmax / r0) ** (np.arange(count) / (count - 1))


def direction_samples(model: ModelSpace, count: int, seed: int = 1234) -> np.ndarray:
    """Unit directions on the base sphere plus random fiber values, batched."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
    u = rng.normal(size=(model.m, count))
    u /= np.sqrt(np.sum(u * u, axis=0))
    t = rng.uniform(0.0, model.L, size=count)
    return u, t


def decay_probe(norm_at_radius: Callable[[float], float], radii, declared: float,
                name: str = "field", margin: float = SLOPE_MARGIN) -> ProbeReport:
    """Fit sup-norm samples against radius; classify against the declared rate."""
    radii = _probe_radii(radii)
    return _fit_decay(radii, [norm_at_radius(r) for r in radii], declared, name, margin)


def _probe_radii(radii) -> np.ndarray:
    radii = np.asarray(radii, dtype=float)
    if radii.size < 4:
        raise ValueError("decay probe needs at least 4 radii")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    return radii


def _fit_decay(radii: np.ndarray, norms, declared: float, name: str, margin: float) -> ProbeReport:
    norms = np.array([float(v) for v in norms])
    if np.all(norms < ZERO_FLOOR):
        return ProbeReport(name, declared, -math.inf, 0.0, True, list(radii), list(norms))
    lx = np.log(radii)
    ly = np.log(np.maximum(norms, 1e-300))
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    band = float(np.sqrt(res[0] / len(lx))) if res.size else 0.0
    passed = slope <= declared + margin
    return ProbeReport(name, declared, slope, band, passed, list(radii), list(norms))


def _sup_norm(values: np.ndarray) -> float:
    """Frame (h-orthonormal) sup norm over the trailing batch axis."""
    comp_axes = tuple(range(values.ndim - 1))
    return float(np.max(np.sqrt(np.sum(values**2, axis=comp_axes)))) if comp_axes else float(np.max(np.abs(values)))


def _radial_points(radii, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The directions (u, t) at every radius, concatenated radius by radius along the batch axis."""
    return np.concatenate([np.concatenate([r * u, t[None, :]], axis=0) for r in radii], axis=1)


def probe_tensor_field(engine: DerivativeEngine, model: ModelSpace, fld: Field, declared: float,
                       name: str, radii, directions: int = 8, seed: int = 1234) -> ProbeReport:
    """Decay probe of a field from one evaluation on the probe directions at all radii.

    The per-radius sup norms are read off the one batch; an FD jet inside
    the field takes its step from the batch's largest radius.
    """
    radii = _probe_radii(radii)
    u, t = direction_samples(model, directions, seed)
    values = fld.values(_radial_points(radii, u, t))
    norms = [_sup_norm(block) for block in np.split(values, len(radii), axis=-1)]
    return _fit_decay(radii, norms, declared, name, SLOPE_MARGIN)


# ---------------------------------------------------------------------------
# ALF / adapted-class probe suites
# ---------------------------------------------------------------------------


def metric_probes(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily,
                  radii=None, directions: int = 8, seed: int = 1234) -> list[ProbeReport]:
    """Three probes on a family: g - h, first and second model derivatives."""
    m = model.m
    radii = geometric_radii(8.0, 128.0, 5) if radii is None else radii
    n = model.dim
    mfield = fam.as_field()

    def dev_fn(coords):
        g = mfield.fn(coords)
        return [[g[i][j] - (1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]

    dev = Field(dev_fn, shape=(n, n), analytic=fam.analytic, name=fam.name + "-h")

    def grad_fn(coords):
        coords = np.asarray(coords, dtype=float)
        g, dg = frame_jet1(engine, model, mfield, coords)
        return lc_form_block(dg, g, model.lc_coeffs_h(coords), 2)

    grad = Field(grad_fn, shape=(n, n, n), analytic=False, name="grad_h(" + fam.name + ")")

    def grad2_fn(coords):
        # closed form from one metric jet2; E_p of the h-coefficients from the structure Jacobian
        coords = np.asarray(coords, dtype=float)
        gam = model.lc_coeffs_h(coords)
        dC = model.structure_jacobian(coords)
        dgam = 0.5 * (dC - np.swapaxes(dC, 2, 3) - np.moveaxis(dC, 3, 1))
        G, dG = _slot_jet(*frame_jet2(engine, model, mfield, coords), gam, dgam, None, None, 0.0, 2)
        return lc_form_block(dG, G, gam, 3)

    grad2 = Field(grad2_fn, shape=(n, n, n, n), analytic=False, name="grad2_h(" + fam.name + ")")

    required = [2 - m, 1 - m, -m]
    reports = []
    for fld, req, tag in zip((dev, grad, grad2), required, ("g-h", "grad_h g", "grad2_h g")):
        reports.append(probe_tensor_field(engine, model, fld, req, f"{fam.name}:{tag}", radii, directions, seed))
    return reports


def lee_probes(engine: DerivativeEngine, model: ModelSpace, lee: LeeFormField,
               radii=None, directions: int = 8, seed: int = 1234) -> list[ProbeReport]:
    """Weyl-ALF probes: theta at rate 1-m and d(theta) at rate 2-m."""
    m = model.m
    radii = geometric_radii(8.0, 128.0, 5) if radii is None else radii
    lfield = lee.as_field()

    def dtheta_fn(coords):
        coords = np.asarray(coords, dtype=float)
        theta, dtheta = frame_jet1(engine, model, lfield, coords)
        return _faraday_components(theta, dtheta, model.structure_constants(coords))

    dfield = Field(dtheta_fn, shape=(model.dim, model.dim), analytic=False, name="d(" + lee.name + ")")
    return [
        probe_tensor_field(engine, model, lfield, 1 - m, f"{lee.name}:theta", radii, directions, seed),
        probe_tensor_field(engine, model, dfield, 2 - m, f"{lee.name}:dtheta", radii, directions, seed),
    ]


def connection_probe(engine: DerivativeEngine, model: ModelSpace, radii=None,
                     directions: int = 8, seed: int = 1234) -> ProbeReport:
    """Fibration curvature |d(eta)|_h at the required rate 1-m (zero when trivial)."""
    m = model.m
    radii = geometric_radii(8.0, 128.0, 5) if radii is None else radii

    def omega_fn(coords):
        coords = np.asarray(coords, dtype=float)
        x, _ = model.split(coords)
        return model.deta(x)

    fld = Field(omega_fn, shape=(m, m), analytic=False, name="deta")
    return probe_tensor_field(engine, model, fld, 1 - m, f"{model.fibration}:deta", radii, directions, seed)


def adapted_metric_check(engine: DerivativeEngine, model: ModelSpace, f: ScalarField,
                         radii=None, directions: int = 8, seed: int = 1234) -> list[ProbeReport]:
    """Membership probes for the adapted conformal-factor class:

    f - 1 at rate 2-m, first derivatives at 1-m, second derivatives at -m.
    """
    m = model.m
    radii = geometric_radii(8.0, 128.0, 5) if radii is None else radii

    def dev_fn(coords):
        return f.fn(coords) - 1.0

    dev = Field(dev_fn, shape=(), analytic=f.analytic, name=f.name + "-1")
    grad = f.grad_field()

    def hess_fn(coords):
        coords = np.asarray(coords, dtype=float)
        _, dgrad = frame_jet1(engine, model, grad, coords)
        return dgrad

    hess = Field(hess_fn, shape=(model.dim, model.dim), analytic=False, name="dd(" + f.name + ")")
    return [
        probe_tensor_field(engine, model, dev, 2 - m, f"{f.name}:f-1", radii, directions, seed),
        probe_tensor_field(engine, model, grad, 1 - m, f"{f.name}:df", radii, directions, seed),
        probe_tensor_field(engine, model, hess, -m, f"{f.name}:ddf", radii, directions, seed),
    ]


def _failed_probes(reports: list[ProbeReport]) -> str:
    failed = [r for r in reports if not r.passed]
    return ", ".join(f"{r.name} (slope {r.slope:.2f} > {r.declared:.2f}+{SLOPE_MARGIN})" for r in failed)


def _factor_label(f: ScalarField) -> str:
    return f"{f.name}(" + ", ".join(f"{k}={v!r}" for k, v in f.params.items()) + ")"


def require_adapted(engine: DerivativeEngine, model: ModelSpace, f: ScalarField, **kw) -> None:
    names = _failed_probes(adapted_metric_check(engine, model, f, **kw))
    if names:
        raise MassNotDefinedError(f"conformal factor {_factor_label(f)} is not adapted: "
                                  f"rejected by probe {names}")


def require_positive(model: ModelSpace, f: ScalarField, rmax: float) -> None:
    """Refuse a conformal factor that is not positive (and finite) out to radius rmax.

    f g is a metric only where f > 0.  f is sampled on the 8 probe
    directions at POSITIVITY_RADII geometric radii from just outside the
    excised radius R to rmax.
    """
    u, t = direction_samples(model, 8)
    radii = geometric_radii(model.R * (1.0 + 1e-6), rmax, POSITIVITY_RADII)
    pts = _radial_points(radii, u, t)
    vals = np.broadcast_to(np.asarray(f.fn(pts), dtype=float), pts.shape[1:])
    if not np.all(np.isfinite(vals) & (vals > 0)):
        k = int(np.argmin(np.where(np.isfinite(vals), vals, -np.inf)))
        raise MassNotDefinedError(f"conformal factor {_factor_label(f)} is not positive: "
                                  f"f = {vals[k]:.6g} at r = {radii[k // u.shape[1]]:.6g}")


def require_alf(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily, **kw) -> list[ProbeReport]:
    reports = metric_probes(engine, model, fam, **kw)
    names = _failed_probes(reports)
    if names:
        raise MassNotDefinedError(f"metric family {fam.name!r} fails decay probes: {names}")
    return reports


def require_weyl_alf(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily,
                     lee: LeeFormField, **kw) -> list[ProbeReport]:
    reports = require_alf(engine, model, fam, **kw)
    lreports = lee_probes(engine, model, lee, **kw)
    names = _failed_probes(lreports)
    if names:
        raise MassNotDefinedError(f"lee form {lee.name!r} fails decay probes: {names}")
    return reports + lreports
