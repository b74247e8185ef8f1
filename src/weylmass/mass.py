"""Surface-flux mass integrals on the fibered chart.

The flux density of a horizontal field Z with model-dual 1-form a_Z is

    q(Z) = sum_b (grad^h_{E_b} g)(E_b, Z) a_Z - d(tr_h g)(Z) a_Z / 2 - d(g(Z,Z)) / 2,

summed over the full model frame including the fiber direction.  The mass
quadratic form is the normalized limit of shell fluxes of q(Z); the
conformal mass adds the normalized limit of shell fluxes of

    (1 - m) <theta, a_Z>_h a_Z - |a_Z|_h^2 theta.

Both densities are quadratic in Z, so one metric jet (and one evaluation of
theta) per shell fixes the whole form: ``shell_forms`` contracts them
against the shell weights and normals into two symmetric m x m matrices
Q_r and C_r with flux of q(Z) = z^T Q_r z and flux of the Lee term
= z^T C_r z.  Every per-direction flux, the mass matrix and the Q-part
matrix are read off these forms; ``q_flux_components`` and
``lee_correction_components`` evaluate the densities for one Z directly and
serve as the independent oracle.

Under g -> f g the Lee form becomes theta - df/(2f) and the conformal mass
form stays the same.  ``gauge_audit`` checks this, and the predicted shift
of the Q part, for a whole sweep of factors at once: every factor is first
probed for positivity and membership in the adapted class, and the flux
shells are built once per radius.  On each shell g takes one coordinate
jet; each factor f takes one scalar jet, and the jet of f g is formed by
the product rule (f g, f dg + g df) and contracted exactly as g's own, so
the sweep differentiates g once per shell.  Each prediction is read off
the same shells.

Limits are realized on a geometric radius schedule with one Richardson
extrapolation step at the generic remainder rate r^(2-m) of the integrated
flux; the raw sequence is always reported and convergence is declared,
never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .engine import DerivativeEngine, frame_jet1
from .errors import ChartDomainError
from .families import LeeFormField, MetricFamily, ScalarField
from .model import ModelSpace, sphere_volume
from .probes import geometric_radii, require_adapted, require_alf, require_positive, require_weyl_alf
from .quadrature import QuadratureSpec, flux_model_metric, shell_nodes
from .weyl import WeylStructure, gauge_change


def horizontal_field(model: ModelSpace, z) -> np.ndarray:
    """Validate and normalize a horizontal direction: index or m coefficients."""
    if np.isscalar(z):
        b = int(z)
        if not 0 <= b < model.m:
            raise ValueError(f"basis index {b} outside 0..{model.m - 1}")
        out = np.zeros(model.m)
        out[b] = 1.0
        return out
    z = np.asarray(z, dtype=float)
    if z.shape != (model.m,):
        raise ValueError(f"horizontal field needs {model.m} coefficients, got shape {z.shape}")
    return z


def q_flux_components(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily,
                      z, coords) -> np.ndarray:
    """Frame components of q(Z) at (batched) chart points."""
    coords = np.asarray(coords, dtype=float)
    model.require_in_chart(coords)
    z = horizontal_field(model, z)
    zfull = np.concatenate([z, [0.0]])
    g, dg = frame_jet1(engine, model, fam.as_field(), coords)
    gam = model.lc_coeffs_h(coords)
    nabla = dg - np.einsum("ijl...,lk...->ijk...", gam, g) - np.einsum("ikl...,jl...->ijk...", gam, g)

    div_term = np.einsum("bbk...,k->...", nabla, zfull)
    dtr = np.einsum("ibb...->i...", dg)
    dtr_z = np.einsum("i...,i->...", dtr, zfull)
    dgzz = np.einsum("iab...,a,b->i...", dg, zfull, zfull)

    alpha = zfull.reshape((len(zfull),) + (1,) * (dg.ndim - 3))
    return (div_term - 0.5 * dtr_z) * alpha - 0.5 * dgzz


def lee_correction_components(model: ModelSpace, lee: LeeFormField, z, coords) -> np.ndarray:
    """(1 - m) <theta, a_Z>_h a_Z - |a_Z|_h^2 theta at (batched) chart points."""
    coords = np.asarray(coords, dtype=float)
    z = horizontal_field(model, z)
    zfull = np.concatenate([z, [0.0]])
    theta = lee.as_field().values(coords)
    inner = np.einsum("i...,i->...", theta, zfull)
    alpha = zfull.reshape((len(zfull),) + (1,) * (theta.ndim - 1))
    return (1 - model.m) * inner * alpha - float(z @ z) * theta


def gradient_correction_components(model: ModelSpace, f: ScalarField, z, coords) -> np.ndarray:
    """(1 - m) <df, a_Z>_h a_Z - |a_Z|_h^2 df: the conformal-change flux density."""
    coords = np.asarray(coords, dtype=float)
    z = horizontal_field(model, z)
    zfull = np.concatenate([z, [0.0]])
    df = f.grad_field().values(coords)
    inner = np.einsum("i...,i->...", df, zfull)
    alpha = zfull.reshape((len(zfull),) + (1,) * (df.ndim - 1))
    return (1 - model.m) * inner * alpha - float(z @ z) * df


def shell_forms(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily,
                lee: Optional[LeeFormField], pts, weights, normals, jet=None, gam=None) -> tuple:
    """Symmetric m x m forms (Q, C) of one shell from a single metric jet.

    The flux of q(Z) through the shell is z^T Q z and the flux of the Lee
    term is z^T C z, with C = (1 - m) sym(B) - tr(B) I for
    B = sum w theta (x) nu.  C is zero when ``lee`` is None.  ``jet`` is
    the coordinate jet (g, dg) of ``fam`` at ``pts`` when the caller holds
    it already; otherwise it is taken here.  ``gam`` likewise is
    ``model.lc_coeffs_h(pts)`` when the caller holds it.  Raises
    ChartDomainError if g is not positive definite at some node.
    """
    model.require_in_chart(pts)
    g, dg = engine.jet1(fam.as_field(), pts) if jet is None else jet
    gam = model.lc_coeffs_h(pts) if gam is None else gam
    return _contract_shell(model, fam.name, g, dg, lee, pts, weights, normals, gam)


def _contract_shell(model: ModelSpace, name: str, g, dg, lee: Optional[LeeFormField],
                    pts, weights, normals, gam) -> tuple:
    """The contraction step of ``shell_forms`` on a coordinate jet (g, dg); ``gam`` = ``model.lc_coeffs_h(pts)``."""
    m = model.m
    dg = model.frame_from_coord(dg, model.split(pts)[0])
    gram = np.moveaxis(g, (0, 1), (-2, -1))
    try:
        definite = bool(np.all(np.isfinite(np.linalg.cholesky(gram))))
    except np.linalg.LinAlgError:
        definite = False
    if not definite:
        finite = np.all(np.isfinite(gram), axis=(-2, -1))
        lam = np.full(finite.shape, np.nan)
        lam[finite] = np.min(np.linalg.eigvalsh(gram[finite]), axis=-1)
        bad = int(np.argmin(np.where(finite, lam, -np.inf)))
        raise ChartDomainError(
            f"metric {name!r} is not positive definite on the flux shell r={model.radius(pts)[bad]:.6g}"
            f" (smallest eigenvalue {lam[bad]:.6g})"
        ) from None
    # v_k = sum_b (grad^h_{E_b} g)(E_b, E_k) - E_k(tr_h g) / 2
    v = (np.einsum("bbk...->k...", dg) - np.einsum("bbl...,lk...->k...", gam, g)
         - np.einsum("bkl...,bl...->k...", gam, g) - 0.5 * np.einsum("kbb...->k...", dg))
    wn = weights * normals
    a = np.einsum("kN,cN->kc", v[:m], wn)
    d = np.einsum("cabN,cN->ab", dg[:m, :m, :m], wn)
    q = 0.5 * (a + a.T) - 0.25 * (d + d.T)
    if lee is None:
        return q, np.zeros((m, m))
    theta = lee.as_field().values(pts)
    b = np.einsum("kN,cN->kc", theta[:m], wn)
    c = 0.5 * (1 - m) * (b + b.T) - np.trace(b) * np.eye(m)
    return q, c


def _rescaled_jet(f_jet, g_jet) -> tuple:
    """Coordinate jet of f g from the jets of a scalar f and a tensor g (product rule).

    The gradient f dg + g df is built with the component axes outermost in
    memory, the layout ``collect_jet`` gives a gathered jet, so the
    contractions downstream round exactly as on a jet of f g taken directly.
    """
    f, df = f_jet
    g, dg = g_jet
    k = g.ndim - f.ndim
    grad = np.empty(g.shape[:k] + df.shape)
    np.add(f * np.moveaxis(dg, 0, k), g[(slice(None),) * k + (None,)] * df, out=grad)
    return f * g, np.moveaxis(grad, k, 0)


def richardson_limit(radii: Sequence[float], values: Sequence[float], rate: float) -> float:
    """One extrapolation step on the last pair assuming a c * r^rate remainder."""
    r1, r2 = radii[-2], radii[-1]
    f1, f2 = values[-2], values[-1]
    lam = (r2 / r1) ** rate
    return (f2 - lam * f1) / (1.0 - lam)


def running_extrapolation(radii: Sequence[float], values: Sequence[float], rate: float) -> list:
    out = [float("nan")]
    for j in range(1, len(radii)):
        out.append(richardson_limit(radii[: j + 1], values[: j + 1], rate))
    return out


@dataclass
class MassQuery:
    """One mass computation: structure, direction, radii and node counts."""

    ws: WeylStructure
    z: object
    radii: Sequence[float] = ()
    quad: QuadratureSpec = dc_field(default_factory=QuadratureSpec)
    tol_conv: float = 1e-6
    check_decay: bool = True
    engine: DerivativeEngine = dc_field(default_factory=DerivativeEngine)

    def __post_init__(self):
        horizontal_field(self.ws.model, self.z)
        if len(self.radii) == 0:
            self.radii = geometric_radii(40.0, 320.0, 6)
        self.radii = [float(r) for r in self.radii]
        if any(r <= self.ws.model.R for r in self.radii):
            raise ValueError("all flux radii must exceed the excised-ball radius")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")


@dataclass
class MassReport:
    """Per-radius fluxes, extrapolated limits and convergence diagnostics."""

    z_label: str
    radii: list
    q_values: list                 # normalized Q flux per radius
    correction_values: list        # normalized conformal correction per radius
    q_limit: float
    correction_limit: float
    converged: bool
    tol_conv: float
    omega_n: float
    fiber_length: float
    quad: dict
    shell_nodes: int               # nodes per flux shell actually used
    extrapolation_rate: float

    @property
    def mass(self) -> float:
        return self.q_limit + self.correction_limit

    @property
    def totals(self) -> list:
        return [q + c for q, c in zip(self.q_values, self.correction_values)]

    def as_dict(self) -> dict:
        return {
            "Z": self.z_label,
            "radii": self.radii,
            "q_values": self.q_values,
            "correction_values": self.correction_values,
            "q_limit": self.q_limit,
            "correction_limit": self.correction_limit,
            "mass": self.mass,
            "converged": bool(self.converged),
            "tol_conv": self.tol_conv,
            "omega_n": self.omega_n,
            "fiber_length": self.fiber_length,
            "quadrature": self.quad,
            "shell_nodes": self.shell_nodes,
            "extrapolation_rate": self.extrapolation_rate,
        }

    def csv_rows(self) -> list:
        running = running_extrapolation(self.radii, self.totals, self.extrapolation_rate)
        return [
            (r, q, c, e)
            for r, q, c, e in zip(self.radii, self.q_values, self.correction_values, running)
        ]


def _z_label(model: ModelSpace, z) -> str:
    zv = horizontal_field(model, z)
    return "+".join(f"{c:g}*X{b + 1}" for b, c in enumerate(zv) if c != 0.0) or "0"


def _shells(model: ModelSpace, radii, quad: QuadratureSpec) -> list:
    """(pts, weights, normals) of the flux shell at each radius."""
    return [shell_nodes(model, r, quad) for r in radii]


def _form_pass(engine, model, fam, lee, shells):
    """Normalized shell forms stacked over the shells, shape (len(shells), m, m), and nodes per shell."""
    norm = sphere_volume(model.m) * model.L
    q_forms, c_forms = [], []
    for pts, weights, normals in shells:
        q, c = shell_forms(engine, model, fam, lee, pts, weights, normals)
        q_forms.append(q / norm)
        c_forms.append(c / norm)
    return np.array(q_forms), np.array(c_forms), shells[-1][0].shape[1]


def _build_report(model: ModelSpace, z, radii, q_forms, c_forms, nodes, quad, tol_conv) -> MassReport:
    zv = horizontal_field(model, z)
    q_vals = [float(zv @ q @ zv) for q in q_forms]
    c_vals = [float(zv @ c @ zv) for c in c_forms]
    rate = 2 - model.m
    q_limit = richardson_limit(radii, q_vals, rate)
    c_limit = richardson_limit(radii, c_vals, rate) if any(c != 0.0 for c in c_vals) else 0.0
    totals = [q + c for q, c in zip(q_vals, c_vals)]
    gap = abs(totals[-1] - totals[-2])
    converged = gap < tol_conv * max(1.0, abs(totals[-1]))
    return MassReport(
        z_label=_z_label(model, z),
        radii=list(map(float, radii)),
        q_values=q_vals,
        correction_values=c_vals,
        q_limit=q_limit,
        correction_limit=c_limit,
        converged=converged,
        tol_conv=tol_conv,
        omega_n=sphere_volume(model.m),
        fiber_length=model.L,
        quad=quad.as_dict(),
        shell_nodes=nodes,
        extrapolation_rate=rate,
    )


def riemannian_mass_Q(query: MassQuery) -> MassReport:
    """Normalized limit of shell fluxes of q(Z) for the gauge metric alone."""
    model = query.ws.model
    if query.check_decay:
        require_alf(query.engine, model, query.ws.metric)
    forms = _form_pass(query.engine, model, query.ws.metric, None, _shells(model, query.radii, query.quad))
    return _build_report(model, query.z, query.radii, *forms, query.quad, query.tol_conv)


def conformal_mass(query: MassQuery) -> MassReport:
    """Riemannian mass plus the Lee-form boundary correction."""
    model = query.ws.model
    if query.check_decay:
        require_weyl_alf(query.engine, model, query.ws.metric, query.ws.lee)
    forms = _form_pass(query.engine, model, query.ws.metric, query.ws.lee,
                       _shells(model, query.radii, query.quad))
    return _build_report(model, query.z, query.radii, *forms, query.quad, query.tol_conv)


@dataclass
class ConformalChangeReport:
    """Predicted vs directly recomputed Q-part shift under g -> f g."""

    z_label: str
    predicted_delta: float
    base_mass: float
    swept_mass: float

    @property
    def direct_delta(self) -> float:
        return self.swept_mass - self.base_mass

    @property
    def rel_error(self) -> float:
        return abs(self.predicted_delta - self.direct_delta) / max(abs(self.direct_delta), 1e-8)

    def as_dict(self) -> dict:
        return {
            "Z": self.z_label,
            "predicted_delta": self.predicted_delta,
            "direct_delta": self.direct_delta,
            "base_mass": self.base_mass,
            "swept_mass": self.swept_mass,
            "rel_error": self.rel_error,
        }


@dataclass
class InvarianceReport:
    """Conformal mass evaluated in two adapted gauges of the same structure."""

    z_label: str
    factor: str
    mass_base: float
    mass_swept: float
    tolerance: float

    @property
    def abs_difference(self) -> float:
        return abs(self.mass_base - self.mass_swept)

    @property
    def rel_difference(self) -> float:
        return self.abs_difference / max(abs(self.mass_base), 1e-8)

    @property
    def passed(self) -> bool:
        return self.rel_difference < self.tolerance

    def as_dict(self) -> dict:
        return {
            "Z": self.z_label,
            "factor": self.factor,
            "mass_base": self.mass_base,
            "mass_swept": self.mass_swept,
            "abs_difference": self.abs_difference,
            "rel_difference": self.rel_difference,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
        }


def gauge_audit(engine: DerivativeEngine, ws: WeylStructure, factors: Sequence[ScalarField],
                radii=None, quad: Optional[QuadratureSpec] = None, tolerance: float = 1e-4,
                check_decay: bool = True) -> list:
    """Conformal mass in gauge g versus gauge f g for every factor f of a sweep.

    Returns one (audits, prediction) pair per factor, in order: one
    InvarianceReport per basis direction X_b and the X1
    ConformalChangeReport, whose predicted Q-shift (half the normalized flux
    of the df density) is set against the Q limits of the two gauges; the
    metric of gauge f g is conformal_sweep(g, f).  Every factor is probed
    for positivity out to the largest radius and for membership in the
    adapted class before any flux work; with ``check_decay`` the Weyl-ALF
    decay probes run on g and on the first swept gauge, also before it.
    The flux shells are built once.  On each shell g takes one coordinate
    jet, which gives the forms of gauge g; each factor takes one scalar jet,
    and the jet of f g comes from the two by the product rule, so g is
    differentiated once per shell however long the sweep.  The
    h-Christoffel coefficients are likewise taken once per shell.
    """
    model = ws.model
    radii = geometric_radii(40.0, 320.0, 6) if radii is None else list(map(float, radii))
    quad = quad or QuadratureSpec()
    for f in factors:
        require_positive(model, f, radii[-1])
        require_adapted(engine, model, f)
    gauges = [ws] + [gauge_change(ws, f) for f in factors]
    if check_decay:
        for w in gauges[:2]:
            require_weyl_alf(engine, model, w.metric, w.lee)
    shells = _shells(model, radii, quad)

    # shells outside, gauges inside: one shell's metric jet is alive at a time
    m = model.m
    q_forms = np.empty((len(gauges), len(shells), m, m))
    c_forms = np.empty_like(q_forms)
    metric = ws.metric.as_field()
    for s, (pts, weights, normals) in enumerate(shells):
        model.require_in_chart(pts)
        jet = engine.jet1(metric, pts)
        gam = model.lc_coeffs_h(pts)
        q_forms[0, s], c_forms[0, s] = shell_forms(engine, model, ws.metric, ws.lee, pts, weights, normals,
                                                   jet=jet, gam=gam)
        for k, (f, w) in enumerate(zip(factors, gauges[1:]), 1):
            fg, dfg = _rescaled_jet(engine.jet1(f.as_field(), pts), jet)
            q_forms[k, s], c_forms[k, s] = _contract_shell(model, w.metric.name, fg, dfg, w.lee,
                                                           pts, weights, normals, gam)
    norm = sphere_volume(m) * model.L
    q_forms /= norm
    c_forms /= norm
    nodes = shells[-1][0].shape[1]
    base, *swept = [[_build_report(model, b, radii, q, c, nodes, quad, 1e-6) for b in range(m)]
                    for q, c in zip(q_forms, c_forms)]
    results = []
    for f, reports in zip(factors, swept):
        audits = [InvarianceReport(r1.z_label, f.name, r1.mass, r2.mass, tolerance)
                  for r1, r2 in zip(base, reports)]
        vals = [flux_model_metric(model, gradient_correction_components(model, f, 0, pts), normals, weights)
                / (2.0 * norm) for pts, weights, normals in shells]
        predicted = richardson_limit(radii, vals, 2 - m)
        results.append((audits, ConformalChangeReport(base[0].z_label, predicted, base[0].q_limit,
                                                      reports[0].q_limit)))
    return results


def ricci_positivity_floor(engine: DerivativeEngine, ws: WeylStructure, sample_count: int = 12,
                           seed: int = 7, r_range=(1.5, 6.0)) -> float:
    """Smallest eigenvalue of the symmetrized connection Ricci over sample points.

    A non-negative floor numerically certifies (at the samples) the curvature
    hypothesis under which the mass form is expected to be non-negative.
    """
    from .weyl import weyl_curvature

    model = ws.model
    rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
    floor = math.inf
    for _ in range(sample_count):
        u = rng.normal(size=model.m)
        u /= np.linalg.norm(u)
        r = rng.uniform(*r_range)
        p = model.point(r * u, rng.uniform(0.0, model.L))
        ric = weyl_curvature(engine, ws, p).Ric
        sym = 0.5 * (ric + ric.T)
        floor = min(floor, float(np.min(np.linalg.eigvalsh(sym))))
    return floor


def mass_matrix(engine: DerivativeEngine, ws: WeylStructure, radii=None,
                quad: Optional[QuadratureSpec] = None, conformal: bool = True,
                tol_conv: float = 1e-6, check_decay: bool = True):
    """Mass matrix, Q-part matrix and per-direction reports from one flux pass.

    One metric jet per shell gives the forms Q_r and C_r; the matrices are
    their extrapolated limits (C is dropped when ``conformal`` is false).
    Returns (matrix, q_matrix, reports) with reports keyed by the basis
    directions X_b and the polarization directions X_b + X_c.
    """
    model = ws.model
    m = model.m
    radii = geometric_radii(40.0, 320.0, 6) if radii is None else list(map(float, radii))
    quad = quad or QuadratureSpec()
    if check_decay:
        if conformal:
            require_weyl_alf(engine, model, ws.metric, ws.lee)
        else:
            require_alf(engine, model, ws.metric)
    q_forms, c_forms, nodes = _form_pass(engine, model, ws.metric, ws.lee if conformal else None,
                                         _shells(model, radii, quad))
    rate = 2 - m
    q_matrix = richardson_limit(radii, q_forms, rate)
    matrix = q_matrix + richardson_limit(radii, c_forms, rate)

    eye = np.eye(m)
    directions = list(eye) + [eye[b] + eye[c] for b in range(m) for c in range(b + 1, m)]
    reports = {
        _z_label(model, z): _build_report(model, z, radii, q_forms, c_forms, nodes, quad, tol_conv)
        for z in directions
    }
    return matrix, q_matrix, reports

