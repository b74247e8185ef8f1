"""Surface-flux mass integrals on the fibered chart.

The flux density of a horizontal field Z with model-dual 1-form a_Z is

    q(Z) = sum_b (grad^h_{E_b} g)(E_b, Z) a_Z - d(tr_h g)(Z) a_Z / 2 - d(g(Z,Z)) / 2,

summed over the full model frame including the fiber direction; on a
holonomic frame (the trivial fibration) grad^h is the frame derivative.
The mass quadratic form is the normalized limit of shell fluxes of q(Z);
the conformal mass adds the normalized limit of shell fluxes of the
Lee-type density of theta,

    (1 - m) <theta, a_Z>_h a_Z - |a_Z|_h^2 theta.

Both densities are quadratic in Z, so one metric jet and one evaluation of
theta per node fix the whole form: each shell is contracted against its
weights and normals into two symmetric m x m matrices Q_r and C_r with
flux of q(Z) = z^T Q_r z and flux of the Lee term = z^T C_r z, the sums
of the forms of the shell's blocks from ``quadrature.node_blocks``.  A
flux block's measured working set is 12 n^3 bytes per node, so a block
holds 2,022 nodes at m = 5 (the default 20,000-node shells are ten blocks)
and 5,461 at m = 3 (a 416-node shell is one): large blocks, since each
pays a fixed Python overhead.  The Lee-type flux form of any 1-form a is
C = (1 - m) sym(B) - tr(B) I for B = sum w a (x) nu.  The mass matrix,
the Q-part matrix and every per-direction report are read off these forms.

Under g -> f g the Lee form becomes theta - df/(2f) and the conformal mass
form stays the same.  ``flux_pass`` is the one loop over the shells: on
each node block g takes one coordinate jet, each factor f of a sweep takes
one scalar jet, and the jet of f g is formed by the product rule
(f g, f dg + g df) and contracted exactly as g's own, so g is
differentiated once per node however long the sweep.  The same factor
jet gives the Lee form theta - df/(2f) of gauge f g, with theta evaluated
once per block, and the Lee-type form of df, the predicted shift of the Q
part.  ``mass_matrix`` runs the pass with no factors and ``gauge_audit``
with the factors of a sweep.  The per-direction densities of q(Z) and of
the Lee term are kept in the test suite as the independent oracle.

Limits are realized on a geometric radius schedule with one Richardson
extrapolation step at the generic remainder rate r^(2-m) of the integrated
flux; the raw sequence is always reported and convergence is declared,
never assumed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import reduce
from operator import add
from typing import Optional, Sequence

import numpy as np

from .engine import DerivativeEngine
from .errors import ChartDomainError
from .families import ScalarField, conformal_sweep
from .model import ModelSpace, sphere_volume
from .probes import geometric_radii, require_adapted, require_positive, require_weyl_alf
from .quadrature import QuadratureSpec, node_blocks
from .weyl import WeylStructure, gauge_change, lee_jet

# the default flux radii: ``count`` geometric radii from r0 to rmax
FLUX_RADII = {"r0": 40.0, "rmax": 320.0, "count": 6}


def _lee_type_form(m: int, oneform, wn) -> np.ndarray:
    """Flux form C = (1 - m) sym(B) - tr(B) I, B = sum w a (x) nu, of a 1-form a; ``wn`` = weights * normals.

    z^T C z is the flux of (1 - m) <a, a_Z>_h a_Z - |a_Z|_h^2 a.
    """
    b = np.einsum("kN,cN->kc", oneform[:m], wn)
    return 0.5 * (1 - m) * (b + b.T) - np.trace(b) * np.eye(m)


def _contract_shell(model: ModelSpace, name: str, g, dg, theta, pts, wn, gam) -> tuple:
    """Symmetric m x m forms (Q, C) of one shell block from a coordinate jet (g, dg) and the Lee form's values.

    ``wn`` is weights * normals and ``gam`` is ``model.lc_coeffs_h(pts)``, or
    None on a holonomic frame, which skips the zero h-connection terms.
    Raises ChartDomainError if g is not positive definite at some node.
    """
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
    v = np.einsum("bbk...->k...", dg)
    if gam is not None:
        v = v - np.einsum("bbl...,lk...->k...", gam, g) - np.einsum("bkl...,bl...->k...", gam, g)
    v = v - 0.5 * np.einsum("kbb...->k...", dg)
    a = np.einsum("kN,cN->kc", v[:m], wn)
    d = np.einsum("cabN,cN->ab", dg[:m, :m, :m], wn)
    q = 0.5 * (a + a.T) - 0.25 * (d + d.T)
    return q, _lee_type_form(m, theta, wn)


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


def _block_forms(engine: DerivativeEngine, ws: WeylStructure, factors, names, pts, weights, normals) -> tuple:
    """(Q, C, df forms, node count) of one node block of a flux shell, for g and every gauge f g.

    Q and C are (1 + factors, m, m), the df forms (factors, m, m).  The
    block's jets are local, so they are freed before the next block's.
    """
    model = ws.model
    m = model.m
    model.require_in_chart(pts)
    wn = weights * normals
    theta = lee_jet(engine, ws.lee, pts)
    jet = engine.jet1(ws.metric.as_field(), pts)
    gam = None if model.holonomic else model.lc_coeffs_h(pts)
    q, c = np.empty((2, len(names), m, m))
    df_forms = np.empty((len(factors), m, m))
    q[0], c[0] = _contract_shell(model, names[0], *jet, theta, pts, wn, gam)
    for k, f in enumerate(factors, 1):
        f_jet = engine.jet1(f.as_field(), pts)
        df = model.frame_from_coord(f_jet[1], model.split(pts)[0])
        # the Lee form of gauge f g, theta - df/(2f), off the factor jet
        q[k], c[k] = _contract_shell(model, names[k], *_rescaled_jet(f_jet, jet), theta - df / (2.0 * f_jet[0]),
                                     pts, wn, gam)
        df_forms[k - 1] = _lee_type_form(m, df, wn)
    return q, c, df_forms, weights.size


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
class FluxForms:
    """Normalized shell forms of one flux pass, for gauge g and the gauges f g of a sweep."""

    radii: list
    quad: QuadratureSpec
    nodes: int          # nodes per flux shell actually used
    q: np.ndarray       # (1 + factors, shells, m, m): Q_r of g, then of each f g
    c: np.ndarray       # same shape: C_r, the Lee term, of each gauge
    df: np.ndarray      # (factors, shells, m, m): Lee-type form of each factor's df


def flux_pass(engine: DerivativeEngine, ws: WeylStructure, factors: Sequence[ScalarField] = (),
              radii=None, quad: Optional[QuadratureSpec] = None, check_decay: bool = True) -> FluxForms:
    """The shell forms of gauge g and of the gauge f g of every factor f, from one metric jet per node block.

    ``radii`` defaults to ``FLUX_RADII`` and must hold at least two radii,
    strictly increasing and above R.  Every factor is probed for positivity
    out to the largest radius and for membership in the adapted class
    before any flux work; with ``check_decay`` the
    Weyl-ALF decay probes run on g and on the first swept gauge, also
    before it.  On each node block g takes one coordinate jet and each
    factor one scalar jet, and the jet of f g comes from the two by the
    product rule.  theta and the h-Christoffel coefficients (none on a
    holonomic frame) are taken once per block; the Lee form of f g is
    theta - df/(2f) with df off the factor jet.
    """
    model = ws.model
    m = model.m
    radii = geometric_radii(**FLUX_RADII) if radii is None else radii
    radii = [float(r) for r in radii]
    if len(radii) < 2 or not all(model.R < a < b for a, b in zip(radii, radii[1:])):
        raise ValueError(f"flux radii must be at least two, strictly increasing and above R={model.R:g};"
                         f" got {radii}")
    quad = quad or QuadratureSpec()
    for f in factors:
        require_positive(model, f, radii[-1])
        require_adapted(engine, model, f)
    if check_decay:
        for w in [ws] + [gauge_change(ws, f) for f in factors[:1]]:
            require_weyl_alf(engine, model, w.metric, w.lee)

    names = [ws.metric.name] + [conformal_sweep(ws.metric, f).name for f in factors]
    shells = []
    for r in radii:
        # measured working set: one and a half rank-3 arrays (n^3 doubles) per node
        blocks = [_block_forms(engine, ws, factors, names, *block)
                  for block in node_blocks(model, [r], [1.0], quad, 12 * model.dim**3)]
        # a shell's forms and node count are sums over its blocks; one block is taken as it is
        shells.append([reduce(add, part) for part in zip(*blocks)])
    q, c, df, nodes = zip(*shells)
    norm = sphere_volume(m) * model.L
    return FluxForms(radii, quad, nodes[-1], np.stack(q, 1) / norm, np.stack(c, 1) / norm, np.stack(df, 1) / norm)


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


def _build_report(model: ModelSpace, z: np.ndarray, forms: FluxForms, gauge: int, tol_conv) -> MassReport:
    """Report of direction z in gauge ``gauge`` (0 for g, k for the k-th factor) of a flux pass."""
    q_vals = [float(z @ q @ z) for q in forms.q[gauge]]
    c_vals = [float(z @ c @ z) for c in forms.c[gauge]]
    rate = 2 - model.m
    q_limit = richardson_limit(forms.radii, q_vals, rate)
    c_limit = richardson_limit(forms.radii, c_vals, rate) if any(c != 0.0 for c in c_vals) else 0.0
    totals = [q + c for q, c in zip(q_vals, c_vals)]
    gap = abs(totals[-1] - totals[-2])
    converged = gap < tol_conv * max(1.0, abs(totals[-1]))
    return MassReport(
        z_label="+".join(f"{c:g}*X{b + 1}" for b, c in enumerate(z) if c != 0.0) or "0",
        radii=list(forms.radii),
        q_values=q_vals,
        correction_values=c_vals,
        q_limit=q_limit,
        correction_limit=c_limit,
        converged=converged,
        tol_conv=tol_conv,
        omega_n=sphere_volume(model.m),
        fiber_length=model.L,
        quad=asdict(forms.quad),
        shell_nodes=forms.nodes,
        extrapolation_rate=rate,
    )


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
    """Conformal mass in gauge g versus gauge f g for every factor f of a sweep, from one ``flux_pass``.

    Returns one (audits, prediction) pair per factor, in order: one
    InvarianceReport per basis direction X_b and the X1
    ConformalChangeReport, whose predicted Q-shift (half the normalized flux
    of the df density) is set against the Q limits of the two gauges; the
    metric of gauge f g is conformal_sweep(g, f).
    """
    forms = flux_pass(engine, ws, factors, radii, quad, check_decay)
    model = ws.model
    base, *swept = [[_build_report(model, z, forms, k, 1e-6) for z in np.eye(model.m)]
                    for k in range(len(factors) + 1)]
    results = []
    for f, reports, df in zip(factors, swept, forms.df):
        audits = [InvarianceReport(r1.z_label, f.name, r1.mass, r2.mass, tolerance)
                  for r1, r2 in zip(base, reports)]
        predicted = 0.5 * float(richardson_limit(forms.radii, df[:, 0, 0], 2 - model.m))
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
                quad: Optional[QuadratureSpec] = None, tol_conv: float = 1e-6, check_decay: bool = True):
    """Mass matrix, Q-part matrix and per-direction reports from one ``flux_pass``.

    The matrices are the extrapolated limits of Q_r + C_r and of Q_r.
    Returns (matrix, q_matrix, reports) with reports keyed by the basis
    directions X_b and the polarization directions X_b + X_c.
    """
    forms = flux_pass(engine, ws, radii=radii, quad=quad, check_decay=check_decay)
    model = ws.model
    m = model.m
    rate = 2 - m
    q_matrix = richardson_limit(forms.radii, forms.q[0], rate)
    matrix = q_matrix + richardson_limit(forms.radii, forms.c[0], rate)

    eye = np.eye(m)
    directions = list(eye) + [eye[b] + eye[c] for b in range(m) for c in range(b + 1, m)]
    reports = [_build_report(model, z, forms, 0, tol_conv) for z in directions]
    return matrix, q_matrix, {rep.z_label: rep for rep in reports}
