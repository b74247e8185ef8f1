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
flux block is budgeted 12 n^3 bytes per node, so a block holds 2,022 nodes
at m = 5 and 5,461 at m = 3: large blocks, since each pays a fixed Python
overhead.  The default shells are one block each (416 nodes at m = 3,
1,312 on the 82-direction symmetric rule at m = 5); a shell spans several
only at a finer fiber or on the product rule of a larger sphere request.
Under tracemalloc one block with no factors peaks at 11.4 n^3 bytes per
node at m = 5 (2,022 nodes); at m = 3 it peaks at 13.8 n^3 on the trivial
chart and 36.6 n^3 on the Hopf chart (416 nodes, about 1 MB), where
``lc_coeffs_h`` builds rank-3 structure constants and Christoffel arrays.
Each swept gauge adds up to 16.4 n^2 bytes per node, budgeted at 20 n^2.
The Lee-type flux form of any 1-form a is C = (1 - m) sym(B) - tr(B) I
for B = sum w a (x) nu.  The mass matrix, the Q-part matrix and every
per-direction report are read off these forms.

Under g -> f g the Lee form becomes theta - df/(2f) and the conformal mass
form stays the same.  ``flux_pass`` is the one loop over the shells: on
each node block g takes one coordinate jet and the factors of a sweep one
jet of ``families.stacked_factors``, whose factors share one radius jet and
one r^s per distinct exponent, and ``_contract_shell`` contracts
every gauge of the block in one pass, with the factors stacked on a batch
axis.  The integrands of f g are linear in the factor jet, so they are
formed per node from g's by the product rule: v_k(f g) = f v_k(g) + g_kb E_b f - tr_h(g) E_k f / 2,
and the d integrand f E_c g_ab + E_c f g_ab.  So g is differentiated,
frame-converted and checked for positive definiteness once per block
however long the sweep, and f g is positive definite where f is finite
and positive.  The check is the verdict of ``weyl.gram_factor``, the
package's one Cholesky kernel for batch-last blocks: every pivot finite
and > 0.  It factors the whole block by vector operations along the node
axis, where LAPACK copies each n x n matrix out of the batch-last block
and factors it in a call of its own (0.26 ms against 0.56-0.93 ms on a
2,022-node block at m = 5).  The same factor jet gives the Lee form
theta - df/(2f) of gauge f g, with theta evaluated once per block, and
the Lee-type form of df, the predicted shift of the Q part.
``mass_matrix`` runs the pass with no factors and ``gauge_audit`` with
the factors of a sweep.  The per-direction densities of q(Z) and of the
Lee term, and the per-gauge route that contracts the jet of f g as a
gauge of its own, are kept in the test suite as the independent oracles.

Limits are realized on a geometric radius schedule with one Richardson
extrapolation step at the generic remainder rate r^(2-m) of the integrated
flux; the raw sequence is always reported and convergence is declared,
never assumed.  Where the shells use the symmetric degree-7 sphere rule,
``mass_matrix`` also sums g's Q and C on its embedded degree-5 rule, on the
same nodes and integrands, and each report gives the gap between the two
rules' limits as ``angular_error``: the accuracy the rule gives up on data
with more angular content than degree 7.  The swept gauges of a sweep sum
no such forms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce
from operator import add
from typing import Optional, Sequence

import numpy as np

from .engine import DerivativeEngine, frame_jet2
from .errors import ChartDomainError
from .families import ScalarField, conformal_sweep, stacked_factors
from .model import ModelSpace, sphere_volume
from .probes import (geometric_radii, h_connection, positivity_grid, probe_grid, require_adapted,
                     require_positive, require_weyl_alf, rescaled_frame_jet2)
from .quadrature import QuadratureSpec, embedded_weights, node_blocks, sphere_rule_name
from .weyl import WeylStructure, gauge_change, gram_factor, lee_jet, regauged_lee_jet

# the default flux radii: ``count`` geometric radii from r0 to rmax
FLUX_RADII = {"r0": 40.0, "rmax": 320.0, "count": 6}


def _lee_type_form(m: int, oneform, wn) -> np.ndarray:
    """Flux form C = (1 - m) sym(B) - tr(B) I, B = sum w a (x) nu, of a 1-form a; ``wn`` = weights * normals.

    z^T C z is the flux of (1 - m) <a, a_Z>_h a_Z - |a_Z|_h^2 a.  Axes of a
    between its component axis and its node axis batch the form, (..., m, m).
    """
    b = np.einsum("k...N,cN->...kc", oneform[:m], wn)
    trace = np.trace(b, axis1=-2, axis2=-1)[..., None, None]
    return 0.5 * (1 - m) * (b + b.swapaxes(-2, -1)) - trace * np.eye(m)


def _refuse_indefinite(model: ModelSpace, name: str, gram, pts):
    """Raise ChartDomainError at a node of ``gram`` (batch, n, n) where it is not finite, else at its node
    with the smallest eigenvalue."""
    finite = np.all(np.isfinite(gram), axis=(-2, -1))
    if np.all(finite):
        lam = np.min(np.linalg.eigvalsh(gram), axis=-1)
        bad = int(np.argmin(lam))
        why = f"smallest eigenvalue {lam[bad]:.6g}"
    else:
        bad = int(np.argmin(finite))
        why = "g is not finite there"
    raise ChartDomainError(
        f"metric {name!r} is not positive definite on the flux shell r={model.radius(pts)[bad]:.6g} ({why})"
    )


def _contract_shell(model: ModelSpace, names, g, dg, theta, f, df, pts, wn, gam, wn5=None) -> tuple:
    """Forms of one shell block in gauge g and in the gauge f g of every factor, from g's and the factors' jets.

    (g, dg) is g's coordinate jet and theta its Lee form's values; f (F, N)
    and df (d, F, N) stack the factors' coordinate jets, F >= 0 (df unread
    at F = 0).  ``wn`` is weights * normals and ``gam`` is
    ``model.lc_coeffs_h(pts)``, or None on a holonomic frame, which skips
    the zero h-connection terms.  ``wn5`` is
    the embedded degree-5 rule's weights * normals, or None.  Returns Q
    and C, (1 + F, m, m), g's first, the df forms (F, m, m), and g's Q and C
    on ``wn5`` stacked, (2, m, m), or (0, m, m) without it.  The swept
    forms are linear in the factor jet: v_k and the d integrand of f g come
    from g's by the product rule, so nothing of f g is differentiated or
    factorized.  Raises ChartDomainError if g is not positive definite at
    some node (a pivot of ``gram_factor`` that is not finite and > 0), or
    f g, i.e. f is not finite and positive there.
    """
    m = model.m
    x = model.split(pts)[0]
    dg = model.frame_from_coord(dg, x)
    gram = np.moveaxis(g, (0, 1), (-2, -1))
    if not np.all(gram_factor(g)[1]):
        _refuse_indefinite(model, names[0], gram, pts)
    # v_k = sum_b (grad^h_{E_b} g)(E_b, E_k) - E_k(tr_h g) / 2
    v = np.einsum("bbk...->k...", dg)
    if gam is not None:
        v = v - np.einsum("bbl...,lk...->k...", gam, g) - np.einsum("bkl...,bl...->k...", gam, g)
    v = v - 0.5 * np.einsum("kbb...->k...", dg)

    def g_forms(wn):
        a = np.einsum("kN,cN->kc", v[:m], wn)
        d = np.einsum("cabN,cN->ab", dg[:m, :m, :m], wn)
        return 0.5 * (a + a.T) - 0.25 * (d + d.T), _lee_type_form(m, theta, wn)

    q, c = g_forms(wn)
    embedded = np.empty((0, m, m)) if wn5 is None else np.stack(g_forms(wn5))
    if not len(f):  # no sweep: none of the swept work below, whose fixed per-call costs add up over many blocks
        return q[None], c[None], np.empty((0, m, m)), embedded
    # g is positive definite at every node, so f g is where f is finite and positive
    for k in np.flatnonzero(~np.all(np.isfinite(f) & (f > 0), axis=-1)):
        _refuse_indefinite(model, names[k + 1], f[k, :, None, None] * gram, pts)
    df = model.frame_from_coord(df, x)
    # v_k of f g: f v_k + g_kb E_b f - tr_h(g) E_k f / 2
    vf = (f[:, None] * v[:m] + np.einsum("kbN,bFN->FkN", g[:m], df)
          - 0.5 * np.einsum("bbN->N", g) * np.moveaxis(df[:m], 1, 0))
    a = np.einsum("FkN,cN->Fkc", vf, wn)
    # the d integrand of f g, f E_c g_ab + E_c f g_ab against wn_c, is formed per node before the node sum:
    # summing its two terms over the nodes apart rounds about twice as far from a longdouble evaluation
    d = f[:, None, None] * np.einsum("cabN,cN->abN", dg[:m, :m, :m], wn)
    d += np.einsum("cFN,cN->FN", df[:m], wn)[:, None, None] * g[:m, :m]
    d = np.sum(d, axis=-1)
    qf = 0.5 * (a + a.swapaxes(1, 2)) - 0.25 * (d + d.swapaxes(1, 2))
    # the Lee form of gauge f g, theta - df/(2f), off the factor jet
    cf = _lee_type_form(m, theta[:, None] - df / (2.0 * f), wn)
    return np.concatenate(([q], qf)), np.concatenate(([c], cf)), _lee_type_form(m, df, wn), embedded


def _block_forms(engine: DerivativeEngine, ws: WeylStructure, stacked, names, pts, weights, normals) -> tuple:
    """(Q, C, df forms, embedded forms, node count) of one node block of a flux shell, for g and every gauge f g.

    ``stacked`` is the sweep's ``stacked_factors``, or None without factors.
    Q and C are (1 + factors, m, m), the df forms (factors, m, m).  Weights
    (2, N) from ``node_blocks(..., embedded=True)`` also give g's Q and C on
    the embedded degree-5 rule, (2, m, m); else that part is (0, m, m).  The
    block's jets are local, so they are freed before the next block's.
    """
    model = ws.model
    model.require_in_chart(pts)
    weights, weights5 = (weights, None) if weights.ndim == 1 else weights
    theta = lee_jet(engine, ws.lee, pts)
    jet = engine.jet1(ws.metric.as_field(), pts)
    gam = None if model.holonomic else model.lc_coeffs_h(pts)
    # one jet of all the factors: f (F, N) and df (d, F, N)
    f, df = (np.empty((0, weights.size)), None) if stacked is None else engine.jet1(stacked, pts)
    wn5 = None if weights5 is None else weights5 * normals
    return (*_contract_shell(model, names, *jet, theta, f, df, pts, weights * normals, gam, wn5), weights.size)


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
    embedded: Optional[np.ndarray]  # (2, shells, m, m): Q_r and C_r of g on the embedded degree-5 rule, or None


def _probe_gauges(engine: DerivativeEngine, ws: WeylStructure, factors, rmax: float) -> None:
    """Refuse the first factor, in sweep order, that is not positive out to ``rmax``, then the first that is
    not adapted, then data that fails the Weyl-ALF probes in gauge g or in the first swept gauge.

    Every factor is checked for positivity before any is differentiated.  The factors then take one
    probe-grid jet2 of ``stacked_factors``, and each adapted-class check reads its slice.  g takes one
    probe-grid jet2 and its Lee form one jet1.  The swept gauge's probes take no jet: its metric jet2 is read
    off g's and factor 0's by the product rule, and its Lee jet off g's Lee jet and factor 0's; both gauges
    read one ``h_connection``.  The probe jets are local, so none is held through the flux work.
    """
    model = ws.model
    pts = probe_grid(model)
    f_jets = []
    if factors:
        grid = positivity_grid(model, rmax)
        for f in factors:
            require_positive(f, grid)
        jet = frame_jet2(engine, model, stacked_factors(factors), pts)
        f_jets = [tuple(a[..., k, :] for a in jet) for k in range(len(factors))]
        for f, f_jet in zip(factors, f_jets):
            require_adapted(model, f, f_jet)
    g_jet = frame_jet2(engine, model, ws.metric.as_field(), pts)
    theta_jet = lee_jet(engine, ws.lee, pts, order=1)
    h_jet = h_connection(model, pts)
    require_weyl_alf(ws, g_jet, theta_jet, h_jet)
    for f, f_jet in zip(factors[:1], f_jets):
        require_weyl_alf(gauge_change(ws, f), rescaled_frame_jet2(f_jet, g_jet), regauged_lee_jet(theta_jet, f_jet),
                         h_jet)


def flux_pass(engine: DerivativeEngine, ws: WeylStructure, factors: Sequence[ScalarField] = (),
              radii=None, quad: Optional[QuadratureSpec] = None, angular: bool = False) -> FluxForms:
    """The shell forms of gauge g and of the gauge f g of every factor f, from one metric jet per node block.

    ``radii`` defaults to ``FLUX_RADII`` and must hold at least two radii,
    strictly increasing and above R.  Every factor is probed for positivity
    out to the largest radius, every one before any is differentiated, and
    then for membership in the adapted class, and g and the first swept
    gauge for the Weyl-ALF decay probes, all before any flux work: the
    conformal mass is defined only for Weyl-ALF data, so no caller skips
    them.  The factors take one probe-grid jet2 of
    ``stacked_factors`` for all their adapted-class checks, and the swept
    gauge's metric probes read the jet2 of f g off g's and factor 0's by
    the second-order product rule.  On each node block g takes one
    coordinate jet and the factors one stacked jet (none without factors),
    and one ``_contract_shell`` forms every gauge's integrands from them.
    theta and the h-Christoffel coefficients (none on a holonomic frame) are
    taken once per block; the Lee form of f g is theta - df/(2f) with df
    off the factor jet.  With ``angular``, and where the sphere rule is the
    symmetric one, g's Q and C are also summed on its embedded degree-5
    rule, over the same nodes: the angular error estimate of a mass report.
    """
    model = ws.model
    m = model.m
    radii = geometric_radii(**FLUX_RADII) if radii is None else radii
    radii = [float(r) for r in radii]
    if len(radii) < 2 or not all(model.R < a < b for a, b in zip(radii, radii[1:])):
        raise ValueError(f"flux radii must be at least two, strictly increasing and above R={model.R:g};"
                         f" got {radii}")
    quad = quad or QuadratureSpec()
    _probe_gauges(engine, ws, factors, radii[-1])

    names = [ws.metric.name] + [conformal_sweep(ws.metric, f).name for f in factors]
    stacked = stacked_factors(factors) if factors else None
    # working set per node (module docstring): about one and a half rank-3 arrays (n^3 doubles), 11.4 n^3 bytes
    # measured at m = 5, and up to 16.4 n^2 bytes per swept gauge (m = 3 and 5), budgeted at 20 n^2
    node_bytes = (12 * model.dim + 20 * len(factors)) * model.dim**2
    embedded = angular and embedded_weights(m, quad.sphere) is not None
    shells = []
    for r in radii:
        blocks = [_block_forms(engine, ws, stacked, names, *block)
                  for block in node_blocks(model, [r], [1.0], quad, node_bytes, embedded)]
        # a shell's forms and node count are sums over its blocks; one block is taken as it is
        shells.append([reduce(add, part) for part in zip(*blocks)])
    q, c, df, forms5, nodes = zip(*shells)
    norm = sphere_volume(m) * model.L
    return FluxForms(radii, quad, nodes[-1], np.stack(q, 1) / norm, np.stack(c, 1) / norm, np.stack(df, 1) / norm,
                     np.stack(forms5, 1) / norm if embedded else None)


def _record(report, **computed) -> dict:
    """The JSON record of a report: its fields, read shallowly, and its computed values; ``z_label`` is Z."""
    record = {**vars(report), **computed}
    record["Z"] = record.pop("z_label")
    return record


@dataclass
class MassReport:
    """Per-radius fluxes, extrapolated limits and convergence diagnostics."""

    z_label: str
    radii: list
    q_values: list                 # normalized Q flux per radius
    correction_values: list        # normalized conformal correction per radius
    q_limit: float
    correction_limit: float
    tol_conv: float
    omega_n: float
    fiber_length: float
    quadrature: dict
    shell_nodes: int               # nodes per flux shell actually used
    extrapolation_rate: float
    sphere_rule: str               # the sphere rule of the flux shells
    angular_error: Optional[float]  # |mass - its limit on the embedded degree-5 rule|, None on the product rule

    @property
    def mass(self) -> float:
        return self.q_limit + self.correction_limit

    @property
    def totals(self) -> list:
        return [q + c for q, c in zip(self.q_values, self.correction_values)]

    @property
    def converged(self) -> bool:
        *_, before, last = self.totals
        return abs(last - before) < self.tol_conv * max(1.0, abs(last))

    def as_dict(self) -> dict:
        return _record(self, mass=self.mass, converged=self.converged)

    def csv_rows(self) -> list:
        running = running_extrapolation(self.radii, self.totals, self.extrapolation_rate)
        return [
            (r, q, c, e)
            for r, q, c, e in zip(self.radii, self.q_values, self.correction_values, running)
        ]


def _limits(radii, q_forms, c_forms, z: np.ndarray, rate: float) -> tuple:
    """(Q values, C values, Q limit, C limit) of direction z; the C limit is 0 where every C value is."""
    q_vals = [float(z @ q @ z) for q in q_forms]
    c_vals = [float(z @ c @ z) for c in c_forms]
    c_limit = richardson_limit(radii, c_vals, rate) if any(c != 0.0 for c in c_vals) else 0.0
    return q_vals, c_vals, richardson_limit(radii, q_vals, rate), c_limit


def _build_report(model: ModelSpace, z: np.ndarray, forms: FluxForms, gauge: int, tol_conv) -> MassReport:
    """Report of direction z in gauge ``gauge`` (0 for g, k for the k-th factor) of a flux pass.

    Its ``angular_error`` is the gap between its mass and the same limit of
    g's forms on the embedded degree-5 rule, where the pass summed them.
    """
    rate = 2 - model.m
    q_vals, c_vals, q_limit, c_limit = _limits(forms.radii, forms.q[gauge], forms.c[gauge], z, rate)
    angular_error = None
    if gauge == 0 and forms.embedded is not None:
        q5_limit, c5_limit = _limits(forms.radii, *forms.embedded, z, rate)[2:]
        angular_error = abs(q_limit + c_limit - (q5_limit + c5_limit))
    return MassReport(
        z_label="+".join(f"{c:g}*X{b + 1}" for b, c in enumerate(z) if c != 0.0) or "0",
        radii=list(forms.radii),
        q_values=q_vals,
        correction_values=c_vals,
        q_limit=q_limit,
        correction_limit=c_limit,
        tol_conv=tol_conv,
        omega_n=sphere_volume(model.m),
        fiber_length=model.L,
        quadrature=asdict(forms.quad),
        shell_nodes=forms.nodes,
        extrapolation_rate=rate,
        sphere_rule=sphere_rule_name(model.m, forms.quad.sphere),
        angular_error=angular_error,
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
        return _record(self, direct_delta=self.direct_delta, rel_error=self.rel_error)


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
        return _record(self, abs_difference=self.abs_difference, rel_difference=self.rel_difference,
                       passed=self.passed)


def gauge_audit(engine: DerivativeEngine, ws: WeylStructure, factors: Sequence[ScalarField],
                radii=None, quad: Optional[QuadratureSpec] = None, tolerance: float = 1e-4) -> list:
    """Conformal mass in gauge g versus gauge f g for every factor f of a sweep, from one ``flux_pass``.

    Returns one (audits, prediction) pair per factor, in order: one
    InvarianceReport per basis direction X_b and the X1
    ConformalChangeReport, whose predicted Q-shift (half the normalized flux
    of the df density) is set against the Q limits of the two gauges; the
    metric of gauge f g is conformal_sweep(g, f).
    """
    forms = flux_pass(engine, ws, factors, radii, quad)
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


def mass_matrix(engine: DerivativeEngine, ws: WeylStructure, radii=None,
                quad: Optional[QuadratureSpec] = None, tol_conv: float = 1e-6):
    """Mass matrix, Q-part matrix and per-direction reports from one ``flux_pass``.

    The matrices are the extrapolated limits of Q_r + C_r and of Q_r.
    Returns (matrix, q_matrix, reports) with reports keyed by the basis
    directions X_b and the polarization directions X_b + X_c; each report
    names the sphere rule and, on the symmetric rule, its angular error.
    """
    forms = flux_pass(engine, ws, radii=radii, quad=quad, angular=True)
    model = ws.model
    m = model.m
    rate = 2 - m
    q_matrix = richardson_limit(forms.radii, forms.q[0], rate)
    matrix = q_matrix + richardson_limit(forms.radii, forms.c[0], rate)

    eye = np.eye(m)
    directions = list(eye) + [eye[b] + eye[c] for b in range(m) for c in range(b + 1, m)]
    reports = [_build_report(model, z, forms, 0, tol_conv) for z in directions]
    return matrix, q_matrix, {rep.z_label: rep for rep in reports}
