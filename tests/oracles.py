"""Independent references that the package's derivative kernel and mass forms are tested against.

``weylmass.weyl._covd_slots`` is the one place that applies the Weyl derivative
D to forms and tensors (the slot form: Levi-Civita plus one theta-term per
slot).  The references here compute the same quantities on other routes:

* ``FDEngine`` takes every jet by Richardson-extrapolated central
  differences (``DerivativeEngine._fd_jet1`` and ``_fd_hessian``) instead
  of Taylor seeds: the reference route for the exact jets;
* ``wedge_covd_form_block`` assembles D on p-forms in wedge form,

      D_X w = nabla^g_X w + (k - p) theta(X) w - theta ^ (X _| w) + X^b ^ (theta# _| w),

  with the per-slot wedge ``wedge_cov_into`` and the outer product ``_outer_two``;
* ``frame_exterior_derivative`` is plain d on frame forms, with the
  anholonomic bracket terms, for d^D at weight 0 and for d(theta);
* ``check_weighted_derivative_oracle`` compares D on weighted 1-forms with
  a hand formula;
* ``full_christoffel_jet``, ``full_weyl_jet`` and ``full_coeff_curvature``
  are the jet and curvature formulas with every bracket term built, even
  from zero structure constants, and with the identity outer products as
  einsums: the reference for the package's holonomic shortcuts;
* ``q_flux_components`` and ``lee_correction_components`` are the mass flux
  densities of one horizontal direction Z, evaluated pointwise, and
  ``direction_limits`` integrates them shell by shell with
  ``flux_model_metric`` and extrapolates: the per-direction route that
  ``weylmass.mass.flux_pass`` reads off its symmetric shell forms.
  ``shell_nodes`` takes a whole shell as one block of ``node_blocks``;
* ``per_gauge_shell_forms`` is the per-gauge route for a swept gauge f g:
  the coordinate jet of f g by the product rule (``rescaled_jet``),
  contracted as a gauge of its own, where the package forms the swept
  integrands from g's; ``longdouble_shell_forms`` evaluates the same forms
  from the same float jets in ``np.longdouble``, the reference for both;
* the pointwise multilinear algebra at one point (``PointMetric``,
  ``WeightedForm``, ``wedge``, ``hodge_star``, ...) is the reference for
  the wedge form of D and for delta = -*d*; test-only fields follow it.
  Its operand checks raise ``DimensionMismatchError``, defined here because
  nothing in the package raises it;
* ``anisotropic_metric`` (g = h + A r^(2-m) on the horizontal block, with
  its closed-form mass matrix ``anisotropic_mass_matrix``) and
  ``translated_metric`` (a family's source moved off the origin) are the
  non-radial data of the mass-matrix oracles and of the angular error;
* ``unit_scalar`` (the factor f = 1) and ``ricci_positivity_floor`` (the
  smallest eigenvalue of the symmetrized connection Ricci over samples)
  have test callers only.

Pointwise algebra conventions: tensors are dense component arrays in a
fixed frame.  Differential forms are stored as fully antisymmetric arrays
with the determinant (shuffle) wedge convention and no 1/p!q! prefactors,
so ``(dx1 ^ dx2)(e1, e2) = 1``.  The inner product on p-forms is the
Gram-determinant product, which makes ``a ^ star(b) = <a, b> vol`` hold
exactly.  Weighted forms carry a conformal weight ``k`` and the name of the
metric gauge that trivializes them; rescaling the gauge metric by a
positive factor ``f`` multiplies the components by ``f**(k/2)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from weylmass import autodiff as am
from weylmass.engine import DerivativeEngine, Field, frame_jet1, frame_jet2
from weylmass.errors import DegreeError, GaugeMismatchError
from weylmass.families import LeeFormField, MetricFamily, ScalarField, _radius, directional_profile, radial_profile
from weylmass.identities import (IdentityReport, _perm_sign, _rng, _weight_pool, antisymmetrize,
                                 random_form_field, trial_point, trial_structure)
from weylmass.mass import _contract_shell, richardson_limit
from weylmass.model import ModelSpace, sphere_volume
from weylmass.probes import geometric_radii, probe_grid
from weylmass.quadrature import QuadratureSpec, node_blocks
from weylmass.weyl import (FormFieldSpec, WeylJet, WeylStructure, christoffel, covd_form_block, insert_alt,
                           inv_gram, lc_form_block, lee_jet, outer_front, tdot, weyl_curvature)


class FDEngine(DerivativeEngine):
    """The finite-difference reference route: Richardson central differences in place of Taylor jets."""

    def jet1(self, fld: Field, coords):
        return self._fd_jet1(fld, np.asarray(coords, dtype=float))

    def jet2(self, fld: Field, coords):
        coords = np.asarray(coords, dtype=float)
        return (*self._fd_jet1(fld, coords), self._fd_hessian(fld, coords))


def wedge_cov_into(slot_block: np.ndarray, q: int) -> np.ndarray:
    """Per-leading-index wedge: block[i; a; j1..jq] -> (theta ^ sigma_i)[i; ...]."""
    moved = np.moveaxis(slot_block, 0, q + 1)  # (a, j1..jq, i, batch)
    res = insert_alt(moved, q)
    return np.moveaxis(res, q + 1, 0)


def _outer_two(g: np.ndarray, arr: np.ndarray, nform: int) -> np.ndarray:
    """g[i, a] * arr[J]: shape (n, n) + form + batch."""
    gg = g.reshape(g.shape[:2] + (1,) * nform + g.shape[2:])
    return gg * arr[(None, None) + (Ellipsis,)]


def wedge_covd_form_block(engine: DerivativeEngine, ws: WeylStructure, spec: FormFieldSpec, coords) -> np.ndarray:
    """All frame derivatives H[i; J] = (D_{E_i} w)_J of a weighted form (wedge form of D)."""
    if spec.gauge != ws.gauge:
        raise GaugeMismatchError(f"form in gauge {spec.gauge!r}, structure in gauge {ws.gauge!r}")
    coords = np.asarray(coords, dtype=float)
    p, k = spec.degree, spec.weight
    w, dw = frame_jet1(engine, ws.model, spec.field, coords)
    gam = christoffel(engine, ws.model, ws.metric, coords)[0]
    g = ws.gram(coords)
    theta = lee_jet(engine, ws.lee, coords)
    H = lc_form_block(dw, w, gam, p)
    if k != 0 or p != 0:
        H = H + (k - p) * outer_front(theta, w, p)
    if p == 0:
        return H
    ginv = inv_gram(g)
    theta_sharp = np.einsum("ab...,b...->a...", ginv, theta)
    # - theta ^ (E_i _| w): per slot i, wedge theta into the (p-1)-form w[i, ...]
    block = np.moveaxis(outer_front(theta, w, p), 0, 1)  # (i, a, j2..jp, batch)
    H = H - wedge_cov_into(block, p - 1)
    # + (E_i)^flat ^ (theta# _| w)
    tw = tdot(theta_sharp, w)  # (j2..jp, batch)
    H = H + wedge_cov_into(_outer_two(g, tw, p - 1), p - 1)
    return H


def frame_exterior_derivative(engine: DerivativeEngine, model: ModelSpace, fld: Field, degree: int,
                              coords) -> np.ndarray:
    """Plain d on low-degree frame forms; independent oracle for d^D at k = 0."""
    coords = np.asarray(coords, dtype=float)
    w, dw = frame_jet1(engine, model, fld, coords)
    C = model.structure_constants(coords)
    if degree == 0:
        return dw
    if degree == 1:
        out = dw - np.swapaxes(dw, 0, 1)
        out -= np.einsum("ijl...,l...->ij...", C, w)
        return out
    if degree == 2:
        out = dw - np.moveaxis(dw, (0, 1, 2), (1, 0, 2)) + np.moveaxis(dw, (0, 1, 2), (2, 0, 1))
        br = np.einsum("ijl...,lk...->ijk...", C, w)
        out -= br - np.moveaxis(br, (0, 1, 2), (0, 2, 1)) + np.moveaxis(br, (0, 1, 2), (1, 2, 0))
        return out
    # generic slow path: explicit sum over index tuples (test-scale only)
    n = model.dim
    batch = coords.shape[1:]
    out = np.zeros((n,) * (degree + 1) + batch)
    for idx in np.ndindex(*(n,) * (degree + 1)):
        acc = 0.0
        for j in range(degree + 1):
            rest = idx[:j] + idx[j + 1:]
            acc = acc + (-1) ** j * dw[(idx[j],) + rest]
        for j in range(degree + 1):
            for l in range(j + 1, degree + 1):
                rest = tuple(idx[s] for s in range(degree + 1) if s != j and s != l)
                wc = w[(slice(None),) + rest]
                bracket = np.einsum("c...,c...->...", C[idx[j], idx[l]], wc)
                acc = acc + (-1) ** (j + l) * bracket
        out[idx] = acc
    return out


def check_weighted_derivative_oracle(engine: DerivativeEngine, model: ModelSpace, seed: int = 42,
                                     trials: int = 50, tolerance: float = 1e-8) -> IdentityReport:
    """``covd_form_block`` on weighted 1-forms against the hand formula

    D a = grad a + (k - 1) theta (x) a - a (x) theta + <a, theta> g.
    """
    worst = 0.0
    for trial in range(trials):
        rng = _rng(seed, 16, trial)
        ws = trial_structure(model, seed, [trial])
        p = trial_point(model, rng)
        k = _weight_pool(model)[int(rng.integers(0, 4))]
        spec = random_form_field(ws, [rng], 1, k)
        H = covd_form_block(engine, ws, spec, p)[1]
        a, da = frame_jet1(engine, model, spec.field, p)
        gam = christoffel(engine, model, ws.metric, p)[0]
        g = ws.gram(p)
        theta = lee_jet(engine, ws.lee, p)
        nabla = lc_form_block(da, a, gam, 1)
        inner = float(inv_gram(g) @ a @ theta)
        oracle = nabla + (k - 1) * np.outer(theta, a) - np.outer(a, theta) + inner * g
        worst = max(worst, float(np.max(np.abs(H - oracle))))
    return IdentityReport("weighted_derivative_oracle", trials, worst, tolerance, worst < tolerance)


def _full_koszul(dg: np.ndarray, cg: np.ndarray, lead: int = 0) -> np.ndarray:
    i, j, k = lead, lead + 1, lead + 2
    low = dg + np.swapaxes(dg, i, j) - np.swapaxes(dg, i, k)
    return 0.5 * (low + cg - np.swapaxes(cg, j, k) - np.moveaxis(cg, k, i))


def full_christoffel_jet(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily, coords):
    """(G, dG, g, dg, g^-1) with the bracket terms C g and E_p(C g) always built."""
    coords = np.asarray(coords, dtype=float)
    g, dg, ddg = frame_jet2(engine, model, fam.as_field(), coords)
    C = model.structure_constants(coords)
    cg = np.einsum("ijl...,lk...->ijk...", C, g)
    dcg = (np.einsum("pijl...,lk...->pijk...", model.structure_jacobian(coords), g)
           + np.einsum("ijl...,plk...->pijk...", C, dg))
    ginv = inv_gram(g)
    gam = np.einsum("ijk...,kl...->ijl...", _full_koszul(dg, cg), ginv)
    dg_ginv = np.einsum("pab...,bl...->pal...", dg, ginv)
    dgam = (np.einsum("pijk...,kl...->pijl...", _full_koszul(ddg, dcg, lead=1), ginv)
            - np.einsum("ija...,pal...->pijl...", gam, dg_ginv))
    return gam, dgam, g, dg, ginv


def _identity(n: int, batch: tuple) -> np.ndarray:
    return np.broadcast_to(np.eye(n).reshape((n, n) + (1,) * len(batch)), (n, n) + batch)


def full_weyl_jet(engine: DerivativeEngine, ws: WeylStructure, coords):
    """The WeylJet of ``_weyl_jet`` (W, dW, g, g^-1, theta, dtheta) over ``full_christoffel_jet``, delta terms
    as einsums."""
    coords = np.asarray(coords, dtype=float)
    gam, dgam, g, dg, ginv = full_christoffel_jet(engine, ws.model, ws.metric, coords)
    theta, dtheta = lee_jet(engine, ws.lee, coords, order=1)
    theta_sharp = np.einsum("kl...,l...->k...", ginv, theta)
    dtheta_sharp = np.einsum("kl...,pl...->pk...", ginv,
                             dtheta - np.einsum("plb...,b...->pl...", dg, theta_sharp))
    eye = _identity(ws.model.dim, gam.shape[3:])
    W = gam.copy()
    W += np.einsum("i...,jk...->ijk...", theta, eye)
    W += np.einsum("j...,ik...->ijk...", theta, eye)
    W -= np.einsum("ij...,k...->ijk...", g, theta_sharp)
    dW = dgam.copy()
    dW += np.einsum("pi...,jk...->pijk...", dtheta, eye)
    dW += np.einsum("pj...,ik...->pijk...", dtheta, eye)
    dW -= np.einsum("pij...,k...->pijk...", dg, theta_sharp)
    dW -= np.einsum("ij...,pk...->pijk...", g, dtheta_sharp)
    return WeylJet(W, g, ginv, theta, dW=dW, dtheta=dtheta)


def full_coeff_curvature(W: np.ndarray, dW: np.ndarray, C: np.ndarray) -> np.ndarray:
    """R[i,j,k,m] from (W, dW, C) with the bracket term C[i,j,l] W[l,k,m] always built."""
    first = dW - np.swapaxes(dW, 0, 1)
    quad = np.einsum("jkl...,ilm...->ijkm...", W, W)
    quad = quad - np.swapaxes(quad, 0, 1)
    br = np.einsum("ijl...,lkm...->ijkm...", C, W)
    return first + quad - br


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


def lee_correction_components(engine: DerivativeEngine, model: ModelSpace, lee: LeeFormField, z,
                              coords) -> np.ndarray:
    """(1 - m) <theta, a_Z>_h a_Z - |a_Z|_h^2 theta at (batched) chart points."""
    coords = np.asarray(coords, dtype=float)
    z = horizontal_field(model, z)
    zfull = np.concatenate([z, [0.0]])
    theta = lee_jet(engine, lee, coords)
    inner = np.einsum("i...,i->...", theta, zfull)
    alpha = zfull.reshape((len(zfull),) + (1,) * (theta.ndim - 1))
    return (1 - model.m) * inner * alpha - float(z @ z) * theta


def flux_model_metric(model: ModelSpace, oneform_values: np.ndarray, normals: np.ndarray,
                      weights: np.ndarray) -> float:
    """Flux of a 1-form through the shell w.r.t. the model metric h."""
    contracted = np.sum(oneform_values[: model.m] * normals, axis=0)
    return float(np.sum(contracted * weights))


def shell_nodes(model: ModelSpace, r: float, quad: QuadratureSpec) -> tuple:
    """(points, weights, normals) of the whole flux shell {|x| = r}: one ``node_blocks`` block of every node."""
    (block,) = node_blocks(model, [r], [1.0], quad, node_bytes=1)
    return block


def probe_jet(engine: DerivativeEngine, fld) -> tuple:
    """The frame jet2 of a metric family or scalar field on the probe grid, the jet its probe suite reads."""
    return frame_jet2(engine, fld.model, fld.as_field(), probe_grid(fld.model))


def probe_lee_jet(engine: DerivativeEngine, lee: LeeFormField) -> tuple:
    """The jet1 of a Lee form on the probe grid, the jet ``probes.lee_probes`` reads."""
    return lee_jet(engine, lee, probe_grid(lee.model), order=1)


def direction_limits(engine: DerivativeEngine, ws: WeylStructure, z, radii=None, quad=None) -> tuple:
    """Per-direction route: extrapolated normalized shell fluxes of q(Z) and of the Lee term.

    Returns (q_limit, correction_limit) from the pointwise densities, one
    shell and one direction at a time; the defaults are those of the mass
    pass (6 geometric radii from 40 to 320, the default quadrature).
    """
    model = ws.model
    radii = [float(r) for r in (geometric_radii(40.0, 320.0, 6) if radii is None else radii)]
    quad = quad or QuadratureSpec()
    norm = sphere_volume(model.m) * model.L
    q_vals, c_vals = [], []
    for r in radii:
        pts, weights, normals = shell_nodes(model, r, quad)
        q_vals.append(flux_model_metric(model, q_flux_components(engine, model, ws.metric, z, pts),
                                        normals, weights) / norm)
        c_vals.append(flux_model_metric(model, lee_correction_components(engine, model, ws.lee, z, pts),
                                        normals, weights) / norm)
    rate = 2 - model.m
    return richardson_limit(radii, q_vals, rate), richardson_limit(radii, c_vals, rate)


def rescaled_jet(f_jet, g_jet) -> tuple:
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


def per_gauge_shell_forms(model: ModelSpace, name: str, g_jet, theta, f_jet, pts, wn, gam) -> tuple:
    """(Q, C) of gauge f g on one shell block by the per-gauge route: the jet of f g from ``rescaled_jet``,
    contracted by ``_contract_shell`` as its base gauge (no factors), with the Lee form theta - df/(2f)."""
    f, df = f_jet
    theta_f = theta - model.frame_from_coord(df, model.split(pts)[0]) / (2.0 * f)
    none = np.empty((0,) + f.shape)
    q, c, _, _ = _contract_shell(model, [name], *rescaled_jet(f_jet, g_jet), theta_f, none,
                                 np.empty((model.dim,) + none.shape), pts, wn, gam)
    return q[0], c[0]


def longdouble_shell_forms(model: ModelSpace, g_jet, theta, f_jet, pts, wn, gam) -> tuple:
    """(Q, C) of gauge f g on one shell block from the same float jets, evaluated in ``np.longdouble``.

    The jet of f g, the frame conversion, v_k, the d term and the Lee form are
    the formulas of ``_contract_shell`` with every operation rounded in the
    wider type; ``gam`` is the h-Christoffel array (zeros on a holonomic
    frame).  No definiteness check.
    """
    ld = np.longdouble
    m = model.m
    f, df = (np.asarray(a, dtype=ld) for a in f_jet)
    g, dg = (np.asarray(a, dtype=ld) for a in g_jet)
    A = np.asarray(model.connection_potential(model.split(pts)[0]), dtype=ld)

    def frame(d):
        out = d.copy()
        for a in range(m):
            out[a] = d[a] - A[a] * d[m]
        return out

    g, dg, df = f * g, frame(f * dg + g * df[:, None, None]), frame(df)
    gam, wn, theta = (np.asarray(a, dtype=ld) for a in (gam, wn, theta))
    v = (np.einsum("bbk...->k...", dg) - np.einsum("bbl...,lk...->k...", gam, g)
         - np.einsum("bkl...,bl...->k...", gam, g) - np.einsum("kbb...->k...", dg) / 2)
    a = np.einsum("kN,cN->kc", v[:m], wn)
    d = np.einsum("cabN,cN->ab", dg[:m, :m, :m], wn)
    b = np.einsum("kN,cN->kc", (theta - df / (2 * f))[:m], wn)
    return (a + a.T) / 2 - (d + d.T) / 4, (1 - m) * (b + b.T) / 2 - np.trace(b) * np.eye(m, dtype=ld)


# --- pointwise multilinear algebra at one chart point ------------------------

_ATOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operands live in different dimensions or have incompatible valence."""


@dataclass(frozen=True)
class TensorValue:
    """Pointwise multilinear array: ``p`` contravariant and ``q`` covariant slots."""

    dim: int
    p: int
    q: int
    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", comps)
        if comps.shape != (self.dim,) * (self.p + self.q):
            raise DimensionMismatchError(
                f"components shape {comps.shape} does not match valence ({self.p},{self.q}) in dim {self.dim}"
            )

    @classmethod
    def vector(cls, comps) -> "TensorValue":
        comps = np.asarray(comps, dtype=float)
        return cls(comps.shape[0], 1, 0, comps)

    @classmethod
    def covector(cls, comps) -> "TensorValue":
        comps = np.asarray(comps, dtype=float)
        return cls(comps.shape[0], 0, 1, comps)


@dataclass(frozen=True)
class PointMetric:
    """Metric at a point: matrix, inverse, determinant and orientation."""

    dim: int
    g: np.ndarray
    g_inv: np.ndarray
    det: float
    orientation: int = 1

    @classmethod
    def from_matrix(cls, g, orientation: int = 1) -> "PointMetric":
        g = np.asarray(g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatchError(f"metric matrix must be square, got {g.shape}")
        if np.max(np.abs(g - g.T)) > _ATOL:
            raise ValueError("metric matrix is not symmetric within 1e-12")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise ValueError("metric matrix is not positive definite") from exc
        det = float(np.linalg.det(g))
        return cls(g.shape[0], g, np.linalg.inv(g), det, orientation)

    @property
    def sqrt_det(self) -> float:
        return math.sqrt(self.det)


@dataclass(frozen=True)
class WeightedForm:
    """Antisymmetric form plus conformal weight and trivializing gauge tag."""

    dim: int
    degree: int
    weight: float
    components: np.ndarray
    gauge: str = "g"

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", comps)
        if self.degree > self.dim:
            raise DegreeError(f"degree {self.degree} exceeds dimension {self.dim}")
        if comps.shape[: self.degree] != (self.dim,) * self.degree:
            raise DimensionMismatchError(
                f"components shape {comps.shape} does not match degree {self.degree} in dim {self.dim}"
            )

    def regauge(self, factor: float, new_gauge: str) -> "WeightedForm":
        """Components in the gauge ``f*g``: multiply by ``f**(k/2)``."""
        return WeightedForm(
            self.dim, self.degree, self.weight, self.components * factor ** (self.weight / 2.0), new_gauge
        )

    def antisymmetry_defect(self) -> float:
        if self.degree < 2:
            return 0.0
        c = self.components
        worst = 0.0
        for i in range(self.degree - 1):
            axes = list(range(self.degree))
            axes[i], axes[i + 1] = axes[i + 1], axes[i]
            worst = max(worst, float(np.max(np.abs(c + np.transpose(c, axes)))))
        return worst


@lru_cache(maxsize=8)
def levi_civita(dim: int) -> np.ndarray:
    eps = np.zeros((dim,) * dim)
    for perm in itertools.permutations(range(dim)):
        eps[perm] = _perm_sign(perm)
    return eps


def sharp(alpha: TensorValue, metric: PointMetric) -> TensorValue:
    """Raise a covector with the inverse metric."""
    if alpha.p != 0 or alpha.q != 1:
        raise DimensionMismatchError("sharp expects a degree-1 covariant tensor")
    if alpha.dim != metric.dim:
        raise DimensionMismatchError(f"covector dim {alpha.dim} != metric dim {metric.dim}")
    return TensorValue.vector(metric.g_inv @ alpha.components)


def flat(vec: TensorValue, metric: PointMetric) -> TensorValue:
    """Lower a vector with the metric."""
    if vec.p != 1 or vec.q != 0:
        raise DimensionMismatchError("flat expects a degree-1 contravariant tensor")
    if vec.dim != metric.dim:
        raise DimensionMismatchError(f"vector dim {vec.dim} != metric dim {metric.dim}")
    return TensorValue.covector(metric.g @ vec.components)


def wedge(a: WeightedForm, b: WeightedForm) -> WeightedForm:
    """Shuffle-convention wedge; weights add, gauges must agree."""
    if a.gauge != b.gauge:
        raise GaugeMismatchError(f"gauge mismatch: {a.gauge!r} vs {b.gauge!r} (regauge first)")
    if a.dim != b.dim:
        raise DimensionMismatchError("wedge operands live in different dimensions")
    p, q = a.degree, b.degree
    if p + q > a.dim:
        raise DegreeError(f"degree {p}+{q} exceeds dimension {a.dim}")
    if p == 0:
        comps = float(a.components) * b.components
    elif q == 0:
        comps = float(b.components) * a.components
    else:
        outer = np.multiply.outer(a.components, b.components)
        comps = antisymmetrize(outer) * (math.factorial(p + q) / (math.factorial(p) * math.factorial(q)))
    return WeightedForm(a.dim, p + q, a.weight + b.weight, comps, a.gauge)


def interior(vec: TensorValue, w: WeightedForm) -> WeightedForm:
    """Interior product: contract the vector into the first slot."""
    if vec.p != 1 or vec.q != 0:
        raise DimensionMismatchError("interior product expects a vector")
    if w.degree == 0:
        raise DegreeError("interior product of a 0-form is undefined")
    if vec.dim != w.dim:
        raise DimensionMismatchError("vector and form dimensions differ")
    comps = np.tensordot(vec.components, w.components, axes=(0, 0))
    return WeightedForm(w.dim, w.degree - 1, w.weight, comps, w.gauge)


def volume_form(metric: PointMetric, gauge: str = "g") -> WeightedForm:
    n = metric.dim
    comps = metric.orientation * metric.sqrt_det * levi_civita(n)
    return WeightedForm(n, n, 0.0, comps, gauge)


def raise_all(comps: np.ndarray, metric: PointMetric) -> np.ndarray:
    out = comps
    for axis in range(comps.ndim):
        out = np.moveaxis(np.tensordot(metric.g_inv, out, axes=(1, axis)), 0, axis)
    return out


def form_inner(a: WeightedForm, b: WeightedForm, metric: PointMetric) -> float:
    """Gram inner product of same-degree forms: <dx^I, dx^I> = 1 for orthonormal frames."""
    if a.degree != b.degree:
        raise DegreeError(f"degree mismatch: {a.degree} vs {b.degree}")
    if a.gauge != b.gauge:
        raise GaugeMismatchError(f"gauge mismatch: {a.gauge!r} vs {b.gauge!r}")
    if a.degree == 0:
        return float(a.components) * float(b.components)
    raised = raise_all(b.components, metric)
    return float(np.tensordot(a.components, raised, axes=a.degree)) / math.factorial(a.degree)


def hodge_star(w: WeightedForm, metric: PointMetric) -> WeightedForm:
    """Hodge dual pinned by ``a ^ star(b) = <a, b> vol``."""
    if w.dim != metric.dim:
        raise DimensionMismatchError("form and metric dimensions differ")
    n, p = w.dim, w.degree
    eps = levi_civita(n)
    if p == 0:
        comps = float(w.components) * metric.sqrt_det * eps * metric.orientation
        return WeightedForm(n, n, w.weight, comps, w.gauge)
    raised = raise_all(w.components, metric)
    comps = np.tensordot(raised, eps, axes=(tuple(range(p)), tuple(range(p))))
    comps *= metric.orientation * metric.sqrt_det / math.factorial(p)
    return WeightedForm(n, n - p, w.weight, comps, w.gauge)


# --- test-only references, regaugings and fields ----------------------------


def metric_compat_residual(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily, coords) -> float:
    """Max |nabla g| recomputed from the coefficients; zero up to derivative error."""
    g, dg = frame_jet1(engine, model, fam.as_field(), coords)
    gam = christoffel(engine, model, fam, coords)[0]
    nabla = dg - np.einsum("ijl...,lk...->ijk...", gam, g) - np.einsum("ikl...,jl...->ijk...", gam, g)
    return float(np.max(np.abs(nabla)))


def ricci_trace_convention(R: np.ndarray) -> np.ndarray:
    """Ric(X, Y) = trace(Z -> R(Z, X) Y); metric-free trace for diagnostics."""
    n = R.shape[0]
    out = 0.0
    for a in range(n):
        out = out + R[a, :, :, a]
    return out


def regauge(spec: FormFieldSpec, factor: ScalarField, new_gauge: str) -> FormFieldSpec:
    """The form field in the gauge ``factor * g``: components times f**(k/2)."""
    k = spec.weight

    def fn(coords):
        w = spec.field.fn(coords)
        scale = factor.fn(coords) ** (k / 2.0)
        return _scale_tree(w, scale)

    return FormFieldSpec(
        Field(fn, shape=spec.field.shape, name=spec.field.name + "~regauged"),
        spec.degree, spec.weight, new_gauge,
    )


def _scale_tree(tree, scale):
    if isinstance(tree, (list, tuple)):
        return [_scale_tree(e, scale) for e in tree]
    return tree * scale


def inverse(f: ScalarField) -> ScalarField:
    """The factor 1/f."""
    def fn(coords):
        return 1.0 / f.fn(coords)

    return ScalarField(f"inv({f.name})", f.model, fn, params=f.params)


def sphere_block_test(model: ModelSpace) -> MetricFamily:
    """Round-sphere block in the (x1, x2) slot; compact sanity chart, not ALF."""
    n = model.dim

    def fn(coords):
        s = am.sin(coords[0])
        rows = []
        for i in range(n):
            rows.append([((s * s) if (i == j == 1) else (1.0 if i == j else 0.0)) for j in range(n)])
        return rows

    return MetricFamily("sphere_block_test", model, fn)


def anisotropic_metric(model: ModelSpace, A) -> MetricFamily:
    """g_ab = delta_ab + A_ab r^(2-m) on the horizontal block, A symmetric and constant; the fiber block is h's.

    With ``zero_lee`` its mass matrix is (m - 2) / (2m) (tr A I + (m - 2) A): a
    non-radial metric whose matrix has off-diagonal entries.
    """
    m, n = model.m, model.dim
    A = np.asarray(A, dtype=float)

    def fn(coords):
        fall = _radius(coords[:m]) ** (2 - m)
        return [[(float(i == j) + A[i, j] * fall if i < m and j < m else float(i == j)) for j in range(n)]
                for i in range(n)]

    return MetricFamily("anisotropic_metric", model, fn)


def anisotropic_mass_matrix(A) -> np.ndarray:
    """The closed-form mass matrix of ``anisotropic_metric`` with ``zero_lee``."""
    m = len(A)
    return (m - 2) / (2 * m) * (np.trace(A) * np.eye(m) + (m - 2) * np.asarray(A))


def translated_metric(fam: MetricFamily, centre) -> MetricFamily:
    """The metric of ``fam`` with its base coordinates x replaced by x - centre: the source moved to centre."""
    m = fam.model.m

    def fn(coords):
        return fam.fn([x - c for x, c in zip(coords[:m], centre)] + list(coords[m:]))

    return MetricFamily(f"translated({fam.name})", fam.model, fn)


def random_adapted_scalar(model: ModelSpace, seed: int, scale: float = 0.4) -> ScalarField:
    """Random positive member of the adapted class: radial plus angular tail terms."""
    m = model.m
    rng = np.random.default_rng(np.random.SeedSequence([seed, 903]))
    beta = float(rng.uniform(0.2, 1.0)) * scale
    gamma = float(rng.uniform(-0.5, 0.5)) * scale
    axis = int(rng.integers(0, m))
    base = radial_profile(model, beta=beta)
    extra = directional_profile(model, beta=gamma, axis=axis)

    def fn(coords):
        return base.fn(coords) + (extra.fn(coords) - 1.0)

    return ScalarField(f"random_adapted_scalar(seed={seed})", model, fn,
                       params={"seed": seed, "beta": beta, "gamma": gamma, "axis": axis})


def unit_scalar(model: ModelSpace) -> ScalarField:
    def fn(coords):
        return 1.0

    return ScalarField("unit_scalar", model, fn)


def ricci_positivity_floor(engine: DerivativeEngine, ws: WeylStructure, sample_count: int = 12,
                           seed: int = 7, r_range=(1.5, 6.0)) -> float:
    """Smallest eigenvalue of the symmetrized connection Ricci over sample points.

    A non-negative floor numerically certifies (at the samples) the curvature
    hypothesis under which the mass form is expected to be non-negative.
    """
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
