"""Weyl-connection calculus on the fibered chart.

A Weyl structure is held in a fixed gauge: the gauge metric family g, a Lee
form theta, and the model chart.  On vector fields the connection is

    D_Y X = nabla^g_Y X + theta(Y) X + theta(X) Y - g(X, Y) theta#,

with coefficients D_{E_i} E_j = W[i, j, k] E_k.  On a weight-k (0, q)
tensor, p-forms included, it is Levi-Civita plus one theta-term per slot
(Calderbank & Pedersen, "Einstein-Weyl geometry", 1999):

    (D_{E_a} S)[j1..jq] = E_a S[J] + k theta_a S[J] - sum_s W[a, j_s, l] S[.. l ..].

This slot form is the one kernel (``_covd_slots``) that applies D to forms
and tensors.  The wedge form on p-forms,
D_X w = nabla^g_X w + (k - p) theta(X) w - theta ^ (X _| w) + X^b ^ (theta# _| w),
is assembled only in the tests, as the kernel's independent oracle.

All conformal-frame sums are realized in the fixed model frame through
inverse-Gram contractions with g.  g^-1 comes from ``gram_factor``, an
unpivoted Cholesky run along the batch axis (a node block, the points of a
batch of identity trials, or one point), the one kernel that also gives
the flux pass and the identity trials their definiteness check and, from
the same factor, the curved quadratures sqrt(det g).
Weighted forms are never implicitly coerced between gauges; cross-gauge
comparisons go through the explicit f**(k/2) regauging rule.  A gauge
change g -> f g records f on the Lee form, and ``lee_jet`` reads
theta - df/(2f) off the jets of theta and f.

Curvature is algebra on (W, dW, C): the coefficients W of D, their frame
derivatives dW and the frame structure constants C.  On a holonomic frame
(``ModelSpace.holonomic``, the trivial fibration) C and its derivatives
vanish, and every bracket term is skipped rather than built from zeros;
the same rule holds in ``lie_bracket``, in the flux pass (no h-Christoffel
terms) and in the decay probes (no h-connection or bracket terms).
dW is closed form in one second-order jet of g and one first-order jet of
theta (``_weyl_jet``); the Levi-Civita case is theta = 0.  Each jet is one
``WeylJet``, read by name.  Second covariant derivatives D(Dw) are algebra
on the same jet plus one second-order jet of the form
(``covd2_form_block``), so Lap^D, d^D d^D and delta^D d^D carry no
finite-difference error.

The Bochner annulus density needs only Ric^D(a#, a#) at its form a, which
``_ricci_jet`` reads off the same two jets with v = a# contracted into each
factor first: two passes over the frame Hessian H[p, i, j, k] = E_p E_i g_jk
(and, on the Hopf chart, over E_p (C g)) are the only n^4 work per node, and
every other term is n^3.  Neither the Koszul jet of H, dW, R nor an n x n
Ricci tensor is built; g^-1 and sqrt(det g) come off one factorization of g
(``inv_gram_volume``), and the zeta shells read both off ``christoffel`` the
same way.  The pointwise checks and ``curvature_split`` keep the full route
(``_ricci`` on ``_coeff_curvature`` of ``_weyl_jet``); the tests hold the
two to 1e-13.

The operators return plain component arrays; the degree and weight of the
result follow from the input spec.  ``dD`` reads d^D and ``deltaD`` reads
delta^D off one ``covd_form_block``, and Lap^D w = -g^{ab} DH[a; b] is the
trace of ``covd2_form_block``.

Conventions: component arrays keep tensor axes first and batch axes last;
a derivative block H[i; J] holds (D_{E_i} w)_J with the direction slot first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable

import numpy as np

from .autodiff import move_axis
from .engine import DerivativeEngine, Field, frame_jet1, frame_jet2
from .errors import ChartDomainError, DegreeError, GaugeMismatchError
from .families import LeeFormField, MetricFamily, ScalarField, conformal_sweep
from .model import ModelSpace


@dataclass
class FormFieldSpec:
    """A weighted-form field: component evaluator plus degree, weight, gauge."""

    field: Field
    degree: int
    weight: float
    gauge: str = "g"


@dataclass
class WeylStructure:
    """Gauge metric, Lee form and chart; immutable after construction.

    The Lee form is read through ``lee_jet``, which applies the factor a
    gauge change records on it.
    """

    model: ModelSpace
    metric: MetricFamily
    lee: LeeFormField
    gauge: str = "g"

    def gram(self, coords) -> np.ndarray:
        return self.metric.as_field().values(coords)


def lee_jet(engine: DerivativeEngine, lee: LeeFormField, coords, order: int = 0):
    """Frame components theta of a Lee form (order 0), or (theta, E theta) (order 1).

    With a recorded factor f the form is theta_fg = theta - df/(2f), with
    E_p theta_fg = E_p theta - E_p E_i f/(2f) + E_i f E_p f/(2f^2): one jet1
    of f at order 0 and one jet2 at order 1.
    """
    model, f = lee.model, lee.factor
    fld = Field(lee.fn, shape=(model.dim,), name=lee.name)
    if order == 0:
        theta = fld.values(coords)
        if f is None:
            return theta
        fv, df = frame_jet1(engine, model, f.as_field(), coords)
        return theta - df / (2.0 * fv)
    theta_jet = frame_jet1(engine, model, fld, coords)
    if f is None:
        return theta_jet
    return regauged_lee_jet(theta_jet, frame_jet2(engine, model, f.as_field(), coords))


def regauged_lee_jet(theta_jet, f_jet) -> tuple:
    """(theta_fg, E theta_fg) of theta_fg = theta - df/(2f), from the frame jet1 of theta and the frame jet2 of f.

    E_p theta_fg = E_p theta - E_p E_i f/(2f) + E_i f E_p f/(2f^2).
    """
    theta, dtheta = theta_jet
    fv, df, ddf = f_jet
    return (theta - df / (2.0 * fv),
            dtheta - ddf / (2.0 * fv) + df[:, None] * df[None, :] / (2.0 * fv * fv))


# ---------------------------------------------------------------------------
# array primitives (form axes first, batch axes last)
# ---------------------------------------------------------------------------


def gram_factor(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor L (g = L L^T, lower triangular) of a batch-last gram (n, n) + batch, and its verdict.

    Unpivoted, one column at a time (Golub & Van Loan, *Matrix Computations*,
    sec. 4.2), every operation elementwise along the batch axes: nothing is
    reduced across nodes, so no bit of a node depends on the block size.
    Only the lower triangle of g is read; the batch may be empty.  The
    verdict (batch) is True where every pivot is finite and > 0, i.e. where
    g is positive definite; a failing pivot is reported, never raised,
    whatever the caller's errstate.
    """
    n = g.shape[0]
    # L^T: row j holds column j of L, so each update reads and writes one contiguous run of rows
    lt = np.zeros(g.shape)
    with np.errstate(all="ignore"):
        for j in range(n):
            s = lt[j, j:]
            s[...] = g[j:, j]
            for k in range(j):
                s -= lt[k, j:] * lt[k, j]
            np.sqrt(s[:1], out=s[:1])
            s[1:] /= s[0]
        # sqrt(p) is finite and > 0 exactly where the pivot p is
        pivots = np.diagonal(lt)
        definite = np.all(np.isfinite(pivots) & (pivots > 0), axis=-1)
    return lt.swapaxes(0, 1), definite


def _factor_inverse(L: np.ndarray) -> np.ndarray:
    """g^-1 = L^-T L^-1 of a batch-last Cholesky factor L: L^-1 by forward substitution, then the lower
    triangle of the product, mirrored, all elementwise along the batch; returned C-order."""
    n = L.shape[0]
    linv = np.zeros(L.shape)
    for i in range(n):
        linv[i, i] = 1.0 / L[i, i]
        if i:
            acc = L[i, 0] * linv[0, :i]
            for k in range(1, i):
                acc += L[i, k] * linv[k, :i]
            np.multiply(acc, -linv[i, i], out=linv[i, :i])
    out = np.empty(L.shape)
    for a in range(n):
        for b in range(a + 1):
            s = linv[a, a] * linv[a, b]
            for k in range(a + 1, n):
                s += linv[k, a] * linv[k, b]
            out[a, b] = out[b, a] = s
    return out


def inv_gram_volume(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g^-1, sqrt(det g)) of a batch-last block (n, n) + batch, one gram included, from one ``gram_factor``:
    g^-1 = L^-T L^-1, C-order and batch-last, and sqrt(det g) the product of the pivots L_jj.  A block where
    g is not positive definite raises ChartDomainError."""
    L, definite = gram_factor(g)
    if not np.all(definite):
        raise ChartDomainError(f"metric is not positive definite at {np.sum(~definite)} of {definite.size}"
                               " nodes of a node block")
    return _factor_inverse(L), reduce(mul, (L[j, j] for j in range(g.shape[0])))


def inv_gram(g: np.ndarray) -> np.ndarray:
    """The g^-1 of ``inv_gram_volume``."""
    return inv_gram_volume(g)[0]


def tdot(vec: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Contract a vector (n, batch) into the leading tensor axis of arr."""
    return np.einsum("l...,l...->...", vec, arr)


def outer_front(vec: np.ndarray, arr: np.ndarray, nform: int) -> np.ndarray:
    """vec_i * arr_J with a new leading axis: shape (n,) + form + batch."""
    v = vec.reshape(vec.shape[:1] + (1,) * nform + vec.shape[1:])
    return v * arr[None, ...]


def insert_alt(block: np.ndarray, p: int) -> np.ndarray:
    """Alternating insertion of the leading slot into a p-form block.

    out[i0..ip] = sum_j (-1)^j block[i_j; i_0..^j..i_p]; this is the shuffle
    wedge of a covector slot with a p-form, and the frame assembly of d.
    """
    out = block.copy()
    for j in range(1, p + 1):
        out += (-1) ** j * move_axis(block, 0, j)
    return out


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


def _brackets(model: ModelSpace, coords):
    """Frame structure constants C, or None on a holonomic frame, where C = 0 and E C = 0.

    Callers skip every bracket term on None instead of multiplying by zeros.
    """
    return None if model.holonomic else model.structure_constants(coords)


def _koszul(dg: np.ndarray, cg: np.ndarray | None, lead: int = 0) -> np.ndarray:
    """Lowered Koszul combination on axes (i, j, k) = lead .. lead + 2:

    1/2 (E_i g_jk + E_j g_ik - E_k g_ij + C_ij^l g_lk - C_ik^l g_lj - C_jk^l g_li),
    with dg[i, j, k] = E_i g_jk and cg[i, j, k] = C_ij^l g_lk (None: no brackets).
    """
    i, j, k = lead, lead + 1, lead + 2
    # accumulated in place: at lead 1 (the frame Hessian) each temporary is a rank-4 array per node
    low = dg + np.swapaxes(dg, i, j)
    low -= np.swapaxes(dg, i, k)
    if cg is not None:
        low += cg
        low -= np.swapaxes(cg, j, k)
        low -= np.moveaxis(cg, k, i)
    low *= 0.5
    return low


def christoffel(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily, coords):
    """(G, g, g^-1, sqrt(det g)): Levi-Civita coefficients in the model frame, nabla_{E_i} E_j = G[i,j,k] E_k.

    Koszul formula with the frame structure constants; on the anholonomic
    Hopf frame the (i, j) asymmetry equals the structure constants
    (torsion-freeness), on holonomic frames the coefficients are symmetric.
    g is read off the first-order metric jet, and g^-1 and sqrt(det g) off
    one factorization of it (``inv_gram_volume``).
    """
    coords = np.asarray(coords, dtype=float)
    model.require_in_chart(coords)
    g, dg = frame_jet1(engine, model, fam.as_field(), coords)
    # C itself is not kept: on a shell block it would be one more rank-3 array in the block's peak
    cg = None if model.holonomic else np.einsum("ijl...,lk...->ijk...", model.structure_constants(coords), g)
    ginv, vol = inv_gram_volume(g)
    return np.einsum("ijk...,kl...->ijl...", _koszul(dg, cg), ginv), g, ginv, vol


def _hessian_jet(engine: DerivativeEngine, model: ModelSpace, fam: MetricFamily, coords):
    """(g, dg, ddg, C, cg, dcg) from one second-order metric jet; ddg[p, i, j, k] = E_p E_i g_jk.

    cg[i, j, k] = C_ij^l g_lk and dcg[p] = E_p cg are the bracket terms of
    the Koszul combination and of its frame derivative; on a holonomic
    frame C, cg and dcg are None and not built.
    """
    coords = np.asarray(coords, dtype=float)
    model.require_in_chart(coords)
    g, dg, ddg = frame_jet2(engine, model, fam.as_field(), coords)
    C = _brackets(model, coords)
    if C is None:
        return g, dg, ddg, None, None, None
    cg = np.einsum("ijl...,lk...->ijk...", C, g)
    dcg = (np.einsum("pijl...,lk...->pijk...", model.structure_jacobian(coords), g)
           + np.einsum("ijl...,plk...->pijk...", C, dg))
    return g, dg, ddg, C, cg, dcg


def _add_delta_terms(out: np.ndarray, t: np.ndarray, lead: int) -> None:
    """out[.., i, j, k] += t[.., i] delta_jk + t[.., j] delta_ik in place; (i, j, k) start at axis lead.

    Adds t to the diagonal slices only: the off-diagonal terms of the
    outer products with the identity are exact zeros.
    """
    pre = (slice(None),) * lead
    for j in range(out.shape[lead]):
        out[pre + (slice(None), j, j)] += t
        out[pre + (j, slice(None), j)] += t


def _lee_shift(gam: np.ndarray, g: np.ndarray, theta: np.ndarray, theta_sharp: np.ndarray) -> np.ndarray:
    """W = G + theta_i delta_jk + theta_j delta_ik - g_ij theta#_k."""
    W = gam.copy()
    _add_delta_terms(W, theta, 0)
    W -= np.einsum("ij...,k...->ijk...", g, theta_sharp)
    return W


@dataclass(frozen=True)
class WeylJet:
    """The jets of a Weyl structure at a point or node block, read by name.

    Every jet holds W (D_{E_i} E_j = W[i,j,k] E_k), g, g^-1 and theta;
    ``weyl_coeffs`` and ``_ricci_jet`` add vol = sqrt(det g), ``_weyl_jet``
    dW[p] = E_p W and dtheta[p] = E_p theta, and ``_ricci_jet`` ric_aa =
    Ric^D(a#, a#), per point, for the 1-form a it was handed.
    A part the jet does not take is None.
    """

    W: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    theta: np.ndarray
    vol: np.ndarray | None = None
    dW: np.ndarray | None = None
    dtheta: np.ndarray | None = None
    ric_aa: np.ndarray | None = None


def weyl_coeffs(engine: DerivativeEngine, ws: WeylStructure, coords) -> WeylJet:
    """W, g, g^-1, theta and vol: connection coefficients of D on TM, D_{E_i} E_j = W[i,j,k] E_k.

    g, g^-1 and sqrt(det g) come off the metric jet of ``christoffel``;
    theta is evaluated once.
    """
    coords = np.asarray(coords, dtype=float)
    gam, g, ginv, vol = christoffel(engine, ws.model, ws.metric, coords)
    theta = lee_jet(engine, ws.lee, coords)
    theta_sharp = np.einsum("kl...,l...->k...", ginv, theta)
    return WeylJet(_lee_shift(gam, g, theta, theta_sharp), g, ginv, theta, vol=vol)


def _weyl_jet(engine: DerivativeEngine, ws: WeylStructure, coords) -> WeylJet:
    """W, dW, g, g^-1, theta and dtheta from one metric jet2 and one Lee-form jet1.

    E_p G = K[p] g^-1 - G (E_p g) g^-1, with K[p] = E_p low the Koszul
    combination of the frame Hessian E_p E_i g_jk and of E_p (C g), and low
    the lowered Koszul combination (G = low g^-1).  dW[p, i, j, k] =
    E_p W[i, j, k] is closed form: it differentiates each term of
    ``_lee_shift``, with E_p theta# = g^-1 (E_p theta - (E_p g) theta#).
    """
    coords = np.asarray(coords, dtype=float)
    g, dg, ddg, _, cg, dcg = _hessian_jet(engine, ws.model, ws.metric, coords)
    ginv = inv_gram(g)
    gam = np.einsum("ijk...,kl...->ijl...", _koszul(dg, cg), ginv)
    dg_ginv = np.einsum("pab...,bl...->pal...", dg, ginv)
    dgam = (np.einsum("pijk...,kl...->pijl...", _koszul(ddg, dcg, lead=1), ginv)
            - np.einsum("ija...,pal...->pijl...", gam, dg_ginv))
    theta, dtheta = lee_jet(engine, ws.lee, coords, order=1)
    theta_sharp = np.einsum("kl...,l...->k...", ginv, theta)
    dtheta_sharp = np.einsum("kl...,pl...->pk...", ginv,
                             dtheta - np.einsum("plb...,b...->pl...", dg, theta_sharp))
    dW = dgam.copy()
    _add_delta_terms(dW, dtheta, 1)
    dW -= np.einsum("pij...,k...->pijk...", dg, theta_sharp)
    dW -= np.einsum("ij...,pk...->pijk...", g, dtheta_sharp)
    return WeylJet(_lee_shift(gam, g, theta, theta_sharp), g, ginv, theta, dW=dW, dtheta=dtheta)


def _vv_traces(X: np.ndarray, v: np.ndarray, c) -> np.ndarray:
    """c . (v^i X_iajb v^j, v^i v^j X_ijab, X_ajbk v^k v^j, X_abjk v^k v^j) of a rank-4 X, per point: two passes
    over X, v into its first index and into its last, each rank-3 result reduced to rank 2 at once."""
    vX = np.einsum("p...,pijk...->ijk...", v, X)
    out = c[0] * np.einsum("ajb...,j...->ab...", vX, v) + c[1] * np.einsum("j...,jab...->ab...", v, vX)
    del vX
    Xv = np.einsum("pijk...,k...->pij...", X, v)
    return out + c[2] * np.einsum("ajb...,j...->ab...", Xv, v) + c[3] * np.einsum("abj...,j...->ab...", Xv, v)


def _ricci_jet(engine: DerivativeEngine, ws: WeylStructure, coords, a: np.ndarray) -> WeylJet:
    """W, g, g^-1, theta, vol and ric_aa = Ric^D(a#, a#) from one metric jet2 and one Lee-form jet1.

    Ric_ij = 1/2 (A_ij - B_ij), A_ij = g^{ab} R_{iab}^l g_lj and B_ij = R_{iaj}^a
    (``_ricci``), with R = E W - E W + W W - W W - C W (``_coeff_curvature``),
    is taken term by term at v = a# only, with v contracted into each factor
    first: only the passes over the frame Hessian (and E (C g)) are n^4 per node.

    * E_p G = (K[p] - G (E_p g)) g^-1 (``_weyl_jet``); the g^-1 cancels
      against the lowering in A, so E G enters 2 Ric(v, v) as four g^-1
      traces of K less four of G (E g).  With H[p, i, j, k] = E_p E_i g_jk,
      the K traces are read straight off H (``_vv_traces``),

          g^{ab} v^i v^j (H_{iajb} - H_{ijab} + H_{ajib} - H_{abij}),

      which uses only the symmetry of H in (j, k), so it holds on the
      anholonomic Hopf frame.  There the bracket part of K, from
      D[p, i, j, k] = E_p (C_ij^l g_lk), adds

          g^{ab} v^i v^j (-3/2 D_{iajb} + 1/2 D_{ijab} - D_{aibj} + D_{abji}),

      and a fifth trace, of D_{aijb}, vanishes by the antisymmetry of D in
      (i, j).  K itself is never built;
    * the Lee-form part of dW (``_weyl_jet``) is closed form in dtheta, dg,
      theta and theta#, using g^{ab} g_bj = delta_aj;
    * W W and C W take v in one factor and g v = a in the other.

    Neither dW, E G, R nor an n x n Ricci tensor is built.  W, g, g^-1 and
    theta are those of ``_weyl_jet``, bit for bit, and g^-1 and sqrt(det g)
    come off one factorization of g (``inv_gram_volume``).
    """
    coords = np.asarray(coords, dtype=float)
    n = ws.model.dim
    g, dg, ddg, C, cg, dcg = _hessian_jet(engine, ws.model, ws.metric, coords)
    ginv, vol = inv_gram_volume(g)
    gam = np.einsum("ijk...,kl...->ijl...", _koszul(dg, cg), ginv)
    theta, dtheta = lee_jet(engine, ws.lee, coords, order=1)
    theta_sharp = np.einsum("kl...,l...->k...", ginv, theta)
    W = _lee_shift(gam, g, theta, theta_sharp)
    v = np.einsum("kl...,l...->k...", ginv, a)
    kvv = _vv_traces(ddg, v, (1.0, -1.0, 1.0, -1.0))
    if dcg is not None:
        kvv += _vv_traces(dcg, v, (-1.5, 0.5, -1.0, 1.0))
    del ddg, dcg  # the rank-4 arrays do not stay for the rank-3 work below

    vdg, vG, vW = (np.einsum("i...,ibc...->bc...", v, T) for T in (dg, gam, W))  # v^i T_ibc
    dgv, Gv, Wv = (np.einsum("ajc...,j...->ac...", T, v) for T in (dg, gam, W))  # T_ajc v^j
    gtr, wtr = (np.einsum("abc...,ab...->c...", T, ginv) for T in (gam, W))     # g^{ab} T_abc
    rho = np.einsum("ab...,aib...->i...", ginv, dg)                              # g^{ab} E_a g_ib
    Wa = np.einsum("acl...,l...->ac...", W, a)                                   # W_ac^l (g v)_l
    av, theta_v = np.einsum("a...,a...->...", a, v), np.einsum("a...,a...->...", theta, v)
    # g^{ab} traces of K, of G (E g), of W W and of the Lee-form terms tau(v) theta(v) and sigma g(v, v)
    ric2 = np.einsum("ab...,ab...->...", ginv, kvv - theta_v * vdg - 2.0 * av * dtheta
                     + np.einsum("bc...,ac...->ab...", vG, dgv) - np.einsum("bc...,ac...->ab...", vW, Wa))
    ric2 += ((4.0 - 2.0 * n) * np.einsum("i...,i...->...", v, np.einsum("ij...,j...->i...", dtheta, v))
             + np.einsum("c...,c...->...", np.einsum("i...,ic...->c...", v, dgv), (n - 1.0) * theta_sharp - gtr)
             - np.einsum("a...,a...->...", theta_sharp, np.einsum("ai...,i...->a...", dgv, v))
             + np.einsum("e...,e...->...", rho, theta_v * v + av * theta_sharp - np.einsum("j...,je...->e...", v, vG))
             + np.einsum("c...,c...->...", wtr, np.einsum("cl...,l...->c...", vW, a))
             + np.einsum("c...,c...->...", np.einsum("aca...->c...", W), np.einsum("j...,jc...->c...", v, vW))
             + np.einsum("ae...,ea...->...", Gv, np.einsum("ec...,ca...->ea...", vdg, ginv))
             - np.einsum("ca...,ac...->...", vW, Wv))
    if C is not None:
        vC = np.einsum("i...,iac...->ac...", v, C)
        ric2 += np.einsum("ac...,ca...->...", vC, Wv - np.einsum("cb...,ba...->ca...", Wa, ginv))
    return WeylJet(W, g, ginv, theta, vol=vol, ric_aa=0.5 * ric2)


def weyl_connect_vec(engine: DerivativeEngine, ws: WeylStructure, x_field: Field, y_field: Field,
                     coords) -> np.ndarray:
    """D_Y X at a point, for vector fields given by frame-component evaluators."""
    coords = np.asarray(coords, dtype=float)
    W = weyl_coeffs(engine, ws, coords).W
    xv, dx = frame_jet1(engine, ws.model, x_field, coords)
    yv = y_field.values(coords)
    directional = np.einsum("i...,ij...->j...", yv, dx)
    correction = np.einsum("i...,k...,ikj...->j...", yv, xv, W)
    return directional + correction


def lie_bracket(engine: DerivativeEngine, model: ModelSpace, x_field: Field, y_field: Field,
                coords) -> np.ndarray:
    """[X, Y] for frame-component vector fields, including the frame brackets."""
    coords = np.asarray(coords, dtype=float)
    xv, dx = frame_jet1(engine, model, x_field, coords)
    yv, dy = frame_jet1(engine, model, y_field, coords)
    out = np.einsum("i...,ij...->j...", xv, dy) - np.einsum("i...,ij...->j...", yv, dx)
    C = _brackets(model, coords)
    if C is not None:
        out += np.einsum("i...,j...,ijk...->k...", xv, yv, C)
    return out


# ---------------------------------------------------------------------------
# covariant derivative blocks
# ---------------------------------------------------------------------------


def _slot_terms(S: np.ndarray, W: np.ndarray, theta, k: float, nslots: int):
    """Connection terms of D on a weight-k (0, q) tensor, q = nslots:

    out[a; j1..jq] = k theta_a S[J] - sum_s W[a, j_s, l] S[.. l ..].
    theta is unused (may be None) when k = 0.  Axes between the tensor slots
    and the batch axes broadcast against the trailing axes of W and theta;
    k is one weight or one per point.
    """
    out = k * outer_front(theta, S, nslots) if np.any(k) else 0.0
    for s in range(nslots):
        contr = np.einsum("ial...,l...->ia...", W, move_axis(S, s, 0))  # (a, i, other slots, batch)
        out = out - move_axis(contr, 1, 1 + s)
    return out


def _covd_slots(S: np.ndarray, dS: np.ndarray, W: np.ndarray, theta, k: float, nslots: int) -> np.ndarray:
    """The kernel of D: H[a; J] = E_a S[J] + k theta_a S[J] - sum_s W[a, j_s, l] S[.. l ..].

    S is a weight-k (0, q) tensor, q = nslots, with frame derivatives dS[a; J] = E_a S[J].
    W = G and k = 0 give the Levi-Civita derivative.
    """
    return dS + _slot_terms(S, W, theta, k, nslots)


def _slot_jet(S, dS, ddS, W, dW, theta, dtheta, k: float, nslots: int):
    """(H, E H) for H = ``_covd_slots`` of S, from the first two frame jets of S and (W, theta).

    E_b H = E_b E S + slot terms of E_b S with (W, theta) + slot terms of S
    with (E_b W, E_b theta); the direction b leads, as in H.  The b axis is
    carried as a broadcast axis in front of the batch axes.
    """
    q = nslots
    if not (q or np.any(k)):  # weight-0 scalar: no connection terms
        return dS, ddS
    th, dth = (theta[:, None], move_axis(dtheta, 0, 1)) if np.any(k) else (None, None)
    conn = (_slot_terms(move_axis(dS, 0, q), W[:, :, :, None], th, k, q)
            + _slot_terms(np.expand_dims(S, q), move_axis(dW, 0, 3), dth, k, q))
    return _covd_slots(S, dS, W, theta, k, q), ddS + move_axis(conn, q + 1, 0)


def _require_gauge(ws: WeylStructure, spec: FormFieldSpec) -> None:
    if spec.gauge != ws.gauge:
        raise GaugeMismatchError(f"form in gauge {spec.gauge!r}, structure in gauge {ws.gauge!r}")


def lc_form_block(dw: np.ndarray, w: np.ndarray, gam: np.ndarray, p: int) -> np.ndarray:
    """Riemannian covariant derivative of a p-form from its frame jet: the theta = 0 kernel."""
    return _covd_slots(w, dw, gam, None, 0.0, p)


def covd_form_block(engine: DerivativeEngine, ws: WeylStructure, spec: FormFieldSpec, coords):
    """(w, H, jet): all frame derivatives H[i; J] = (D_{E_i} w)_J of a weighted form.

    The slot form of D: the kernel ``_covd_slots`` over the form's first-order
    jet and ``weyl_coeffs``.  The wedge form of D (module docstring) is its
    test oracle.  w is the value of the form's jet and ``jet`` the
    ``weyl_coeffs`` WeylJet, handed out so callers read the metric, its
    inverse and its volume factor off the jets that H already takes.
    """
    _require_gauge(ws, spec)
    coords = np.asarray(coords, dtype=float)
    w, dw = frame_jet1(engine, ws.model, spec.field, coords)
    jet = weyl_coeffs(engine, ws, coords)
    return w, _covd_slots(w, dw, jet.W, jet.theta, spec.weight, spec.degree), jet


def covd2_form_block(engine: DerivativeEngine, ws: WeylStructure, spec: FormFieldSpec, coords):
    """(w, H, DH, jet) with H[a; J] = (D_{E_a} w)_J and DH[b; a; J] = (D_{E_b} Dw)[a; J].

    Closed form from one second-order jet of the form and one ``_weyl_jet``:
    H is the slot form of D, E_b H follows by the product rule, and DH is
    the kernel ``_covd_slots`` on H as a weight-k tensor with p + 1 slots.
    ``jet`` is that ``_weyl_jet`` WeylJet, handed out so callers read g^-1
    and the curvature (``_coeff_curvature`` on W and dW) off the same
    metric jet.
    """
    _require_gauge(ws, spec)
    coords = np.asarray(coords, dtype=float)
    p, k = spec.degree, spec.weight
    jet = _weyl_jet(engine, ws, coords)
    w, dw, ddw = frame_jet2(engine, ws.model, spec.field, coords)
    H, EH = _slot_jet(w, dw, ddw, jet.W, jet.dW, jet.theta, jet.dtheta, k, p)
    return w, H, _covd_slots(H, EH, jet.W, jet.theta, k, p + 1), jet


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------


def dD(engine: DerivativeEngine, ws: WeylStructure, spec: FormFieldSpec, coords) -> np.ndarray:
    """d^D w = sum_i e*_i ^ D_{E_i} w, shape (n,)^(p+1) + batch; the weight is unchanged."""
    p = spec.degree
    if p >= ws.model.dim:
        raise DegreeError("d of a top-degree form")
    return insert_alt(covd_form_block(engine, ws, spec, coords)[1], p)


def deltaD(engine: DerivativeEngine, ws: WeylStructure, spec: FormFieldSpec, coords) -> np.ndarray:
    """delta^D w = -g^{ab} E_a _| D_{E_b} w, shape (n,)^(p-1) + batch; the weight drops by 2."""
    _require_gauge(ws, spec)
    coords = np.asarray(coords, dtype=float)
    if spec.degree == 0:
        return np.zeros(coords.shape[1:])
    _, H, jet = covd_form_block(engine, ws, spec, coords)
    return -np.einsum("ab...,ab...->...", jet.ginv, H)


def form_field_of(ws: WeylStructure, fn: Callable, degree: int, weight: float, name: str = "") -> FormFieldSpec:
    n = ws.model.dim
    return FormFieldSpec(Field(fn, shape=(n,) * degree, name=name), degree, weight, ws.gauge)


def _faraday_components(theta: np.ndarray, dtheta: np.ndarray, C: np.ndarray | None) -> np.ndarray:
    """F[i, j] = E_i theta_j - E_j theta_i - C[i, j, l] theta_l (C None: no brackets)."""
    F = dtheta - np.swapaxes(dtheta, 0, 1)
    if C is not None:
        F -= np.einsum("ijl...,l...->ij...", C, theta)
    return F


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


@dataclass
class CurvatureBundle:
    """Curvature data of D at a point, all in the gauge frame."""

    R: np.ndarray            # R[i,j,k,m]: R(E_i,E_j)E_k = R[i,j,k,m] E_m
    F: np.ndarray            # Faraday 2-form F[i,j]
    Ric: np.ndarray          # Ric[i,j] from the antisymmetric part (weight 0)
    Scal: float              # conformal trace of Ric; weight -2 in this gauge
    split_residual: float    # max |sym part of R - F (x) Id|


def _coeff_curvature(W: np.ndarray, dW: np.ndarray, C: np.ndarray | None) -> np.ndarray:
    """R[i,j,k,m] = E_i W[j,k,m] - E_j W[i,k,m] + W[j,k,l] W[i,l,m] - W[i,k,l] W[j,l,m] - C[i,j,l] W[l,k,m].

    C None (a holonomic frame) drops the bracket term.
    """
    first = dW - np.swapaxes(dW, 0, 1)
    quad = np.einsum("jkl...,ilm...->ijkm...", W, W)
    quad = quad - np.swapaxes(quad, 0, 1)
    if C is None:
        return first + quad
    return first + quad - np.einsum("ijl...,lkm...->ijkm...", C, W)


def weyl_curvature(engine: DerivativeEngine, ws: WeylStructure, coords) -> CurvatureBundle:
    """Full curvature bundle of D: tensor, split, Faraday, Ricci, scalar.

    R comes from (W, dW) in closed form (``_weyl_jet``): one second-order
    jet of g and one first-order jet of theta, so the result carries no
    finite-difference error.
    """
    coords = np.asarray(coords, dtype=float)
    jet, C = _weyl_jet(engine, ws, coords), _brackets(ws.model, coords)
    R = _coeff_curvature(jet.W, jet.dW, C)
    F = _faraday_components(jet.theta, jet.dtheta, C)

    low = np.einsum("ijkl...,lm...->ijkm...", R, jet.g)        # g(R(Ei,Ej)Ek, Em)
    sym = 0.5 * (low + np.swapaxes(low, 2, 3))
    split = sym - np.einsum("ij...,km...->ijkm...", F, jet.g)
    ric = _ricci(R, jet.g, jet.ginv)
    scal = np.einsum("ij...,ij...->...", jet.ginv, ric)
    return CurvatureBundle(
        R=R, F=F, Ric=ric, Scal=scal,
        split_residual=float(np.max(np.abs(split))),
    )


def _ricci(R: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Ric_ij = g^{ab} asym(R)_{iabj} = 1/2 (g^{ab} R_{iab}^l g_{lj} - R_{iaj}^a).

    asym is the part of g(R(E_i, E_a) E_b, E_j) antisymmetric in (b, j);
    its g^{ab} trace is taken before lowering, so no 4-index lowered
    tensor is built.
    """
    raised = np.einsum("ab...,iabl...->il...", ginv, R)
    return 0.5 * (np.einsum("il...,lj...->ij...", raised, g) - np.einsum("iaja...->ij...", R))


# ---------------------------------------------------------------------------
# gauge change
# ---------------------------------------------------------------------------


def gauge_change(ws: WeylStructure, factor: ScalarField) -> WeylStructure:
    """Same Weyl connection in the gauge f*g: the Lee form records f and reads as theta - df/(2f).

    A second change records the product of the two factors.
    """
    lee = ws.lee
    total = factor if lee.factor is None else ScalarField(
        f"{lee.factor.name}*{factor.name}", ws.model, lambda c: lee.factor.fn(c) * factor.fn(c))
    new_lee = LeeFormField(f"{lee.name}-dlog({factor.name})/2", ws.model, lee.fn, factor=total)
    return WeylStructure(ws.model, conformal_sweep(ws.metric, factor), new_lee, ws.gauge + "~" + factor.name)
