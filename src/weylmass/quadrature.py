"""Quadrature on spheres, fibers, radial shells and annuli of the chart.

Sphere rules return unit directions and weights summing to vol(S^(m-1)).
A request of up to 26 directions at 3 <= m <= 7 gets the fully symmetric
degree-7 rule of ``sphere_rule_symmetric`` (Stroud, *Approximate
Calculation of Multiple Integrals*, 1971, ch. 8): the 2m axis points, the
2m(m-1) edge points (+-e_i +- e_j)/sqrt(2) and the 2^m corner points
(+-1, ..., +-1)/sqrt(m), with closed-form weights, 26 / 48 / 82 / 136 / 226
nodes at m = 3 ... 7.  At m = 3 it is the classic 26-point octahedral rule,
rotated by a fixed generic rotation so no node sits on the fiber chart
seam; at m >= 4 the charts are trivial-only and the rule is not rotated.
Its axis weight (8 - m) / (m (m + 2) (m + 4)) vanishes at m = 8 and is
negative after, so m >= 8 and every larger request get a Gauss-Jacobi x
azimuth product rule of 2 n_polar^(m-1) directions, n_polar =
round(sqrt(request)), which covers any m and density (the Bochner annulus
and refined-quadrature cross checks).  The axis and corner orbits alone,
reweighted, are an embedded degree-5 rule (``embedded_weights``): summed
over the same nodes, it gives the angular error estimate of a flux shell
at no extra node.  The product rule's polar nodes come from
``gauss_jacobi``, the Golub-Welsch method (Golub & Welsch, "Calculation of
Gauss quadrature rules", Math. Comp. 23, 1969) on numpy's symmetric
eigensolver, so numpy is the package's only runtime dependency.

Hypersurface fluxes over {r = const} use the product measure
r^(m-1) dsigma x dt, which is exact for the model metric; fluxes measured
with a curved metric g go through the Leray form sqrt(det G) g^{-1}(w, dr).
The curved integrators take g^{-1} and sqrt(det G) from the caller, who
reads both off one factorization of the block's gram
(``weyl.inv_gram_volume``: the product of the pivots of
``weyl.gram_factor``'s Cholesky factor, and L^-T L^-1), so no block is
factored twice.

``node_blocks`` is the one builder of chart nodes.  Every shell and annulus
integral streams its radial x sphere x fiber nodes through it, one block
of ``BLOCK_BYTES // node_bytes`` nodes at a time: each caller passes its
working set per node as a closed form in n = m + 1 and says why its blocks
have that size (the L2 cache for the Bochner annulus, per-block Python
overhead for the flux shells).  It first allocates and frees one array of
the budget: glibc's malloc then keeps up to twice that much freed memory
mapped, where a block of several arrays, each smaller than its working
set, would otherwise be returned to the system and faulted in again by the
next block (66,520 minor page faults per Bochner annulus without it, 20
with it).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .model import ModelSpace, sphere_volume

# the names of the two sphere rules, as mass reports give them
SYMMETRIC_RULE, PRODUCT_RULE = "symmetric_degree7", "gauss_jacobi_product"

# Fixed generic rotation keeping rule nodes off coordinate axes (and the Hopf seam).
_TILT = np.array([0.41, 0.79, 1.13])

# Working-set budget of one node block of ``node_blocks``, in bytes (module docstring).
BLOCK_BYTES = 5 << 20


def _rotation(m: int) -> np.ndarray:
    rot = np.eye(m)
    for axis, ang in zip(((0, 1), (1, 2), (0, 2)), _TILT):
        if axis[1] < m:
            R = np.eye(m)
            c, s = math.cos(ang), math.sin(ang)
            R[axis[0], axis[0]] = c
            R[axis[1], axis[1]] = c
            R[axis[0], axis[1]] = -s
            R[axis[1], axis[0]] = s
            rot = R @ rot
    return rot


def _symmetric_fractions(m: int) -> tuple:
    """Per-node weights of the axis, edge and corner orbits of the degree-7 rule, as fractions of vol(S^(m-1))."""
    return (8 - m) / (m * (m + 2) * (m + 4)), 4 / (m * (m + 2) * (m + 4)), m * m / (2**m * (m + 2) * (m + 4))


@lru_cache(maxsize=8)
def sphere_rule_symmetric(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fully symmetric degree-7 rule on S^(m-1), 3 <= m <= 7: directions (m, N), weights (N,) summing to
    vol(S^(m-1)) and the weights (N,) of its embedded degree-5 rule; cached, so read-only.

    Nodes run axis points, edge points, corner points.  The embedded rule
    weighs the axis points 1 / (m (m + 2)) and the corner points
    m / (2^m (m + 2)) of vol(S^(m-1)) each, and the edge points 0.  At m = 3
    the rule is rotated off the Hopf seam.
    """
    eye, signs = np.eye(m), (-1.0, 1.0)
    inv, inv_m = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(m)
    pts = np.array([s * eye[i] for i in range(m) for s in signs]
                   + [(si * eye[i] + sj * eye[j]) * inv for i, j in itertools.combinations(range(m), 2)
                      for si in signs for sj in signs]
                   + [np.array(corner) * inv_m for corner in itertools.product(signs, repeat=m)])
    counts, vol = (2 * m, 2 * m * (m - 1), 2**m), sphere_volume(m)
    rule = ((pts @ _rotation(3).T).T if m == 3 else pts.T,
            np.repeat(_symmetric_fractions(m), counts) * vol,
            np.repeat((1 / (m * (m + 2)), 0.0, m / (2**m * (m + 2))), counts) * vol)
    for part in rule:
        part.setflags(write=False)
    return rule


def sphere_rule_product(m: int, n_polar: int) -> tuple[np.ndarray, np.ndarray]:
    """Recursive Gauss-Jacobi x trapezoid rule on S^(m-1); exact total measure."""
    if m == 2:
        n_az = max(4, 2 * n_polar)
        ang = 2.0 * math.pi * (np.arange(n_az) + 0.31) / n_az
        pts = np.stack([np.cos(ang), np.sin(ang)])
        wts = np.full(n_az, 2.0 * math.pi / n_az)
        return pts, wts
    alpha = (m - 3) / 2.0
    u, wu = gauss_jacobi(n_polar, alpha)
    sub_pts, sub_wts = sphere_rule_product(m - 1, n_polar)
    sin_t = np.sqrt(1.0 - u**2)
    pts = np.concatenate(
        [sin_t[None, :, None] * sub_pts[:, None, :], np.broadcast_to(u[None, :, None], (1, len(u), sub_pts.shape[1]))],
        axis=0,
    )
    wts = wu[:, None] * sub_wts[None, :]
    pts = pts.reshape(m, -1)
    wts = wts.reshape(-1)
    if m > 3:
        return pts, wts
    rot = _rotation(3)
    return rot @ pts, wts


def sphere_rule_name(m: int, nodes: int) -> str:
    """The rule ``sphere_rule(m, nodes)`` gives: the symmetric one up to 26 directions while its weights are
    positive (3 <= m <= 7), else the product rule."""
    return SYMMETRIC_RULE if 3 <= m and nodes <= 26 and _symmetric_fractions(m)[0] > 0 else PRODUCT_RULE


@lru_cache(maxsize=8)
def sphere_rule(m: int, nodes: int = 26) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (m, N) and weights (N,) summing to vol(S^(m-1)); cached, so read-only."""
    if sphere_rule_name(m, nodes) == SYMMETRIC_RULE:
        return sphere_rule_symmetric(m)[:2]
    rule = sphere_rule_product(m, max(4, round(math.sqrt(nodes))))
    for part in rule:
        part.setflags(write=False)
    return rule


def embedded_weights(m: int, nodes: int) -> Optional[np.ndarray]:
    """Weights (N,) of the embedded degree-5 rule on the directions of ``sphere_rule(m, nodes)``, or None
    where that is the product rule, which has none."""
    return sphere_rule_symmetric(m)[2] if sphere_rule_name(m, nodes) == SYMMETRIC_RULE else None


def fiber_rule(L: float, nodes: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Uniform periodic (trapezoid) rule on the fiber, spectrally accurate."""
    t = (np.arange(nodes) + 0.37) * (L / nodes)
    return t, np.full(nodes, L / nodes)


def gauss_legendre(a: float, b: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def gauss_jacobi(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss rule on [-1, 1] for the weight (1 - x^2)^alpha, alpha > -1/2.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi matrix
    of the weight, each polished by one Newton step on the three-term
    recurrence of the orthonormal polynomials p_k; the weights are the
    Christoffel-Darboux values 1 / (b_n p_n'(x_i) p_(n-1)(x_i)).
    """
    k = np.arange(1, n + 1)
    b = np.sqrt(k * (k + 2.0 * alpha) / ((2.0 * k + 2.0 * alpha) ** 2 - 1.0))
    x = np.linalg.eigvalsh(np.diag(b[:-1], 1) + np.diag(b[:-1], -1))
    mu0 = math.sqrt(math.pi) * math.gamma(alpha + 1.0) / math.gamma(alpha + 1.5)

    def recurrence(x):
        """(p_(n-1), p_n, p_n') at x, from x p_j = b_(j+1) p_(j+1) + b_j p_(j-1)."""
        p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(mu0))
        dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
        b_prev = 0.0
        for b_next in b:
            p_prev, p = p, (x * p - b_prev * p_prev) / b_next
            dp_prev, dp = dp, (p_prev + x * dp - b_prev * dp_prev) / b_next
            b_prev = b_next
        return p_prev, p, dp

    _, p, dp = recurrence(x)
    x = x - p / dp
    p_prev, _, dp = recurrence(x)
    w = 1.0 / (b[-1] * dp * p_prev)
    # the weight is even: make the rule exactly symmetric
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


@dataclass
class QuadratureSpec:
    """Node counts for the flux and annulus integrators."""

    sphere: int = 26
    fiber: int = 16
    radial: int = 8


def node_blocks(model: ModelSpace, radii, radial_weights, quad: QuadratureSpec, node_bytes: int,
                embedded: bool = False):
    """Yield (points, weights, normals) blocks of the radial x sphere x fiber nodes, built one at a time.

    Nodes run radius-major, then sphere direction, then fiber node: node
    (i, j, k) is (r_i u_j, t_k) with weight r_i^(m-1) w_i w_j w_k and
    outward unit normal u_j; a shell is one radius of weight 1.0.  A block
    holds ``BLOCK_BYTES // node_bytes`` nodes, at least one.  With
    ``embedded`` the weights are (2, nodes): the rule's, then those of its
    embedded degree-5 rule, which the sphere rule must have.
    """
    u, wu = sphere_rule(model.m, quad.sphere)
    if embedded:
        wu = np.stack([wu, embedded_weights(model.m, quad.sphere)])
    t, wt = fiber_rule(model.L, quad.fiber)
    r, wr = np.asarray(radii, dtype=float), np.asarray(radial_weights, dtype=float)
    nu, nt = wu.shape[-1], wt.size
    total, size = r.size * nu * nt, max(1, BLOCK_BYTES // node_bytes)
    np.empty(BLOCK_BYTES // 8)  # freed at once, so the allocator keeps blocks mapped (module docstring)
    for start in range(0, total, size):
        node = np.arange(start, min(start + size, total))
        R, U, T = node // (nu * nt), node // nt % nu, node % nt
        normals = np.take(u, U, axis=1)  # C order: u[:, U] is F order, and einsum sums in memory order
        pts = np.concatenate([r[R] * normals, t[T][None, :]], axis=0)
        yield pts, r[R] ** (model.m - 1) * wr[R] * wu[..., U] * wt[T], normals


def flux_curved_metric(oneform_values: np.ndarray, ginv: np.ndarray, sqrt_det: np.ndarray, normals: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    """Per-node terms of the flux of a 1-form through a shell w.r.t. a curved metric g.

    Uses the Leray identity: integrand = sqrt(det G) g^{-1}(w, dr) against the
    model product measure, equal to the hypersurface integral of *_g w with
    outward orientation.  The flux is the sum of the terms.  ``ginv`` and
    ``sqrt_det`` are g^{-1} and sqrt(det g), which the caller already holds.
    """
    dr = np.concatenate([normals, np.zeros((1, normals.shape[1]))], axis=0)
    contracted = np.einsum("ab...,a...,b...->...", ginv, oneform_values, dr)
    return sqrt_det * contracted * weights


def volume_integral_curved(sqrt_det: np.ndarray, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-node terms of the integral of a scalar density against vol_g = sqrt(det G) vol_h, sqrt(det G) given."""
    return values * sqrt_det * weights
