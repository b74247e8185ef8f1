"""Quadrature on spheres, fibers, radial shells and annuli of the chart.

Sphere rules return unit directions and weights summing to vol(S^(m-1)).
The default for m = 3 is the classic 26-point octahedral rule (exact through
degree 7), rotated by a fixed generic rotation so no node sits on the fiber
chart seam.  A Gauss-Jacobi x azimuth product rule covers arbitrary m and
arbitrary density (used for refined-quadrature cross checks).  Its polar
nodes come from ``gauss_jacobi``, the Golub-Welsch method (Golub & Welsch,
"Calculation of Gauss quadrature rules", Math. Comp. 23, 1969) on numpy's
symmetric eigensolver, so numpy is the package's only runtime dependency.

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

import numpy as np

from .model import ModelSpace

# 26-point octahedral rule on S^2: 6 axis points, 12 edge midpoints, 8 cube corners.
_W26 = (1.0 / 21.0, 4.0 / 105.0, 27.0 / 840.0)

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


def sphere_rule_oct26() -> tuple[np.ndarray, np.ndarray]:
    """26-node octahedral rule on S^2, weights scaled to total 4*pi."""
    eye, signs = np.eye(3), (-1.0, 1.0)
    inv, inv3 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)
    pts = ([s * eye[i] for i in range(3) for s in signs]
           + [(si * eye[i] + sj * eye[j]) * inv for i, j in ((0, 1), (0, 2), (1, 2)) for si in signs for sj in signs]
           + [np.array(corner) * inv3 for corner in itertools.product(signs, repeat=3)])
    wts = np.repeat(_W26, (6, 12, 8)) * (4.0 * math.pi)
    return (np.array(pts) @ _rotation(3).T).T, wts


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


@lru_cache(maxsize=8)
def sphere_rule(m: int, nodes: int = 26) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (m, N) and weights (N,) summing to vol(S^(m-1)); cached, so read-only."""
    rule = sphere_rule_oct26() if m == 3 and nodes <= 26 else sphere_rule_product(m, max(4, round(math.sqrt(nodes))))
    for part in rule:
        part.setflags(write=False)
    return rule


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


def node_blocks(model: ModelSpace, radii, radial_weights, quad: QuadratureSpec, node_bytes: int):
    """Yield (points, weights, normals) blocks of the radial x sphere x fiber nodes, built one at a time.

    Nodes run radius-major, then sphere direction, then fiber node: node
    (i, j, k) is (r_i u_j, t_k) with weight r_i^(m-1) w_i w_j w_k and
    outward unit normal u_j; a shell is one radius of weight 1.0.  A block
    holds ``BLOCK_BYTES // node_bytes`` nodes, at least one.
    """
    u, wu = sphere_rule(model.m, quad.sphere)
    t, wt = fiber_rule(model.L, quad.fiber)
    r, wr = np.asarray(radii, dtype=float), np.asarray(radial_weights, dtype=float)
    nu, nt = wu.size, wt.size
    total, size = r.size * nu * nt, max(1, BLOCK_BYTES // node_bytes)
    np.empty(BLOCK_BYTES // 8)  # freed at once, so the allocator keeps blocks mapped (module docstring)
    for start in range(0, total, size):
        node = np.arange(start, min(start + size, total))
        R, U, T = node // (nu * nt), node // nt % nu, node % nt
        normals = np.take(u, U, axis=1)  # C order: u[:, U] is F order, and einsum sums in memory order
        pts = np.concatenate([r[R] * normals, t[T][None, :]], axis=0)
        yield pts, r[R] ** (model.m - 1) * wr[R] * wu[U] * wt[T], normals


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
