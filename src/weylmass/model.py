"""Circle-fibered chart over the exterior of a ball, and its frame calculus.

The chart covers ``X -> R^m \\ B_R`` with fiber coordinate ``t`` of period
``L``.  Points are coordinate arrays ``(x_1..x_m, t)``.  All tensor fields
are expressed in the orthonormal coframe ``(dx_1..dx_m, eta)`` of the model
metric ``h = dx^2 + eta^2``, where ``eta = dt + A_a(x) dx^a`` is the fiber
connection with ``eta(T) = 1``.

The dual frame is ``X_a = d/dx_a - A_a d/dt`` and ``T = d/dt``.  For the
trivial fibration ``A = 0`` and the frame is holonomic.  For the Hopf
fibration (m = 3 only) the connection is the charge-one monopole potential,
whose curvature ``d eta`` integrates to ``L`` over the unit sphere; the
potential has a coordinate seam along the negative x3-axis, but ``d eta``
itself is seam-free and all bracket bookkeeping goes through it.  A and
``d eta`` are each one evaluator in ``autodiff``'s generic math, and their
Jacobians are read off its first-order jets, outside the derivative engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as am
from .errors import ChartDomainError

FIBRATIONS = ("trivial", "hopf")


def _quotient(a, b):
    """a / b in generic math, with numpy's a / b as its value: a jet quotient multiplies by the reciprocal."""
    q = a / b
    return am.Taylor2(am.value(a) / am.value(b), q.grad, q.hess) if isinstance(q, am.Taylor2) else q


def sphere_volume(m: int) -> float:
    """Volume of the unit sphere S^(m-1)."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


@dataclass(frozen=True)
class ModelSpace:
    """Fibered chart data: base dimension, excised radius, fiber length, fibration."""

    m: int = 3
    R: float = 1.0
    L: float = 2.0 * math.pi
    fibration: str = "trivial"

    def __post_init__(self):
        if self.m < 3:
            raise ValueError(f"base dimension m must be >= 3, got {self.m}")
        if self.fibration not in FIBRATIONS:
            raise ValueError(f"unknown fibration {self.fibration!r}")
        if self.fibration == "hopf" and self.m != 3:
            raise ValueError("hopf fibration requires m = 3")
        if self.R <= 0 or self.L <= 0:
            raise ValueError("R and L must be positive")

    @property
    def dim(self) -> int:
        return self.m + 1

    @property
    def holonomic(self) -> bool:
        """True when the frame has no brackets (trivial fibration): C = 0 and E C = 0."""
        return self.fibration == "trivial"

    # -- coordinates --------------------------------------------------------

    def split(self, coords):
        coords = np.asarray(coords, dtype=float)
        return coords[: self.m], coords[self.m]

    def radius(self, coords):
        x, _ = self.split(coords)
        return np.sqrt(np.sum(x * x, axis=0))

    def require_in_chart(self, coords):
        r = self.radius(coords)
        if np.any(r <= self.R):
            raise ChartDomainError(f"point at r={np.min(r):.6g} inside excised ball of radius {self.R}")

    def point(self, x, t: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.concatenate([x, np.atleast_1d(float(t))])

    # -- fiber connection ----------------------------------------------------

    def connection_potential(self, x) -> np.ndarray:
        """Components A_a(x) of the horizontal part of eta (eta = dt + A_a dx^a)."""
        return self._read(self._hopf_potential, x, (self.m,))

    def _hopf_potential(self, x) -> list:
        """A = p (-x2, x1, 0) with p = L (1 - x3/r) / (4 pi rho^2), in generic math: x holds arrays or jets."""
        rho2 = x[0] * x[0] + x[1] * x[1]
        r = am.sqrt(rho2 + x[2] * x[2])
        if np.any(am.value(rho2) / np.maximum(am.value(r), 1e-300) ** 2 < 1e-24):
            raise ChartDomainError("point on the fiber-chart seam (x3-axis); move quadrature nodes off-axis")
        p = _quotient((self.L / (4.0 * math.pi)) * (1.0 - _quotient(x[2], r)), rho2)
        return [-p * x[1], p * x[0], np.zeros_like(am.value(r))]

    def connection_jacobian(self, x) -> np.ndarray:
        """Coordinate Jacobian of the potential: J[b, a] = dA_a/dx_b, shape (m, m) + batch.

        A does not depend on t, so this is also the frame derivative X_b A_a.
        """
        return self._read(self._hopf_potential, x, (self.m,), jacobian=True)

    def deta(self, x) -> np.ndarray:
        """Curvature 2-form d(eta) on frame pairs: omega[a, b] = d(eta)(X_a, X_b)."""
        return self._read(self._hopf_curvature, x, (self.m, self.m))

    def _hopf_curvature(self, x) -> list:
        """omega[a][c] = L/(4 pi) eps_ack x_k / r^3, in generic math: x holds arrays or jets."""
        r3 = (x[0] * x[0] + x[1] * x[1] + x[2] * x[2]) ** 1.5
        c = self.L / (4.0 * math.pi)
        w01, w12, w20 = (_quotient(c * x[k], r3) for k in (2, 0, 1))
        zero = np.zeros_like(am.value(r3))
        return [[zero, w01, -w20], [-w01, zero, w12], [w20, -w12, zero]]

    def deta_jacobian(self, x) -> np.ndarray:
        """Coordinate derivatives of the curvature form: out[b, a, c] = d omega[a, c]/dx_b.

        omega does not depend on t, so these are also the frame derivatives X_b omega.
        """
        return self._read(self._hopf_curvature, x, (self.m, self.m), jacobian=True)

    def _read(self, evaluator, x, comp: tuple, jacobian: bool = False) -> np.ndarray:
        """A Hopf evaluator's components ``comp + batch`` at x, or with ``jacobian`` their coordinate derivatives
        ``out[b] = d/dx_b``, read off its first-order jet; zero on the trivial chart."""
        x = np.asarray(x, dtype=float)
        if self.fibration == "trivial":
            return np.zeros((self.m,) * jacobian + comp + x.shape[1:])
        if not jacobian:
            return np.array(evaluator(x))
        return am.collect_jet(evaluator(am.seed_point(x, order=1)), comp, self.m, x.shape[1:])[1]

    def structure_constants(self, coords) -> np.ndarray:
        """Frame brackets: [E_i, E_j] = C[i, j, k] E_k.  Only [X_a, X_b] = -omega_ab T."""
        coords = np.asarray(coords, dtype=float)
        n = self.dim
        C = np.zeros((n, n, n) + coords.shape[1:])
        if self.fibration == "hopf":
            C[: self.m, : self.m, self.m] = -self.deta(coords[: self.m])
        return C

    def structure_jacobian(self, coords) -> np.ndarray:
        """Frame derivatives of the structure constants: dC[p, i, j, k] = E_p C[i, j, k]."""
        coords = np.asarray(coords, dtype=float)
        n = self.dim
        dC = np.zeros((n, n, n, n) + coords.shape[1:])
        if self.fibration == "hopf":
            dC[: self.m, : self.m, : self.m, self.m] = -self.deta_jacobian(coords[: self.m])
        return dC

    def lc_coeffs_h(self, coords) -> np.ndarray:
        """Levi-Civita coefficients of h in the frame: nabla^h_{E_i} E_j = G[i,j,k] E_k.

        h has constant (identity) frame components, so only bracket terms
        survive the Koszul formula.
        """
        C = self.structure_constants(coords)
        if self.fibration == "trivial":
            return C  # all brackets vanish, and so does G
        return 0.5 * (C - np.swapaxes(C, 1, 2) - np.moveaxis(C, 2, 0))

    # -- frame derivatives ----------------------------------------------------

    def frame_from_coord(self, coord_derivs: np.ndarray, x) -> np.ndarray:
        """Convert coordinate-derivative axes (leading) to frame directions.

        ``E_a F = dF/dx_a - A_a dF/dt`` and ``T F = dF/dt``.  The potential is
        only evaluated when fiber dependence is actually present, keeping the
        Hopf seam out of computations with invariant fields.  It copies only
        to subtract A dF/dt; otherwise (trivial fibration, or dF/dt = 0) it
        returns its input, and callers must not write to the result.
        """
        dt = coord_derivs[self.m]
        if self.fibration == "trivial" or not np.any(dt != 0.0):
            return coord_derivs
        out = np.array(coord_derivs, dtype=float, copy=True)
        A = self.connection_potential(np.asarray(x, dtype=float))
        for a in range(self.m):
            out[a] = out[a] - A[a] * dt
        return out

    def frame_hessian_from_coord(self, coord_d1: np.ndarray, coord_d2: np.ndarray, x) -> np.ndarray:
        """Second frame derivatives out[p, i] = E_p(E_i F) from coordinate jets.

        E_p E_i F = E_p^mu E_i^nu d_mu d_nu F - (X_p A_i) dF/dt: the frame
        coefficients of E_i move with x through A.  As in
        ``frame_from_coord``, A and its Jacobian are only evaluated where
        fiber dependence is present.  The result may be ``coord_d2`` itself
        and must not be written to; ``coord_d2`` is never changed.
        """
        inner = np.moveaxis(self.frame_from_coord(np.moveaxis(coord_d2, 1, 0), x), 0, 1)
        out = self.frame_from_coord(inner, x)
        dt = coord_d1[self.m]
        if self.fibration != "trivial" and np.any(dt != 0.0):
            J = self.connection_jacobian(np.asarray(x, dtype=float))
            if np.may_share_memory(out, coord_d2):
                out = out.copy()  # out is still coord_d2, which the in-place term must not change
            out[: self.m, : self.m] -= np.einsum("ba...,...->ba...", J, dt)
        return out
