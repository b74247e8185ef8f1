"""Derivative engine: exact Taylor jets (dual mode) or central finite
differences with Richardson extrapolation (fd mode, the cross-check route).

A :class:`Field` wraps an evaluator ``fn(coords) -> components`` where
``coords`` is a length-n sequence of scalar-likes (floats, batch arrays, or
Taylor2 seeds) and the components are nested lists or one array (an
array-valued Taylor2 for Taylor2 seeds).  Every evaluator is written
against the generic math of :mod:`weylmass.autodiff` (``where`` included,
for piecewise fields), so both modes take every field.  Component axes
come first in all jet outputs, derivative axes lead:

* ``jet1`` returns ``(value, d1)`` with ``d1[i] = d(value)/d(coord_i)``,
* ``jet2`` additionally returns ``d2[i, j]`` of second partials.

In dual mode ``jet1`` seeds first-order jets, which propagate value and
gradient only and never build a Hessian; ``jet2`` seeds second-order jets.
In fd mode the step schedule is ``h = max(FD_REL_STEP * r, FD_MIN_STEP)``,
so relative truncation error stays uniform as the radius grows.  No
operator output is differentiated either way: curvature, second covariant
derivatives and the decay probes build their derivatives in closed form
from one jet of each input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import collect_jet, seed_point

# (weight, step scale) of the two-level Richardson combination of central differences
RICHARDSON_WEIGHTS = ((-1.0 / 3.0, 1.0), (4.0 / 3.0, 0.5))
# FD step schedule: h = max(FD_REL_STEP * r, FD_MIN_STEP) at the batch's largest base radius r
FD_REL_STEP = 1e-4
FD_MIN_STEP = 1e-5


@dataclass
class Field:
    """Evaluator with its component shape and a name."""

    fn: Callable
    shape: tuple = ()
    name: str = ""

    def values(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        return _as_float_array(self.fn(list(coords)), self.shape, coords.shape[1:])


def _as_float_array(tree, comp_shape: tuple, batch_shape: tuple) -> np.ndarray:
    """Normalize an evaluator result to a float array of shape comp + batch."""
    target = comp_shape + batch_shape
    if isinstance(tree, np.ndarray) and tree.dtype == object:
        out = np.empty(target)
        for idx in np.ndindex(comp_shape):
            out[idx] = np.asarray(tree[idx], dtype=float)
        return out
    if isinstance(tree, (list, tuple)):
        if not comp_shape:
            raise ValueError("evaluator returned a sequence for a scalar field")
        return np.stack([_as_float_array(e, comp_shape[1:], batch_shape) for e in tree], axis=0)
    arr = np.asarray(tree, dtype=float)
    if arr.shape == target:
        return arr
    pad = arr.reshape(arr.shape + (1,) * (len(target) - arr.ndim))
    return np.ascontiguousarray(np.broadcast_to(pad, target))


@dataclass
class DerivativeEngine:
    """Switchable dual-number / finite-difference jet provider."""

    mode: str = "dual"

    def __post_init__(self):
        if self.mode not in ("dual", "fd"):
            raise ValueError(f"unknown derivative mode {self.mode!r}")

    # -- public API -----------------------------------------------------------

    def jet1(self, fld: Field, coords):
        coords = np.asarray(coords, dtype=float)
        if self.mode == "dual":
            val, grad, _ = self._dual_jet(fld, coords, order=1)
            return val, grad
        return self._fd_jet1(fld, coords)

    def jet2(self, fld: Field, coords):
        coords = np.asarray(coords, dtype=float)
        if self.mode == "dual":
            return self._dual_jet(fld, coords)
        val, d1 = self._fd_jet1(fld, coords)
        d2 = self._fd_hessian(fld, coords)
        return val, d1, d2

    # -- dual path --------------------------------------------------------------

    def _dual_jet(self, fld: Field, coords, order: int = 2):
        """(value, gradient, Hessian) from Taylor seeds of ``order``; the Hessian is NO_HESSIAN at order 1."""
        out = fld.fn(seed_point(coords, order))
        return collect_jet(out, coords.shape[0], coords.shape[1:])

    # -- finite differences -------------------------------------------------------

    def step(self, coords) -> float:
        """The FD step at the largest base radius of ``coords``; the last row, the fiber coordinate t, is not in r."""
        r = float(np.max(np.sqrt(np.sum(np.asarray(coords, dtype=float)[:-1] ** 2, axis=0))))
        return max(FD_REL_STEP * r, FD_MIN_STEP)

    def _central(self, fld: Field, coords, i: int, h: float) -> np.ndarray:
        batch = coords.shape[1:]
        up = coords.copy()
        dn = coords.copy()
        up[i] = up[i] + h
        dn[i] = dn[i] - h
        fu = _as_float_array(fld.fn(list(up)), fld.shape, batch)
        fd = _as_float_array(fld.fn(list(dn)), fld.shape, batch)
        return (fu - fd) / (2.0 * h)

    def _fd_jet1(self, fld: Field, coords):
        batch = coords.shape[1:]
        val = _as_float_array(fld.fn(list(coords)), fld.shape, batch)
        h0 = self.step(coords)
        derivs = []
        for i in range(coords.shape[0]):
            acc = 0.0
            for w, scale in RICHARDSON_WEIGHTS:
                acc = acc + w * self._central(fld, coords, i, h0 * scale)
            derivs.append(acc)
        return val, np.stack(derivs, axis=0)

    def _second_diff(self, fld: Field, coords, i: int, j: int, h: float, f0: np.ndarray) -> np.ndarray:
        batch = coords.shape[1:]

        def ev(di, dj):
            p = coords.copy()
            p[i] = p[i] + di * h
            p[j] = p[j] + dj * h
            return _as_float_array(fld.fn(list(p)), fld.shape, batch)

        if i == j:
            return (ev(1, 0) - 2.0 * f0 + ev(-1, 0)) / h**2
        return (ev(1, 1) - ev(1, -1) - ev(-1, 1) + ev(-1, -1)) / (4.0 * h**2)

    def _fd_hessian(self, fld: Field, coords) -> np.ndarray:
        n = coords.shape[0]
        batch = coords.shape[1:]
        f0 = _as_float_array(fld.fn(list(coords)), fld.shape, batch)
        # larger step than jet1: second differences amplify roundoff by 1/h^2
        # while Richardson removes the h^2 truncation term
        h0 = 10.0 * self.step(coords)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                acc = 0.0
                for w, scale in RICHARDSON_WEIGHTS:
                    acc = acc + w * self._second_diff(fld, coords, i, j, h0 * scale, f0)
                rows[i][j] = acc
                rows[j][i] = acc
        return np.stack([np.stack(r, axis=0) for r in rows], axis=0)


def frame_jet1(engine: DerivativeEngine, model, fld: Field, coords):
    """Value and frame-directional derivatives (E_1..E_m, T) of a field."""
    coords = np.asarray(coords, dtype=float)
    val, d1 = engine.jet1(fld, coords)
    x, _ = model.split(coords)
    return val, model.frame_from_coord(d1, x)


def frame_jet2(engine: DerivativeEngine, model, fld: Field, coords):
    """Value, frame derivatives and second frame derivatives E_p E_i of a field."""
    coords = np.asarray(coords, dtype=float)
    val, d1, d2 = engine.jet2(fld, coords)
    x, _ = model.split(coords)
    return val, model.frame_from_coord(d1, x), model.frame_hessian_from_coord(d1, d2, x)
