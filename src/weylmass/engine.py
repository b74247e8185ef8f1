"""Derivative engine: exact Taylor jets of every field.

A :class:`Field` wraps an evaluator ``fn(coords) -> components`` where
``coords`` is a length-n sequence of scalar-likes (floats, batch arrays, or
Taylor2 seeds) and the components are nested lists or one array (an
array-valued Taylor2 for Taylor2 seeds).  Every evaluator is written
against the generic math of :mod:`weylmass.autodiff` (``where`` included,
for piecewise fields), so every field has exact jets.  Component axes
come first in all jet outputs, derivative axes lead:

* ``jet1`` returns ``(value, d1)`` with ``d1[i] = d(value)/d(coord_i)``,
* ``jet2`` additionally returns ``d2[i, j]`` of second partials.

``jet1`` seeds first-order jets, which propagate value and gradient only
and never build a Hessian; ``jet2`` seeds second-order jets.  No operator
output is differentiated: curvature, second covariant derivatives and the
decay probes build their derivatives in closed form from one jet of each
input.

The engine also keeps central finite differences with Richardson
extrapolation (``_fd_jet1``, ``_fd_hessian``), which nothing in the package
calls: they are the tests' reference route, selected by a subclass.  Their
step schedule is ``h = max(FD_REL_STEP * r, FD_MIN_STEP)``, so relative
truncation error stays uniform as the radius grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import collect_jet, seed_point
from .errors import JetError

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
    if isinstance(tree, (list, tuple)):
        if not comp_shape:
            raise ValueError("evaluator returned a sequence for a scalar field")
        return np.stack([_as_float_array(e, comp_shape[1:], batch_shape) for e in tree], axis=0)
    arr = np.asarray(tree, dtype=float)
    if arr.shape == target:
        return arr
    pad = arr.reshape(arr.shape + (1,) * (len(target) - arr.ndim))
    return np.ascontiguousarray(np.broadcast_to(pad, target))


class DerivativeEngine:
    """Exact Taylor-jet provider."""

    def jet1(self, fld: Field, coords):
        val, grad, _ = self._dual_jet(fld, np.asarray(coords, dtype=float), order=1)
        return val, grad

    def jet2(self, fld: Field, coords):
        return self._dual_jet(fld, np.asarray(coords, dtype=float))

    def _dual_jet(self, fld: Field, coords, order: int = 2):
        """(value, gradient, Hessian) from Taylor seeds of ``order``; the Hessian is NO_HESSIAN at order 1.

        An evaluator that cannot take seeds fails with a bare TypeError or ValueError (numpy's or
        ``sine_series``'s), refused as a JetError naming the field; the package's own errors pass through."""
        try:
            return collect_jet(fld.fn(seed_point(coords, order)), fld.shape, coords.shape[0], coords.shape[1:])
        except (TypeError, ValueError) as exc:
            if type(exc) not in (TypeError, ValueError):
                raise
            raise JetError(f"field {fld.name!r} cannot take Taylor jets: {exc}") from exc

    # -- finite differences: the tests' reference route (tests/oracles.py FDEngine); perfbench traces two --

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
