"""Forward-mode automatic differentiation with second-order Taylor scalars.

A ``Taylor2`` carries a value together with its gradient and Hessian with
respect to a fixed set of ``d`` seed coordinates.  The payloads are plain
numpy arrays, so a single Taylor2 can represent a whole batch of evaluation
points at once (value shape ``batch``, gradient ``(d,) + batch``, Hessian
``(d, d) + batch``).  Every arithmetic operation propagates value, gradient
and Hessian exactly, which makes first and second derivatives of analytic
field evaluators exact to machine precision.

Evaluators that want to be differentiated this way must be written against
the generic math functions at the bottom of this module (``sqrt``, ``sin``,
...), which dispatch on the argument type.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Taylor2",
    "seed_point",
    "collect_jet",
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
]


class Taylor2:
    """Truncated second-order Taylor scalar ``f + g·dx + dx·h·dx/2``."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @classmethod
    def variable(cls, value, index: int, nvars: int) -> "Taylor2":
        v = np.asarray(value, dtype=float)
        g = np.zeros((nvars,) + v.shape)
        g[index] = 1.0
        return cls(v, g, np.zeros((nvars, nvars) + v.shape))

    # -- helpers ----------------------------------------------------------

    def _apply(self, u0, u1, u2) -> "Taylor2":
        """Chain rule for a scalar function u with u(f)=u0, u'(f)=u1, u''(f)=u2."""
        outer = self.grad[:, None] * self.grad[None, :]
        return Taylor2(u0, u1 * self.grad, u1 * self.hess + u2 * outer)

    def _inv(self) -> "Taylor2":
        f = self.val
        return self._apply(1.0 / f, -1.0 / f**2, 2.0 / f**3)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Taylor2):
            return Taylor2(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        pad = np.zeros(np.shape(other))
        return Taylor2(self.val + other, self.grad + pad, self.hess + pad)

    __radd__ = __add__

    def __neg__(self):
        return Taylor2(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Taylor2) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Taylor2):
            cross = self.grad[:, None] * other.grad[None, :]
            return Taylor2(
                self.val * other.val,
                self.val * other.grad + other.val * self.grad,
                self.val * other.hess + other.val * self.hess + cross + np.swapaxes(cross, 0, 1),
            )
        return Taylor2(self.val * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Taylor2):
            return self * other._inv()
        return self * (1.0 / np.asarray(other))

    def __rtruediv__(self, other):
        return self._inv() * other

    def __pow__(self, e):
        f = self.val
        return self._apply(f**e, e * f ** (e - 1), e * (e - 1) * f ** (e - 2))

    def __repr__(self):
        return f"Taylor2(val={self.val!r})"


def seed_point(coords) -> list[Taylor2]:
    """Turn an ``(n,) + batch`` coordinate array into a list of Taylor2 seeds."""
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    return [Taylor2.variable(coords[i], i, n) for i in range(n)]


def collect_jet(tree, nvars: int, batch_shape: tuple = ()):
    """Extract (value, gradient, Hessian) arrays from a nested evaluator result.

    Leading axes of the returned gradient/Hessian are the derivative axes:
    value ``comp + batch``, gradient ``(d,) + comp + batch``, Hessian
    ``(d, d) + comp + batch``.  Non-Taylor2 leaves are treated as constants.
    """
    arr = np.array(tree, dtype=object)
    comp = arr.shape
    val = np.zeros(comp + batch_shape)
    grad = np.zeros(comp + (nvars,) + batch_shape)
    hess = np.zeros(comp + (nvars, nvars) + batch_shape)
    for idx in np.ndindex(comp):
        leaf = arr[idx]
        if isinstance(leaf, Taylor2):
            val[idx] = leaf.val
            grad[idx] = leaf.grad
            hess[idx] = leaf.hess
        else:
            val[idx] = leaf
    grad = np.moveaxis(grad, len(comp), 0)
    hess = np.moveaxis(hess, (len(comp), len(comp) + 1), (0, 1))
    return val, grad, hess


def _dispatch(x, np_fn, u1_fn, u2_fn):
    if isinstance(x, Taylor2):
        f = x.val
        return x._apply(np_fn(f), u1_fn(f), u2_fn(f))
    return np_fn(np.asarray(x, dtype=float) if not np.isscalar(x) else x)


def sqrt(x):
    return _dispatch(x, np.sqrt, lambda f: 0.5 / np.sqrt(f), lambda f: -0.25 * f**-1.5)


def exp(x):
    return _dispatch(x, np.exp, np.exp, np.exp)


def log(x):
    return _dispatch(x, np.log, lambda f: 1.0 / f, lambda f: -1.0 / f**2)


def sin(x):
    return _dispatch(x, np.sin, np.cos, lambda f: -np.sin(f))


def cos(x):
    return _dispatch(x, np.cos, lambda f: -np.sin(f), lambda f: -np.cos(f))
