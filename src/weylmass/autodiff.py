"""Forward-mode automatic differentiation with first- and second-order Taylor jets.

A ``Taylor2`` carries a value together with its gradient and Hessian with
respect to a fixed set of ``d`` seed coordinates.  The payloads are plain
numpy arrays laid out as ``collect_jet`` returns them: value
``comp + batch``, gradient ``(d,) + comp + batch``, Hessian
``(d, d) + comp + batch``.  The component axes ``comp`` (empty for a scalar
jet) let one Taylor2 hold a whole tensor, so one operation differentiates
every component at once; the batch axes let it hold a whole batch of
evaluation points.  Every arithmetic operation propagates value, gradient
and Hessian exactly, which makes first and second derivatives of field
evaluators exact to machine precision.

A first-order jet (``seed_point(coords, order=1)``) carries no Hessian: its
``hess`` is the shared empty array ``NO_HESSIAN``, and every operation skips
the second-order terms, computing the value and gradient by the same
products and sums as a second-order jet.  An operation that mixes orders
returns a first-order jet.

Operands broadcast against each other's values as numpy arrays do (batch
axes last); the derivative axes stay in front, so jets of different rank
combine componentwise.  ``jet[i]`` indexes the leading component axes.
``where(cond, a, b)`` selects per value entry, so piecewise fields (a
compactly supported bump) stay jets.

The trial fields are sine series, sum over q of K[q] sin(arg_q) with each
arg_q linear in the coordinates, and ``sine_series`` writes their jet in
closed form instead of through the operators: the same products and sums,
in the same order, as ``sin`` and the operators would take, without their
exactly zero terms, so the jets are the same numbers (the generic-Taylor
oracles of the tests check this bit for bit).  It accumulates the gradient
and Hessian component-major, as ``comp + (d,) + batch`` and
``comp + (d, d) + batch`` C-order arrays, and hands them out as transposed
views in the layout above: the layout is what the arrays show, not how
they sit in memory.  That is the memory order ``collect_jet`` gives every
jet, so it returns them without a copy.

Evaluators that want to be differentiated this way must be written against
the generic math functions at the bottom of this module (``sqrt``, ``sin``,
...), which dispatch on the argument type.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = [
    "NO_HESSIAN",
    "Taylor2",
    "seed_point",
    "collect_jet",
    "sine_series",
    "move_axis",
    "value",
    "where",
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
]

# the Hessian of every first-order jet, tested by identity
NO_HESSIAN = np.empty((0, 0))
NO_HESSIAN.flags.writeable = False


class Taylor2:
    """Truncated second-order Taylor jet ``f + g·dx + dx·h·dx/2`` of a scalar or tensor."""

    __slots__ = ("val", "grad", "hess")
    # numpy defers to the reflected operators instead of building object arrays
    __array_ufunc__ = None

    def __init__(self, val, grad, hess=NO_HESSIAN):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    # -- helpers ----------------------------------------------------------

    def _lifted(self, ndim: int):
        """(grad, hess) with unit axes after the derivative axes, for a value of ndim axes."""
        if ndim <= self.val.ndim:
            return self.grad, self.hess
        pad = (1,) * (ndim - self.val.ndim)
        hess = self.hess
        if hess is not NO_HESSIAN:
            hess = hess.reshape(hess.shape[:2] + pad + self.val.shape)
        return self.grad.reshape(self.grad.shape[:1] + pad + self.val.shape), hess

    def _apply(self, u0, u1, u2) -> "Taylor2":
        """Chain rule for a scalar function u with u(f)=u0, u'(f)=u1 and u''(f)=u2().

        u2 is a thunk: a first-order jet never evaluates it.
        """
        if self.hess is NO_HESSIAN:
            return Taylor2(u0, u1 * self.grad)
        outer = self.grad[:, None] * self.grad[None, :]
        return Taylor2(u0, u1 * self.grad, u1 * self.hess + u2() * outer)

    def _inv(self) -> "Taylor2":
        f = self.val
        return self._apply(1.0 / f, -1.0 / f**2, lambda: 2.0 / f**3)

    def __getitem__(self, idx) -> "Taylor2":
        """Index the leading component axes; the derivative axes are kept."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        full = slice(None)
        hess = self.hess if self.hess is NO_HESSIAN else self.hess[(full, full) + idx]
        return Taylor2(self.val[idx], self.grad[(full,) + idx], hess)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Taylor2):
            if self.val.ndim == other.val.ndim:  # no lifting: the common case, kept cheap
                (g1, h1), (g2, h2) = (self.grad, self.hess), (other.grad, other.hess)
            else:
                (g1, h1), (g2, h2) = self._lifted(other.val.ndim), other._lifted(self.val.ndim)
            second = h1 is not NO_HESSIAN and h2 is not NO_HESSIAN
            return Taylor2(self.val + other.val, g1 + g2, h1 + h2 if second else NO_HESSIAN)
        pad = np.zeros(np.shape(other))
        grad, hess = self._lifted(pad.ndim)
        return Taylor2(self.val + other, grad + pad, hess if hess is NO_HESSIAN else hess + pad)

    __radd__ = __add__

    def __neg__(self):
        return Taylor2(-self.val, -self.grad, self.hess if self.hess is NO_HESSIAN else -self.hess)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Taylor2) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Taylor2):
            g1, h1, g2, h2 = self.grad, self.hess, other.grad, other.hess
            if self.val.ndim != other.val.ndim:
                (g1, h1), (g2, h2) = self._lifted(other.val.ndim), other._lifted(self.val.ndim)
            if h1 is NO_HESSIAN or h2 is NO_HESSIAN:
                return Taylor2(self.val * other.val, self.val * g2 + other.val * g1)
            cross = g1[:, None] * g2[None, :]
            return Taylor2(
                self.val * other.val,
                self.val * g2 + other.val * g1,
                self.val * h2 + other.val * h1 + cross + np.swapaxes(cross, 0, 1),
            )
        grad, hess = self._lifted(0 if isinstance(other, (int, float)) else np.ndim(other))
        return Taylor2(self.val * other, grad * other, hess if hess is NO_HESSIAN else hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Taylor2):
            return self * other._inv()
        return self * (1.0 / np.asarray(other))

    def __rtruediv__(self, other):
        return self._inv() * other

    def __pow__(self, e):
        f = self.val
        return self._apply(f**e, e * f ** (e - 1), lambda: e * (e - 1) * f ** (e - 2))

    def __repr__(self):
        return f"Taylor2(val={self.val!r})"


class _Seed(Taylor2):
    """The jet of coordinate ``index`` itself, as ``seed_point`` hands it to an evaluator: the one jet
    ``sine_series`` differentiates in closed form."""

    __slots__ = ("index",)

    def __init__(self, value, index: int, nvars: int, order: int = 2):
        v = np.asarray(value, dtype=float)
        g = np.zeros((nvars,) + v.shape)
        g[index] = 1.0
        super().__init__(v, g, np.zeros((nvars, nvars) + v.shape) if order == 2 else NO_HESSIAN)
        self.index = index


def move_axis(a: np.ndarray, source: int, destination: int) -> np.ndarray:
    """``np.moveaxis`` of one axis as one transpose: the same view, without the argument handling that
    costs more than the arithmetic on the few points of a pointwise identity check."""
    order = [i for i in range(a.ndim) if i != source % a.ndim]
    order.insert(destination % a.ndim, source % a.ndim)
    return a.transpose(order)


def seed_point(coords, order: int = 2) -> list[Taylor2]:
    """Turn an ``(n,) + batch`` coordinate array into a list of Taylor2 seeds of order 1 or 2."""
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    return [_Seed(coords[i], i, n, order) for i in range(n)]


def value(x):
    """The value of a jet; any other operand is returned as it is."""
    return x.val if isinstance(x, Taylor2) else x


def _over_batch(C: np.ndarray, ndim: int) -> np.ndarray:
    """C with its trailing trial axis aligned right against ``ndim`` batch axes: the trials line up with
    the last point axis, and the unit axis of one trial is dropped at a batch-less point."""
    return C.reshape(C.shape[:-1] + (1,) * (ndim - 1) + C.shape[-1:] if ndim else C.shape[:-1])


def sine_series(K, A, terms, name: str, diagonal: bool = False):
    """``sum_q K[q] sin(arg_q)`` with ``arg_q = sum_a A[q, a] terms[a]`` (summed left to right), as one jet.

    ``terms`` are the coordinates (``seed_point`` seeds or plain arrays) and
    numbers (1.0 for a phase).  K is ``(q,) + comp`` and A is
    ``(q, len(terms))``, each with a trailing trial axis (``_over_batch``);
    ``diagonal`` takes component q from term q alone (comp empty).  On seeds
    the jet is written directly, with w[q, p] the coefficient of coordinate p:

        val = sum_q K_q sin_q,  grad_p = sum_q K_q (cos_q w_qp),  hess_pr = sum_q K_q (-sin_q (w_qp w_qr)).

    Each sum is one einsum with the term axis q outermost in every operand,
    so it adds term by term from q = 0, as the operators would (einsum may
    reorder a sum over a contiguous axis).  The closed form holds for
    coordinates only: any other jet among ``terms`` (``2.0 * seed``, from a
    composed evaluator) raises TypeError naming the field ``name``.
    """
    ndim = max(np.ndim(value(t)) for t in terms)
    K, A = _over_batch(K, ndim), _over_batch(A, ndim)
    arg = None
    for a, term in enumerate(terms):
        part = A[:, a] * value(term)
        arg = part if arg is None else arg + part
    sin = np.sin(arg)
    comp = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:K.ndim - 1 - ndim]  # apart from the lowercase q, p and r
    lead = "q" * diagonal + comp

    def series(X, deriv=""):
        """sum_q K[q] X[q] (diagonal: K[q] X[q]) in a C-order ``lead + deriv + batch`` array."""
        batch = np.broadcast_shapes(K.shape[K.ndim - ndim:], X.shape[X.ndim - ndim:])
        out = np.empty(K.shape[1 - diagonal:K.ndim - ndim] + X.shape[1:1 + len(deriv)] + batch)
        return np.einsum(f"q{comp}...,q{deriv}...->{lead}{deriv}...", K, X, out=out)

    val = series(sin)
    seeds = [(a, t) for a, t in enumerate(terms) if isinstance(t, Taylor2)]
    if not seeds:
        return val
    if not all(isinstance(t, _Seed) for _, t in seeds):
        raise TypeError(f"{name}: its closed-form sine-series jet takes coordinate seeds, not a composed jet")
    w = np.zeros(A.shape[:1] + seeds[0][1].grad.shape[:1] + A.shape[2:])  # (q, d) + batch
    for a, seed in seeds:
        w[:, seed.index] += A[:, a]
    k = len(lead)
    grad = move_axis(series(np.cos(arg)[:, None] * w, "p"), k, 0)
    if any(t.hess is NO_HESSIAN for _, t in seeds):
        return Taylor2(val, grad)
    hess = series(-sin[:, None, None] * (w[:, :, None] * w[:, None, :]), "pr")
    return Taylor2(val, grad, move_axis(move_axis(hess, k, 0), k + 1, 1))


def where(cond, a, b):
    """``np.where`` on jets: the jet of a where cond holds, the jet of b elsewhere.

    cond is a boolean array on the value axes (component and batch axes,
    broadcast as numpy does); a and b are jets, arrays or numbers, and a
    constant has zero derivatives.  The result is first-order if a jet
    operand is.  Only the selected operand reaches the result, but both are
    evaluated everywhere: an operand that would divide by zero or overflow
    where it is not selected needs its argument guarded by an inner
    ``where`` (``exp(-1 / where(inside, u, 1))``).
    """
    if not isinstance(a, Taylor2) and not isinstance(b, Taylor2):
        return np.where(cond, a, b)
    val = np.where(cond, value(a), value(b))
    cond = np.broadcast_to(cond, val.shape)  # the derivative arrays take the full value shape
    (ga, ha), (gb, hb) = (x._lifted(val.ndim) if isinstance(x, Taylor2) else (0.0, 0.0) for x in (a, b))
    if ha is NO_HESSIAN or hb is NO_HESSIAN:
        return Taylor2(val, np.where(cond, ga, gb))
    return Taylor2(val, np.where(cond, ga, gb), np.where(cond, ha, hb))


def collect_jet(tree, comp: tuple, nvars: int, batch_shape: tuple = ()):
    """Extract (value, gradient, Hessian) arrays from an evaluator result of component shape ``comp``.

    Leading axes of the returned gradient/Hessian are the derivative axes:
    value ``comp + batch``, gradient ``(d,) + comp + batch``, Hessian
    ``(d, d) + comp + batch``.  An array-valued Taylor2 already has that
    layout and is returned without gathering; any other tree is read leaf by
    leaf at the indices of ``comp`` (a leaf may be a plain batch array), with
    non-Taylor2 leaves treated as constants.  Both paths hold the component
    axes outermost in memory, so downstream reductions see the same strides
    and round the same way.  The Hessian is ``NO_HESSIAN`` if the tree holds
    a first-order jet.
    """
    if isinstance(tree, Taylor2):
        k = tree.val.ndim - len(batch_shape)
        grad = move_axis(np.asarray(move_axis(tree.grad, 0, k), order="C"), k, 0)
        hess = tree.hess
        if hess is not NO_HESSIAN:
            hess = np.asarray(move_axis(move_axis(hess, 1, k + 1), 0, k), order="C")
            hess = move_axis(move_axis(hess, k, 0), k + 1, 1)
        return np.asarray(tree.val, order="C"), grad, hess
    leaves = {idx: reduce(lambda node, i: node[i], idx, tree) for idx in np.ndindex(comp)}
    second = not any(isinstance(leaf, Taylor2) and leaf.hess is NO_HESSIAN for leaf in leaves.values())
    val = np.zeros(comp + batch_shape)
    grad = np.zeros(comp + (nvars,) + batch_shape)
    hess = np.zeros(comp + (nvars, nvars) + batch_shape) if second else NO_HESSIAN
    for idx, leaf in leaves.items():
        if isinstance(leaf, Taylor2):
            val[idx] = leaf.val
            grad[idx] = leaf.grad
            if second:
                hess[idx] = leaf.hess
        else:
            val[idx] = leaf
    grad = np.moveaxis(grad, len(comp), 0)
    if second:
        hess = np.moveaxis(hess, (len(comp), len(comp) + 1), (0, 1))
    return val, grad, hess


def _dispatch(x, np_fn, u1_fn, u2_fn):
    if isinstance(x, Taylor2):
        f = x.val
        return x._apply(np_fn(f), u1_fn(f), lambda: u2_fn(f))
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
