"""Per-layer tracing of weylmass from the outside.

``Tracer.install`` wraps every public function of every ``weylmass`` module,
plus a few class-level methods (the derivative engine's jets, the model
frame helpers and ``Taylor2`` arithmetic), and rebinds every alias of a
wrapped function -- ``from .x import y`` names, registry dicts and tables --
so calls made inside the package go through the wrappers.  The program
itself carries no tracing code; ``uninstall`` puts every original back.

Each wrapped call belongs to a layer (``GROUPS``; otherwise the module's
default in ``MODULE_GROUP``).  A call records a span (id, parent id, name,
start, end) in memory and adds its self time -- duration minus the time of
the wrapped calls nested in it -- to its layer.  ``Taylor2`` operations are
too many and too small for a span each: they are aggregated into one count,
byte total and time, and only the outermost operation of a nested chain is
counted.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
from time import perf_counter

import numpy as np

PACKAGE = "weylmass"

# (module, qualified name) -> layer; other functions use MODULE_GROUP
GROUPS = {
    ("engine", "DerivativeEngine._dual_jet"): "engine.dual_jet",
    ("engine", "DerivativeEngine._fd_jet1"): "engine.fd_jet",
    ("engine", "DerivativeEngine._fd_hessian"): "engine.fd_jet",
    ("engine", "DerivativeEngine.jet2"): "engine.jet2",
    ("autodiff", "collect_jet"): "autodiff.collect_jet",
    ("model", "ModelSpace.lc_coeffs_h"): "model.frame",
    ("model", "ModelSpace.structure_constants"): "model.frame",
    ("model", "ModelSpace.frame_from_coord"): "model.frame",
    ("weyl", "christoffel"): "weyl.christoffel",
    ("weyl", "weyl_coeffs"): "weyl.weyl_coeffs",
    ("weyl", "weyl_curvature"): "weyl.curvature",
    ("weyl", "lc_riemann"): "weyl.curvature",
    ("weyl", "faraday"): "weyl.curvature",
    ("weyl", "ricci_trace_convention"): "weyl.curvature",
    ("weyl", "covd_form_block"): "weyl.covd_block",
    ("weyl", "covd_tensor_block"): "weyl.covd_block",
    ("weyl", "lc_form_block"): "weyl.covd_block",
    ("quadrature", "flux_model_metric"): "quadrature.integrate",
    ("quadrature", "flux_curved_metric"): "quadrature.integrate",
    ("quadrature", "volume_integral_curved"): "quadrature.integrate",
    ("mass", "q_flux_components"): "mass.q_flux",
    ("mass", "lee_correction_components"): "mass.lee_flux",
}

MODULE_GROUP = {
    "engine": "engine.dispatch",
    "autodiff": "autodiff.seed",
    "model": "model.other",
    "weyl": "weyl.operators",
    "quadrature": "quadrature.nodes",
    "mass": "mass.other",
    "probes": "probes",
    "identities": "identities",
    "cli": "cli",
    "families": "families",
    "algebra": "algebra",
}

CLASS_METHODS = {
    ("engine", "DerivativeEngine"): ("jet1", "jet2", "_dual_jet", "_fd_jet1", "_fd_hessian"),
    ("model", "ModelSpace"): ("lc_coeffs_h", "structure_constants", "frame_from_coord"),
}

TAYLOR2_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__pow__")
TAYLOR2_FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")

# identity check function -> check name, as in the verify report
CHECKS = {
    "check_torsion": "torsion_free",
    "check_d_transform": "d_transform",
    "check_codifferential_transform": "codifferential_transform",
    "check_d_squared": "d_squared_curvature",
    "check_curvature_split": "curvature_split",
    "resolve_bochner_sign": "bochner_sign",
    "check_bochner_pointwise": "bochner_pointwise",
    "check_bochner_divergence": "bochner_divergence",
    "check_bochner_integral": "bochner_integral",
}

def batch_points(coords) -> int:
    shape = np.shape(coords)
    return int(np.prod(shape[1:])) if len(shape) > 1 else 1


def _coords_points(bound, result) -> int:
    return batch_points(bound["coords"])


def _nodes_points(bound, result) -> int:
    return batch_points(result[0])


def _probe_points(bound, result) -> int:
    return int(bound.get("directions", 8)) * len(bound["radii"])


# layer functions whose calls also count evaluated points
POINTS = {
    ("engine", "DerivativeEngine._dual_jet"): _coords_points,
    ("engine", "DerivativeEngine._fd_jet1"): _coords_points,
    ("engine", "DerivativeEngine._fd_hessian"): _coords_points,
    ("weyl", "christoffel"): _coords_points,
    ("mass", "q_flux_components"): _coords_points,
    ("quadrature", "shell_nodes"): _nodes_points,
    ("quadrature", "annulus_nodes"): _nodes_points,
    ("probes", "probe_tensor_field"): _probe_points,
}


def package_modules() -> list:
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in sorted(pkgutil.iter_modules(pkg.__path__), key=lambda i: i.name):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def walk_values(value, seen=None):
    """Yield a value and everything inside plain dicts, lists, tuples and sets."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    yield value
    if isinstance(value, dict):
        items = list(value.keys()) + list(value.values())
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
    else:
        return
    for item in items:
        yield from walk_values(item, seen)


def namespace_values(modules):
    """Everything reachable from the module namespaces and their classes' dicts."""
    seen = set()
    for mod in modules:
        for value in list(vars(mod).values()):
            yield from walk_values(value, seen)
            if inspect.isclass(value) and value.__module__.startswith(PACKAGE):
                for attr in list(vars(value).values()):
                    yield from walk_values(attr, seen)


def find_wrappers(modules=None) -> list:
    """Tracing wrappers reachable from the package; empty when nothing is installed."""
    modules = package_modules() if modules is None else modules
    return [v for v in namespace_values(modules) if callable(v) and hasattr(v, "_perfbench_layer")]


class Tracer:
    """Installs layer wrappers into weylmass and aggregates what they record."""

    def __init__(self):
        self.stats = {}             # layer -> [calls, points, self seconds]
        self.taylor = [0, 0, 0.0]   # Taylor2 ops, result bytes, seconds
        self.checks = dict.fromkeys(CHECKS.values(), 0.0)  # check -> inclusive seconds
        self.trials = 0             # identity trials reported by the checks
        self.jet_keys = set()       # distinct (field evaluator, node set) pairs
        self.spans = []             # (id, parent id, name, start, end)
        self._stack = []            # open spans: [id, child seconds]
        self._next_id = 0
        self._in_op = False
        self._originals = {}        # id(original) -> (original, wrapper)
        self._undo = []
        self.modules = []

    # -- results ---------------------------------------------------------------

    def reset(self) -> None:
        """Zero the totals before the next traced command (wrappers stay)."""
        for row in self.stats.values():
            row[:] = [0, 0, 0.0]
        self.taylor[:] = [0, 0, 0.0]
        for name in self.checks:
            self.checks[name] = 0.0
        self.trials = 0
        self.jet_keys.clear()
        self.spans.clear()

    def layer(self, name: str) -> list:
        return self.stats.get(name, [0, 0, 0.0])

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, fn, layer: str, name: str, points=None, on_return=None):
        tracer = self
        row = self.stats.setdefault(layer, [0, 0, 0.0])
        sig = inspect.signature(fn) if (points or on_return) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                row[0] += 1
                row[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append((frame[0], parent[0] if parent else -1, name, start, end))
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                if points is not None:
                    row[1] += points(bound, result)
                if on_return is not None:
                    on_return(bound, result, duration)
            return result

        wrapper._perfbench_layer = layer
        return wrapper

    def _op_wrapper(self, fn, taylor_cls, check_arg: bool):
        tracer = self
        agg = self.taylor

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer._in_op or (check_arg and not isinstance(args[0], taylor_cls)):
                return fn(*args)
            tracer._in_op = True
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                duration = perf_counter() - start
                tracer._in_op = False
            agg[0] += 1
            agg[1] += result.val.nbytes + result.grad.nbytes + result.hess.nbytes
            agg[2] += duration
            if tracer._stack:
                tracer._stack[-1][1] += duration
            return result

        wrapper._perfbench_layer = "autodiff.taylor2"
        return wrapper

    def _record_jet(self, bound, result, duration) -> None:
        coords = np.ascontiguousarray(bound["coords"], dtype=float)
        digest = hashlib.blake2b(coords.tobytes(), digest_size=16).digest()
        self.jet_keys.add((bound["fld"].fn, coords.shape, digest))

    def _check_hook(self, check_name: str):
        def on_return(bound, result, duration):
            self.checks[check_name] += duration
            self.trials += int(result.trials)
        return on_return

    def _make_wrapper(self, short: str, qualname: str, fn):
        layer = GROUPS.get((short, qualname), MODULE_GROUP.get(short, short))
        on_return = None
        if (short, qualname) == ("engine", "DerivativeEngine._dual_jet"):
            on_return = self._record_jet
        elif short == "identities" and qualname in CHECKS:
            on_return = self._check_hook(CHECKS[qualname])
        return self._span_wrapper(fn, layer, f"{short}.{qualname}",
                                  points=POINTS.get((short, qualname)), on_return=on_return)

    # -- install / uninstall -------------------------------------------------------

    def install(self) -> "Tracer":
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.modules = package_modules()
        mods = {m.__name__.rpartition(".")[2]: m for m in self.modules[1:]}
        autodiff = mods["autodiff"]
        taylor_cls = autodiff.Taylor2

        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and id(obj) not in self._originals):
                    if short == "autodiff" and name in TAYLOR2_FUNCTIONS:
                        wrapper = self._op_wrapper(obj, taylor_cls, check_arg=True)
                    else:
                        wrapper = self._make_wrapper(short, obj.__qualname__, obj)
                    self._originals[id(obj)] = (obj, wrapper)

        patched_classes = []
        for (short, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(mods[short], cls_name)
            patched_classes.append(cls)
            for meth in methods:
                fn = vars(cls)[meth]
                self._originals[id(fn)] = (fn, self._make_wrapper(short, fn.__qualname__, fn))
        for op in TAYLOR2_OPS:
            fn = vars(taylor_cls)[op]
            if id(fn) not in self._originals:
                self._originals[id(fn)] = (fn, self._op_wrapper(fn, taylor_cls, check_arg=False))
        patched_classes.append(taylor_cls)

        for cls in patched_classes:
            for attr, value in list(vars(cls).items()):
                if id(value) in self._originals:
                    self._undo.append((setattr, cls, attr, value))
                    setattr(cls, attr, self._originals[id(value)][1])
        rebuilt = {}
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                new = self._rebind(value, rebuilt)
                if new is not value:
                    self._undo.append((setattr, mod, name, value))
                    setattr(mod, name, new)
        return self

    def _rebind(self, value, rebuilt: dict):
        """Replacement for a namespace value: wrappers for originals, containers in place."""
        hit = self._originals.get(id(value))
        if hit is not None and hit[0] is value:
            return hit[1]
        if id(value) in rebuilt:
            return rebuilt[id(value)]
        rebuilt[id(value)] = value  # guards against cycles while recursing
        if isinstance(value, dict):
            for key, item in list(value.items()):
                new = self._rebind(item, rebuilt)
                if new is not item:
                    self._undo.append((dict.__setitem__, value, key, item))
                    value[key] = new
        elif isinstance(value, list):
            for idx, item in enumerate(list(value)):
                new = self._rebind(item, rebuilt)
                if new is not item:
                    self._undo.append((list.__setitem__, value, idx, item))
                    value[idx] = new
        elif type(value) is tuple:
            items = tuple(self._rebind(item, rebuilt) for item in value)
            if any(a is not b for a, b in zip(items, value)):
                rebuilt[id(value)] = items
                return items
        return value

    def uninstall(self) -> None:
        for setter, target, key, value in reversed(self._undo):
            setter(target, key, value)
        self._undo.clear()
        self._originals.clear()

    def originals(self) -> list:
        return [orig for orig, _ in self._originals.values()]
