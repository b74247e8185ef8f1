"""Command-line front end: verify identities, compute masses, sweep gauges.

Configuration is a single JSON file; only ``--seed`` and ``--out`` override
it from the command line.  ``SCHEMA`` gives every config key its default
and its rule; ``RunConfig.load`` checks a configuration once and keeps the
chart, Weyl structure and sweep factors it built for the commands.
Every report starts with a ``config`` record holding the fully resolved
configuration: every section with every key, the family and Lee parameters
completed from the builders' defaults.  Written out as a config file, that
record resolves to itself, so a run is reproducible byte for byte from its
report alone.  Reports are JSON-lines (one object per record) next to CSV
tables with a versioned schema comment.

``_judge`` prints each record's lines and derives its verdict from its
numbers, for the command that writes it and again for ``report``.

Exit codes: 0 all checks pass, 1 an identity or audit failed, 2 invalid
configuration or report, or a domain error (mass not defined, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import inspect
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .engine import DerivativeEngine
from .errors import ChartDomainError, ConfigError, MassNotDefinedError
from .families import LEE_BUILDERS, METRIC_BUILDERS, SCALAR_BUILDERS
from .identities import SUITE_TOLERANCES, SUITE_TRIALS, IdentityReport, run_suite
from .mass import FLUX_RADII, InvarianceReport, MassReport, gauge_audit, mass_matrix
from .model import ModelSpace
from .probes import geometric_radii
from .quadrature import QuadratureSpec
from .weyl import WeylStructure

CSV_SCHEMA = "# schema=mass_table_v1 columns=radius,Q_flux,conf_correction,extrapolated"
OUT_ENV = "WEYLMASS_OUT"
ENGINE = DerivativeEngine()  # stateless: every command takes its jets from this one


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _real(v) -> bool:
    """A finite double: not a bool, nan, infinity or an integer beyond the range of doubles."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


def _one_of(builders) -> tuple:
    return f"one of {sorted(builders)}", lambda v: isinstance(v, str) and v in builders


POSITIVE = ("a positive finite number", lambda v: _real(v) and v > 0)
SIZE = ("a positive integer", lambda v: _integer(v) and v > 0)
COUNT = ("a non-negative integer", lambda v: _integer(v) and v >= 0)
LATER = (None, None)  # checked by the object the key configures, or with other keys

# Every config key: its default, then what it must be and the test of that; a
# section is a dict of its keys.  Defaults the library states are read from
# it.  A partial section takes the defaults of the keys it leaves out, but a
# family, lee or sweep section that names a builder owns its params and
# values: left out, they are empty, and the builder takes its own defaults.
SCHEMA = {
    "model": {"m": (ModelSpace.m, "an integer", _integer), "R": (ModelSpace.R, *POSITIVE),
              "L": (ModelSpace.L, *POSITIVE), "fibration": (ModelSpace.fibration, *LATER)},
    "family": {"name": ("kaluza_perturbation", *_one_of(METRIC_BUILDERS)),
               "params": ({}, "an object", lambda v: isinstance(v, dict))},
    "lee": {"name": ("radial_lee", *_one_of(LEE_BUILDERS)),
            "params": ({"amplitude": 0.4}, "an object", lambda v: isinstance(v, dict))},
    "sweep": {"name": ("radial_profile", *_one_of(SCALAR_BUILDERS)),
              "param": ("beta", "a parameter name", lambda v: isinstance(v, str)),
              "values": ([0.1, 0.2, 0.3, 0.4, 0.5], "a list", lambda v: isinstance(v, list))},
    "radii": {"r0": (FLUX_RADII["r0"], *LATER), "rmax": (FLUX_RADII["rmax"], *LATER),
              "count": (FLUX_RADII["count"], "an integer >= 2", lambda v: _integer(v) and v >= 2)},
    "quadrature": {f.name: (f.default, *SIZE) for f in fields(QuadratureSpec)},
    "tolerances": {key: (value, *POSITIVE) for key, value in {
        **SUITE_TOLERANCES, "mass": _default(gauge_audit, "tolerance"),
        "convergence": _default(mass_matrix, "tol_conv")}.items()},
    "trials": {key: (value, *COUNT) for key, value in SUITE_TRIALS.items()},
    "seed": (_default(run_suite, "seed"), "a non-negative integer", lambda v: _integer(v) and v >= 0),
    "out": (None, "a directory name", lambda v: v is None or isinstance(v, str)),
}


@dataclass(frozen=True)
class RunConfig:
    """A checked run configuration and the objects it names; ``load`` refuses invalid input with ConfigError."""

    config: dict  # the resolved configuration every report embeds; the output directory is not part of it
    out: str | None
    model: ModelSpace
    structure: WeylStructure
    factors: list  # the sweep's conformal factors, one per value
    radii: list
    quad: QuadratureSpec

    @classmethod
    def load(cls, path: str | None, overrides: argparse.Namespace) -> "RunConfig":
        data = {}
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
            except ValueError as exc:  # not UTF-8 text, or not JSON
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config must be an object, got {data!r}")
        unknown = set(data) - set(SCHEMA)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = {}
        for where, rule in SCHEMA.items():
            given = data.get(where, rule[0] if isinstance(rule, tuple) else {})
            if isinstance(rule, dict):
                if not isinstance(given, dict):
                    raise ConfigError(f"{where} must be an object, got {given!r}")
                for key in given:
                    if key not in rule:
                        raise ConfigError(f"unknown {where} key {key!r}")
                owned = "name" in given
                given = {**{k: type(d)() if owned and k in ("params", "values") else copy.copy(d)
                            for k, (d, _, _) in rule.items()}, **given}
            cfg[where] = given
        if overrides.seed is not None:
            cfg["seed"] = overrides.seed
        if overrides.out is not None:
            cfg["out"] = overrides.out
        return cls._checked(cfg)

    @classmethod
    def _checked(cls, cfg: dict) -> "RunConfig":
        """Check every value of a resolved configuration and build what it names."""
        for where, rule in SCHEMA.items():
            for key, (_, what, test) in rule.items() if isinstance(rule, dict) else [(None, rule)]:
                value = cfg[where] if key is None else cfg[where][key]
                if test is not None and not test(value):
                    raise ConfigError(f"{where if key is None else f'{where}.{key}'} must be {what}, got {value!r}")
        model = _construct("model", ModelSpace, **cfg["model"])
        r0, rmax = cfg["radii"]["r0"], cfg["radii"]["rmax"]
        if not (_real(r0) and _real(rmax) and 0 < r0 < rmax):
            raise ConfigError(f"radii must satisfy 0 < r0 < rmax < inf, got r0={r0!r} rmax={rmax!r}")
        if r0 <= model.R:
            raise ConfigError(f"radii.r0={r0} must exceed the excised radius R={model.R}")
        built = {}
        for where, builders in (("family", METRIC_BUILDERS), ("lee", LEE_BUILDERS)):
            spec, builder = cfg[where], builders[cfg[where]["name"]]
            bound = _bind(f"{where}.params", builder, spec["params"])
            for name, value in spec["params"].items():
                _check_value(f"{where}.params.{name}", bound.signature.parameters[name], value)
            bound.apply_defaults()
            spec["params"] = {name: value for name, value in bound.arguments.items() if name != "model"}
            built[where] = _construct(where, builder, model, **spec["params"])
        sweep = cfg["sweep"]
        builder, param = SCALAR_BUILDERS[sweep["name"]], sweep["param"]
        bound = _bind("sweep.param", builder, {param: None})
        for i, value in enumerate(sweep["values"]):
            _check_value(f"sweep.values[{i}]", bound.signature.parameters[param], value)
        factors = [_construct(f"sweep.values[{i}]", builder, model, **{param: value})
                   for i, value in enumerate(sweep["values"])]
        return cls({k: v for k, v in cfg.items() if k != "out"}, cfg["out"], model,
                   WeylStructure(model, built["family"], built["lee"]), factors,
                   [float(r) for r in geometric_radii(r0, rmax, cfg["radii"]["count"])],
                   QuadratureSpec(**cfg["quadrature"]))

    def out_dir(self) -> Path:
        path = Path(self.out or os.environ.get(OUT_ENV, "out"))
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use output directory {path}: {exc.strerror}") from exc
        return path


def _construct(where: str, builder, *args, **params):
    """Call a library constructor; a value outside its domain (ValueError) is a config error at ``where``."""
    try:
        return builder(*args, **params)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _bind(where: str, builder, params) -> inspect.BoundArguments:
    """Bind params to a builder, refusing parameters it does not take or required ones left out."""
    sig = inspect.signature(builder)
    try:
        return sig.bind(None, **params)
    except TypeError as exc:
        accepted = [name for name in sig.parameters if name != "model"]
        raise ConfigError(f"{where} for {builder.__name__}: {exc}; accepted: {accepted}") from exc


def _check_value(where: str, param: inspect.Parameter, value) -> None:
    """Require a finite real number, or an integer where the builder takes int; null only for a None default."""
    if value is None and param.default is None:
        return
    whole = param.annotation in (int, "int")
    if not (_integer(value) if whole else _real(value)):
        raise ConfigError(f"{where} must be {'an integer' if whole else 'a finite real number'}, got {value!r}")


def _rederived(cls, rec: dict, verdict: str, **given) -> bool:
    """The ``verdict`` of the ``cls`` report rebuilt from ``rec`` and ``given``, ``Z`` as ``z_label`` and the computed
    values (properties of ``cls``) left out; raises unless ``rec`` states exactly that verdict."""
    fields = {**{"z_label" if key == "Z" else key: value for key, value in rec.items()}, **given}
    report = cls(**{key: value for key, value in fields.items() if not isinstance(vars(cls).get(key), property)})
    if rec[verdict] is not getattr(report, verdict):
        raise ValueError(f"it states {verdict}={rec[verdict]!r}, its numbers give {getattr(report, verdict)!r}")
    return getattr(report, verdict)


def _judge(rec: dict, config: dict) -> bool:
    """Print one report record's lines and return its verdict, which its report class derives from its numbers
    (``_rederived``); a record that lacks a field, or whose stated verdict is not that one, raises."""
    if "mass_matrix" in rec:
        print("polarized conformal-mass matrix over the horizontal basis:")
        for row in rec["mass_matrix"]:
            print("  [" + "  ".join(f"{v: .8e}" for v in row) + "]")
        print("eigenvalues: " + " ".join(f"{v:.8e}" for v in rec["eigenvalues"]))
        return True
    if "identity" in rec:
        checks = [(_rederived(IdentityReport, rec, "passed"), f"{rec['identity']}: max residual "
                   f"{rec['max_residual']:.3e} (tol {rec['tolerance']:g}, {rec['trials']} trials)")]
    elif "audits" in rec:
        tol = float(config["tolerances"]["mass"])
        param = config["sweep"]["param"]
        factor = f"{rec['factor']}({param}={rec[param]})"
        checks = [(_rederived(InvarianceReport, audit, "passed", tolerance=tol), f"invariance {factor} Z=X{b + 1}: "
                   f"rel diff {audit['rel_difference']:.3e} (tol {tol:g})") for b, audit in enumerate(rec["audits"])]
        rel_error = rec["prediction"]["rel_error"]
        checks.append((rel_error < tol, f"mass-shift prediction {factor}: rel error {rel_error:.3e} (tol {tol:g})"))
    else:  # a mass direction prints only if it did not converge, but its line is formatted to check its fields
        line = f"mass[{rec['Z']}] = {rec['mass']:.8e}: flux sequence NOT CONVERGED"
        converged = _rederived(MassReport, rec, "converged")
        if not converged:
            print(line)
        return converged
    for ok, line in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    return all(ok for ok, _ in checks)


def _write_report(path: Path, records: list) -> bool:
    """Judge every record after the leading config record, write all of them as JSON lines, name the file;
    True if every record passed."""
    ok = all([_judge(rec, records[0]["config"]) for rec in records[1:]])
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"report: {path}")
    return ok


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    conf = cfg.config
    reports = run_suite(ENGINE, cfg.model, seed=conf["seed"], trials=conf["trials"],
                        tolerances={group: float(tol) for group, tol in conf["tolerances"].items()})
    records = [{"config": conf}] + [rep.as_dict() for rep in reports]
    return 0 if _write_report(cfg.out_dir() / "verify_report.jsonl", records) else 1


def cmd_mass(cfg: RunConfig) -> int:
    matrix, q_matrix, reports = mass_matrix(ENGINE, cfg.structure, radii=cfg.radii, quad=cfg.quad,
                                            tol_conv=float(cfg.config["tolerances"]["convergence"]))
    out = cfg.out_dir()
    for b in range(cfg.model.m):
        with open(out / f"mass_table_X{b + 1}.csv", "w") as fh:
            fh.write(CSV_SCHEMA + "\n")
            fh.write("radius,Q_flux,conf_correction,extrapolated\n")
            for r, q, c, e in reports[f"1*X{b + 1}"].csv_rows():
                fh.write(f"{r!r},{q!r},{c!r},{e!r}\n")
    records = [{"config": cfg.config},
               {"mass_matrix": matrix.tolist(), "eigenvalues": np.linalg.eigvalsh(matrix).tolist(),
                "q_matrix": q_matrix.tolist()}]
    records += [rep.as_dict() for rep in reports.values()]
    _write_report(out / "mass_report.jsonl", records)  # a direction that did not converge exits 0 here, 1 in report
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    param, values = cfg.config["sweep"]["param"], cfg.config["sweep"]["values"]
    if not values:
        raise ConfigError("sweep.values is empty")
    results = gauge_audit(ENGINE, cfg.structure, cfg.factors, radii=cfg.radii, quad=cfg.quad,
                          tolerance=float(cfg.config["tolerances"]["mass"]))
    records = [{"config": cfg.config}]
    records += [{"factor": f.name, param: value, "audits": [a.as_dict() for a in audits],
                 "prediction": pred.as_dict()} for value, f, (audits, pred) in zip(values, cfg.factors, results)]
    return 0 if _write_report(cfg.out_dir() / "sweep_report.jsonl", records) else 1


def cmd_report(paths: list[str]) -> int:
    """Judge the records of previously written JSONL reports, each against its file's config record; exit 1 if
    any record failed."""
    ok = True
    for path in paths:
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read report file {path}: {exc.strerror}") from exc
        except ValueError as exc:
            raise ConfigError(f"report file {path} is not UTF-8 text: {exc}") from exc
        print(f"== {path}")
        config = {}
        for lineno, line in enumerate(lines, 1):
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if not isinstance(rec, dict):
                raise ConfigError(f"{path} line {lineno} is not a JSON report record")
            if "config" in rec:
                config = rec["config"]
                continue
            try:
                ok = _judge(rec, config) and ok
            except (KeyError, TypeError, ValueError, AttributeError) as exc:  # a field missing or of a wrong type
                raise ConfigError(f"{path} line {lineno} is not a valid report record: "
                                  f"{type(exc).__name__}: {exc}") from exc
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylmass",
        description="Verify conformal-connection identities and compute fibered mass integrals.",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV} or ./out)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", help="run the operator-identity suite")
    sub.add_parser("mass", help="compute the mass quadratic form of the configured family")
    sub.add_parser("sweep", help="audit gauge invariance over a conformal-factor sweep")
    rep = sub.add_parser("report", help="judge existing JSONL reports")
    rep.add_argument("paths", nargs="+", help="report files to judge")
    return parser


class _PipeGuard:
    """Standard output that drops what is written after the reader closed the pipe.

    ``weylmass verify | head -2`` then still runs the command to the end,
    writes its reports and exits with the command's own status.
    """

    def __init__(self, stream):
        self.stream = stream
        self.open = True

    def write(self, text: str) -> int:
        self._call(self.stream.write, text)
        return len(text)

    def flush(self) -> None:
        self._call(self.stream.flush)

    def _call(self, method, *args) -> None:
        if not self.open:
            return
        try:
            method(*args)
        except BrokenPipeError:
            self.open = False
            try:
                fd = self.stream.fileno()
            except (AttributeError, OSError, ValueError):
                return
            # the interpreter flushes what is still buffered when it exits; send that to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)


def _run(args: argparse.Namespace) -> int:
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cfg = RunConfig.load(args.config, args)
            if args.command == "report":
                return cmd_report(args.paths)
            cfg.out_dir()  # an unusable output directory is refused before any work
            return {"verify": cmd_verify, "mass": cmd_mass, "sweep": cmd_sweep}[args.command](cfg)
    except (ConfigError, ChartDomainError, MassNotDefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure, an input is out of range: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    guard = _PipeGuard(sys.stdout)
    with contextlib.redirect_stdout(guard):
        try:
            return _run(build_parser().parse_args(argv))
        finally:
            guard.flush()


if __name__ == "__main__":
    sys.exit(main())
