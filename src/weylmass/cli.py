"""Command-line front end: verify identities, compute masses, sweep gauges.

Configuration is a single JSON file plus flag overrides; every report embeds
the resolved configuration so runs are reproducible byte for byte from the
report alone.  Reports are JSON-lines (one object per record) next to CSV
tables with a versioned schema comment.

Exit codes: 0 all checks pass, 1 an identity or audit failed, 2 invalid
configuration or a domain error (mass not defined, unknown family, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import sys
from dataclasses import asdict, dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from .engine import DerivativeEngine
from .errors import ChartDomainError, ConfigError, MassNotDefinedError
from .families import (LEE_BUILDERS, METRIC_BUILDERS, SCALAR_BUILDERS, build_lee, build_metric,
                       build_scalar)
from .identities import run_suite
from .mass import gauge_audit, mass_matrix
from .model import ModelSpace
from .probes import geometric_radii
from .quadrature import QuadratureSpec
from .weyl import WeylStructure

CSV_SCHEMA = "# schema=mass_table_v1 columns=radius,Q_flux,conf_correction,extrapolated"
OUT_ENV = "WEYLMASS_OUT"

DEFAULT_TOLERANCES = {
    "identity": 1e-6,
    "bochner": 1e-5,
    "integral": 1e-4,
    "mass": 1e-4,
    "convergence": 1e-6,
}

DEFAULT_TRIALS = {"identity": 100, "bochner": 20, "integral": 5}

# object-valued sections: the defaults of the keys a partial section leaves out
SECTION_DEFAULTS = {
    "model": {"m": 3, "R": 1.0, "L": 6.283185307179586, "fibration": "trivial"},
    "radii": {"r0": 40.0, "rmax": 320.0, "count": 6},
    "quadrature": {"sphere": 26, "fiber": 16, "radial": 8},
}

# the keys each object-valued section accepts
SECTION_KEYS = {**SECTION_DEFAULTS, "family": ("name", "params"), "lee": ("name", "params"),
                "sweep": ("name", "param", "values"), "tolerances": DEFAULT_TOLERANCES,
                "trials": DEFAULT_TRIALS}


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _real(v) -> bool:
    """A finite double: not a bool, nan, infinity or an integer beyond the range of doubles."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


@dataclass
class RunConfig:
    """Validated run configuration; invalid input raises ConfigError."""

    model: dict = dc_field(default_factory=lambda: dict(SECTION_DEFAULTS["model"]))
    family: dict = dc_field(default_factory=lambda: {"name": "kaluza_perturbation", "params": {"mu": 1.0}})
    lee: dict = dc_field(default_factory=lambda: {"name": "radial_lee", "params": {"amplitude": 0.4}})
    sweep: dict = dc_field(default_factory=lambda: {"name": "radial_profile", "param": "beta",
                                                    "values": [0.1, 0.2, 0.3, 0.4, 0.5]})
    radii: dict = dc_field(default_factory=lambda: dict(SECTION_DEFAULTS["radii"]))
    quadrature: dict = dc_field(default_factory=lambda: dict(SECTION_DEFAULTS["quadrature"]))
    tolerances: dict = dc_field(default_factory=dict)
    trials: dict = dc_field(default_factory=dict)
    seed: int = 42
    mode: str = "dual"
    out: str | None = None
    corrupt_bochner_sign: bool = False  # negative-control test hook

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
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        for where, known in SECTION_KEYS.items():
            given = getattr(cfg, where)
            if not isinstance(given, dict):
                raise ConfigError(f"{where} must be an object, got {given!r}")
            for k in given:
                if k not in known:
                    raise ConfigError(f"unknown {where} key {k!r}")
        if overrides.seed is not None:
            cfg.seed = overrides.seed
        if overrides.out is not None:
            cfg.out = overrides.out
        if overrides.radii is not None:
            parts = overrides.radii.split(":")
            if len(parts) != 3:
                raise ConfigError("--radii expects r0:rmax:count")
            try:
                cfg.radii = {"r0": float(parts[0]), "rmax": float(parts[1]), "count": int(parts[2])}
            except ValueError as exc:
                raise ConfigError(f"bad --radii value: {overrides.radii!r}") from exc
        if overrides.tol is not None:
            cfg.tolerances = {**cfg.tolerances, "identity": overrides.tol, "mass": overrides.tol}
        cfg.validate()
        return cfg

    def section(self, where: str) -> dict:
        """A section with the defaults filled in for the keys it leaves out."""
        return {**SECTION_DEFAULTS[where], **getattr(self, where)}

    def validate(self) -> None:
        """Check every value; ``load`` has checked that the sections are objects with known keys."""
        model, radii = self.section("model"), self.section("radii")
        m, fib = model["m"], model["fibration"]
        _require([("model.m", m, "an integer >= 3", _integer(m) and m >= 3),
                  ("model.fibration", fib, "'trivial' or 'hopf'", fib in ("trivial", "hopf"))]
                 + [(f"model.{k}", model[k], "a positive finite number", _real(model[k]) and model[k] > 0)
                    for k in ("R", "L")])
        if fib == "hopf" and m != 3:
            raise ConfigError("hopf fibration requires m = 3")
        for where, builders, kind in (("family", METRIC_BUILDERS, "metric family"),
                                      ("lee", LEE_BUILDERS, "lee form"), ("sweep", SCALAR_BUILDERS, "scalar family")):
            name = getattr(self, where).get("name")
            if not isinstance(name, str) or name not in builders:
                raise ConfigError(f"unknown {kind} {name!r}; known: {sorted(builders)}")
        for where, builders in (("family", METRIC_BUILDERS), ("lee", LEE_BUILDERS)):
            spec = getattr(self, where)
            params = spec.get("params", {})
            sig = _check_params(f"{where}.params", builders[spec["name"]], params)
            for name, value in params.items():
                _check_value(f"{where}.params.{name}", sig.parameters[name], value)
        param = self.sweep.get("param", "beta")
        if not isinstance(param, str):
            raise ConfigError(f"sweep.param must be a parameter name, got {param!r}")
        sig = _check_params("sweep.param", SCALAR_BUILDERS[self.sweep["name"]], {param: None})
        values = self.sweep.get("values", [])
        if not isinstance(values, list):
            raise ConfigError(f"sweep.values must be a list, got {values!r}")
        for i, value in enumerate(values):
            _check_value(f"sweep.values[{i}]", sig.parameters[param], value)
        # builders refuse parameters outside their domain with ValueError
        space = self.model_space()
        built = [("family", METRIC_BUILDERS[self.family["name"]], self.family.get("params", {})),
                 ("lee", LEE_BUILDERS[self.lee["name"]], self.lee.get("params", {}))]
        built += [(f"sweep.values[{i}]", SCALAR_BUILDERS[self.sweep["name"]], {param: value})
                  for i, value in enumerate(values)]
        for where, builder, params in built:
            try:
                builder(space, **params)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        r0, rmax, count = radii["r0"], radii["rmax"], radii["count"]
        _require([("radii.count", count, "an integer >= 2", _integer(count) and count >= 2)])
        if not (_real(r0) and _real(rmax) and 0 < r0 < rmax):
            raise ConfigError(f"radii must satisfy 0 < r0 < rmax < inf, got r0={r0!r} rmax={rmax!r}")
        if r0 <= space.R:
            raise ConfigError(f"radii.r0={r0} must exceed the excised radius R={space.R}")
        seed, flag = self.seed, self.corrupt_bochner_sign
        _require([(f"quadrature.{k}", v, "a positive integer", _integer(v) and v > 0)
                  for k, v in self.quadrature.items()]
                 + [("mode", self.mode, "'dual' or 'fd'", self.mode in ("dual", "fd")),
                    ("seed", seed, "a non-negative integer", _integer(seed) and seed >= 0),
                    ("corrupt_bochner_sign", flag, "true or false", isinstance(flag, bool)),
                    ("out", self.out, "a directory name", self.out is None or isinstance(self.out, str))]
                 + [(f"tolerances.{k}", v, "a positive finite number", _real(v) and v > 0)
                    for k, v in self.tolerances.items()]
                 + [(f"trials.{k}", v, "a non-negative integer", _integer(v) and v >= 0)
                    for k, v in self.trials.items()])

    # -- resolved pieces ----------------------------------------------------

    def model_space(self) -> ModelSpace:
        return ModelSpace(**self.section("model"))

    def engine(self) -> DerivativeEngine:
        return DerivativeEngine(mode=self.mode)

    def radii_schedule(self) -> list:
        radii = self.section("radii")
        return [float(r) for r in geometric_radii(radii["r0"], radii["rmax"], radii["count"])]

    def quad_spec(self) -> QuadratureSpec:
        return QuadratureSpec(**self.section("quadrature"))

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))

    def ntrials(self, key: str) -> int:
        return int(self.trials.get(key, DEFAULT_TRIALS[key]))

    def structure(self, model: ModelSpace) -> WeylStructure:
        fam = build_metric(self.family["name"], model, **self.family.get("params", {}))
        lee = build_lee(self.lee["name"], model, **self.lee.get("params", {}))
        return WeylStructure(model, fam, lee)

    def out_dir(self) -> Path:
        path = Path(self.out or os.environ.get(OUT_ENV, "out"))
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use output directory {path}: {exc.strerror}") from exc
        return path

    def resolved(self) -> dict:
        data = asdict(self)
        data["tolerances"] = {**DEFAULT_TOLERANCES, **self.tolerances}
        data["trials"] = {**DEFAULT_TRIALS, **self.trials}
        # the output directory is where the report lives, not an input; keeping
        # it out of the embedded config makes reruns byte-identical
        data.pop("out", None)
        return data


def _require(checks) -> None:
    """Refuse the first (name, value, what it must be, valid) entry that is not valid."""
    for where, value, kind, valid in checks:
        if not valid:
            raise ConfigError(f"{where} must be {kind}, got {value!r}")


def _check_params(where: str, builder, params) -> inspect.Signature:
    """Reject parameters the builder does not take, or required ones left out."""
    if not isinstance(params, dict):
        raise ConfigError(f"{where} must be an object, got {params!r}")
    sig = inspect.signature(builder)
    try:
        sig.bind(None, **params)
    except TypeError as exc:
        accepted = [name for name in sig.parameters if name != "model"]
        raise ConfigError(f"{where} for {builder.__name__}: {exc}; accepted: {accepted}") from exc
    return sig


def _check_value(where: str, param: inspect.Parameter, value) -> None:
    """Require a finite real number, or an integer where the builder takes int; null only for a None default."""
    if value is None and param.default is None:
        return
    whole = param.annotation in (int, "int")
    if not (_integer(value) if whole else _real(value)):
        raise ConfigError(f"{where} must be {'an integer' if whole else 'a finite real number'}, got {value!r}")


def _write_jsonl(path: Path, records: list) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    model = cfg.model_space()
    engine = cfg.engine()
    tol = cfg.tol("identity") if cfg.mode == "dual" else max(cfg.tol("identity"), 1e-5)
    reports = run_suite(
        engine, model, seed=cfg.seed,
        trials=cfg.ntrials("identity"), bochner_trials=cfg.ntrials("bochner"),
        integral_trials=cfg.ntrials("integral"),
        tolerance=tol, bochner_tolerance=cfg.tol("bochner"),
        integral_tolerance=cfg.tol("integral"),
        corrupt_bochner_sign=cfg.corrupt_bochner_sign,
    )
    records = [{"config": cfg.resolved()}]
    ok = True
    for rep in reports:
        records.append(rep.as_dict())
        status = "PASS" if rep.passed else "FAIL"
        ok = ok and rep.passed
        print(f"[{status}] {rep.identity}: max residual {rep.max_residual:.3e} "
              f"(tol {rep.tolerance:g}, {rep.trials} trials)")
    out = cfg.out_dir() / "verify_report.jsonl"
    _write_jsonl(out, records)
    print(f"report: {out}")
    return 0 if ok else 1


def cmd_mass(cfg: RunConfig) -> int:
    model = cfg.model_space()
    engine = cfg.engine()
    ws = cfg.structure(model)
    radii = cfg.radii_schedule()
    quad = cfg.quad_spec()
    matrix, q_matrix, reports = mass_matrix(engine, ws, radii=radii, quad=quad,
                                            tol_conv=cfg.tol("convergence"))
    print("polarized conformal-mass matrix over the horizontal basis:")
    for row in matrix:
        print("  [" + "  ".join(f"{v: .8e}" for v in row) + "]")
    eigs = np.linalg.eigvalsh(matrix)
    print("eigenvalues:", " ".join(f"{v:.8e}" for v in eigs))
    non_conv = [key for key, rep in reports.items() if not rep.converged]
    if non_conv:
        print(f"warning: flux sequence not converged for {non_conv}")

    out = cfg.out_dir()
    records = [{"config": cfg.resolved()},
               {"mass_matrix": matrix.tolist(), "eigenvalues": eigs.tolist(),
                "q_matrix": q_matrix.tolist()}]
    records += [rep.as_dict() for rep in reports.values()]
    _write_jsonl(out / "mass_report.jsonl", records)
    for b in range(model.m):
        key = f"1*X{b + 1}"
        rep = reports[key]
        csv_path = out / f"mass_table_X{b + 1}.csv"
        with open(csv_path, "w") as fh:
            fh.write(CSV_SCHEMA + "\n")
            fh.write("radius,Q_flux,conf_correction,extrapolated\n")
            for r, q, c, e in rep.csv_rows():
                fh.write(f"{r!r},{q!r},{c!r},{e!r}\n")
    print(f"report: {out / 'mass_report.jsonl'}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    model = cfg.model_space()
    engine = cfg.engine()
    ws = cfg.structure(model)
    radii = cfg.radii_schedule()
    quad = cfg.quad_spec()
    name = cfg.sweep["name"]
    param = cfg.sweep.get("param", "beta")
    values = cfg.sweep.get("values", [])
    if not values:
        raise ConfigError("sweep.values is empty")
    tol = cfg.tol("mass")
    factors = [build_scalar(name, model, **{param: value}) for value in values]
    results = gauge_audit(engine, ws, factors, radii=radii, quad=quad, tolerance=tol)
    records = [{"config": cfg.resolved()}]
    ok = True
    for value, f, (audits, pred) in zip(values, factors, results):
        row = {"factor": f.name, param: value, "audits": [a.as_dict() for a in audits],
               "prediction": pred.as_dict()}
        for b, audit in enumerate(audits):
            ok = ok and audit.passed
            status = "PASS" if audit.passed else "FAIL"
            print(f"[{status}] invariance {f.name}({param}={value}) Z=X{b + 1}: "
                  f"rel diff {audit.rel_difference:.3e} (tol {tol:g})")
        pred_ok = pred.rel_error < tol
        ok = ok and pred_ok
        print(f"[{'PASS' if pred_ok else 'FAIL'}] mass-shift prediction {f.name}({param}={value}): "
              f"rel error {pred.rel_error:.3e} (tol {tol:g})")
        records.append(row)
    out = cfg.out_dir() / "sweep_report.jsonl"
    _write_jsonl(out, records)
    print(f"report: {out}")
    return 0 if ok else 1


def cmd_report(cfg: RunConfig, paths: list[str]) -> int:
    """Summarize previously written JSONL reports; exit 1 if any record failed."""
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
            if "identity" in rec:
                status = "PASS" if rec.get("passed") else "FAIL"
                ok = ok and rec.get("passed", False)
                print(f"  [{status}] {rec['identity']}: {rec['max_residual']:.3e}")
            elif "audits" in rec:
                for audit in rec["audits"]:
                    status = "PASS" if audit.get("passed") else "FAIL"
                    ok = ok and audit.get("passed", False)
                    print(f"  [{status}] invariance {rec['factor']} Z={audit['Z']}: "
                          f"{audit['rel_difference']:.3e}")
                # the strict test of cmd_sweep, against the mass tolerance of the file's config
                tol = config["tolerances"]["mass"]
                rel_error = rec["prediction"]["rel_error"]
                ok = ok and rel_error < tol
                print(f"  [{'PASS' if rel_error < tol else 'FAIL'}] mass-shift prediction {rec['factor']}: "
                      f"{rel_error:.3e} (tol {tol:g})")
            elif "mass_matrix" in rec:
                print(f"  mass eigenvalues: {rec['eigenvalues']}")
            elif "Z" in rec:
                conv = "converged" if rec.get("converged") else "NOT CONVERGED"
                ok = ok and rec.get("converged", False)
                print(f"  mass[{rec['Z']}] = {rec['mass']:.8e} ({conv})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylmass",
        description="Verify conformal-connection identities and compute fibered mass integrals.",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV} or ./out)")
    parser.add_argument("--radii", default=None, help="geometric radius schedule r0:rmax:count")
    parser.add_argument("--tol", type=float, default=None, help="override identity/mass tolerance")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", help="run the operator-identity suite")
    sub.add_parser("mass", help="compute the mass quadratic form of the configured family")
    sub.add_parser("sweep", help="audit gauge invariance over a conformal-factor sweep")
    rep = sub.add_parser("report", help="summarize existing JSONL reports")
    rep.add_argument("paths", nargs="+", help="report files to summarize")
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
                return cmd_report(cfg, args.paths)
            cfg.out_dir()  # an unusable output directory is refused before any work
            return {"verify": cmd_verify, "mass": cmd_mass, "sweep": cmd_sweep}[args.command](cfg)
    except (ConfigError, ChartDomainError, MassNotDefinedError, KeyError) as exc:
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
