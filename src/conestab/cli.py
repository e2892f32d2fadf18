"""Command-line front end: threshold tables, variation reports, stability
sweeps, the two-dimensional divergence witness, and the invariant suites.

Reports are deterministic: a fixed (config, seed) pair produces
byte-identical JSON, so runs can be referenced from documentation.  All
real numbers are emitted as decimal strings at full (round-trip)
precision; CSV rows carry the same digits.

Exit codes: 0 success, 2 invalid config, 3 quadrature failure, 4
invariant-suite failure, 5 unstable witness found (informational).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from . import __version__
from ._inputs import INPUTS, check
from .domain import ConeParams
from .errors import ConeStabError, ConfigError, QuadratureError
from .quadrature import QuadratureSpec
from .stability import (UNSTABLE, instability_witness_n2, lambda_star,
                        stability_sweep)
from .trial import battery_descriptors, build_trial
from .variation import DEFAULT_CUTOFFS, DEFAULT_LEVELS, _variation_reports
from .verify import run_suites

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3
EXIT_SUITE_FAILURE = 4
EXIT_WITNESS = 5

SUITE_VERSIONS = {"package": None, "jacobian": "3", "foliation": "1",
                  "remainder": "1", "kato": "1"}
DISCREPANCY_RTOL = 0.01  # `variation` exits 3 when |FD - closed form| exceeds this part of it

# The config keys that a flag of the same name overrides; None marks a flag not set.
_FLAGS = ("n", "lambda", "t0", "levels", "seed", "format", "out")


@dataclasses.dataclass
class RunConfig:
    n: int = 3
    lam: float = 0.5
    t0: float | None = None
    levels: int = DEFAULT_LEVELS
    epsilons: tuple = DEFAULT_CUTOFFS
    seed: int = 20260810
    quadrature: QuadratureSpec = dataclasses.field(default_factory=QuadratureSpec)
    trial_functions: tuple = ()
    format: str = "json"
    out: str | None = None
    samples: dict = dataclasses.field(default_factory=dict)


# The config file's keys: the RunConfig fields, with lam spelled lambda.
_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)} - {"lam"} | {"lambda"}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """The config file at ``path`` (None: the defaults) under the flags set
    in ``overrides``, each value checked against its row of the input table
    before any work starts."""
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: also int > 4300 digits
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    quad, samples = (check(k, raw.pop(k, {})) for k in ("quadrature", "samples"))
    flags = {k: overrides[k] for k in _FLAGS if overrides.get(k) is not None}
    cfg = RunConfig(quadrature=QuadratureSpec(**quad),
                    samples={k: check(k, v) for k, v in samples.items()})
    for key, value in {**raw, **flags}.items():
        name = "lam" if key == "lambda" else key
        if value is not None or getattr(cfg, name) is not None:  # t0 and out may be null
            setattr(cfg, name, check(key, value))
    return cfg


# -- serialization -------------------------------------------------------------

def _jsonable(obj):
    """Recursive converter; floats become full-precision decimal strings."""
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))  # np.float64 subclasses float but reprs as np.float64(...)
    if isinstance(obj, np.ndarray):
        return ([repr(v) for v in obj.tolist()] if obj.dtype.kind == "f" and obj.ndim == 1
                else _jsonable(obj.tolist()))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if obj.__class__.__name__ == "TrialFunction":
            return {"label": obj.label, "descriptor": _jsonable(obj.descriptor)}
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report to {out}: {exc}") from exc


def _publish(cfg: RunConfig, results, header, rows) -> None:
    """Write the report on ``results`` to cfg.out: JSON, or with format csv
    the ``rows`` under ``header``, floats at full precision either way."""
    if cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
        text = buf.getvalue()
    else:
        config = _jsonable(cfg)
        config["lambda"] = config.pop("lam")
        text = json.dumps({"config": config, "results": _jsonable(results),
                           "suite_versions": dict(SUITE_VERSIONS, package=__version__)},
                          indent=2, sort_keys=True) + "\n"
    _write(text, cfg.out)


def _trial_functions(cfg: RunConfig):
    out = []
    for desc in cfg.trial_functions or battery_descriptors(8):
        try:
            out.append(build_trial(desc, cfg.n))
        except (KeyError, ValueError) as exc:  # KeyError: a key the kind needs is missing
            raise ConfigError(f"bad trial descriptor {desc!r}: {exc}") from exc
    return out


# -- subcommands ----------------------------------------------------------------

def cmd_threshold(args) -> int:
    cfg = load_config(None, vars(args))
    n_min, n_max = check("n", args.n_min), check("n", args.n_max)  # lambda_star refuses n = 2
    if n_min > n_max:
        raise ConfigError(f"threshold: empty range, --n-min {n_min} exceeds --n-max {n_max}")
    header = ["n", "k_n", "lambda_star", "aperture", "residual"]
    rows = []
    for n in range(n_min, n_max + 1):
        thr = lambda_star(n)
        aperture = ConeParams(n, thr.lambda_star).aperture
        rows.append((n, thr.k_n, thr.lambda_star, aperture, thr.residual))
    _publish(cfg, [dict(zip(header, row)) for row in rows], header, rows)
    return EXIT_OK


def cmd_variation(args) -> int:
    cfg = load_config(args.config, vars(args))
    params = ConeParams(cfg.n, cfg.lam)
    reports = _variation_reports(params, _trial_functions(cfg), cfg.t0, cfg.levels,
                                 cfg.quadrature, cfg.epsilons)
    _publish(cfg, reports, ["n", "lambda", "trial_id", "first_variation", "first_converged",
                            "second_variation", "second_converged", "closed_form",
                            "dirichlet_term", "boundary_term", "discrepancy"],
             [(cfg.n, cfg.lam, r.label, r.first_variation.extrapolated,
               int(r.first_variation.converged), r.second_variation_fd.extrapolated,
               int(r.second_variation_fd.converged), r.closed_form, r.dirichlet_term,
               r.boundary_term, r.discrepancy) for r in reports])
    if any(r.divergent for r in reports):
        return EXIT_WITNESS
    ok = all(r.first_variation.converged and r.second_variation_fd.converged
             and r.discrepancy <= DISCREPANCY_RTOL * max(1e-12, abs(r.closed_form))
             for r in reports)
    return EXIT_OK if ok else EXIT_QUADRATURE


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, vars(args))
    verdict = stability_sweep(ConeParams(cfg.n, cfg.lam), _trial_functions(cfg), cfg.quadrature)
    _publish(cfg, verdict, ["n", "lambda", "regime", "margin", "witness"],
             [(cfg.n, cfg.lam, verdict.regime, "" if verdict.margin is None else verdict.margin,
               verdict.witness.label if verdict.witness else "")])
    return EXIT_WITNESS if verdict.regime == UNSTABLE else EXIT_OK


def cmd_witness_n2(args) -> int:
    cfg = dataclasses.replace(load_config(args.config, vars(args)), n=2)
    if not cfg.lam > 0.0:
        raise ConfigError("witness-n2 requires lambda > 0")
    verdict = instability_witness_n2(ConeParams(cfg.n, cfg.lam), cfg.epsilons, spec=cfg.quadrature)
    _publish(cfg, verdict, ["n", "lambda", "regime", "margin", "detail"],
             [(cfg.n, cfg.lam, verdict.regime, "" if verdict.margin is None else verdict.margin,
               verdict.detail)])
    if verdict.regime == UNSTABLE:
        return EXIT_WITNESS
    return EXIT_QUADRATURE  # failed fit signals quadrature misconfiguration


def cmd_verify(args) -> int:
    cfg = load_config(args.config, vars(args))
    results = run_suites(seed=cfg.seed, **cfg.samples)
    _publish(cfg, results, ["suite", "passed", "worst_error", "samples", "detail"],
             [(r.name, int(r.passed), r.worst_error, r.samples, r.detail) for r in results])
    return EXIT_OK if all(r.passed for r in results) else EXIT_SUITE_FAILURE


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors, which exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conestab",
        description="Stability toolkit for the free-boundary half-plane in a "
                    "convex circular cone")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="trace constants and threshold apertures")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_threshold)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    for key in _FLAGS:  # a number as its row's kind; load_config checks each value
        common.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                            type={"int": int, "float": float}.get(INPUTS[key].kind, str))
    for name, func, text in (
            ("variation", cmd_variation, "first/second variation reports"),
            ("sweep", cmd_sweep, "stability margins over a battery (n >= 3)"),
            ("witness-n2", cmd_witness_n2, "two-dimensional divergence witness"),
            ("verify", cmd_verify, "run the randomized invariant suites")):
        sub.add_parser(name, parents=[common], help=text).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConeStabError as exc:
        code = EXIT_QUADRATURE if isinstance(exc, QuadratureError) else EXIT_CONFIG
        _write(json.dumps({"error": {"code": code, "message": str(exc)}},
                          sort_keys=True) + "\n", None)
        return code


if __name__ == "__main__":
    sys.exit(main())
