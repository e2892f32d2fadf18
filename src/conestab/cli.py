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
import math
import os
import sys

import numpy as np

from . import __version__
from .domain import ConeParams
from .errors import ConeStabError, ConfigError, QuadratureError
from .quadrature import QuadratureSpec
from .stability import (UNSTABLE, instability_witness_n2, lambda_star,
                        stability_sweep)
from .trial import _integral, battery_descriptors, build_trial
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

# Each QuadratureSpec field with the type of its default (int or float).
_QUAD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(QuadratureSpec)}
_SAMPLE_KEYS = {"random_draws", "flow_samples", "pairs", "points", "battery_size"}


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
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    cfg = RunConfig()
    for key in ("quadrature", "samples"):
        if not isinstance(merged.get(key, {}), dict):
            raise ConfigError(f"{key} must be a JSON object")
    try:
        if "n" in merged:
            cfg.n = _integral("n", merged["n"])
        if "lambda" in merged:
            cfg.lam = float(merged["lambda"])
        ConeParams(cfg.n, cfg.lam)  # validates n and lambda
        if "t0" in merged and merged["t0"] is not None:
            cfg.t0 = float(merged["t0"])
        if "levels" in merged:
            cfg.levels = _integral("levels", merged["levels"])
        if "epsilons" in merged:
            eps = tuple(float(e) for e in merged["epsilons"])
            # the divergence witness fits a line to at least three cutoffs
            if len(set(eps)) < max(3, len(eps)) or any(not 0.0 < e < 1.0 for e in eps):
                raise ConfigError("epsilons must be at least three cutoffs in (0, 1), distinct")
            cfg.epsilons = tuple(sorted(eps, reverse=True))
        if "seed" in merged:
            cfg.seed = _integral("seed", merged["seed"])
        quad = merged.get("quadrature", {})
        unknown = set(quad) - set(_QUAD_TYPES)
        if unknown:
            raise ConfigError(f"unknown quadrature keys: {sorted(unknown)}")
        quad = {k: _integral(k, v) if _QUAD_TYPES[k] is int else float(v)
                for k, v in quad.items()}
        if "epsilon_cutoff" in merged:  # the --epsilon-cutoff flag
            quad["epsilon_cutoff"] = float(merged["epsilon_cutoff"])
        cfg.quadrature = QuadratureSpec(**quad)
        if "trial_functions" in merged:
            tf = merged["trial_functions"]
            if not isinstance(tf, (list, tuple)) or not tf:
                raise ConfigError("trial_functions must be a non-empty list of descriptors "
                                  "(leave the key out for the default battery)")
            cfg.trial_functions = tuple(tf)
        if "format" in merged:
            if merged["format"] not in ("json", "csv"):
                raise ConfigError(f"format must be json or csv, got {merged['format']!r}")
            cfg.format = merged["format"]
        if "out" in merged:
            cfg.out = merged["out"]
        if "samples" in merged:
            smp = merged["samples"]
            unknown = set(smp) - _SAMPLE_KEYS
            if unknown:
                raise ConfigError(f"unknown sample keys: {sorted(unknown)}")
            cfg.samples = {k: _integral(k, v) for k, v in smp.items()}
            if any(v <= 0 for v in cfg.samples.values()):
                raise ConfigError("sample counts must be positive")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    # the second variation's ladder starts at t0^2, which must not underflow
    if cfg.t0 is not None and not (math.isfinite(cfg.t0) and cfg.t0 > 0.0
                                   and cfg.t0 * cfg.t0 > 0.0):
        raise ConfigError(f"t0 must be finite and > 0 with t0^2 > 0, got {cfg.t0}")
    if cfg.levels < 3:
        raise ConfigError(f"levels must be >= 3, got {cfg.levels}")
    _check_out(cfg.out)
    return cfg


# -- serialization -------------------------------------------------------------

def _jsonable(obj):
    """Recursive converter; floats become full-precision decimal strings."""
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))  # np.float64 subclasses float but reprs as np.float64(...)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if obj.__class__.__name__ == "TrialFunction":
            return {"label": obj.label, "descriptor": _jsonable(obj.descriptor)}
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _config_payload(cfg: RunConfig):
    d = dataclasses.asdict(cfg)
    d["lambda"] = d.pop("lam")
    return _jsonable(d)


def _emit(payload: dict, cfg: RunConfig, csv_rows=None, csv_header=None) -> str:
    """Render the report; JSON unless csv requested and rows provided."""
    if cfg.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        return buf.getvalue()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _check_out(out: str | None):
    """Fail before any computation when the report cannot be written to
    ``out``: its directory must exist and be writable."""
    if out is None or out == "-":
        return
    folder = os.path.dirname(os.path.abspath(out))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError(f"cannot write report to {out}: {folder} is not a writable directory")


def _write(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report to {out}: {exc}") from exc


def _report(cfg: RunConfig, results) -> dict:
    versions = dict(SUITE_VERSIONS)
    versions["package"] = __version__
    return {"config": _config_payload(cfg), "results": _jsonable(results),
            "suite_versions": versions}


def _trial_functions(cfg: RunConfig):
    descs = cfg.trial_functions or tuple(battery_descriptors(8))
    out = []
    for desc in descs:
        if not isinstance(desc, dict):
            raise ConfigError("trial-function descriptors must be objects")
        try:
            out.append(build_trial(dict(desc), cfg.n))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad trial descriptor {desc!r}: {exc}") from exc
    return out


# -- subcommands ----------------------------------------------------------------

def cmd_threshold(args) -> int:
    cfg = load_config(None, _overrides(args))
    n_min, n_max = args.n_min, args.n_max
    if n_min < 3 or n_max > 64:
        raise ConfigError("threshold: range must lie within [3, 64]")
    if n_min > n_max:
        raise ConfigError(f"threshold: empty range, --n-min {n_min} exceeds --n-max {n_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        thr = lambda_star(n)
        aperture = ConeParams(n, thr.lambda_star).aperture
        rows.append((n, thr.k_n, thr.lambda_star, aperture, thr.residual))
    payload = _report(cfg, [{"n": r[0], "k_n": r[1], "lambda_star": r[2],
                             "aperture": r[3], "residual": r[4]} for r in rows])
    text = _emit(payload, cfg, csv_rows=rows,
                 csv_header=["n", "k_n", "lambda_star", "aperture", "residual"])
    _write(text, cfg.out)
    return EXIT_OK


def _variation_rows(cfg: RunConfig, reports):
    return [(cfg.n, cfg.lam, r.label, r.first_variation.extrapolated,
             int(r.first_variation.converged), r.second_variation_fd.extrapolated,
             int(r.second_variation_fd.converged), r.closed_form, r.dirichlet_term,
             r.boundary_term, r.discrepancy) for r in reports]


def cmd_variation(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    params = ConeParams(cfg.n, cfg.lam)
    reports = _variation_reports(params, _trial_functions(cfg), cfg.t0, cfg.levels, cfg.quadrature)
    payload = _report(cfg, reports)
    header = ["n", "lambda", "trial_id", "first_variation", "first_converged",
              "second_variation", "second_converged", "closed_form",
              "dirichlet_term", "boundary_term", "discrepancy"]
    _write(_emit(payload, cfg, _variation_rows(cfg, reports), header), cfg.out)
    if any(r.divergent for r in reports):
        return EXIT_WITNESS
    ok = all(r.first_variation.converged and r.second_variation_fd.converged
             and r.discrepancy <= DISCREPANCY_RTOL * max(1e-12, abs(r.closed_form))
             for r in reports)
    return EXIT_OK if ok else EXIT_QUADRATURE


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    if cfg.n < 3:
        raise ConfigError("sweep requires n >= 3; use witness-n2 for n = 2")
    params = ConeParams(cfg.n, cfg.lam)
    verdict = stability_sweep(params, _trial_functions(cfg), cfg.quadrature)
    payload = _report(cfg, verdict)
    rows = [(cfg.n, cfg.lam, verdict.regime,
             verdict.margin if verdict.margin is not None else "",
             verdict.witness.label if verdict.witness else "")]
    header = ["n", "lambda", "regime", "margin", "witness"]
    _write(_emit(payload, cfg, rows, header), cfg.out)
    return EXIT_WITNESS if verdict.regime == UNSTABLE else EXIT_OK


def cmd_witness_n2(args) -> int:
    cfg = dataclasses.replace(load_config(args.config, _overrides(args)), n=2)
    if not cfg.lam > 0.0:
        raise ConfigError("witness-n2 requires lambda > 0")
    params = ConeParams(cfg.n, cfg.lam)
    verdict = instability_witness_n2(params, cfg.epsilons, spec=cfg.quadrature)
    payload = _report(cfg, verdict)
    rows = [(cfg.n, cfg.lam, verdict.regime,
             verdict.margin if verdict.margin is not None else "", verdict.detail)]
    _write(_emit(payload, cfg, rows, ["n", "lambda", "regime", "margin", "detail"]),
           cfg.out)
    if verdict.regime == UNSTABLE:
        return EXIT_WITNESS
    return EXIT_QUADRATURE  # failed fit signals quadrature misconfiguration


def cmd_verify(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    results = run_suites(seed=cfg.seed, **cfg.samples)
    payload = _report(cfg, results)
    rows = [(r.name, int(r.passed), r.worst_error, r.samples, r.detail)
            for r in results]
    _write(_emit(payload, cfg, rows,
                 ["suite", "passed", "worst_error", "samples", "detail"]), cfg.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_SUITE_FAILURE


def _overrides(args) -> dict:
    """Command-line values; load_config drops the flags left unset (None)."""
    return {k: getattr(args, k, None)
            for k in ("n", "lambda", "t0", "levels", "seed", "format", "out",
                      "epsilon_cutoff")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--lambda", dest="lambda", type=float, default=None)
        p.add_argument("--t0", type=float, default=None)
        p.add_argument("--levels", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--epsilon-cutoff", dest="epsilon_cutoff", type=float,
                       default=None)

    p = sub.add_parser("variation", help="first/second variation reports")
    common(p)
    p.set_defaults(func=cmd_variation)

    p = sub.add_parser("sweep", help="stability margins over a battery (n >= 3)")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("witness-n2", help="two-dimensional divergence witness")
    common(p)
    p.set_defaults(func=cmd_witness_n2)

    p = sub.add_parser("verify", help="run the randomized invariant suites")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConeStabError as exc:
        code = EXIT_QUADRATURE if isinstance(exc, QuadratureError) else EXIT_CONFIG
        _write(json.dumps({"error": {"code": code, "message": str(exc)}},
                          sort_keys=True) + "\n", None)
        return code


if __name__ == "__main__":
    sys.exit(main())
