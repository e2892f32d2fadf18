"""The benchmark's workloads: inputs made from a seed, set-up, one timed
pass through conestab's public functions, and checks against exact values.

A pass returns the program's outputs as plain JSON-able data, so a traced
pass can be compared with an untraced one byte for byte.  ``check`` turns
the outputs of one pass into operation counts, the largest relative gap to
the exact values, and a list of problems (empty when every check holds).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

from conestab import cli, domain, quadrature, stability, trial, verify

import oracle

# The program's 20-member standard battery, fixed here so that the
# benchmark's inputs do not move when the program's defaults do.
BATTERY = (
    {"id": "vertex-a", "kind": "boundary_concentrated", "radius": 0.6, "exponent": 1},
    {"id": "vertex-b", "kind": "boundary_concentrated", "radius": 0.9, "exponent": 1},
    {"id": "vertex-c", "kind": "boundary_concentrated", "radius": 1.2, "exponent": 1},
    {"id": "vertex-d", "kind": "boundary_concentrated", "radius": 0.7, "exponent": 2},
    {"id": "vertex-e", "kind": "boundary_concentrated", "radius": 1.0, "exponent": 2},
    {"id": "vertex-f", "kind": "boundary_concentrated", "radius": 1.3, "exponent": 2},
    {"id": "axis-a", "kind": "radial_bump", "center": 0.8, "radius": 0.5, "exponent": 1},
    {"id": "axis-b", "kind": "radial_bump", "center": 1.2, "radius": 0.7, "exponent": 1},
    {"id": "axis-c", "kind": "radial_bump", "center": 1.6, "radius": 0.9, "exponent": 1},
    {"id": "axis-d", "kind": "radial_bump", "center": 2.0, "radius": 0.8, "exponent": 1},
    {"id": "axis-e", "kind": "radial_bump", "center": 1.0, "radius": 0.8, "exponent": 2},
    {"id": "axis-f", "kind": "radial_bump", "center": 1.5, "radius": 1.0, "exponent": 2},
    {"id": "box-a", "kind": "tensor_bump", "center": 1.0, "half_width": 0.5, "exponent": 1},
    {"id": "box-b", "kind": "tensor_bump", "center": 1.4, "half_width": 0.6, "exponent": 2},
    {"id": "box-c", "kind": "tensor_bump", "center": 0.9, "half_width": 0.35, "exponent": 1},
    {"id": "box-d", "kind": "tensor_bump", "center": 1.8, "half_width": 0.5, "exponent": 2},
    {"id": "deep-a", "kind": "shifted_bump", "center": 0.0, "radius": 0.6, "shift": 2.2},
    {"id": "deep-b", "kind": "shifted_bump", "center": 0.0, "radius": 0.5, "shift": 2.0},
    {"id": "offaxis-a", "kind": "radial_bump", "center": "offaxis:1.4:0.4", "radius": 0.5},
    {"id": "offaxis-b", "kind": "radial_bump", "center": "offaxis:1.8:0.5", "radius": 0.6},
)

# fd-ladder: the closed form must lie within this share of |energy part| +
# |trace part| of the exact second variation.  Measured worst: 6.2e-2
# (axis-a at n=4, a hat field cut by the Gauss panels).
CLOSED_FORM_TOL = 0.1
# invariant-suites: the n=2 witness values against the cutoff oracle.
WITNESS_TOL = 1e-3
MARGIN_SLACK = 1e-8


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    gap: float = 0.0
    problems: list = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def gaps(self, computed, exact, scale) -> None:
        for c, e in zip(computed, exact):
            self.gap = max(self.gap, oracle.rel_gap(c, e, scale))


class FdLadder:
    """`conestab variation` at its CLI defaults on the 8-member default
    battery plus a seeded vertex bump and a seeded interior bump."""

    name = "fd-ladder"
    dims = (3, 4)
    lam = 0.1

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        # Exponent 2 keeps both seeded fields converged at the CLI's 8
        # levels on every seed; see README for the hat fields left out.
        self.fields = list(BATTERY[:8]) + [
            {"id": "seed-vertex", "kind": "boundary_concentrated",
             "radius": round(rng.uniform(0.6, 1.4), 6), "exponent": 2},
            {"id": "seed-interior", "kind": "radial_bump",
             "center": round(rng.uniform(1.0, 2.2), 6),
             "radius": round(rng.uniform(0.5, 0.9), 6), "exponent": 2},
        ]
        self.config = os.path.join(workdir, f"fd-ladder-{os.getpid()}.json")

    def setup(self) -> None:
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"trial_functions": self.fields}, fh)
        for n in self.dims:
            quadrature.sigma_grid(domain.ConeParams(n, self.lam), quadrature.QuadratureSpec())

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.config)

    def trace_fields(self, tracer) -> None:
        pass  # the CLI builds its fields through the traced build_trial

    def run_pass(self):
        out = []
        for n in self.dims:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["variation", "--config", self.config,
                                 "--n", str(n), "--lambda", repr(self.lam)])
            out.append({"n": n, "exit": code, "report": buf.getvalue()})
        return out

    def check(self, outputs) -> Check:
        chk = Check()
        for run in outputs:
            n = run["n"]
            reports = json.loads(run["report"]).get("results", [])
            chk.expect(len(reports) == len(self.fields), f"n={n}: {len(reports)} reports")
            failed_here = 0
            for desc, rep in zip(self.fields, reports):
                chk.attempted += 1
                where = f"n={n} {desc['id']}"
                first, second = rep["first_variation"], rep["second_variation_fd"]
                if not (first["converged"] and second["converged"]):
                    failed_here += 1
                    continue
                closed = float(rep["closed_form"])
                chk.expect(abs(float(first["extrapolated"])) <= 1e-4,
                           f"{where}: first variation {first['extrapolated']}")
                chk.expect(abs(float(second["extrapolated"]) - closed) <= 0.01 * abs(closed),
                           f"{where}: FD {second['extrapolated']} vs closed form {closed}")
                energy, trace = oracle.energy_and_trace(desc, n, self.lam)
                parts = (0.5 * energy, -0.5 * self.lam * trace)
                scale = abs(parts[0]) + abs(parts[1])
                computed = (float(rep["dirichlet_term"]), float(rep["boundary_term"]), closed)
                chk.gaps(computed, parts + (parts[0] + parts[1],), scale)
                chk.expect(oracle.rel_gap(closed, sum(parts), scale) <= CLOSED_FORM_TOL,
                           f"{where}: closed form {closed} vs exact {sum(parts)}")
            chk.failed += failed_here
            # exit code 3 flags exactly the non-converged reports
            chk.expect(run["exit"] == (3 if failed_here else 0),
                       f"n={n}: exit code {run['exit']} with {failed_here} failed")
        return chk


class MarginSweep:
    """`stability_sweep` on the 20-member battery at lam*/2, lam*, 2 lam*
    for n = 3, 4, 5, the shear check at lam*, and the threshold table."""

    name = "margin-sweep"
    specs = {3: (64, 16, 64, 3.1), 4: (48, 10, 48, 3.1), 5: (32, 8, 32, 3.1)}
    table = range(3, 65)

    def __init__(self, seed: int, workdir: str):
        # The seed does not enter: the inputs are the fixed battery and the
        # lam grid, so seeds vary only the timing noise.
        self.cases = []
        for n, nodes in self.specs.items():
            # 1e-12 below the exact root, so rounding cannot move it across
            star = oracle.lambda_star(n) * (1.0 - 1e-12)
            self.cases.append({
                "n": n, "star": star, "lams": (0.5 * star, star, 2.0 * star),
                "spec": quadrature.QuadratureSpec(*nodes),
                "fields": [trial.build_trial(dict(d), n) for d in BATTERY]})

    def setup(self) -> None:
        for case in self.cases:
            for lam in case["lams"] + (0.0,):
                quadrature.sigma_grid(domain.ConeParams(case["n"], lam), case["spec"])

    def close(self) -> None:
        pass

    def trace_fields(self, tracer) -> None:
        for case in self.cases:
            case["fields"] = [tracer.wrap_field(f) for f in case["fields"]]

    def run_pass(self):
        out = {"sweeps": [], "shear": [], "table": []}
        for case in self.cases:
            n, spec, fields = case["n"], case["spec"], case["fields"]
            for lam in case["lams"]:
                v = stability.stability_sweep(domain.ConeParams(n, lam), fields, spec)
                out["sweeps"].append({
                    "n": n, "lam": lam, "regime": v.regime, "margin": v.margin,
                    "margins": [float(m) for m in v.margins],
                    "witness": v.witness.label if v.witness is not None else None})
            params = domain.ConeParams(n, case["star"])
            out["shear"].append({"n": n, "values": [
                [float(x) for x in stability.shear_transform_check(params, f, spec)]
                for f in fields]})
        for n in self.table:
            thr = stability.lambda_star(n)
            out["table"].append([thr.n, thr.k_n, thr.lambda_star, thr.residual])
        return out

    def check(self, outputs) -> Check:
        chk = Check()
        stars = {case["n"]: case["star"] for case in self.cases}
        for sweep in outputs["sweeps"]:
            chk.attempted += 1
            n, lam = sweep["n"], sweep["lam"]
            where = f"n={n} lam={lam:.6g}"
            exact = [oracle.energy_and_trace(d, n, lam) for d in BATTERY]
            for desc, margin, et in zip(BATTERY, sweep["margins"], exact):
                if et is not None:
                    energy, trace = et
                    chk.gaps([margin], [energy - lam * trace], energy + lam * trace)
            stable = lam <= stars[n]
            chk.expect((sweep["regime"] == stability.PROVEN_STABLE) == stable,
                       f"{where}: regime {sweep['regime']}")
            if stable:
                chk.expect(min(sweep["margins"]) >= -MARGIN_SLACK,
                           f"{where}: margin {min(sweep['margins'])} below -{MARGIN_SLACK}")
            if sweep["regime"] == stability.UNSTABLE:
                ids = [d["id"] for d in BATTERY]
                k = ids.index(sweep["witness"]) if sweep["witness"] in ids else None
                chk.expect(k is not None and exact[k] is not None
                           and exact[k][0] - lam * exact[k][1] < 0.0,
                           f"{where}: witness {sweep['witness']} has no negative exact margin")
                chk.expect(k is not None and sweep["margin"] == sweep["margins"][k],
                           f"{where}: witness margin differs from its sweep margin")
        for shear in outputs["shear"]:
            n = shear["n"]
            lam, k_n = stars[n], oracle.kato_constant(n)
            cfac = k_n / (1.0 + lam) ** 2
            for desc, (energy_f, energy_g, trace) in zip(BATTERY, shear["values"]):
                chk.attempted += 1
                links = (energy_f - cfac * trace, (cfac - lam) * trace,
                         (1.0 + lam) ** 2 * energy_f - energy_g, energy_g - k_n * trace)
                chk.expect(min(links) >= -MARGIN_SLACK,
                           f"n={n} {desc['id']}: chain link slack {min(links)}")
                et = oracle.energy_and_trace(desc, n, lam)
                if et is not None:
                    chk.gaps([energy_f, lam * trace], [et[0], lam * et[1]],
                             et[0] + lam * et[1])
        for n, k_n, lam_star, residual in outputs["table"]:
            chk.attempted += 1
            k_exact, star_exact = oracle.kato_constant(n), oracle.lambda_star(n)
            chk.expect(abs(k_n - k_exact) <= 1e-12 * k_exact, f"K_{n} = {k_n} vs {k_exact}")
            chk.expect(abs(lam_star - star_exact) <= 1e-12 * star_exact,
                       f"lam*({n}) = {lam_star} vs {star_exact}")
            chk.expect(abs(residual) <= 1e-12 * k_exact
                       and abs(lam_star * (1.0 + lam_star) ** 2 - k_exact) <= 1e-12 * k_exact,
                       f"lam*({n}) residual {residual}")
        return chk


class InvariantSuites:
    """The jacobian, foliation and remainder suites on seeded samples, the
    corrupted-closed-form negative control, and the n=2 witness."""

    name = "invariant-suites"
    # The jacobian suite's random coefficient draws (dims) fail its 1e-10
    # tolerance on some seeds (see CHANGES.md), so they are left out; its
    # flow samples still run all three routes and the remainder split.
    sizes = {"flow_samples": 100_000, "dims": ()}
    pairs = 8000
    points = 10_000
    witness_lam = 1.0
    epsilons = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.spec = quadrature.QuadratureSpec(128, 2, 128, 1.5)
        self.params = domain.ConeParams(2, self.witness_lam)
        self.field = trial.make_boundary_bump(1.0, 2, label="witness")

    def setup(self) -> None:
        quadrature.sigma_grid(self.params, self.spec)

    def close(self) -> None:
        pass

    def trace_fields(self, tracer) -> None:
        self.field = tracer.wrap_field(self.field)

    def run_pass(self):
        out = {}
        for name, result in (
                ("jacobian", verify.jacobian_suite(seed=self.seed, **self.sizes)),
                ("foliation", verify.foliation_suite(self.pairs, seed=self.seed)),
                ("remainder", verify.remainder_suite(self.points, seed=self.seed)),
                ("negative-control", verify.jacobian_suite(
                    seed=self.seed, corrupt_closed_form=True, **self.sizes))):
            out[name] = {"passed": result.passed, "worst": float(result.worst_error),
                         "samples": result.samples, "detail": result.detail}
        v = stability.instability_witness_n2(self.params, self.epsilons, spec=self.spec,
                                             f=self.field)
        out["witness"] = {"regime": v.regime, "values": [float(m) for m in v.margins]}
        return out

    def check(self, outputs) -> Check:
        chk = Check()
        for name in ("jacobian", "foliation", "remainder"):
            chk.attempted += 1
            chk.expect(outputs[name]["passed"], f"{name} suite failed: {outputs[name]['detail']}")
        chk.attempted += 1
        chk.expect(not outputs["negative-control"]["passed"], "negative control passed")
        chk.attempted += 1
        witness = outputs["witness"]
        chk.expect(witness["regime"] == stability.UNSTABLE, f"witness {witness['regime']}")
        values = witness["values"]
        if len(values) == len(self.epsilons):
            logs = [math.log(1.0 / e) for e in self.epsilons]
            mean_x, mean_y = sum(logs) / len(logs), sum(values) / len(values)
            slope = (sum((x - mean_x) * (y - mean_y) for x, y in zip(logs, values))
                     / sum((x - mean_x) ** 2 for x in logs))
            lam = self.witness_lam
            chk.expect(abs(slope + lam) <= 0.1 * lam, f"witness slope {slope}")
            energy, _ = oracle.energy_and_trace(
                {"kind": "boundary_concentrated", "radius": 1.0}, 2, lam)
            for eps, value in zip(self.epsilons, values):
                trace = oracle.vertex_cutoff_trace(lam, 1.0, 1, eps)
                exact = 0.5 * energy - 0.5 * lam * trace
                scale = 0.5 * energy + 0.5 * lam * trace
                chk.gaps([value], [exact], scale)
                chk.expect(oracle.rel_gap(value, exact, scale) <= WITNESS_TOL,
                           f"witness value {value} vs exact {exact} at eps={eps}")
        else:
            chk.problems.append(f"witness returned {len(values)} values")
        return chk


WORKLOADS = {w.name: w for w in (FdLadder, MarginSweep, InvariantSuites)}
