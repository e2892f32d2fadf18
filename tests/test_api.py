"""Guards on the public surface: the package exports and the functions the
benchmark's traced run wraps by name or its workloads call."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import conestab

# A change to this list is a public-API change: record it in CHANGES.md.
PUBLIC_API = [
    "ConeParams", "ConeStabError", "ConfigError",
    "DivergentBoundaryIntegral", "FlowCoefficients", "JacobianPositivityError",
    "LiminfEstimate", "MembershipError", "QuadratureError",
    "QuadratureSpec", "StabilityVerdict", "ThresholdResult", "TrialFunction",
    "VariationReport", "area", "boundary_integral", "build_trial",
    "classify_ambient_point", "dirichlet_energy", "domain", "errors", "flow",
    "foliation_lipschitz_bound", "gamma_curve", "instability_witness_n2",
    "integrate_sigma", "jacobian", "jacobian_closed_form",
    "jacobian_gram_oracle", "kato_constant", "lambda_star", "liminf_quotient",
    "make_boundary_bump", "make_radial_bump", "make_shifted_bump", "make_tensor_bump",
    "omega_profile", "quadrature", "remainder", "remainder_uniform_bound", "scaled",
    "shear_transform_check", "stability",
    "stability_sweep", "standard_battery", "trial", "variation", "variation_report",
    "wedge_expansion",
]

# The public names of the modules the benchmark and the tests reach into
# directly; a change to one of these lists is a public-API change too.
MODULE_API = {
    "flow": ["FlowCoefficients", "flow_coefficients_batch"],
    "jacobian": ["jacobian_closed_form", "jacobian_gram_oracle", "remainder",
                 "remainder_uniform_bound", "wedge_expansion"],
    "quadrature": ["LiminfEstimate", "QuadratureSpec", "boundary_integral",
                   "compensated_sum", "gauss_legendre", "integrate_sigma",
                   "liminf_quotient", "sigma_grid", "sphere_grid", "trace_grid",
                   "trace_span"],
    "variation": ["LogDivergenceCertificate", "VariationReport", "area", "dirichlet_energy",
                  "variation_report"],
    "verify": ["SuiteResult", "foliation_suite", "jacobian_suite", "kato_suite",
               "remainder_suite"],
}

# Each RunConfig field is printed in the `config` of every report, and the
# run_suites keywords are the `samples` counts and the seed of `verify`: a
# change to either list is a report-schema change, recorded in CHANGES.md.
RUN_CONFIG_FIELDS = ["n", "lam", "t0", "levels", "epsilons", "seed", "quadrature",
                     "trial_functions", "format", "out", "samples"]
RUN_SUITES_KEYWORDS = ["random_draws", "flow_samples", "pairs", "points", "battery_size",
                       "seed"]


def _bench_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_api_is_pinned():
    assert sorted(conestab.__all__) == sorted(PUBLIC_API)



def test_report_config_schema_is_pinned():
    from conestab import cli, verify
    assert [f.name for f in dataclasses.fields(cli.RunConfig)] == RUN_CONFIG_FIELDS
    assert list(inspect.signature(verify.run_suites).parameters) == RUN_SUITES_KEYWORDS


@pytest.mark.parametrize("name", sorted(MODULE_API))
def test_module_public_names_are_pinned(name):
    module = importlib.import_module(f"conestab.{name}")
    assert sorted(module.__all__) == sorted(MODULE_API[name])
    assert all(hasattr(module, attr) for attr in module.__all__)


def test_benchmark_trace_targets_resolve():
    spans = _bench_spans()
    for layer, name, _ in spans.TARGETS:
        module = importlib.import_module(f"conestab.{layer}")
        assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"
    trial = importlib.import_module("conestab.trial")
    for name in spans.FIELD_FACTORIES:
        assert inspect.isfunction(getattr(trial, name, None)), f"trial.{name}"


def test_benchmark_entry_points_keep_their_signatures():
    """The workloads build QuadratureSpec positionally from its first four
    fields and call sigma_grid(params, spec) in their set-ups; the traced
    run keeps a weak reference to the node array sigma_grid returns.  The
    invariant-suites workload calls three suites with these arguments."""
    from conestab import verify
    from conestab.domain import ConeParams
    from conestab.quadrature import QuadratureSpec, sigma_grid
    inspect.signature(verify.jacobian_suite).bind(
        seed=1, flow_samples=100, dims=(), corrupt_closed_form=True)
    inspect.signature(verify.foliation_suite).bind(8000, seed=1)
    inspect.signature(verify.remainder_suite).bind(10_000, seed=1)
    assert [f.name for f in dataclasses.fields(QuadratureSpec)][:4] == [
        "radial_nodes", "angular_nodes", "box_nodes_per_axis", "support_radius"]
    assert list(inspect.signature(sigma_grid).parameters) == ["params", "spec"]
    out = sigma_grid(ConeParams(2, 1.0), QuadratureSpec(128, 2, 128, 1.5))
    assert len(out) == 3 and all(isinstance(a, np.ndarray) for a in out)
    assert weakref.ref(out[0])() is out[0]


def test_estimator_and_sample_keep_their_signatures():
    """liminf_quotient takes a ladder and its values as arrays, not a
    callable."""
    from conestab.quadrature import liminf_quotient
    assert list(inspect.signature(liminf_quotient).parameters) == ["parameters", "f0", "values"]


def test_one_block_planner_samples_every_battery():
    """Scanning the package's source: _rule_nodes and _slice_rules, which
    count and build a field's rule, are called only by the battery pass,
    which plans every battery's blocks and evaluates every field on its
    rule; no second planner or sampler (_blocks, support_samples,
    support_sample), no second reduction of |grad f|^2 (_energy_terms) and
    no one-field closed form or cutoff ladder beside the reports'
    (second_variation_closed_form, cutoff_ladder) is defined."""
    callers, defined = {"_rule_nodes": set(), "_slice_rules": set()}, set()
    for path in Path(conestab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
                for call in ast.walk(node):
                    name = isinstance(call, ast.Call) and getattr(
                        call.func, "id", getattr(call.func, "attr", None))
                    if name in callers:
                        callers[name].add(node.name)
    assert callers == {"_rule_nodes": {"_battery_pass"}, "_slice_rules": {"_battery_pass"}}
    assert "_battery_pass" in defined
    assert not defined & {"_blocks", "support_samples", "support_sample", "_energy_terms",
                          "second_variation_closed_form", "cutoff_ladder"}


def test_input_table_has_a_row_for_each_key_the_program_reads():
    """The input table's keys are the keys the program accepts, no more: the
    config keys, the QuadratureSpec fields, the samples counts (the
    run_suites keywords but the seed) and the descriptor keys build_trial
    takes; a descriptor key's readers are the kinds that accept it.  So no
    new key can skip the table's check."""
    from conestab import cli, trial, verify
    from conestab._inputs import INPUTS
    from conestab.quadrature import QuadratureSpec
    quad = tuple(f.name for f in dataclasses.fields(QuadratureSpec))
    samples = tuple(k for k in inspect.signature(verify.run_suites).parameters if k != "seed")
    descriptor = set(re.findall(r'take\("(\w+)"', inspect.getsource(trial.build_trial)))
    assert INPUTS["quadrature"].span == quad and INPUTS["samples"].span == samples
    assert set(INPUTS) == cli._CONFIG_KEYS | set(quad) | set(samples) | descriptor
    assert set(cli._FLAGS) <= cli._CONFIG_KEYS | set(quad)
    valid = {"id": "f", "exponent": 2, "scale": 0.5, "center": 1.0, "radius": 0.5,
             "half_width": 0.5, "shift": 1.0}
    for kind in INPUTS["kind"].span:
        reads = {key for key in descriptor if kind in INPUTS[key].readers.split()}
        desc = {"kind": kind, **{key: valid[key] for key in reads - {"kind"}}}
        assert trial.build_trial(desc, 3).label == "0.5*f"
        for key in sorted(descriptor - reads):
            with pytest.raises(ValueError, match="unknown keys"):
                trial.build_trial({**desc, key: valid[key]}, 3)
