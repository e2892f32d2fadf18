"""Guards on the public surface: the package exports and the functions the
benchmark's traced run wraps by name."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import conestab

# A change to this list is a public-API change: record it in CHANGES.md.
PUBLIC_API = [
    "AmbientPoint", "ConeParams", "ConeStabError", "ConfigError",
    "DivergentBoundaryIntegral", "FlowCoefficients", "JacobianPositivityError",
    "LiminfEstimate", "MembershipError", "PlanePoint", "QuadratureError",
    "QuadratureSpec", "StabilityVerdict", "ThresholdResult", "TrialFunction",
    "VariationReport", "area", "boundary_integral", "build_trial",
    "classify_ambient_point", "dirichlet_energy", "domain", "errors", "flow",
    "foliation_lipschitz_bound", "gamma_curve", "instability_witness_n2",
    "integrate_sigma", "jacobian", "jacobian_closed_form",
    "jacobian_gram_oracle", "kato_constant", "lambda_star", "liminf_quotient",
    "make_boundary_bump", "make_radial_bump", "make_shifted_bump", "make_tensor_bump",
    "omega_profile", "quadrature", "remainder", "remainder_uniform_bound", "scaled",
    "second_variation_closed_form", "shear_transform_check", "stability",
    "stability_sweep", "standard_battery", "trial", "variation", "variation_report",
    "wedge_expansion",
]


def _bench_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_api_is_pinned():
    assert sorted(conestab.__all__) == sorted(PUBLIC_API)


def test_benchmark_trace_targets_resolve():
    spans = _bench_spans()
    for layer, name, _ in spans.TARGETS:
        module = importlib.import_module(f"conestab.{layer}")
        assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"
    trial = importlib.import_module("conestab.trial")
    for name in spans.FIELD_FACTORIES:
        assert inspect.isfunction(getattr(trial, name, None)), f"trial.{name}"
