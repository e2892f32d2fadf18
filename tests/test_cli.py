"""CLI subcommands: schemas, exit codes, determinism, CSV/JSON parity."""

import contextlib
import csv
import io
import json
import math
import warnings

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conestab import cli, quadrature, stability, variation, verify
from conestab.trial import battery_descriptors
from conestab.cli import (EXIT_CONFIG, EXIT_OK, EXIT_QUADRATURE, EXIT_SUITE_FAILURE,
                          EXIT_WITNESS, load_config, main)

SMALL_QUAD = {"radial_nodes": 32, "angular_nodes": 8, "box_nodes_per_axis": 32,
              "support_radius": 3.0}
SMALL_SAMPLES = {"random_draws": 300, "flow_samples": 100, "pairs": 100,
                 "points": 50, "battery_size": 3}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "n": 3,
        "lambda": 0.1,
        "levels": 10,
        "seed": 20260810,
        "quadrature": dict(SMALL_QUAD),
        "trial_functions": [
            {"id": "interior", "kind": "radial_bump", "center": [0, 0, 2.0],
             "radius": 0.8},
            {"id": "vertex", "kind": "boundary_concentrated", "radius": 1.0},
        ],
        "format": "json",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run(argv):
    return main([str(a) for a in argv])


def test_threshold_table(tmp_path, capsys):
    assert run(["threshold", "--n-min", "3", "--n-max", "4"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    rows = payload["results"]
    assert [r["n"] for r in rows] == [3, 4]
    k4 = float(rows[1]["k_n"])
    assert k4 == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert float(rows[1]["lambda_star"]) == pytest.approx(0.3496, abs=1e-4)
    assert float(rows[0]["lambda_star"]) == pytest.approx(0.1676, abs=1e-4)
    # aperture is the arccot relation
    lam = float(rows[0]["lambda_star"])
    assert float(rows[0]["aperture"]) == pytest.approx(2 * math.atan2(1.0, lam))


def test_threshold_csv_format(tmp_path):
    out = tmp_path / "thr.csv"
    assert run(["threshold", "--n-min", "3", "--n-max", "5", "--format", "csv",
                "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [r["n"] for r in rows] == ["3", "4", "5"]
    assert float(rows[1]["k_n"]) == pytest.approx(2.0 / math.pi, abs=1e-12)


def test_threshold_empty_range_exits_2(capsys):
    assert run(["threshold", "--n-min", "12", "--n-max", "11"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert err["code"] == EXIT_CONFIG and "empty range" in err["message"]
    assert captured.err == ""


def test_threshold_invalid_range():
    assert run(["threshold", "--n-min", "2", "--n-max", "5"]) == EXIT_CONFIG
    assert run(["threshold", "--n-min", "3", "--n-max", "100"]) == EXIT_CONFIG


def test_variation_report_schema_and_exit(tmp_path):
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, out=str(out))
    assert run(["variation", "--config", cfg]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "results", "suite_versions"}
    assert payload["suite_versions"]["package"]
    rep = payload["results"][0]
    for key in ("first_variation", "second_variation_fd", "closed_form",
                "dirichlet_term", "boundary_term", "discrepancy"):
        assert key in rep
    # reals are decimal strings at full precision
    assert isinstance(rep["closed_form"], str)
    assert float(rep["closed_form"]) == float(repr(float(rep["closed_form"])))
    assert isinstance(rep["first_variation"]["quotients"][0], str)


def test_variation_divergent_two_dims_exits_witness(tmp_path):
    out = tmp_path / "report.json"
    cfg = write_config(
        tmp_path, n=2, out=str(out),
        **{"lambda": 1.0},
        quadrature={"radial_nodes": 64, "angular_nodes": 2,
                    "box_nodes_per_axis": 64, "support_radius": 2.0},
        trial_functions=[{"id": "vertex", "kind": "boundary_concentrated",
                          "radius": 1.0}])
    assert run(["variation", "--config", cfg]) == EXIT_WITNESS
    rep = json.loads(out.read_text())["results"][0]
    assert rep["divergence"] is not None
    assert float(rep["divergence"]["slope"]) == pytest.approx(-1.0, rel=0.05)
    assert rep["closed_form"] == "-inf"


def test_variation_two_dims_flat_reference_is_finite(tmp_path):
    out = tmp_path / "flat.json"
    cfg = write_config(
        tmp_path, n=2, out=str(out), **{"lambda": 0.0},
        quadrature={"radial_nodes": 64, "angular_nodes": 2,
                    "box_nodes_per_axis": 64, "support_radius": 2.0},
        trial_functions=[{"id": "vertex", "kind": "boundary_concentrated",
                          "radius": 1.0}])
    assert run(["variation", "--config", cfg]) != EXIT_WITNESS
    rep = json.loads(out.read_text())["results"][0]
    assert rep["divergence"] is None
    assert math.isfinite(float(rep["closed_form"]))
    assert rep["closed_form"] == rep["dirichlet_term"]


def test_variation_certifies_divergence_on_the_configured_cutoffs(tmp_path):
    """At n = 2 the divergence certificate of `variation` fits the config's
    `epsilons`, as `witness-n2` does; it used to fit the five defaults while
    the report echoed the config's cutoffs."""
    out = tmp_path / "cut.json"
    epsilons = [0.1, 0.01, 0.001]
    cfg = write_config(
        tmp_path, n=2, levels=8, out=str(out), epsilons=epsilons, **{"lambda": 1.0},
        quadrature={"radial_nodes": 64, "angular_nodes": 2,
                    "box_nodes_per_axis": 64, "support_radius": 2.0},
        trial_functions=[{"id": "vertex", "kind": "boundary_concentrated",
                          "radius": 1.0}])
    assert run(["variation", "--config", cfg]) == EXIT_WITNESS
    report = json.loads(out.read_text())
    certificate = report["results"][0]["divergence"]
    assert [float(e) for e in certificate["epsilons"]] == epsilons
    assert [float(e) for e in report["config"]["epsilons"]] == epsilons
    assert len(certificate["values"]) == len(epsilons)
    assert float(certificate["slope"]) == pytest.approx(-1.0, rel=0.1)


def test_csv_and_json_numeric_parity(tmp_path):
    out_json = tmp_path / "r.json"
    out_csv = tmp_path / "r.csv"
    cfg = write_config(tmp_path, levels=6, out=str(out_json))
    run(["variation", "--config", cfg])
    cfg_csv = write_config(tmp_path, name="c2.json", levels=6, out=str(out_csv),
                           format="csv")
    run(["variation", "--config", cfg_csv])
    payload = json.loads(out_json.read_text())
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert len(rows) == len(payload["results"])
    for row, rep in zip(rows, payload["results"]):
        assert float(row["closed_form"]) == float(rep["closed_form"])
        assert float(row["discrepancy"]) == float(rep["discrepancy"])
        assert float(row["first_variation"]) == float(rep["first_variation"]["extrapolated"])


def test_variation_zero_field_reports_zeros(tmp_path):
    out = tmp_path / "zero.json"
    cfg = write_config(tmp_path, levels=4, out=str(out), trial_functions=[
        {"id": "null", "kind": "radial_bump", "center": [0, 0, 1.5],
         "radius": 0.8, "scale": 0.0}])
    assert run(["variation", "--config", cfg]) == EXIT_OK
    rep = json.loads(out.read_text())["results"][0]
    assert float(rep["closed_form"]) == 0.0
    assert float(rep["dirichlet_term"]) == 0.0
    assert all(float(q) == 0.0 for q in rep["second_variation_fd"]["quotients"])


def test_sweep_exit_codes(tmp_path):
    out = tmp_path / "sweep.json"
    cfg = write_config(tmp_path, trial_functions=[
        {"id": "vertex", "kind": "boundary_concentrated", "radius": 1.0}],
        out=str(out), **{"lambda": 0.05})
    assert run(["sweep", "--config", cfg]) == EXIT_OK
    assert json.loads(out.read_text())["results"]["regime"] == "proven_stable"
    assert run(["sweep", "--config", cfg, "--lambda", "500.0"]) == EXIT_WITNESS
    assert run(["sweep", "--config", cfg, "--n", "2"]) == EXIT_CONFIG


def test_sweep_at_n8_runs_on_bounded_rules(tmp_path, capsys):
    """`sweep --n 8` at its defaults (the 8 axis-centred default fields) runs
    on rules whose size does not grow with n; the full battery's boxes ask
    for more nodes than a rule may place and exit 3 with the JSON error."""
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--n", "8", "--out", out]) == EXIT_OK
    assert json.loads(out.read_text())["results"]["regime"] == "proven_stable"
    cfg = tmp_path / "battery.json"
    cfg.write_text(json.dumps({"n": 8, "trial_functions": battery_descriptors(20)}))
    assert run(["sweep", "--config", cfg]) == EXIT_QUADRATURE
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == EXIT_QUADRATURE and "box rule" in error["message"]


def test_witness_command(tmp_path):
    out = tmp_path / "w.json"
    cfg = write_config(tmp_path, n=2, out=str(out), **{"lambda": 1.0},
                       quadrature={"radial_nodes": 64, "angular_nodes": 2,
                                   "box_nodes_per_axis": 64, "support_radius": 2.0})
    assert run(["witness-n2", "--config", cfg]) == EXIT_WITNESS
    assert json.loads(out.read_text())["results"]["regime"] == "unstable"


def test_verify_passes_and_fails(tmp_path, monkeypatch):
    out = tmp_path / "v.json"
    cfg = write_config(tmp_path, samples=dict(SMALL_SAMPLES), out=str(out))
    assert run(["verify", "--config", cfg]) == EXIT_OK
    names = [r["name"] for r in json.loads(out.read_text())["results"]]
    assert names == ["jacobian", "foliation", "remainder", "kato"]
    monkeypatch.setattr(verify, "kato_suite",
                        lambda *args: verify.SuiteResult("kato", False, -1.0, 1))
    assert run(["verify", "--config", cfg]) == EXIT_SUITE_FAILURE


def test_invalid_configs(tmp_path, capsys):
    cfg = write_config(tmp_path, name="unknown.json", bogus=1)
    assert run(["verify", "--config", cfg]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == EXIT_CONFIG

    cfg = write_config(tmp_path, name="zero.json",
                       samples={**SMALL_SAMPLES, "pairs": 0})
    assert run(["verify", "--config", cfg]) == EXIT_CONFIG

    cfg = write_config(tmp_path, name="badq.json",
                       quadrature={**SMALL_QUAD, "radial_nodes": 1})
    assert run(["verify", "--config", cfg]) == EXIT_CONFIG

    for key in ("quadrature", "samples"):
        cfg = write_config(tmp_path, name="list.json", **{key: []})
        assert run(["verify", "--config", cfg]) == EXIT_CONFIG

    assert run(["variation", "--config", tmp_path / "missing.json"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv, code", [
    (["variation", "--t0", "0"], EXIT_CONFIG),
    (["variation", "--t0", "-1"], EXIT_CONFIG),
    (["variation", "--t0", "nan"], EXIT_CONFIG),
    (["variation", "--t0", "inf"], EXIT_CONFIG),
    # t0^2, the first step of the second-variation ladder, underflows to 0
    (["variation", "--t0", "1e-200"], EXIT_CONFIG),
    # --epsilon-cutoff is retired: each of these is an unknown flag
    (["variation", "--epsilon-cutoff", "-1"], EXIT_CONFIG),
    (["sweep", "--epsilon-cutoff", "-1"], EXIT_CONFIG),
    (["witness-n2", "--epsilon-cutoff", "-1"], EXIT_CONFIG),
    (["sweep", "--epsilon-cutoff", "nan"], EXIT_CONFIG),
    (["sweep", "--epsilon-cutoff", "inf"], EXIT_CONFIG),
    (["variation", "--epsilon-cutoff", "inf"], EXIT_CONFIG),
    (["witness-n2", "--epsilon-cutoff", "nan"], EXIT_CONFIG),
    (["sweep", "--n", "3", "--epsilon-cutoff", "0.05"], EXIT_CONFIG),
    (["variation", "--n", "4", "--epsilon-cutoff", "0.05"], EXIT_CONFIG),
    # the step t0 * 2^-k underflows to 0 before the last level
    (["variation", "--levels", "1100"], EXIT_QUADRATURE),
    # argument errors: argparse used to print usage on stderr and raise SystemExit(2)
    (["sweep", "--bogus", "1"], EXIT_CONFIG),
    (["sweep", "--n", "abc"], EXIT_CONFIG),
    ([], EXIT_CONFIG),
    (["witness-n2", "--epsilon-cutoff", "0.05"], EXIT_CONFIG),  # it ran, and exited 5
], ids=["t0-zero", "t0-negative", "t0-nan", "t0-inf", "t0-square-underflow",
        "variation-cutoff", "sweep-cutoff",
        "witness-cutoff", "sweep-cutoff-nan", "sweep-cutoff-inf", "variation-cutoff-inf",
        "witness-cutoff-nan", "sweep-cutoff-n3", "variation-cutoff-n4", "levels-underflow",
        "unknown-flag", "malformed-int", "no-command", "retired-cutoff-flag"])
def test_bad_flags_exit_with_documented_codes(argv, code, capsys):
    """Each exits with its code and one JSON error line, nothing on stderr."""
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.err == "" and len(captured.out.splitlines()) == 1
    assert json.loads(captured.out)["error"]["code"] == code


@pytest.mark.parametrize("command", ["variation", "sweep"])
def test_retired_cutoff_key_exits_2_before_any_sample(tmp_path, monkeypatch, capsys, command):
    """quadrature.epsilon_cutoff is no key of the quadrature object, so at
    n = 4 it exits 2 when the config is loaded, with no support sample
    built; while it was a key, it was refused only after the areas."""
    def refuse(*args, **kwargs):
        raise AssertionError("a support sample was built")

    monkeypatch.setattr(quadrature, "_slice_rules", refuse)
    cfg = write_config(tmp_path, n=4, quadrature={**SMALL_QUAD, "epsilon_cutoff": 0.05})
    assert run([command, "--config", cfg]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == EXIT_CONFIG and "keys among" in err["message"]


def test_sweep_at_the_lambda_cap_exits_with_one_report(capsys):
    """At lambda = 1.3e154, just under the cap sqrt(max float), the trace
    span of each field centred on the axis stays finite, so the default
    sweep exits 5 with one JSON report and nothing on stderr; (lam h)^2 used
    to raise OverflowError there, a traceback and exit 1.  The ray spans of
    the slice rules, whose b*b overflowed with a RuntimeWarning, now raise
    no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sweep", "--lambda", "1.3e154"]) == EXIT_WITNESS
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["results"]["regime"] == "unstable"
    assert float(report["config"]["lambda"]) == 1.3e154


def test_box_sweep_runs_at_n7(tmp_path, capsys):
    """box-a at n = 7 and lam = 0.5 <= lam*(7) meets the boundary cone; its
    trace, a slice integral on its own 4^7-node box rule, needs no S^5 trace
    grid (64 * 16^5 nodes, above the node budget: exit 3), so the sweep
    exits 0 with a proven_stable verdict."""
    box_a = [d for d in battery_descriptors(20) if d["id"] == "box-a"]
    cfg = write_config(tmp_path, n=7, trial_functions=box_a, **{"lambda": 0.5}, quadrature={
        "radial_nodes": 64, "angular_nodes": 16, "box_nodes_per_axis": 16})
    assert run(["sweep", "--config", cfg]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)["results"]
    assert verdict["regime"] == "proven_stable" and float(verdict["margin"]) > 0.0


@pytest.mark.parametrize("flags, message", [
    (["--levels", "1100"],
     "the step t0 * 2^-k underflows to 0 within 1100 levels from t0 = "),
    (["--t0", "1e-100", "--levels", "500"],
     "the step t0^2 * 2^-k of the s = t^2 ladder underflows to 0 within 500 levels "
     "from t0 = 1e-100"),
    (["--t0", "2.3e-162"],
     "the step t0^2 * 2^-k of the s = t^2 ladder underflows to 0 within 8 levels "
     "from t0 = 2.3e-162"),
], ids=["both-ladders", "s-ladder-only", "s-ladder-subnormal-start"])
def test_underflowing_ladder_exits_before_any_area(flags, message, monkeypatch, capsys):
    """Both ladders are checked before the report's batch of areas, so an
    underflow exits 3 with no area evaluated, also when only the s-ladder
    t0^2 * 2^-k underflows (1e-100 * 2^-499 is still a normal number).  The
    message names the ladder that failed and quotes the t0 given: at
    t0 = 2.3e-162 the s-ladder starts at the subnormal 5e-324."""
    batches = []
    monkeypatch.setattr(variation, "_battery_areas", lambda *args: batches.append(args))
    assert run(["variation", *flags]) == EXIT_QUADRATURE
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == EXIT_QUADRATURE and err["message"].startswith(message)
    assert batches == []


@pytest.mark.parametrize("epsilons", [[0.5, 0.5, 0.5], [0.1, 0.01, 0.01, 0.001]],
                         ids=["all-equal", "one-repeated"])
def test_witness_needs_distinct_cutoffs(tmp_path, capsys, epsilons):
    """Repeated cutoffs exit 2: unchecked, [0.5, 0.5, 0.5] fitted a line
    through a single abscissa and exited 3."""
    cfg = write_config(tmp_path, n=2, epsilons=epsilons, **{"lambda": 1.0})
    assert run(["witness-n2", "--config", cfg]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == EXIT_CONFIG
    assert "at least three cutoffs in (0, 1), distinct" in err["message"]


def test_witness_at_lambda_zero_exits_2(capsys):
    """The n = 2 instability is stated for lam > 0; at lam = 0 the witness
    used to exit 3, a quadrature failure, although nothing failed."""
    assert run(["witness-n2", "--lambda", "0"]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"code": EXIT_CONFIG, "message": "witness-n2 requires lambda > 0"}


def test_unknown_descriptor_keys_exit_2(tmp_path, capsys):
    """Misspelt descriptor keys are refused: this field used to run at
    exponent 1 and scale 1."""
    desc = {"kind": "radial_bump", "center": 1.5, "radius": 0.5, "exponnent": 2, "scael": 0}
    cfg = write_config(tmp_path, trial_functions=[desc])
    assert run(["variation", "--config", cfg]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == EXIT_CONFIG
    assert err["message"].endswith(
        "unknown keys ['exponnent', 'scael'] for kind 'radial_bump'")


@pytest.mark.parametrize("command", ["sweep", "variation"])
def test_empty_trial_function_list_exits_2(tmp_path, capsys, command):
    """An explicit empty list used to run the 8-member default battery while
    the report echoed []; it is refused, and a config without the key still
    runs the default battery."""
    cfg = write_config(tmp_path, trial_functions=[])
    assert run([command, "--config", cfg]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == EXIT_CONFIG
    assert err["message"].startswith("trial_functions must be a non-empty list")
    raw = json.loads(cfg.read_text())
    del raw["trial_functions"]
    cfg.write_text(json.dumps(raw))
    run([command, "--config", cfg, "--levels", "4"])
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["trial_functions"] == []
    results = report["results"]
    assert len(results if command == "variation" else results["margins"]) == 8


def test_witness_needs_three_cutoffs(tmp_path, capsys):
    cfg = write_config(tmp_path, n=2, epsilons=[0.1, 0.01])
    assert run(["witness-n2", "--config", cfg]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == EXIT_CONFIG
    assert "three cutoffs" in err["error"]["message"]


@pytest.mark.parametrize("overrides, message", [
    ({"n": 3.5}, "n must be an integer, got 3.5"),
    ({"levels": 3.9}, "levels must be an integer, got 3.9"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"levels": float("inf")}, "cannot convert float infinity to integer"),
    ({"quadrature": {**SMALL_QUAD, "radial_nodes": 32.7}},
     "radial_nodes must be an integer, got 32.7"),
    ({"samples": {**SMALL_SAMPLES, "pairs": 0.5}}, "pairs must be an integer, got 0.5"),
    ({"n": 1}, "dimension n must be an integer >= 2"),
    ({"lambda": -0.5}, "aperture parameter must be finite and >= 0"),
    ({"lambda": float("nan")}, "aperture parameter must be finite and >= 0"),
    # the negative control and the discrepancy bound are not config keys
    ({"corrupt_closed_form": "false"}, "unknown config keys: ['corrupt_closed_form']"),
    ({"corrupt_closed_form": 0}, "unknown config keys: ['corrupt_closed_form']"),
    ({"discrepancy_rtol": -1}, "unknown config keys: ['discrepancy_rtol']"),
    ({"discrepancy_rtol": float("nan")}, "unknown config keys: ['discrepancy_rtol']"),
    ({"discrepancy_rtol": float("inf")}, "unknown config keys: ['discrepancy_rtol']"),
    # an infinite support radius gave a proven_stable sweep with negative margins
    ({"quadrature": {**SMALL_QUAD, "support_radius": float("inf")}},
     "support_radius must be finite and > 0"),
    ({"quadrature": {**SMALL_QUAD, "support_radius": float("nan")}},
     "support_radius must be finite and > 0"),
    # the retired cutoff key is not a quadrature key
    ({"quadrature": {**SMALL_QUAD, "epsilon_cutoff": float("nan")}},
     "quadrature must be a JSON object with keys among ('radial_nodes', 'angular_nodes', "
     "'box_nodes_per_axis', 'support_radius'), got"),
], ids=["n", "levels", "seed", "levels-inf", "radial-nodes", "pairs", "n-small",
        "lambda-negative", "lambda-nan", "corrupt-string", "corrupt-int", "rtol-negative",
        "rtol-nan", "rtol-inf", "radius-inf", "radius-nan", "cutoff-nan"])
def test_config_values_out_of_type_or_range_exit_2(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **{"samples": dict(SMALL_SAMPLES), **overrides})
    assert run(["verify", "--config", cfg]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == EXIT_CONFIG
    assert message in err["error"]["message"]


@pytest.mark.parametrize("field, message", [
    ({"radius": None}, "not 'NoneType'"),
    ({"exponent": None}, "not 'NoneType'"),
    ({"center": {"a": 1}}, "not 'dict'"),
    ({"scale": "nan"}, "scale must be finite, got nan"),
    ({"radius": "inf"}, "radius must be finite and positive, got inf"),
    ({"center": "nan"}, "center must be 3 finite components, got 'nan'"),
    ({"shift": "nan"}, "shift must be finite, got nan"),
    ({"exponent": 2.5}, "exponent must be an integer, got 2.5"),
], ids=["radius-null", "exponent-null", "center-object", "scale-nan", "radius-inf",
        "center-nan", "shift-nan", "exponent-fractional"])
def test_malformed_trial_descriptors_exit_2(tmp_path, capsys, field, message):
    """Each value is refused before any computation: unchecked, it raised a
    traceback (exit 1), gave NaN quotients (exit 3) or was truncated
    (exponent 2.5 ran as 2)."""
    desc = {"id": "bad", "kind": "shifted_bump", "center": 1.5, "radius": 0.5, **field}
    cfg = write_config(tmp_path, trial_functions=[desc])
    assert run(["variation", "--config", cfg]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == EXIT_CONFIG and message in err["message"]


def test_integral_config_floats_load_as_ints(tmp_path):
    cfg = load_config(str(write_config(tmp_path, n=4.0, levels=6.0,
                                       quadrature={**SMALL_QUAD, "radial_nodes": 16.0})), {})
    assert (cfg.n, cfg.levels, cfg.quadrature.radial_nodes) == (4, 6, 16)
    assert all(type(v) is int for v in (cfg.n, cfg.levels, cfg.quadrature.radial_nodes))


def test_reports_are_deterministic(tmp_path):
    """Identical config and seed: byte-identical JSON on repeated runs."""
    out = tmp_path / "det.json"
    cfg = write_config(tmp_path, levels=5, out=str(out),
                       samples=dict(SMALL_SAMPLES))
    run(["variation", "--config", cfg])
    first = out.read_bytes()
    run(["variation", "--config", cfg])
    assert out.read_bytes() == first

    run(["verify", "--config", cfg])
    first = out.read_bytes()
    run(["verify", "--config", cfg])
    assert out.read_bytes() == first


@pytest.mark.parametrize("argv", [
    ["threshold", "--n-min", "3", "--n-max", "4"],
    ["variation", "--levels", "4"],
    ["sweep"],
    ["witness-n2"],
    ["verify"],
], ids=["threshold", "variation", "sweep", "witness-n2", "verify"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "missing-dir" / "report.json"
    if argv[0] != "threshold":
        argv = argv + ["--config", write_config(tmp_path, samples=dict(SMALL_SAMPLES))]
    assert run(argv + ["--out", out]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == EXIT_CONFIG
    assert "cannot write report" in err["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv, compute", [
    (["threshold", "--n-min", "3", "--n-max", "4"], "lambda_star"),
    (["variation", "--levels", "4"], "_variation_reports"),
    (["sweep"], "stability_sweep"),
    (["witness-n2"], "instability_witness_n2"),
    (["verify"], "run_suites"),
], ids=["threshold", "variation", "sweep", "witness-n2", "verify"])
def test_unwritable_out_fails_before_computing(tmp_path, capsys, monkeypatch, argv, compute):
    """An --out whose directory does not exist exits 2 with the JSON error
    line before any computation: the subcommand's work raises if reached."""
    def reached(*args, **kwargs):
        raise AssertionError(f"{compute} ran before --out was checked")

    monkeypatch.setattr(cli, compute, reached)
    if argv[0] != "threshold":
        argv = argv + ["--config", write_config(tmp_path, samples=dict(SMALL_SAMPLES))]
    assert run(argv + ["--out", tmp_path / "missing-dir" / "report.json"]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == EXIT_CONFIG
    assert "cannot write report" in err["error"]["message"]


def test_underflowing_default_t0_exits_3_naming_the_field(tmp_path, monkeypatch, capsys):
    """A field whose default t0 = 0.1 * radius / (1 + Lipschitz bound)
    underflows to 0.0 exits 3 with the JSON error line naming the field,
    before any area is evaluated; it used to exit 1 with a traceback."""
    batches = []
    monkeypatch.setattr(variation, "_battery_areas", lambda *args: batches.append(args))
    cfg = write_config(tmp_path, trial_functions=[
        {"id": "interior", "kind": "radial_bump", "center": [0, 0, 2.0], "radius": 0.8},
        {"id": "tiny", "kind": "radial_bump", "center": 1.0, "radius": 1e-200}])
    assert run(["variation", "--config", cfg]) == EXIT_QUADRATURE
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert err["code"] == EXIT_QUADRATURE and captured.err == ""
    assert err["message"].startswith("the default t0 of field 'tiny', ")
    assert err["message"].endswith("underflows to 0.0; set t0")
    assert batches == []


@pytest.mark.parametrize("command", ["variation", "sweep", "witness-n2"])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_lambda_with_an_infinite_square_exits_2(tmp_path, capsys, command, where):
    """lambda = 1e300 is finite but its square is not; the rules read
    lambda^2, so it used to exit 1 with an OverflowError.  It is refused
    when the config is loaded, from the file and from --lambda alike."""
    cfg = write_config(tmp_path, **({"lambda": 1e300} if where == "config" else {}))
    flags = ["--lambda", "1e300"] if where == "flag" else []
    assert run([command, "--config", cfg, *flags]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"code": EXIT_CONFIG, "message": "lambda must have a finite square, got 1e+300"}


_COMMON_OPTIONS = {"config": None, "n": None, "lambda": None, "t0": None, "levels": None,
                   "seed": None, "format": None, "out": None}
_SUBCOMMAND_OPTIONS = {
    "threshold": {"n_min": 3, "n_max": 8, "format": "json", "out": None},
    "variation": _COMMON_OPTIONS, "sweep": _COMMON_OPTIONS, "witness-n2": _COMMON_OPTIONS,
    "verify": _COMMON_OPTIONS,
}


@pytest.mark.parametrize("argv", [[], *([c] for c in _SUBCOMMAND_OPTIONS)],
                         ids=["conestab", *_SUBCOMMAND_OPTIONS])
def test_help_exits_0_and_lists_the_options(argv, capsys):
    """--help exits 0, for the program and each subcommand, and names every
    option of the subcommand (or every subcommand)."""
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    names = _SUBCOMMAND_OPTIONS[argv[0]] if argv else _SUBCOMMAND_OPTIONS
    for name in names:
        assert (f"--{name.replace('_', '-')}" if argv else name) in text


@pytest.mark.parametrize("command", list(_SUBCOMMAND_OPTIONS))
def test_subcommand_options_and_defaults(command):
    """Each subcommand's option dests and defaults, as parsed with no flag."""
    args = vars(cli.build_parser().parse_args([command]))
    func = args.pop("func")
    assert args.pop("command") == command
    assert func is getattr(cli, "cmd_" + command.replace("-", "_"))
    assert args == _SUBCOMMAND_OPTIONS[command]


_BUMP = {"kind": "radial_bump", "center": 1.0, "radius": 0.5}


@pytest.mark.parametrize("command, overrides, flags", [
    ("sweep", {"trial_functions": [{**_BUMP, "radius": 1e300}]}, []),
    ("variation", {"trial_functions": [{**_BUMP, "radius": 1e300}]}, []),
    ("sweep", {"trial_functions": [{**_BUMP, "scale": 1e300}]}, []),
    ("sweep", {"trial_functions": [{**_BUMP, "center": 1e200}]}, []),
    ("sweep", {"trial_functions": [{"kind": "tensor_bump", "center": 1e200, "half_width": 0.5}]},
     []),
    ("sweep", {"trial_functions": [{**_BUMP, "kind": "shifted_bump", "shift": 1e308}]}, []),
    ("sweep", {"trial_functions": [{**_BUMP, "center": "offaxis:1:1e300"}]}, []),
    ("variation", {}, ["--t0", "1e300"]),
    ("verify", {}, ["--seed", "-1"]),
    ("sweep", {"trial_functions": [_BUMP]}, ["--n", "400"]),
    ("verify", {"samples": {**SMALL_SAMPLES, "random_draws": 1e12}}, []),
    *(("verify", {"samples": {**SMALL_SAMPLES, key: cli.INPUTS[key].span[1] + 1}}, [])
      for key in SMALL_SAMPLES),
], ids=["sweep-radius", "variation-radius", "scale", "radial-center", "tensor-center", "shift",
        "offaxis-center", "t0", "seed", "n", "draws-1e12", *SMALL_SAMPLES])
def test_values_outside_the_input_table_exit_2(tmp_path, capsys, command, overrides, flags):
    """Each value is refused by its row of the input table before any work,
    with one JSON error line and nothing on stderr.  Unchecked, these raised
    OverflowError, numpy's "expected non-negative integer" or a 29 TiB
    allocation (exit 1), or ran on after overflow warnings to "inf" margins
    (exit 0) or NaN areas (exit 3)."""
    cfg = write_config(tmp_path, **{"samples": dict(SMALL_SAMPLES), **overrides})
    assert run([command, "--config", cfg, *flags]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "" and len(captured.out.splitlines()) == 1
    assert json.loads(captured.out)["error"]["code"] == EXIT_CONFIG


@pytest.mark.parametrize("text", ['{"n": ' + "9" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
                         ids=["int-of-5000-digits", "nested-100000-deep"])
def test_config_json_that_python_refuses_to_read_exits_2(tmp_path, capsys, text):
    """json.load raises ValueError on an integer of more than 4300 digits
    and RecursionError on deep nesting; both used to exit 1."""
    path = tmp_path / "config.json"
    path.write_text(text)
    assert run(["sweep", "--config", path]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().out)["error"]["message"].startswith("cannot read config")


# Draws for the config fuzz test: valid values, the edges of each row's range
# and values just past them, values near 1e+-300, non-finite strings, wrong
# types, empty and one-element lists.  Counts of nodes and samples are drawn
# only up to small valid values (their upper edges cost seconds a run) and
# past their caps.  lambda stops at 1e50: from about 1e75 on, an aperture
# whose square is finite still overflows the slice rules (see CHANGES.md).
# The retired quadrature.epsilon_cutoff key and --epsilon-cutoff flag are
# still drawn: each is unknown now, and exits 2.
_JUNK = ("nan", "inf", "-inf", "x", None, True, [], [1.0], {})
_LENGTHS = (0.0, -0.0, 0.5, 1.5, -1.0, 1e-300, 1e-200, 1e3, -1e3, 1000.5, 1e200, 1e300, 1e308)


def _pick(*values):
    """One of ``values``, or a quarter of the time one of the junk values."""
    return st.one_of(*[st.sampled_from(values)] * 3, st.sampled_from(_JUNK))


def _some(values: dict, base: dict, most: int = 2):
    """``base`` with up to ``most`` of the keys of ``values`` set to drawn values."""
    keys = st.lists(st.sampled_from(sorted(values)), max_size=most, unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: values[k] for k in ks})).map(
        lambda drawn: {**base, **drawn})


_DESCRIPTOR_VALUES = {
    "kind": _pick("radial_bump", "tensor_bump", "shifted_bump", "boundary_concentrated", "bump"),
    "id": _pick("f", 5),
    "center": _pick(*_LENGTHS, [0.0, 0.3, 1.5], [1e3, -1e3, 1e3], [1.0], "offaxis:1.4:0.4",
                    "offaxis:1:1e300", "offaxis:1", {"a": 1}),
    "radius": _pick(*_LENGTHS, 1e-310),
    "half_width": _pick(*_LENGTHS),
    "exponent": _pick(1, 2, 32, 33, 0, 2.5),
    "scale": _pick(*_LENGTHS),
    "shift": _pick(*_LENGTHS),
    "exponnent": _pick(2),
}
_BASE_DESCRIPTORS = [{"kind": "radial_bump", "center": 1.0, "radius": 0.5},
                     {"kind": "tensor_bump", "center": 1.0, "half_width": 0.5},
                     {"kind": "shifted_bump", "center": 0.0, "radius": 0.5, "shift": 2.0},
                     {"kind": "boundary_concentrated", "radius": 1.0}]
_CONFIG_VALUES = {
    "n": _pick(2, 3, 4, 64, 65, 1, 400, 3.5, 3.0, 2 ** 70),
    "lambda": _pick(0.0, 1e-300, 0.1, 0.5, 1.0, 1e50, 1e300, -0.5),
    "t0": _pick(*_LENGTHS, 0.05, 2.3e-162, 2.2e-162, 1e-100),
    "levels": _pick(3, 4, 2048, 2049, 2, 3.5, 1100),
    "epsilons": _pick([0.1, 0.01, 0.001], [5e-324, 0.5, 0.9999999999999999], [1.0, 0.1, 0.01],
                      [0.1, 0.01], [0.1, 0.1, 0.01], ["nan", 0.1, 0.01], 0.1),
    "seed": _pick(0, 1, 2 ** 64 - 1, 2 ** 64, -1, 1.5),
    "quadrature": _pick({"radial_nodes": 8, "angular_nodes": 2, "box_nodes_per_axis": 8,
                         "bogus": 1}),
    "samples": _pick({"pairs": 20, "bogus": 1}),
    "trial_functions": _pick([], [{}], [5]),
    "format": _pick("json", "csv", "xml", 5),
    "out": _pick("-", 5, "/nonexistent-dir/report.json"),
    "bogus": _pick(1),
}
_QUAD_VALUES = {
    "radial_nodes": _pick(2, 8, 1, 2 ** 23 + 1, 8.5),
    "angular_nodes": _pick(2, 4, 0, 2 ** 23 + 1),
    "box_nodes_per_axis": _pick(2, 8, 1, 2 ** 23 + 1),
    "support_radius": _pick(*_LENGTHS),
    "epsilon_cutoff": _pick(*_LENGTHS),
}
_SAMPLE_VALUES = {key: _pick(1, 2, 0, -1, 2.5, 10 ** 5 + 1, 1e12)
                  for key in ("random_draws", "flow_samples", "pairs", "points")}
_SAMPLE_VALUES.update(battery_size=_pick(1, 2, 20, 21, 0))
_CONFIG = st.fixed_dictionaries(
    {"levels": st.just(3),
     "quadrature": _some(_QUAD_VALUES, {"radial_nodes": 8, "angular_nodes": 2,
                                        "box_nodes_per_axis": 8}, most=1),
     "samples": _some(_SAMPLE_VALUES, {"random_draws": 20, "flow_samples": 20, "pairs": 20,
                                       "points": 20, "battery_size": 1}, most=1)},
    optional={"trial_functions": st.lists(
        st.sampled_from(_BASE_DESCRIPTORS).flatmap(lambda d: _some(_DESCRIPTOR_VALUES, d)),
        min_size=1, max_size=2)},
).flatmap(lambda base: _some(_CONFIG_VALUES, base))
_FLAGS = st.lists(st.sampled_from([
    ["--n", "2"], ["--n", "65"], ["--lambda", "nan"], ["--lambda", "1e300"], ["--t0", "inf"],
    ["--t0", "1e300"], ["--levels", "-3"], ["--seed", "-1"], ["--epsilon-cutoff", "1e300"],
    ["--epsilon-cutoff", "0.5"], ["--format", "tsv"]]), max_size=2)


@settings(max_examples=300)
@given(command=st.sampled_from(["variation", "sweep", "witness-n2", "verify"]), config=_CONFIG,
       flags=_FLAGS)
def test_fuzzed_configs_exit_with_a_documented_code(tmp_path_factory, command, config, flags):
    """Whatever the config, cli.main returns a documented exit code, writes
    nothing on stderr, and on exit 2 prints exactly one JSON error line; on
    exit 3 it prints one too, or the report of a run that did not converge.
    Any warning (an overflow, say) fails the test: filterwarnings = error."""
    path = tmp_path_factory.getbasetemp() / "fuzzed-config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), *(f for pair in flags for f in pair)])
    event(f"{command} exits {code}")  # shown by pytest --hypothesis-show-statistics
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_QUADRATURE, EXIT_SUITE_FAILURE, EXIT_WITNESS)
    assert err.getvalue() == ""
    text = out.getvalue()
    if code == EXIT_CONFIG or text.startswith('{"error"'):
        assert code in (EXIT_CONFIG, EXIT_QUADRATURE) and text.count("\n") == 1
        assert json.loads(text)["error"]["code"] == code
    else:
        assert text
