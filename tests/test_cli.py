"""CLI subcommands: schemas, exit codes, determinism, CSV/JSON parity."""

import csv
import io
import json
import math

import pytest

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


def test_threshold_empty_range_succeeds(capsys):
    assert run(["threshold", "--n-min", "12", "--n-max", "11"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"] == []


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


def test_epsilon_cutoff_flag_regularizes_two_dims(tmp_path):
    out = tmp_path / "reg.json"
    cfg = write_config(
        tmp_path, n=2, levels=8, out=str(out), **{"lambda": 1.0},
        quadrature={"radial_nodes": 64, "angular_nodes": 2,
                    "box_nodes_per_axis": 64, "support_radius": 2.0},
        trial_functions=[{"id": "vertex", "kind": "boundary_concentrated",
                          "radius": 1.0}])
    code = run(["variation", "--config", cfg, "--epsilon-cutoff", "1e-4"])
    assert code != EXIT_WITNESS  # no divergence verdict once regularized
    rep = json.loads(out.read_text())["results"][0]
    assert rep["divergence"] is None
    assert math.isfinite(float(rep["closed_form"]))


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


def test_witness_command(tmp_path):
    out = tmp_path / "w.json"
    cfg = write_config(tmp_path, n=2, out=str(out), **{"lambda": 1.0},
                       quadrature={"radial_nodes": 64, "angular_nodes": 2,
                                   "box_nodes_per_axis": 64, "support_radius": 2.0})
    assert run(["witness-n2", "--config", cfg]) == EXIT_WITNESS
    assert json.loads(out.read_text())["results"]["regime"] == "unstable"


def test_verify_passes_and_fails(tmp_path):
    out = tmp_path / "v.json"
    cfg = write_config(tmp_path, samples=dict(SMALL_SAMPLES), out=str(out))
    assert run(["verify", "--config", cfg]) == EXIT_OK
    names = [r["name"] for r in json.loads(out.read_text())["results"]]
    assert names == ["jacobian", "foliation", "remainder", "kato"]
    bad = write_config(tmp_path, name="bad.json", samples=dict(SMALL_SAMPLES),
                       corrupt_closed_form=True, out=str(out))
    assert run(["verify", "--config", bad]) == EXIT_SUITE_FAILURE


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
    (["variation", "--epsilon-cutoff", "-1"], EXIT_CONFIG),
    (["sweep", "--epsilon-cutoff", "-1"], EXIT_CONFIG),
    (["witness-n2", "--epsilon-cutoff", "-1"], EXIT_CONFIG),
    # the step t0 * 2^-k underflows to 0 before the last level
    (["variation", "--levels", "1100"], EXIT_QUADRATURE),
], ids=["t0-zero", "t0-negative", "t0-nan", "t0-inf", "variation-cutoff", "sweep-cutoff",
        "witness-cutoff", "levels-underflow"])
def test_bad_flags_exit_with_documented_codes(argv, code, capsys):
    assert run(argv) == code
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == code


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
], ids=["n", "levels", "seed", "levels-inf", "radial-nodes", "pairs", "n-small",
        "lambda-negative", "lambda-nan"])
def test_config_values_out_of_type_or_range_exit_2(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **{"samples": dict(SMALL_SAMPLES), **overrides})
    assert run(["verify", "--config", cfg]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == EXIT_CONFIG
    assert message in err["error"]["message"]


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
