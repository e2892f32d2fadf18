"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <k> (<name>): PASS/FAIL`` line (run with
``pytest -s tests/test_acceptance.py`` to see them live).
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conestab.cli import main as cli_main
from conestab.domain import ConeParams
from conestab.quadrature import QuadratureSpec, boundary_integral, liminf_quotient
from conestab.stability import (UNSTABLE, instability_witness_n2, kato_constant,
                                lambda_star)
from conestab.trial import (make_boundary_bump, make_radial_bump, make_tensor_bump,
                            standard_battery)
from conestab.variation import area, variation_report
from conestab.verify import (foliation_suite, jacobian_suite, kato_suite,
                             remainder_suite)

SEED = 20260810


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_jacobian_identity():
    with criterion(1, "jacobian three-way identity"):
        start = time.perf_counter()
        res = jacobian_suite(random_draws=10_000, flow_samples=1000, seed=SEED,
                             dims=(2, 3, 4, 6), tol=1e-10)
        elapsed = time.perf_counter() - start
        assert res.passed, res.detail
        assert res.worst_error <= 1e-10
        assert res.samples >= 4 * 10_000 + 1000
        assert elapsed <= 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_2_remainder_bounds():
    with criterion(2, "remainder uniform bound and decay"):
        res = remainder_suite(points=1000, max_level=20, seed=SEED,
                              tail_fraction=1e-3)
        assert res.passed, res.detail


def test_criterion_3_first_variation_vanishes():
    with criterion(3, "first variation vanishes"):
        battery = [
            (2, 0.1, make_radial_bump([0.0, 1.2], 0.8, 2)),
            (2, 0.5, make_tensor_bump([0.0, 1.1], 0.45, 2)),
            (2, 1.0, make_radial_bump([0.0, 1.6], 0.7, 2)),
            (3, 0.1, make_boundary_bump(1.0, 3)),
            (3, 0.5, make_radial_bump([0, 0, 1.2], 0.8, 3)),
            (3, 0.5, make_boundary_bump(1.2, 3, exponent=2)),
            (3, 1.0, make_tensor_bump([0, 0, 1.5], 0.5, 3, exponent=2)),
            (4, 0.1, make_radial_bump([0, 0, 0, 1.0], 0.7, 4)),
            (4, 0.5, make_boundary_bump(0.9, 4, exponent=2)),
            (4, 1.0, make_radial_bump([0, 0, 0, 1.8], 0.9, 4)),
        ]
        assert len(battery) == 10
        specs = {2: QuadratureSpec(64, 2, 64, 3.0),
                 3: QuadratureSpec(48, 16, 48, 3.0),
                 4: QuadratureSpec(32, 10, 32, 3.0)}
        for n, lam, f in battery:
            params = ConeParams(n, lam)
            est = liminf_quotient(lambda t: area(params, f, t, specs[n]),
                                  t0=0.05, levels=10)
            assert abs(est.extrapolated) <= 1e-4, (n, lam, f.label)
            # |area difference / t| decays linearly: dyadic ratios sit at 1/2
            q = np.abs(est.quotients)
            live = q > 1e-13
            ratios = q[1:][live[1:] & live[:-1]] / q[:-1][live[1:] & live[:-1]]
            assert np.all(np.abs(ratios[-4:] - 0.5) <= 0.2), (n, lam, f.label)


def test_criterion_4_second_variation_identity():
    with criterion(4, "second-variation identity"):
        params = ConeParams(3, 0.1)
        spec = QuadratureSpec(128, 64, 128, 3.0)
        cases = [
            make_radial_bump([0, 0, 2.0], 1.0, 3, label="interior-bump"),
            make_boundary_bump(1.0, 3, label="boundary-touching-bump"),
            make_tensor_bump([0, 0, 0.9], 0.8, 3, label="tensor-bump"),
        ]
        for f in cases:
            start = time.perf_counter()
            rep = variation_report(params, f, levels=12, spec=spec)
            elapsed = time.perf_counter() - start
            assert elapsed <= 120.0, f"{f.label}: {elapsed:.1f}s exceeds 2 min"
            assert rep.second_variation_fd.converged, f.label
            rel = rep.discrepancy / abs(rep.closed_form)
            assert rel <= 0.01, f"{f.label}: discrepancy {rel:.2e}"


def test_criterion_5_boundary_integral_oracle():
    with criterion(5, "weighted trace integral oracle"):
        params = ConeParams(3, 1.0)
        f = make_boundary_bump(1.0, 3)
        got = boundary_integral(params, f, QuadratureSpec(64, 16, 64, 3.0))
        assert abs(got - math.pi * math.sqrt(2.0) / 3.0) <= 1e-4


def test_criterion_6_constants_and_thresholds():
    with criterion(6, "trace constants and thresholds"):
        assert abs(kato_constant(4) - 2.0 / math.pi) <= 1e-12
        assert abs(kato_constant(6) - math.pi / 2.0) <= 1e-12
        assert abs(kato_constant(3) - 0.228473) <= 1e-6
        assert abs(lambda_star(4).lambda_star - 0.3496) <= 1e-4
        assert abs(lambda_star(3).lambda_star - 0.1676) <= 1e-4
        ks, stars = [], []
        for n in range(3, 13):
            thr = lambda_star(n)
            assert abs(thr.residual) <= 1e-12 * thr.k_n
            ks.append(thr.k_n)
            stars.append(thr.lambda_star)
        assert np.all(np.diff(ks) > 0)
        assert np.all(np.diff(stars) > 0)


def test_criterion_7_kato_margin_sweep():
    with criterion(7, "trace-inequality margins and chain links"):
        res = kato_suite(dims=(3, 4, 5), battery_size=20, slack=1e-8)
        assert res.passed, res.detail
        assert res.worst_error >= -1e-8
        assert res.samples == 20 * 3 * 3


def test_criterion_8_two_dim_instability_witness():
    with criterion(8, "two-dimensional divergence witness"):
        params = ConeParams(2, 1.0)
        spec = QuadratureSpec(128, 2, 128, 1.5)
        epsilons = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        verdict = instability_witness_n2(params, epsilons, spec=spec)
        assert verdict.regime == UNSTABLE
        vals = np.asarray(verdict.margins)
        assert np.all(np.diff(vals) < 0)  # strictly decreasing in 1/eps
        slope = np.polyfit(np.log(1.0 / np.asarray(epsilons)), vals, 1)[0]
        assert abs(slope - (-params.lam)) <= 0.1 * params.lam
        assert vals[-1] < -10.0


def test_criterion_9_foliation_suite():
    with criterion(9, "foliation injectivity/boundary/Lipschitz"):
        res = foliation_suite(pairs=1000, seed=SEED)
        assert res.passed, res.detail
        assert res.samples >= 1000


def test_criterion_10_deterministic_reports(tmp_path):
    with criterion(10, "byte-identical seeded reports"):
        out = tmp_path / "run.json"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "n": 3, "lambda": 0.1, "levels": 5, "seed": SEED,
            "quadrature": {"radial_nodes": 32, "angular_nodes": 8,
                           "box_nodes_per_axis": 32, "support_radius": 3.0},
            "trial_functions": [{"id": "vertex", "kind": "boundary_concentrated",
                                 "radius": 1.0}],
            "samples": {"random_draws": 500, "flow_samples": 200, "pairs": 200,
                        "points": 100, "battery_size": 3},
            "out": str(out),
        }))
        for command in ("verify", "variation"):
            cli_main([command, "--config", str(cfg_path)])
            first = out.read_bytes()
            cli_main([command, "--config", str(cfg_path)])
            assert out.read_bytes() == first, f"{command} run not reproducible"
