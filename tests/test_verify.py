"""The randomized invariant suites at reduced sample counts."""

import hashlib

import numpy as np
import pytest

from conestab import flow, verify
from conestab.domain import (ConeParams, classify_ambient_point,
                             foliation_lipschitz_bound, gamma_curve, omega_profile)
from conestab.trial import sample_smooth_points, standard_battery
from conestab.verify import (foliation_suite, jacobian_suite, kato_suite,
                             remainder_suite, run_suites)

SEED = 20260810


def test_jacobian_suite_passes():
    res = jacobian_suite(random_draws=2000, flow_samples=400, seed=SEED)
    assert res.passed
    assert res.worst_error <= 1e-10
    assert res.samples >= 4 * 2000 + 400


def test_jacobian_suite_flow_samples_are_distinct(monkeypatch):
    """Each of the five flow times checks its own points: 5 * per distinct
    rows per field, all of them counted in ``samples``.  The suite
    evaluates each field once and calls the per-t step five times per field,
    field by field."""
    seen = []
    original = flow._coefficients

    def recording(params, pts, fv, gv, t):
        seen.append(np.array(pts))
        return original(params, pts, fv, gv, t)

    monkeypatch.setattr(flow, "_coefficients", recording)
    res = jacobian_suite(flow_samples=400, seed=SEED, dims=())
    per = 400 // 10
    assert len(seen) == 10
    for field in range(2):
        rows = np.concatenate(seen[5 * field:5 * field + 5])
        assert rows.shape[0] == 5 * per
        assert np.unique(rows, axis=0).shape[0] == 5 * per
    assert res.samples == 10 * per


# Suite values and smooth-point digests of the row-major sampler that
# evaluated each field per flow time: neither the sample layout nor where
# the fields are evaluated may move a bit.  (worst_error.hex(), samples).
PINNED_SUITES = {
    20260810: {"jacobian": ("0x1.dcc9ee98782ecp-45", 8400),
               "flow-only": ("0x1.af6505c683f18p-51", 400),
               "negative": ("0x1.55242af8ee48cp-15", 2100),
               "remainder": ("0x1.a5c90ed7e7e7ap-5", 8400)},
    15: {"jacobian": ("0x1.4d2b0e2201673p-45", 8400),
         "flow-only": ("0x1.27bac509efe0cp-50", 400),
         "negative": ("0x1.b3692236c2769p-13", 2100),
         "remainder": ("0x1.943647fc46932p-5", 8400)},
    104: {"jacobian": ("0x1.e2127d66e8999p-45", 8400),
          "flow-only": ("0x1.cfef6ce786379p-50", 400),
          "negative": ("0x1.251b7c6a6efe5p-14", 2100),
          "remainder": ("0x1.81471dfe916a4p-5", 8400)},
}
PINNED_SAMPLE_SHA256 = (
    "5d27ae0aed617685450b45cd469332d8823e9968cc0c1a20aa9418d0c2e19eb0",
    "deca60462e94368ceef29a145e3dce1a99ca2e47d45a9abcb2211ed6f84086e1",
)
# box-a at n = 4 takes three draw rounds for 500 points
PINNED_BOX_A_N4_SHA256 = "68937c3b9d5c8c41f6a3f78f095a374e424d9a57f23f1f4d40f612826feadb50"


def _digest(pts):
    return hashlib.sha256(np.ascontiguousarray(pts).tobytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(PINNED_SUITES))
def test_suite_values_are_pinned(seed):
    results = {
        "jacobian": jacobian_suite(random_draws=2000, flow_samples=400, seed=seed),
        "flow-only": jacobian_suite(flow_samples=400, seed=seed, dims=()),
        "negative": jacobian_suite(random_draws=500, flow_samples=100, seed=seed,
                                   corrupt_closed_form=True),
        "remainder": remainder_suite(points=200, seed=seed),
    }
    got = {k: (float(r.worst_error).hex(), r.samples) for k, r in results.items()}
    assert got == PINNED_SUITES[seed]


def test_smooth_point_samples_are_pinned():
    """Same points, bit for bit, in coordinate-major layout: the transpose of
    a C-ordered (n, count) array."""
    cases = [(ConeParams(3, 0.7), f) for f in verify._flow_sample_fields(3)]
    cases.append((ConeParams(4, 0.7), next(f for f in standard_battery(4) if f.label == "box-a")))
    want = PINNED_SAMPLE_SHA256 + (PINNED_BOX_A_N4_SHA256,)
    for (params, f), digest in zip(cases, want):
        pts = sample_smooth_points(params, f, np.random.default_rng(SEED), 500)
        assert pts.shape == (500, params.n) and pts.T.flags.c_contiguous
        assert _digest(pts) == digest, f.label


def test_jacobian_suite_negative_control():
    # the deliberately corrupted closed form must trip the suite
    res = jacobian_suite(random_draws=500, flow_samples=100, seed=SEED,
                         corrupt_closed_form=True)
    assert not res.passed
    assert res.worst_error > 1e-10


def test_jacobian_suite_passes_where_the_main_term_cancels():
    """On seed 15 at n = 3 and seed 104 at n = 4 a random draw's main term
    1 + 2 a_n + sum b_i^2 cancels to about 1e-6, and closed form minus
    remainder differs from it by one rounding unit: that agreement is within
    the rounding bound of the terms, so the suite passes.  The corrupted
    closed form still fails on the same draws.  Fewer dims keep a prefix
    of the draw stream of the default dims, which holds both draws."""
    for seed, dims in ((15, (2, 3)), (104, (4,))):
        res = jacobian_suite(random_draws=100_000, flow_samples=100, seed=seed, dims=dims)
        assert res.passed and res.worst_error <= 1e-10, seed
        bad = jacobian_suite(random_draws=100_000, flow_samples=100, seed=seed, dims=dims,
                             corrupt_closed_form=True)
        assert not bad.passed and bad.worst_error > 1e-10, seed


def test_foliation_suite_passes():
    res = foliation_suite(pairs=300, seed=SEED)
    assert res.passed
    assert "0 violations" in res.detail


def _foliation_suite_loop(pairs, seed):
    """Per-pair reference for foliation_suite, on the single-point API."""
    rng = np.random.default_rng(seed)
    violations, worst, total = 0, 0.0, 0
    lams, dims = (0.0, 0.3, 1.0, 2.5), (2, 3)
    assert (verify.FOLIATION_LAMS, verify.FOLIATION_DIMS) == (lams, dims)
    per = max(1, pairs // (len(lams) * len(dims)))
    for n in dims:
        for lam in lams:
            params = ConeParams(n, lam)
            bound = foliation_lipschitz_bound(params)
            xs, ys, bs = (verify._sample_slice_points(params, rng, per, boundary=b)
                          for b in (False, False, True))
            ts = rng.uniform(-2.0, 2.0, size=per)
            us = rng.uniform(-2.0, 2.0, size=per)
            for i in range(per):
                total += 1
                x, y, b = xs[i], ys[i], bs[i]
                t, u = float(ts[i]), float(us[i])
                gx, gy = gamma_curve(params, x, t), gamma_curve(params, y, u)
                if np.max(np.abs(gamma_curve(params, x, u) - gy)) == 0.0:
                    violations += 1
                gb = gamma_curve(params, b, t)
                worst = max(worst, abs(gb[-2] - omega_profile(params, gb[:-2], gb[-1])))
                violations += classify_ambient_point(params, gb) != "boundary"
                violations += classify_ambient_point(params, gx) == "outside"
                lhs = float(np.linalg.norm(gx - gy))
                rhs = (np.linalg.norm(x[:-1] - y[:-1])
                       + abs(x[-1] - y[-1]) + abs(t - u))
                if lhs > bound * rhs * (1.0 + 1e-12) + 1e-12:
                    violations += 1
                    worst = max(worst, lhs - bound * rhs)
    return violations, worst, total


def test_foliation_suite_matches_per_pair_loop():
    for seed in (SEED, 101):
        res = foliation_suite(pairs=400, seed=seed)
        violations, worst, total = _foliation_suite_loop(400, seed)
        assert (res.passed, res.worst_error, res.samples) == (violations == 0, worst, total)
        assert res.detail == f"{violations} violations over {total} sampled pairs"


def test_remainder_suite_passes():
    res = remainder_suite(points=200, seed=SEED)
    assert res.passed
    assert res.worst_error < 1.0  # strictly inside the certified bound


def test_kato_suite_small():
    res = kato_suite(battery_size=6)
    assert res.passed
    assert res.worst_error >= -1e-8
    assert res.samples == 6 * 3 * len(verify.KATO_SPECS)


def test_run_suites_dispatch():
    results = run_suites(random_draws=300, flow_samples=100, pairs=120, points=100,
                         battery_size=4, seed=SEED)
    assert [r.name for r in results] == ["jacobian", "foliation", "remainder", "kato"]
    # 4 dims of draws plus the flow samples; 8 cones; 2 fields at 21 levels;
    # 3 dimensions at 3 apertures
    assert [r.samples for r in results] == [4 * 300 + 100, 120, 2 * 21 * 100, 4 * 3 * 3]
