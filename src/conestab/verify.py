"""Randomized invariant suites: the heart of the `verify` command.

Each suite checks one package-level contract over a seeded sample and
reports its worst observed error, so a run is reproducible bit-for-bit
from (config, seed).  The acceptance tests call these functions with the
criterion sample sizes; the CLI calls them with configured sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flow, jacobian
from .domain import (ConeParams, _sumsq, classify_points, foliation_lipschitz_bound,
                     foliation_map, profile_gap)
from .flow import FlowCoefficients, partials_from_coefficients
from .jacobian import (jacobian_closed_form, jacobian_gram_oracle, remainder,
                       remainder_uniform_bound, wedge_expansion)
from .quadrature import QuadratureSpec
from .stability import _shear_checks, lambda_star
from .trial import make_radial_bump, make_tensor_bump, sample_smooth_points, standard_battery

__all__ = [
    "SuiteResult",
    "jacobian_suite",
    "foliation_suite",
    "remainder_suite",
    "kato_suite",
]

JACOBIAN_TOL = 1e-10         # worst relative disagreement of the jacobian suite
FOLIATION_LAMS = (0.0, 0.3, 1.0, 2.5)
FOLIATION_DIMS = (2, 3)
REMAINDER_MAX_LEVEL = 20     # the remainder suite's times are t = 2^-k, k <= 20
TAIL_FRACTION = 1e-3         # |R|/t^2 at the last t must stay below this part of the bound
KATO_SPECS = {3: QuadratureSpec(64, 16, 64, 3.1), 4: QuadratureSpec(48, 10, 48, 3.1),
              5: QuadratureSpec(32, 8, 32, 3.1)}   # the kato suite's dimensions and rules
KATO_SLACK = 1e-8            # how far below 0 an inequality link may fall


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst_error: float
    samples: int
    detail: str = ""


def _rel_err(a: np.ndarray, b: np.ndarray, floor=0.0) -> float:
    """Worst |a - b| / max(|a|, |b|, floor)."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(floor, 1e-300))
    return float(np.max(np.abs(a - b) / denom))


def _flow_sample_fields(n: int):
    up = np.zeros(n)
    up[-1] = 1.2
    return [make_radial_bump(up, 0.7, n),
            make_tensor_bump(up * (1.0 / 1.2), 0.5, n, exponent=2)]


def _four_way_error(coeffs: FlowCoefficients, main: np.ndarray, bad: float) -> float:
    """Worst relative disagreement among closed form, wedge norm and Gram
    determinant, and of closed form minus remainder against ``main``.

    The three routes to J^2 share a value of at least the closed form's
    summed terms over 1 + 2 max(sum a_i^2, sum b_i^2), but the main term
    1 + 2 a_n + sum b_i^2 can cancel far below its terms.  Each of the ten
    terms of J^2, R and the main term is at most P = (1 + |a_n| + |b_n|)^2
    (1 + sum a_i^2 + sum b_i^2) and carries at most n + 8 roundings, so the
    two sides of that check differ by at most 10 (n + 8) u P through
    rounding; its denominator is floored at that bound over JACOBIAN_TOL.
    """
    a, b = coeffs.alpha, coeffs.beta
    size = ((1.0 + np.abs(a[..., -1]) + np.abs(b[..., -1])) ** 2
            * (1.0 + np.sum(a[..., :-1] ** 2 + b[..., :-1] ** 2, axis=-1)))
    rounding = 10.0 * (coeffs.dimension + 8) * (np.finfo(float).eps / 2) * size
    closed = jacobian_closed_form(coeffs) * bad
    wedge_sq = _sumsq(wedge_expansion(coeffs))
    gram = jacobian_gram_oracle(partials_from_coefficients(coeffs))
    return max(_rel_err(closed, wedge_sq),
               _rel_err(closed, gram),
               _rel_err(wedge_sq, gram),
               _rel_err(closed - remainder(coeffs), main, rounding / JACOBIAN_TOL))


def jacobian_suite(random_draws: int = 10_000, flow_samples: int = 1000,
                   seed: int = 0, dims=(2, 3, 4, 6),
                   corrupt_closed_form: bool = False) -> SuiteResult:
    """Three-way distortion-factor agreement plus the main/remainder split.

    Random coefficient draws cover the pure multilinear identity beyond the
    configurations a flow can reach; genuine flow samples tie the identity
    back to actual deformations, each of the five flow times on its own
    slice of the sampled points.  ``corrupt_closed_form`` is the negative
    control: it perturbs the closed form and must make the suite fail.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    total = 0
    bad = 1.0 + 3e-7 if corrupt_closed_form else 1.0

    for n in dims:
        draws = rng.uniform(-1.0, 1.0, size=(random_draws, 2 * n))
        coeffs = FlowCoefficients(alpha=draws[:, :n], beta=draws[:, n:])
        algebra_main = 1.0 + 2.0 * coeffs.alpha[:, -1] + np.sum(coeffs.beta ** 2, axis=-1)
        worst = max(worst, _four_way_error(coeffs, algebra_main, bad))
        total += random_draws

    params = ConeParams(3, 0.7)
    fields = _flow_sample_fields(3)
    per = max(1, flow_samples // (len(fields) * 5))
    for f in fields:
        pts = sample_smooth_points(params, f, rng, per * 5)
        fv, gv = f.evaluator(pts), f.gradient(pts)
        for i, t in enumerate(np.linspace(0.08, 0.75, 5)):
            sel = slice(i * per, (i + 1) * per)
            args = (params, pts[sel], fv[sel], gv[sel], float(t))
            coeffs = flow._coefficients(*args)
            worst = max(worst, _four_way_error(coeffs, jacobian._main_term(*args), bad))
            total += per
        del pts, fv, gv, args, coeffs  # released before the next field is sampled

    return SuiteResult("jacobian", worst <= JACOBIAN_TOL, worst, total,
                       f"three-way and main/remainder agreement over {total} samples")


def _sample_slice_points(params: ConeParams, rng, count: int, boundary: bool):
    n = params.n
    theta = rng.normal(size=(count, n - 1))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    r = rng.uniform(0.0, 2.0, size=count)
    xp = r[:, None] * theta
    y = np.zeros(count) if boundary else rng.uniform(1e-6, 2.0, size=count)
    xn = params.lam * r + y
    return np.concatenate([xp, xn[:, None]], axis=1)


def foliation_suite(pairs: int = 1000, seed: int = 0) -> SuiteResult:
    """Injectivity, boundary invariance, and the certified Lipschitz bound
    of the foliation, on sampled point pairs.  Zero violations allowed."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    total = 0
    per = max(1, pairs // (len(FOLIATION_LAMS) * len(FOLIATION_DIMS)))
    for n in FOLIATION_DIMS:
        for lam in FOLIATION_LAMS:
            params = ConeParams(n, lam)
            bound = foliation_lipschitz_bound(params)
            xs = _sample_slice_points(params, rng, per, boundary=False)
            ys = _sample_slice_points(params, rng, per, boundary=False)
            bs = _sample_slice_points(params, rng, per, boundary=True)
            ts = rng.uniform(-2.0, 2.0, size=per)
            us = rng.uniform(-2.0, 2.0, size=per)
            total += per
            gx = foliation_map(params, xs, ts)
            gy = foliation_map(params, ys, us)
            # (a) curves through distinct points never meet at equal heights
            gx_same_t = foliation_map(params, xs, us)
            violations += np.count_nonzero(np.max(np.abs(gx_same_t - gy), axis=-1) == 0.0)
            # (b) boundary points stay on the container boundary, interior inside
            gb = foliation_map(params, bs, ts)
            worst = max(worst, float(np.max(np.abs(profile_gap(params, gb)))))
            violations += np.count_nonzero(classify_points(params, gb) != "boundary")
            violations += np.count_nonzero(classify_points(params, gx) == "outside")
            # (c) certified Lipschitz constant in the stated 1-norm
            lhs = np.linalg.norm(gx - gy, axis=-1)
            rhs = (np.linalg.norm(xs[:, :-1] - ys[:, :-1], axis=-1)
                   + np.abs(xs[:, -1] - ys[:, -1]) + np.abs(ts - us))
            over = lhs > bound * rhs * (1.0 + 1e-12) + 1e-12
            if np.any(over):
                violations += np.count_nonzero(over)
                worst = max(worst, float(np.max((lhs - bound * rhs)[over])))
    return SuiteResult("foliation", bool(violations == 0), worst, total,
                       f"{violations} violations over {total} sampled pairs")


def remainder_suite(points: int = 1000, seed: int = 0) -> SuiteResult:
    """Uniform bound |R|/t^2 <= C(Lip f) on dyadic t, plus decay of the tail."""
    rng = np.random.default_rng(seed)
    params = ConeParams(3, 0.7)
    worst_ratio = 0.0  # of |R|/t^2 against the certified bound
    total = 0
    passed = True
    detail = []
    for f in _flow_sample_fields(3):
        bound = remainder_uniform_bound(params, f)
        pts = sample_smooth_points(params, f, rng, points)
        fv, gv = f.evaluator(pts), f.gradient(pts)
        sup_by_level = []
        for k in range(REMAINDER_MAX_LEVEL + 1):
            t = 2.0 ** (-k)
            coeffs = flow._coefficients(params, pts, fv, gv, t)
            ratio = np.max(np.abs(remainder(coeffs))) / (t * t)
            sup_by_level.append(ratio)
            worst_ratio = max(worst_ratio, ratio / bound)
            total += pts.shape[0]
        del pts, fv, gv, coeffs  # released before the next field is sampled
        if max(sup_by_level) > bound:
            passed = False
            detail.append(f"{f.label}: bound {bound:.3g} exceeded")
        if sup_by_level[-1] > TAIL_FRACTION * bound:
            passed = False
            detail.append(f"{f.label}: tail {sup_by_level[-1]:.3g} above {TAIL_FRACTION} * bound")
    return SuiteResult("remainder", passed, worst_ratio, total,
                       "; ".join(detail) or "uniform bound and tail decay hold")


def kato_suite(battery_size: int = 20) -> SuiteResult:
    """Margins of the trace inequality and both links of the threshold chain.

    For each n of ``KATO_SPECS``, each aperture parameter in {0, lam*/2, lam*}
    and each battery member: the direct margin, the aperture-vs-constant
    comparison, and the two flattening contracts must hold with slack >= -KATO_SLACK.
    """
    worst_slack = math.inf
    total = 0
    passed = True
    detail = []
    for n, spec in KATO_SPECS.items():
        thr = lambda_star(n)
        k = thr.k_n
        battery = standard_battery(n, battery_size)
        for lam in (0.0, 0.5 * thr.lambda_star, thr.lambda_star):
            params = ConeParams(n, lam)
            cfac = k / (1.0 + lam) ** 2
            if lam > cfac * (1.0 + 1e-12):
                passed = False
                detail.append(f"n={n}: aperture link failed at lam={lam}")
            shear = _shear_checks(params, battery, spec)
            for f, (energy_f, energy_g, trace) in zip(battery, shear):
                checks = (
                    energy_f - cfac * trace,              # direct margin
                    (cfac - lam) * trace,                 # aperture link applied to the trace
                    (1.0 + lam) ** 2 * energy_f - energy_g,   # flattening gradient contract
                    energy_g - k * trace,                 # half-space trace inequality
                )
                worst_slack = min(worst_slack, *checks)
                total += 1
                if min(checks) < -KATO_SLACK:
                    passed = False
                    detail.append(f"n={n}, lam={lam:.4g}, {f.label}: slack {min(checks):.3g}")
    return SuiteResult("kato", passed, worst_slack, total,
                       "; ".join(detail[:4]) or
                       f"all inequality links hold; worst slack {worst_slack:.3g}")


def run_suites(*, random_draws=10_000, flow_samples=1000, pairs=1000, points=1000,
               battery_size=20, seed=0) -> list[SuiteResult]:
    """The four suites in report order, with the given sample counts."""
    return [jacobian_suite(random_draws, flow_samples, seed),
            foliation_suite(pairs, seed),
            remainder_suite(points, seed),
            kato_suite(battery_size)]
