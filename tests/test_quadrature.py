"""Quadrature over the slice, the weighted trace integral, and the dyadic
difference-quotient machinery -- each against an independent oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conestab import quadrature
from conestab.domain import ConeParams
from conestab.errors import DivergentBoundaryIntegral, QuadratureError
from conestab.quadrature import (LiminfEstimate, QuadratureSpec, boundary_integral,
                                 compensated_sum, gauss_legendre, integrate_sigma,
                                 liminf_quotient, sigma_grid, sphere_grid, support_sample)
from conestab.stability import lambda_star, shear_transform_check, stability_sweep
from conestab.trial import (TrialFunction, make_boundary_bump, make_radial_bump, scaled,
                            standard_battery)
from conestab.variation import area, dirichlet_energy, variation_report


def smoothstep(u):
    v = np.clip(u, 0.0, 1.0)
    return v * v * (3.0 - 2.0 * v)


def plateau_field(n, flat=1.0, ramp=0.5):
    """1 inside |x| <= flat, smooth^0 linear ramp to 0 at flat+ramp."""
    def evaluator(pts):
        r = np.linalg.norm(pts, axis=-1)
        return np.clip((flat + ramp - r) / ramp, 0.0, 1.0)

    def gradient(pts):
        r = np.linalg.norm(pts, axis=-1)
        inside = (r > flat) & (r < flat + ramp)
        safe = np.where(r > 0, r, 1.0)
        return pts * np.where(inside, -1.0 / (ramp * safe), 0.0)[..., None]

    def kink_distance(pts):
        r = np.linalg.norm(pts, axis=-1)
        return np.minimum(np.abs(r - flat), np.abs(r - flat - ramp))

    return TrialFunction(
        dimension=n, evaluator=evaluator, gradient=gradient,
        support_radius=flat + ramp, lipschitz_bound=1.0 / ramp,
        kink_distance=kink_distance, inradius=flat,
        label=f"plateau({flat},{ramp})")


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(radial_nodes=1)
    with pytest.raises(ValueError):
        QuadratureSpec(support_radius=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(epsilon_cutoff=-1e-3)


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(0.0, 2.0, 12)
    assert np.dot(w, x ** 5) == pytest.approx(2.0 ** 6 / 6.0, rel=1e-13)
    assert np.sum(w) == pytest.approx(2.0, rel=1e-14)


def test_sphere_measures():
    pts, w = sphere_grid(0, 4)
    assert pts.shape == (2, 1) and np.sum(w) == 2.0
    _, w = sphere_grid(1, 64)
    assert np.sum(w) == pytest.approx(2 * math.pi, rel=1e-13)
    _, w = sphere_grid(2, 64)
    assert np.sum(w) == pytest.approx(4 * math.pi, rel=1e-13)
    _, w = sphere_grid(3, 32)
    assert np.sum(w) == pytest.approx(2 * math.pi ** 2, rel=1e-13)
    _, w = sphere_grid(4, 16)
    assert np.sum(w) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-13)


def test_cached_rules_are_read_only_and_match_fresh_builds():
    for m in (1, 2, 7, 16, 32):
        for cached, fresh in zip(quadrature._leggauss(m),
                                 np.polynomial.legendre.leggauss(m)):
            assert np.array_equal(cached, fresh)
            with pytest.raises(ValueError):
                cached[0] = 0.0
    for d, m in ((0, 4), (1, 8), (2, 10), (3, 8), (4, 6)):
        for cached, fresh in zip(sphere_grid(d, m), sphere_grid.__wrapped__(d, m)):
            assert np.array_equal(cached, fresh)
            with pytest.raises(ValueError):
                cached[0] = 0.0


def test_sphere_points_are_unit():
    for d in (1, 2, 3):
        pts, _ = sphere_grid(d, 8)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)


def test_nodes_avoid_axis_and_stay_inside():
    params = ConeParams(3, 0.8)
    pts, w, radii = sigma_grid(params, QuadratureSpec(16, 8, 16, 2.0))
    assert np.all(radii > 0)
    assert np.all(pts[:, -1] > params.lam * radii)
    assert np.all(w > 0)
    # each node is an axis Gauss-Legendre node of the half-space x_n > 0,
    # sheared up by lam*|x'| onto the slice
    axis_nodes, _ = gauss_legendre(0.0, 2.0, 16)
    heights = pts[:, -1] - params.lam * np.linalg.norm(pts[:, :-1], axis=1)
    assert np.max(np.min(np.abs(heights[:, None] - axis_nodes), axis=1)) <= 1e-14


def test_emitted_nodes_are_smooth_points_of_the_battery():
    """Node generation must only emit smooth points: off the axis and off
    every kink set of the standard battery."""
    from conftest import is_smooth_point
    for n, spec in ((2, QuadratureSpec(64, 2, 64, 3.0)),
                    (3, QuadratureSpec(64, 16, 64, 3.0)),
                    (3, QuadratureSpec(128, 64, 128, 3.0)),
                    (4, QuadratureSpec(32, 8, 32, 3.1))):
        pts, _, _ = sigma_grid(ConeParams(n, 0.3), spec)
        for f in standard_battery(n):
            assert is_smooth_point(f, pts), (n, f.label)


def whole_grid_sample(params, f, spec):
    """The support sample found by evaluating f on the whole sigma grid: the
    reference for :func:`support_sample`."""
    pts, weights, radii = sigma_grid(params, spec)
    fv = f.evaluator(pts)
    mask = fv != 0.0
    sub = pts[mask]
    return sub, weights[mask], radii[mask], f.gradient(sub), fv[mask]


def assert_same_sample(params, f, spec):
    got = support_sample(params, f, spec)
    want = whole_grid_sample(params, f, spec)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b), (params, f.label)
    return got


SAMPLE_SPECS = {2: QuadratureSpec(32, 2, 32, 3.1), 3: QuadratureSpec(24, 8, 24, 3.1),
                4: QuadratureSpec(16, 6, 16, 3.1), 5: QuadratureSpec(12, 4, 12, 3.1)}


def test_support_sample_matches_whole_grid_reference():
    """Selecting nodes by support box drops no support node and keeps grid
    order: every array equals the whole-grid sample's exactly, for the
    battery, a scaled member and the box-less plateau field (default box),
    at lam = 0, 0.3, lam* and 2 lam* (n = 2 has no lam*)."""
    for n, spec in SAMPLE_SPECS.items():
        lams = [0.0, 0.3]
        if n >= 3:
            star = lambda_star(n).lambda_star
            lams += [star, 2.0 * star]
        battery = standard_battery(n)
        fields = battery + [scaled(battery[13], -1.7), plateau_field(n)]
        for lam in lams:
            for f in fields:
                assert_same_sample(ConeParams(n, lam), f, spec)


def test_support_sample_when_the_box_leaves_the_grid():
    """A support radius that clips the boxes still gives the reference
    sample; a box that misses the grid gives an empty sample, on which the
    area and the Dirichlet energy are 0."""
    params = ConeParams(3, 0.3)
    clipped = QuadratureSpec(24, 8, 24, 1.0)
    for f in standard_battery(3) + [plateau_field(3)]:
        assert_same_sample(params, f, clipped)
    far = make_radial_bump([0.0, 0.0, 4.0], 0.5, 3)
    below = make_radial_bump([0.0, 0.0, -1.0], 0.5, 3)
    for f in (far, below):
        pts, weights, radii, grads, values = assert_same_sample(params, f, SAMPLE_SPECS[3])
        assert pts.shape == (0, 3) and grads.shape == (0, 3)
        assert weights.size == radii.size == values.size == 0
        assert dirichlet_energy(params, f, SAMPLE_SPECS[3]) == 0.0
        for t in (0.0, 0.1):
            assert area(params, f, t, SAMPLE_SPECS[3]) == 0.0


def plain(x):
    """x with dataclasses as tuples and arrays as lists, comparable by ==."""
    if dataclasses.is_dataclass(x):
        return tuple(plain(getattr(x, field.name)) for field in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(plain(v) for v in x)
    return x.tolist() if isinstance(x, np.ndarray) else x


def test_program_paths_never_materialise_the_whole_grid(monkeypatch):
    """Reports, sweeps and the shear check read the grid only through its
    tensor factors: with sigma_grid raising and the grid caches emptied they
    return exactly the values of an unpatched run."""
    spec = QuadratureSpec(16, 6, 16, 3.1)
    params = ConeParams(3, 0.3)
    battery = standard_battery(3)[:4]

    def run():
        quadrature._sigma_factors.cache_clear()
        support_sample.cache_clear()
        return plain((variation_report(params, battery[0], levels=4, spec=spec),
                      stability_sweep(params, battery, spec),
                      [shear_transform_check(params, f, spec) for f in battery]))

    want = run()

    def whole_grid(*args):
        raise AssertionError("sigma_grid called on a program path")

    monkeypatch.setattr(quadrature, "sigma_grid", whole_grid)
    assert run() == want


def counting(f, counts):
    """f with an evaluator and a gradient that add the nodes they receive
    to ``counts``."""
    def evaluator(pts):
        counts["evaluator"] += len(pts)
        return f.evaluator(pts)

    def gradient(pts):
        counts["gradient"] += len(pts)
        return f.gradient(pts)

    return dataclasses.replace(f, evaluator=evaluator, gradient=gradient)


def test_support_sample_evaluates_few_nodes_outside_the_support():
    """On the n = 5 grid of the margin benchmark, the battery's box
    candidates are at most 1.5 times its support nodes in total and at most
    2.5 times for any one field."""
    spec = QuadratureSpec(32, 8, 32, 3.1)
    star = lambda_star(5).lambda_star
    for lam in (0.5 * star, star, 2.0 * star):
        params = ConeParams(5, lam)
        evaluated = support = 0
        for f in standard_battery(5):
            counts = {"evaluator": 0, "gradient": 0}
            nodes = support_sample(params, counting(f, counts), spec)[1].size
            assert counts["gradient"] == nodes
            assert counts["evaluator"] <= 2.5 * nodes, (lam, f.label)
            evaluated += counts["evaluator"]
            support += nodes
        assert evaluated <= 1.5 * support, lam


def test_zero_integrand():
    params = ConeParams(3, 0.5)
    assert integrate_sigma(params, lambda pts: np.zeros(len(pts)),
                           QuadratureSpec(8, 4, 8, 1.0)) == 0.0


def test_half_disk_area_via_smoothed_indicator():
    """Flat half-space reference: the smoothed unit-disk indicator integrates
    to the half-disk area pi/2 within 1e-4 at 128^2 nodes (smoothing bias
    pi*delta^2/40 plus quadrature error)."""
    params = ConeParams(2, 0.0)
    spec = QuadratureSpec(128, 2, 128, 1.2)
    delta = 0.02

    def chi(pts):
        return smoothstep((1.0 + delta / 2 - np.linalg.norm(pts, axis=-1)) / delta)

    got = integrate_sigma(params, chi, spec)
    exact_smoothed = math.pi * (0.5 + delta ** 2 / 40.0)
    assert got == pytest.approx(exact_smoothed, abs=5e-5)
    assert abs(got - math.pi / 2) <= 1e-4


def test_dirichlet_energy_of_interior_bump_is_ball_volume():
    """|grad f| = 1 on the support ball of the unit hat bump, so the energy
    is the volume of the unit ball in R^3."""
    params = ConeParams(3, 1.0)
    f = make_radial_bump([0.0, 0.0, 2.0], 1.0, 3)
    spec = QuadratureSpec(640, 8, 640, 3.0)
    got = integrate_sigma(params, lambda p: np.sum(f.gradient(p) ** 2, axis=-1), spec)
    assert abs(got - 4.0 * math.pi / 3.0) <= 1e-3


def test_boundary_integral_closed_form_oracle():
    """Unit vertex hat at lam = 1 in R^3: the trace is (1 - sqrt(2) r)_+ and
    the weighted integral reduces to 2*pi * int_0^{1/sqrt2} (1-sqrt2 r)^2 dr
    = pi*sqrt(2)/3."""
    params = ConeParams(3, 1.0)
    f = make_boundary_bump(1.0, 3)
    got = boundary_integral(params, f, QuadratureSpec(64, 16, 64, 3.0))
    assert got == pytest.approx(math.pi * math.sqrt(2.0) / 3.0, abs=1e-4)


def test_boundary_integral_zero_for_interior_support():
    params = ConeParams(3, 1.0)
    f = make_radial_bump([0.0, 0.0, 2.0], 1.0, 3)  # support clear of the boundary
    assert boundary_integral(params, f, QuadratureSpec(64, 16, 64, 3.0)) == 0.0


def test_boundary_integral_log_divergence_rate_two_dims():
    """Cutoff regularization of the flat-trace field: the integral grows like
    2*log(1/eps); the fitted slope must match 2 within 5%."""
    params = ConeParams(2, 1.0)
    f = plateau_field(2)
    epsilons = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    vals = []
    for eps in epsilons:
        spec = QuadratureSpec(96, 2, 8, 3.0, epsilon_cutoff=float(eps))
        vals.append(boundary_integral(params, f, spec))
    slope = np.polyfit(np.log(1.0 / epsilons), vals, 1)[0]
    assert abs(slope - 2.0) <= 0.1
    assert np.all(np.diff(vals) > 0)


def test_boundary_integral_polar_and_cutoff_agree():
    params = ConeParams(3, 1.0)
    f = make_boundary_bump(1.0, 3)
    plain = boundary_integral(params, f, QuadratureSpec(64, 16, 64, 3.0))
    cut = boundary_integral(params, f, QuadratureSpec(64, 16, 64, 3.0,
                                                      epsilon_cutoff=1e-8))
    assert cut == pytest.approx(plain, rel=1e-6)


def test_divergent_trace_is_signalled():
    params = ConeParams(2, 0.7)
    f = make_boundary_bump(1.0, 2)  # vertex value 1
    with pytest.raises(DivergentBoundaryIntegral):
        boundary_integral(params, f, QuadratureSpec(32, 2, 32, 2.0))
    # vanishing vertex value: finite without any cutoff
    g = make_radial_bump([0.0, 1.5], 0.8, 2)
    assert boundary_integral(params, g, QuadratureSpec(32, 2, 32, 3.0)) >= 0.0


def test_non_finite_integrand_rejected():
    params = ConeParams(3, 0.5)
    with pytest.raises(QuadratureError):
        integrate_sigma(params, lambda pts: np.full(len(pts), np.nan),
                        QuadratureSpec(8, 4, 8, 1.0))
    with pytest.raises(QuadratureError):
        integrate_sigma(params, lambda pts: np.zeros(3), QuadratureSpec(8, 4, 8, 1.0))


def test_doubling_nodes_stays_within_error_estimate():
    """Self-consistency of the crude error proxy: doubling every node count
    moves the result by less than the estimate.

    The proxy (1e-6 per unit of box volume) is honest for integrands whose
    angular content the grid resolves; integrands with sharp high angular
    harmonics (boxes, far-off-axis bumps) need more angular nodes than the
    coarse spec carries and are excluded here by construction.
    """
    params = ConeParams(3, 0.6)
    f3 = make_radial_bump([0.0, 0.0, 1.5], 0.8, 3, exponent=3)
    from conestab.trial import make_tensor_bump
    g3 = make_tensor_bump([0.0, 0.0, 1.2], 0.6, 3, exponent=3)
    battery = [
        lambda pts: np.sum(f3.gradient(pts) ** 2, axis=-1),
        lambda pts: f3.evaluator(pts) * g3.evaluator(pts),
        lambda pts: smoothstep((2.0 - np.linalg.norm(pts, axis=-1)) / 0.4),
    ]
    coarse_spec = QuadratureSpec(64, 16, 64, 3.0)
    fine_spec = QuadratureSpec(128, 32, 128, 3.0)
    budget = 1e-6 * max(1.0, coarse_spec.support_radius ** params.n)
    for integrand in battery:
        coarse = integrate_sigma(params, integrand, coarse_spec)
        fine = integrate_sigma(params, integrand, fine_spec)
        assert abs(coarse - fine) < budget


def test_compensated_sum_reproducible():
    rng = np.random.default_rng(7)
    v = rng.normal(size=100_001) * 1e6
    a = compensated_sum(v)
    b = compensated_sum(v.copy())
    assert a == b
    assert a == pytest.approx(math.fsum(v.tolist()), abs=1e-14 * np.sum(np.abs(v)))


# -- dyadic quotients ----------------------------------------------------------

# A second-order quotient 2 (F(t) - F(0)) / t^2 is taken, as variation_report
# takes it, as the first-order quotient of 2 F(sqrt(s)) in s = t^2.

def test_quotient_exact_quadratic_order_two():
    est = liminf_quotient(lambda s: 2.0 * s, t0=0.5 ** 2, levels=6)   # F(t) = t^2
    assert est.extrapolated == pytest.approx(2.0, abs=1e-12)
    assert est.converged


def test_quotient_exact_quadratic_order_one():
    est = liminf_quotient(lambda t: t * t, t0=0.5, levels=8)
    assert est.extrapolated == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(est.quotients, est.parameters)


def test_quotient_with_cubic_correction():
    # F(t) = t^2 + t^4: the correction is of first order in s
    est = liminf_quotient(lambda s: 2.0 * (s + s * s), t0=0.25 ** 2, levels=6)
    assert np.allclose(est.quotients, 2.0 + 2.0 * est.parameters)
    assert est.extrapolated == pytest.approx(2.0, abs=1e-10)


@given(a=st.floats(min_value=-5, max_value=5), b=st.floats(min_value=-5, max_value=5))
def test_quotient_generic_smooth_function(a, b):
    # F(t) = a t^2 + b t^4
    est = liminf_quotient(lambda s: 2.0 * (a * s + b * s * s), t0=0.25 ** 2, levels=6)
    assert est.extrapolated == pytest.approx(2.0 * a, abs=1e-8)


def test_quotient_validation():
    with pytest.raises(TypeError):  # the quotient is first order only
        liminf_quotient(lambda t: t, order=1, t0=0.1, levels=4)
    with pytest.raises(ValueError):
        liminf_quotient(lambda t: t, t0=0.1, levels=2)
    with pytest.raises(ValueError):
        liminf_quotient(lambda t: t, t0=-0.1, levels=4)
    with pytest.raises(QuadratureError):
        liminf_quotient(lambda t: float("nan") if t else 0.0, t0=0.1, levels=4)


def test_estimate_invariants_enforced():
    with pytest.raises(ValueError):
        LiminfEstimate(parameters=np.array([1.0, 2.0, 3.0]),
                       quotients=np.zeros(3), extrapolated=0.0,
                       converged=True, tail_min=0.0)
