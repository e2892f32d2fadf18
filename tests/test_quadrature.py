"""Quadrature over the slice, the weighted trace integral, and the dyadic
difference-quotient machinery -- each against an independent oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conestab import cli, quadrature, stability, variation
from conestab.domain import ConeParams
from conestab.errors import DivergentBoundaryIntegral, QuadratureError
from conestab.quadrature import (LiminfEstimate, QuadratureSpec, _dyadic_ladder,
                                 _plane_traces, boundary_integral, compensated_sum,
                                 compensated_sums, energies_and_traces, gauss_legendre,
                                 integrate_sigma, liminf_quotient, liminf_quotients,
                                 sigma_grid, sphere_grid, support_sample, support_samples)
from conestab.stability import lambda_star, shear_transform_check, stability_sweep
from conestab.trial import (Geometry, TrialFunction, battery_descriptors, build_trial,
                            make_boundary_bump, make_radial_bump, make_tensor_bump, scaled,
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

    return TrialFunction(evaluator=evaluator, gradient=gradient, lipschitz_bound=1.0 / ramp,
                         geometry=Geometry("ball", (0.0,) * n, flat + ramp),
                         label=f"plateau({flat},{ramp})")


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(radial_nodes=1)
    with pytest.raises(ValueError):
        QuadratureSpec(support_radius=0.0)


@pytest.mark.parametrize("geometry", [
    {"support_radius": math.inf}, {"support_radius": math.nan},
    {"support_radius": -math.inf}],
    ids=["radius-inf", "radius-nan", "radius-minus-inf"])
def test_spec_rejects_non_finite_geometry(geometry):
    with pytest.raises(ValueError, match="must be finite"):
        QuadratureSpec(**geometry)


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sigma_grid_is_radius_major_direction_axis_minor(n):
    """The documented node order: radii never decrease, each run of
    box_nodes_per_axis nodes shares its x' and climbs in x_n, and the grid
    is rebuilt bit for bit on a second call."""
    params, spec = ConeParams(n, 0.6), QuadratureSpec(6, 4, 5, 2.0)
    pts, w, radii = sigma_grid(params, spec)
    assert np.all(np.diff(radii) >= 0.0)
    runs = pts.reshape(-1, spec.box_nodes_per_axis, n)
    assert np.array_equal(runs[:, :, :-1], np.repeat(runs[:, :1, :-1], 5, axis=1))
    assert np.all(np.diff(runs[:, :, -1], axis=1) > 0.0)
    assert np.allclose(radii, np.repeat(np.linalg.norm(runs[:, 0, :-1], axis=1), 5),
                       rtol=1e-15, atol=0.0)
    again = sigma_grid(params, spec)
    assert all(np.array_equal(a, b) for a, b in zip((pts, w, radii), again))


def test_emitted_nodes_are_smooth_points_of_the_battery():
    """Node generation must only emit smooth points: each battery member's
    nodes lie off the axis and off its kink set (the centre and support
    sphere of a radial hat, the faces of a box)."""
    from conftest import is_smooth_point
    for n, spec in ((2, QuadratureSpec(64, 2, 64, 3.0)),
                    (3, QuadratureSpec(64, 16, 64, 3.0)),
                    (3, QuadratureSpec(128, 64, 128, 3.0)),
                    (4, QuadratureSpec(32, 8, 32, 3.1))):
        for lam in (0.0, 0.3, 1.1):
            for f in standard_battery(n):
                pts = support_sample(ConeParams(n, lam), f, spec)[0]
                assert pts.shape[0] > 0 and is_smooth_point(f, pts), (n, lam, f.label)


def whole_rule_sample(params, f, spec):
    """The support sample found by evaluating f on every node of its rule:
    the reference for :func:`support_sample`."""
    pts, weights = quadrature._slice_rules(params, [f.geometry], spec)[0]
    fv = f.evaluator(pts)
    mask = fv != 0.0
    sub = pts[mask]
    return sub, weights[mask], np.linalg.norm(sub[:, :-1], axis=-1), f.gradient(sub), fv[mask]


def assert_same_sample(params, f, spec):
    got = support_sample(params, f, spec)
    want = whole_rule_sample(params, f, spec)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b), (params, f.label)
    return got


SAMPLE_SPECS = {2: QuadratureSpec(32, 2, 32, 3.1), 3: QuadratureSpec(24, 8, 24, 3.1),
                4: QuadratureSpec(16, 6, 16, 3.1), 5: QuadratureSpec(12, 4, 12, 3.1)}


def test_support_sample_matches_whole_grid_reference():
    """The sample drops only the exact zeros of f from the field's whole
    rule and keeps rule order: every array equals the whole-rule sample's
    exactly, for the battery, a scaled member and the plateau field (default
    ball geometry), at lam = 0, 0.3, lam* and 2 lam* (n = 2 has no lam*).
    Every node lies strictly inside the slice and off the axis, with a
    positive weight."""
    for n, spec in SAMPLE_SPECS.items():
        lams = [0.0, 0.3]
        if n >= 3:
            star = lambda_star(n).lambda_star
            lams += [star, 2.0 * star]
        battery = standard_battery(n)
        fields = battery + [scaled(battery[13], -1.7), plateau_field(n)]
        for lam in lams:
            for f in fields:
                pts, weights, radii, _, _ = assert_same_sample(ConeParams(n, lam), f, spec)
                assert pts.shape[0] > 0, (n, lam, f.label)
                assert np.all(radii > 0.0) and np.all(weights > 0.0), (n, lam, f.label)
                assert np.all(pts[:, -1] > lam * radii), (n, lam, f.label)


def test_support_sample_when_the_box_leaves_the_grid():
    """The slice rules follow the field's geometry, not the spec's support
    radius: a radius that would clip the supports leaves every sample as it
    is.  A support that misses the slice gives an empty sample, on which the
    area and the Dirichlet energy are 0."""
    params = ConeParams(3, 0.3)
    clipped = QuadratureSpec(24, 8, 24, 1.0)
    for f in standard_battery(3) + [plateau_field(3)]:
        got = assert_same_sample(params, f, clipped)
        for a, b in zip(got, support_sample(params, f, SAMPLE_SPECS[3])):
            assert np.array_equal(a, b), f.label
    below = make_radial_bump([0.0, 0.0, -1.0], 0.5, 3)
    beside = make_radial_bump([2.0, 0.0, 0.1], 0.3, 3)
    box_below = make_tensor_bump([0.0, 0.0, -1.0], 0.4, 3)
    for f in (below, beside, box_below):
        pts, weights, radii, grads, values = assert_same_sample(params, f, SAMPLE_SPECS[3])
        assert pts.shape == (0, 3) and grads.shape == (0, 3)
        assert weights.size == radii.size == values.size == 0
        assert dirichlet_energy(params, f, SAMPLE_SPECS[3]) == 0.0
        for t in (0.0, 0.1):
            assert area(params, f, t, SAMPLE_SPECS[3]) == 0.0


def test_spec_support_radius_changes_neither_energy_nor_trace():
    """E and T follow the field alone: a spec radius of 1.0, below the reach
    of most battery supports (out to 2.9), gives E and T bit for bit as a
    radius of 3.1 does, so the two are never cut off apart."""
    wide, clipped = QuadratureSpec(24, 8, 24, 3.1), QuadratureSpec(24, 8, 24, 1.0)
    for n in (3, 4):
        for lam in (0.0, 0.3, 1.1):
            params = ConeParams(n, lam)
            for f in standard_battery(n) + [plateau_field(n)]:
                for quantity in (dirichlet_energy, boundary_integral):
                    assert quantity(params, f, clipped) == quantity(params, f, wide), \
                        (n, lam, f.label, quantity.__name__)


def plain(x):
    """x with dataclasses as tuples and arrays as lists, comparable by ==."""
    if dataclasses.is_dataclass(x):
        return tuple(plain(getattr(x, field.name)) for field in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(plain(v) for v in x)
    return x.tolist() if isinstance(x, np.ndarray) else x


def test_program_paths_never_materialise_the_whole_grid(monkeypatch):
    """Reports, sweeps and the shear check never build the sigma grid: with
    sigma_grid raising they return exactly the values of an unpatched run."""
    spec = QuadratureSpec(16, 6, 16, 3.1)
    params = ConeParams(3, 0.3)
    battery = standard_battery(3)[:4]

    def run():
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


def ray_spans_reference(params, c, omega, reach):
    """quadrature._ray_spans in its first form, with the roots stacked and
    the edges concatenated, and their divisions by 0 silenced."""
    lam = params.lam
    wp, wn = omega[:, :-1], omega[:, -1]
    a = wn * wn - lam * lam * np.sum(wp * wp, axis=-1)
    b = c[-1] * wn - lam * lam * (wp @ c[:-1])
    cc = c[-1] ** 2 - lam * lam * float(c[:-1] @ c[:-1])
    disc = b * b - a * cc
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
        roots = np.stack([q / a, cc / q], axis=1)
    roots = np.where((disc >= 0.0)[:, None] & np.isfinite(roots), roots, 0.0)
    edges = np.sort(np.concatenate([np.zeros((len(a), 1)), np.clip(roots, 0.0, reach),
                                    np.full((len(a), 1), reach)], axis=1), axis=1)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    x = c + mid[..., None] * omega[:, None, :]
    inside = x[..., -1] - lam * np.linalg.norm(x[..., :-1], axis=-1) > 0.0
    lo = np.min(np.where(inside, edges[:, :-1], reach), axis=1)
    hi = np.max(np.where(inside, edges[:, 1:], 0.0), axis=1)
    return lo, np.maximum(lo, hi)


def test_ray_spans_match_their_reference(rng):
    """The spans of random rays from random centres (on the axis or off it),
    with rays along the cone among them (a = 0, where the reference divides
    by 0), equal the reference's bit for bit, without a division by 0."""
    for _ in range(300):
        n = int(rng.integers(2, 7))
        lam = float(rng.choice([0.0, 0.3, 1.0, 3.0]))
        c = rng.normal(size=n) * rng.choice([0.0, 0.5, 2.0])
        if rng.random() < 0.3:
            c[:-1] = 0.0
        omega = rng.normal(size=(int(rng.integers(1, 40)), n))
        omega[::3, :-1] = np.eye(1, n - 1)
        omega[::3, -1] = lam
        omega /= np.linalg.norm(omega, axis=1)[:, None]
        params, reach = ConeParams(n, lam), float(rng.uniform(0.1, 4.0))
        with np.errstate(divide="raise", invalid="raise"):
            got = quadrature._ray_spans(params, c[None], omega, [reach], [len(omega)])
        for a, b in zip(got, ray_spans_reference(params, c, omega, reach)):
            assert a.tobytes() == b.tobytes(), (n, lam, c)


def test_stacked_ray_spans_equal_one_call_per_run(rng):
    """Runs of rays from several centres, each with its own reach, give in
    one call the spans each run gives alone, bit for bit: centres on the
    axis, at the vertex and off it, with rays along the cone among them."""
    for _ in range(200):
        n = int(rng.integers(2, 7))
        lam = float(rng.choice([0.0, 0.3, 1.0, 3.0]))
        params, runs = ConeParams(n, lam), int(rng.integers(1, 6))
        centres = rng.normal(size=(runs, n)) * rng.choice([0.0, 0.5, 2.0], size=(runs, 1))
        centres[rng.random(runs) < 0.3, :-1] = 0.0
        reaches = rng.uniform(0.1, 4.0, size=runs)
        counts = rng.integers(1, 30, size=runs).tolist()
        omega = rng.normal(size=(sum(counts), n))
        omega[::3, :-1] = np.eye(1, n - 1)
        omega[::3, -1] = lam
        omega /= np.linalg.norm(omega, axis=1)[:, None]
        with np.errstate(divide="raise", invalid="raise"):
            got = quadrature._ray_spans(params, centres, omega, reaches, counts)
        ends = np.cumsum(counts)
        for i, (e, k) in enumerate(zip(ends, counts)):
            alone = quadrature._ray_spans(params, centres[i:i + 1], omega[e - k:e],
                                          reaches[i:i + 1], [k])
            for a, b in zip(got, alone):
                assert a[e - k:e].tobytes() == b.tobytes(), (n, lam, i)


def assert_same_samples(params, fields, spec):
    """support_samples equals one support_sample call per field, array for
    array, bit for bit."""
    together = support_samples(params, fields, spec)
    assert len(together) == len(fields)
    for f, got in zip(fields, together):
        for a, b in zip(got, support_sample(params, f, spec)):
            assert a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
                np.ascontiguousarray(b).tobytes(), (params, spec, f.label)


# panel rules of one Gauss-Legendre panel (2 * angular_nodes <= 32) and of
# composite panels; radial_nodes // 8 = 2 lets the nodes per ray follow the
# field's degree, so one call mixes several of them
BATTERY_SPECS = (QuadratureSpec(16, 8, 16, 3.1), QuadratureSpec(16, 20, 16, 3.1))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_support_samples_of_the_battery_equal_one_call_per_field(n):
    """The 20-member battery, a scaled member and (at n <= 4, where the full
    sphere grid of its rays stays small) a ball field, at lam = 0, lam*/2,
    lam*, 2 lam*, 1 and 3, on a one-panel and a composite-panel spec."""
    star = lambda_star(n).lambda_star
    fields = standard_battery(n) + [scaled(standard_battery(n)[2], -1.7)]
    fields += [plateau_field(n)] if n <= 4 else []
    for spec in BATTERY_SPECS[:1] if n == 6 else BATTERY_SPECS:
        for lam in (0.0, 0.5 * star, star, 2.0 * star, 1.0, 3.0):
            assert_same_samples(ConeParams(n, lam), fields, spec)


field_descriptors = st.lists(st.one_of(
    st.fixed_dictionaries({"kind": st.just("radial_bump"),
                           "center": st.floats(-1.0, 2.5), "radius": st.floats(0.2, 1.5),
                           "exponent": st.integers(1, 3)}),
    st.builds(lambda h, a, r, p: {"kind": "radial_bump", "center": f"offaxis:{h}:{a}",
                                  "radius": r, "exponent": p},
              st.floats(-0.5, 2.5), st.floats(0.05, 1.5), st.floats(0.2, 1.2),
              st.integers(1, 3)),
    st.fixed_dictionaries({"kind": st.just("shifted_bump"), "center": st.floats(0.0, 1.0),
                           "radius": st.floats(0.2, 1.0), "shift": st.floats(-1.0, 2.0),
                           "exponent": st.integers(1, 2)}),
    st.fixed_dictionaries({"kind": st.just("tensor_bump"), "center": st.floats(0.3, 2.0),
                           "half_width": st.floats(0.1, 0.6),
                           "exponent": st.integers(1, 2)})), min_size=1, max_size=6)


@given(descs=field_descriptors, n=st.integers(3, 6), spec=st.sampled_from(BATTERY_SPECS),
       lam=st.sampled_from(["0", "star/2", "star", "2star", "1", "3"]))
def test_support_samples_of_drawn_fields_equal_one_call_per_field(descs, n, spec, lam):
    """Radial, off-axis, shifted and box fields drawn together, at n = 3..6."""
    star = lambda_star(n).lambda_star
    lam = {"0": 0.0, "star/2": 0.5 * star, "star": star, "2star": 2.0 * star,
           "1": 1.0, "3": 3.0}[lam]
    if n == 6:
        spec = BATTERY_SPECS[0]
    assert_same_samples(ConeParams(n, lam), [build_trial(d, n) for d in descs], spec)


def test_support_sample_evaluates_few_nodes_outside_the_support():
    """At the n = 5 spec of the margin benchmark, the nodes each battery
    member's rule evaluates are at most 1.5 times its support nodes in
    total and at most 2.5 times for any one field."""
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


def test_rules_above_the_node_budget_are_refused():
    """A rule that would place more than MAX_RULE_NODES nodes is refused with
    a QuadratureError before it is built: the box rule at n = 5 with 512 box
    nodes per axis (64^5 nodes), and at n = 8 with the default spec the
    box's rule (8^8), a ball's sphere grid of directions and the sigma grid;
    at n = 2 the trace grid of 2^23 radii on the two points of S^0.  At
    lam = 0.3 the box misses the cone: its trace is 0.0, with no rule to
    refuse."""
    box5 = make_tensor_bump(1.0, 0.5, 5)
    with pytest.raises(QuadratureError, match=f"box rule needs {64 ** 5} nodes"):
        dirichlet_energy(ConeParams(5, 0.3), box5, QuadratureSpec(64, 16, 512, 3.1))
    params, spec = ConeParams(8, 0.3), QuadratureSpec()
    box8 = make_tensor_bump(1.0, 0.5, 8)
    ball8 = dataclasses.replace(box8, geometry=Geometry("ball", (0.0,) * 7 + (1.0,), 0.8))
    crossing = make_radial_bump([0.0, 1.0], 0.8, 2)
    for compute, rule in ((lambda: dirichlet_energy(params, box8, spec), "box rule"),
                          (lambda: dirichlet_energy(params, ball8, spec), "slice rule"),
                          (lambda: sigma_grid(params, spec), "sigma grid"),
                          (lambda: boundary_integral(ConeParams(2, 1.0), crossing, QuadratureSpec(
                              radial_nodes=2 ** 23)), f"trace grid needs {2 ** 24} nodes")):
        with pytest.raises(QuadratureError, match=rule):
            compute()
    assert boundary_integral(params, box8, spec) == 0.0
    # the radial rules stay small at any n
    for f in (make_boundary_bump(1.0, 8), make_radial_bump("offaxis:1.4:0.4", 0.5, 8)):
        assert dirichlet_energy(params, f, spec) > 0.0
        assert boundary_integral(params, f, spec) >= 0.0


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
    vals = _plane_traces(params, [f] * epsilons.size, QuadratureSpec(96, 2, 8, 3.0),
                         epsilons.tolist())
    slope = np.polyfit(np.log(1.0 / epsilons), vals, 1)[0]
    assert abs(slope - 2.0) <= 0.1
    assert np.all(np.diff(vals) > 0)


def test_boundary_integral_polar_and_cutoff_agree():
    """At n = 2, a cutoff below the inner radius of a trace span that starts
    off the vertex leaves T bit for bit: both read the logarithmic grid from
    that radius."""
    params, spec = ConeParams(2, 1.0), QuadratureSpec(64, 16, 64, 3.0)
    f = make_radial_bump([0.0, 1.0], 0.8, 2)
    assert quadrature.trace_span(params, f)[0] > 1e-8
    plain = boundary_integral(params, f, spec)
    assert plain > 0.0 and _plane_traces(params, [f], spec, [1e-8]) == [plain]


MARGIN_SPECS = {3: QuadratureSpec(64, 16, 64, 3.1), 4: QuadratureSpec(48, 10, 48, 3.1),
                5: QuadratureSpec(32, 8, 32, 3.1)}


def test_trace_matches_the_divergence_theorem():
    """T as a slice integral, -2 int f (d_n f)/|x'| on the support sample,
    and reference_trace's rule on the boundary, which share no nodes, give
    the same T for the radial members on the axis (vertex, axis, deep) at
    the margin benchmark's specs: within 1e-12 relative, and within
    rounding of E where T is 0.  An off-axis bump that crosses the boundary
    agrees within 1e-5 at four times those specs, where the slice rule is
    not aligned with the 1/|x'| weight."""
    for n, spec in MARGIN_SPECS.items():
        star = lambda_star(n).lambda_star
        for lam in (0.5 * star, star, 2.0 * star):
            params = ConeParams(n, lam)
            for desc in battery_descriptors(18):
                if desc["kind"] == "tensor_bump":
                    continue
                f = build_trial(desc, n)
                scale = dirichlet_energy(params, f, spec)
                assert boundary_integral(params, f, spec) == pytest.approx(
                    reference_trace(params, f, spec), rel=1e-12, abs=1e-14 * scale), \
                    (n, lam, desc["id"])
        fine = QuadratureSpec(4 * spec.radial_nodes, 4 * spec.angular_nodes,
                              4 * spec.box_nodes_per_axis, spec.support_radius)
        params = ConeParams(n, 0.6)
        f = make_radial_bump("offaxis:0.9:0.4", 0.7, n, exponent=2)
        trace = boundary_integral(params, f, fine)
        assert trace > 0.0
        assert reference_trace(params, f, fine) == pytest.approx(trace, rel=1e-5), n


def test_trace_span_is_empty_only_where_the_region_misses_the_cone():
    """Across the battery, and ball-geometry copies of its radial members,
    at n = 2..6 and lam in {0, lam*/2, lam*, 2 lam*, 1, 3} (n = 2: 0, 0.5,
    1, 3): wherever trace_span is empty, a boundary rule out to the reach,
    built directly (the trace grid at n = 2, reference_grid's above), sums
    f^2 to exactly 0.0, and boundary_integral returns 0.0.  The exit fires
    for boxes, off-axis radial fields and balls alike, and leaves their
    open ranges reach-bounded as before."""
    fired = set()
    for n in (2, 3, 4, 5, 6):
        spec = MARGIN_SPECS.get(n, QuadratureSpec(24, 6, 24, 3.1))
        lams = (0.0, 0.5, 1.0, 3.0)
        if n > 2:
            star = lambda_star(n).lambda_star
            lams = (0.0, 0.5 * star, star, 2.0 * star, 1.0, 3.0)
        battery = standard_battery(n)
        battery += [dataclasses.replace(f, geometry=Geometry(
            "ball", f.geometry.center, f.geometry.radius)) for f in battery
            if f.geometry.shape == "radial"]
        for lam in lams:
            params = ConeParams(n, lam)
            root_q = math.sqrt(1.0 + lam * lam)
            for f in battery:
                geom = f.geometry
                span = quadrature.trace_span(params, f)
                if span == (0.0, 0.0):
                    reach = geom.reach / root_q
                    pts, weights = (quadrature.trace_grid(params, spec, reach)[:2] if n == 2
                                    else reference_grid(params, f, spec, 0.0, reach))
                    assert compensated_sum(f.evaluator(pts) ** 2 * weights) == 0.0, \
                        (n, lam, f.label)
                    assert boundary_integral(params, f, spec) == 0.0
                    fired.add("off-axis" if geom.shape == "radial" and geom.offset
                              else geom.shape)
                elif geom.shape != "radial" or geom.offset:
                    assert span == (0.0, geom.reach / root_q), (n, lam, f.label)
    assert {"box", "off-axis", "ball"} <= fired


def test_trace_span_decides_at_the_cone_within_rounding():
    """Regions that touch the boundary cone keep their range; moved off it
    by 1e-6 of their size, the range is empty: a box whose far corner or
    near edge touches it, an off-axis ball tangent to it, and a ball whose
    nearest point of the cone is the vertex."""
    def span(lam, f):
        return quadrature.trace_span(ConeParams(3, lam), f)

    w = 0.5
    h = w + 0.5 * w * math.sqrt(2.0)  # lam |x'| at the far corner = h - w
    assert span(0.5, make_tensor_bump(h, w, 3))[1] > 0.0
    assert span(0.5, make_tensor_bump(h + 1e-6 * w, w, 3)) == (0.0, 0.0)
    # the near edge x_1 = 0.75 at lam = 3 touches the top face x_n = 2.25
    assert span(3.0, make_tensor_bump([1.0, 0.0, 2.0], 0.25, 3))[1] > 0.0
    assert span(3.0, make_tensor_bump([1.0, 0.0, 2.0 - 1e-6 * 0.25], 0.25, 3)) == (0.0, 0.0)
    for center, lam, dist in (([0.4, 0.0, 1.4], 1.0, 1.0 / math.sqrt(2.0)),
                              ([0.2, 0.0, -0.5], 1.0, math.hypot(0.2, 0.5))):
        assert span(lam, make_radial_bump(center, dist, 3))[1] > 0.0
        assert span(lam, make_radial_bump(center, dist * (1.0 - 1e-6), 3)) == (0.0, 0.0)


def test_a_trace_that_misses_the_cone_reads_no_grid(monkeypatch):
    """box-b at n = 5, lam*: its cube lies above the cone, so its trace is
    0.0 without a support sample, a trace grid or an evaluation of the
    field."""
    n = 5
    params = ConeParams(n, lambda_star(n).lambda_star)
    box_b = next(d for d in battery_descriptors() if d["id"] == "box-b")

    def refuse(*args, **kwargs):
        raise AssertionError("a sample or a grid was built")

    f = dataclasses.replace(build_trial(box_b, n), evaluator=refuse)
    for name in ("support_samples", "trace_grid"):
        monkeypatch.setattr(quadrature, name, refuse)
    assert boundary_integral(params, f, MARGIN_SPECS[n]) == 0.0


@pytest.mark.parametrize("log_from", [0.0, -0.5, math.nan])
def test_trace_grid_refuses_a_log_grid_from_a_non_positive_radius(log_from):
    """A logarithmic trace grid starts at a positive radius: log_from zero,
    negative or NaN raises instead of giving a linear grid, and 0.25 gives
    radii inside (0.25, 1).  The trace grid is the n = 2 rule; at n = 3 it
    raises."""
    params, spec = ConeParams(2, 0.5), QuadratureSpec(8, 4, 8, 1.0)
    with pytest.raises(ValueError, match=f"log_from must be positive, got {log_from!r}"):
        quadrature.trace_grid(params, spec, 1.0, log_from=log_from)
    radii = quadrature.trace_grid(params, spec, 1.0, log_from=0.25)[2]
    assert 0.25 < radii.min() and radii.max() < 1.0
    with pytest.raises(ValueError, match="the trace grid is the n = 2 rule, got n = 3"):
        quadrature.trace_grid(ConeParams(3, 0.5), spec, 1.0, log_from=0.25)


def one_trace(params, f, spec):
    """boundary_integral of f, None where it diverges."""
    try:
        return boundary_integral(params, f, spec)
    except DivergentBoundaryIntegral:
        return None


def reference_directions(n, geom, m):
    """Unit x'-directions and weights that integrate a field's trace over
    S^(n-2): S^0 at n = 2; one direction carrying |S^(n-2)| for a radial
    field centred on the axis; for one centred off it, cos(psi) a + sin(psi) e
    about its centre's x'-direction a, psi in (0, pi) with the weight
    |S^(n-3)| sin^(n-3) psi, integrated by Gauss-Legendre in cos(psi) for
    even n, where the weight is polynomial in it, else by the midpoint rule
    in psi; else the sphere grid."""
    def measure(k):
        return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)

    if n == 2 or geom.shape != "radial":
        return sphere_grid(n - 2, m)
    if geom.offset == 0.0:
        return np.eye(1, n - 1), np.array([measure(n - 2)])
    a = np.asarray(geom.center[:-1]) / geom.offset
    e = np.eye(n - 1)[np.argmin(np.abs(a))]
    e = e - (e @ a) * a
    e /= np.linalg.norm(e)
    if n % 2 == 0:
        cos_p, w = np.polynomial.legendre.leggauss(m)
        sin_p = np.sqrt(1.0 - cos_p ** 2)
        w = w * sin_p ** (n - 4)
    else:
        psi = np.pi * (np.arange(m) + 0.5) / m
        cos_p, sin_p = np.cos(psi), np.sin(psi)
        w = sin_p ** (n - 3) * (np.pi / m)
    return cos_p[:, None] * a + sin_p[:, None] * e, w * measure(n - 3)


def reference_grid(params, f, spec, lower, r_max):
    """Nodes (m, n) and weights (m,) on the slice boundary that integrate
    h(x) / |x'| for h with f's symmetry over lower < |x'| < r_max: polar,
    with its own scalar radii rule, logarithmic in |x'| when lower > 0."""
    n = params.n
    if lower > 0.0:
        u, wu = gauss_legendre(math.log(lower), math.log(r_max), spec.radial_nodes)
        r = np.exp(u)
        wr = wu * r ** (n - 2)  # du = dr/r
    else:
        r, wr = gauss_legendre(0.0, r_max, spec.radial_nodes)
        wr = wr * r ** (n - 3)
    xi, w_xi = reference_directions(n, f.geometry, spec.angular_nodes)
    pts = np.empty((r.size, w_xi.size, n))
    pts[..., :-1] = r[:, None, None] * xi
    pts[..., -1] = (params.lam * r)[:, None]
    return pts.reshape(-1, n), (wr[:, None] * w_xi).ravel()


def reference_trace(params, f, spec, cutoff=0.0):
    """One field's trace integral on the boundary, cut off at ``cutoff``, by
    reference_grid on its trace span, with its own reduction; None where it
    diverges.  At n = 2 it is the program's trace grid, bit for bit."""
    n = params.n
    if n == 2 and cutoff == 0.0 and f.value_at_vertex != 0.0:
        return None
    r_min, r_max = quadrature.trace_span(params, f)
    lower = max(cutoff, r_min)
    if lower >= r_max:
        return 0.0
    pts, weights = reference_grid(params, f, spec, lower, r_max)
    return compensated_sum(f.evaluator(pts) ** 2 * weights)


def _bits(values):
    return [np.float64(v).tobytes() if v is not None else v for v in values]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_battery_traces_equal_one_call_per_field(n):
    """The traces of a battery from one energies_and_traces pass equal one
    boundary_integral per field, bit for bit, with None where that raises
    DivergentBoundaryIntegral: the battery and ball copies of its radial
    members, so that empty spans and non-empty ones mix in one call, at lam
    in {0, lam*/2, lam*, 2 lam*, 1, 3} (n = 2: 0.5, 1, 3).  At n = 2 one
    _plane_traces pass with a cutoff per field, 0, 1e-4 or 0.5, so that
    linear and logarithmic grids and cut and uncut fields mix in one call,
    equals reference_trace at each field's cutoff bit for bit, every field
    at every cutoff; the vertex fields diverge without a cutoff, each on
    its own."""
    spec = MARGIN_SPECS.get(n, QuadratureSpec(24, 6, 24, 3.1))
    battery = standard_battery(n)
    battery += [dataclasses.replace(f, geometry=Geometry(
        "ball", f.geometry.center, f.geometry.radius)) for f in battery
        if f.geometry.shape == "radial"]
    lams, cutoffs = (0.5, 1.0, 3.0), (0.0, 1e-4, 0.5)
    if n > 2:
        star = lambda_star(n).lambda_star
        lams = (0.0, 0.5 * star, star, 2.0 * star, 1.0, 3.0)
    seen = set()
    for lam in lams:
        params = ConeParams(n, lam)
        got = [trace for _, trace in energies_and_traces(
            params, battery, support_samples(params, battery, spec), spec)]
        assert _bits(got) == _bits([one_trace(params, f, spec) for f in battery]), lam
        seen |= {"empty" if v == 0.0 else "divergent" if v is None else "value" for v in got}
        for k in range(len(cutoffs) if n == 2 else 0):
            cut = [cutoffs[(i + k) % len(cutoffs)] for i in range(len(battery))]
            want = [reference_trace(params, f, spec, c) for f, c in zip(battery, cut)]
            assert _bits(_plane_traces(params, battery, spec, cut)) == _bits(want), (lam, k)
    assert seen == ({"empty", "divergent", "value"} if n == 2 else {"empty", "value"})
    assert energies_and_traces(ConeParams(n, 1.0), [], [], spec) == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_battery_passes_sample_once_and_build_no_trace_grid(n, monkeypatch):
    """At n >= 3 T comes from the support sample that gives E: with the
    trace grid refused, stability_sweep, the shear checks, the variation
    reports and second_variation_closed_form each make one support_samples
    call, at 2 lam*, where boxes meet the cone."""
    def refuse(*args, **kwargs):
        raise AssertionError("a trace grid was built")

    monkeypatch.setattr(quadrature, "trace_grid", refuse)
    calls = []
    real = quadrature.support_samples

    def counting(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(quadrature, "support_samples", counting)
    params, spec = ConeParams(n, 2.0 * lambda_star(n).lambda_star), MARGIN_SPECS[n]
    battery = standard_battery(n)
    passes = (lambda: stability_sweep(params, battery, spec).margins,
              lambda: [trace for _, _, trace in stability._shear_checks(params, battery, spec)],
              lambda: [r.boundary_term for r in variation._variation_reports(
                  params, battery, None, 3, spec)],
              lambda: [variation.second_variation_closed_form(params, battery[0], spec)
                       .boundary_term])
    for run, size in zip(passes, (len(battery),) * 3 + (1,)):
        calls.clear()
        assert any(value != 0.0 for value in run())
        assert calls == [size]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_battery_passes_in_blocks_equal_one_block_and_one_field(n, monkeypatch):
    """With the block budget small enough to split the 20-member battery
    (boxes and off-axis members included) into several blocks, at 2 lam*,
    stability_sweep's margins, the shear triples and the variation reports
    equal the one-block results and one call per field bit for bit.  Each
    support_samples call of a pass takes the next fields in order, whose
    rules hold at most the budget's elements (nodes times n), unless it is
    one field whose rule alone holds more."""
    params, spec = ConeParams(n, 2.0 * lambda_star(n).lambda_star), MARGIN_SPECS[n]
    battery = standard_battery(n)
    sizes = {f.label: n * quadrature._rule_nodes(params, f.geometry, spec)[1] for f in battery}
    passes = (lambda fields: _bits(stability_sweep(params, fields, spec).margins),
              lambda fields: [_bits(c) for c in stability._shear_checks(params, fields, spec)],
              lambda fields: cli._jsonable(variation._variation_reports(
                  params, fields, None, 4, spec)))
    one_block = [run(battery) for run in passes]
    assert one_block == [[value for f in battery for value in run([f])] for run in passes]
    calls = []
    real = quadrature.support_samples

    def recording(params, fields, spec, nodes):
        calls.append([f.label for f in fields])
        return real(params, fields, spec, nodes)

    monkeypatch.setattr(quadrature, "support_samples", recording)
    for budget in (1, max(sizes.values()) // 2, sum(sizes.values()) // 4):
        monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", budget)
        for run, want in zip(passes, one_block):
            calls.clear()
            assert run(battery) == want, budget
            assert [label for block in calls for label in block] == [f.label for f in battery]
            assert len(calls) > 2, budget
            for block in calls:
                assert len(block) == 1 or sum(sizes[label] for label in block) <= budget


@pytest.mark.parametrize("n", [3, 4, 5])
def test_each_pass_counts_each_rule_once(n, monkeypatch):
    """stability_sweep, the shear checks, the variation reports and
    second_variation_closed_form count each field's rule exactly once
    (_rule_nodes), in field order, at 2 lam* on the 20-member battery, in
    one block and under budgets that split it: the pass hands each block
    the counts it made, and the block builds its rules from them."""
    params, spec = ConeParams(n, 2.0 * lambda_star(n).lambda_star), MARGIN_SPECS[n]
    battery = standard_battery(n)
    counted, real = [], quadrature._rule_nodes

    def counting(params, geom, spec):
        counted.append(geom)
        return real(params, geom, spec)

    sizes = [n * real(params, f.geometry, spec)[1] for f in battery]
    monkeypatch.setattr(quadrature, "_rule_nodes", counting)
    passes = ((lambda: stability_sweep(params, battery, spec), battery),
              (lambda: stability._shear_checks(params, battery, spec), battery),
              (lambda: variation._variation_reports(params, battery, None, 3, spec), battery),
              (lambda: variation.second_variation_closed_form(params, battery[0], spec),
               battery[:1]))
    for budget in (quadrature._BLOCK_ELEMENTS, 1, max(sizes) // 2, sum(sizes) // 4):
        monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", budget)
        for run, fields in passes:
            counted.clear()
            run()
            assert [id(g) for g in counted] == [id(f.geometry) for f in fields], budget


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


def padded_sum_4096(values):
    """compensated_sum as it was before short rows were padded to their
    pairwise subtree: every row zero-padded to a multiple of 4,096."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        return 0.0
    pad = (-v.size) % 4096
    if pad:
        v = np.concatenate([v, np.zeros(pad)])
    return math.fsum(v.reshape(-1, 4096).sum(axis=1).tolist())


def bits(x):
    return np.float64(x).tobytes()


@given(size=st.integers(1, 9000), exponent=st.integers(-300, 250),
       spread=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_compensated_sum_keeps_the_bits_of_the_padded_reduction(size, exponent, spread, seed):
    """Rows of 1..9,000 elements at magnitudes 1e-300..1e250, of one scale or
    spread over 40 decades, sum to the bits of the 4,096-padded reduction."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=size) * 10.0 ** exponent
    if spread:
        v *= 10.0 ** rng.integers(-20, 20, size=size)
    assert bits(compensated_sum(v)) == bits(padded_sum_4096(v))


@given(sizes=st.lists(st.integers(0, 9000), min_size=1, max_size=8),
       exponent=st.integers(-300, 250), seed=st.integers(0, 2 ** 32 - 1))
def test_compensated_sums_keep_the_bits_of_one_call_per_segment(sizes, exponent, seed):
    """Segments of 0..9,000 elements, reduced in one call, sum to the bits of
    compensated_sum and of the 4,096-padded reduction, segment by segment."""
    rng = np.random.default_rng(seed)
    segments = [rng.normal(size=k) * 10.0 ** exponent for k in sizes]
    got = [bits(x) for x in compensated_sums(segments)]
    assert got == [bits(compensated_sum(v)) for v in segments]
    assert got == [bits(padded_sum_4096(v)) for v in segments]


def test_compensated_sums_of_empty_and_negative_zero_segments():
    """Empty segments sum to 0.0, and segments of -0.0 to the 0.0 of the
    padded reduction, among others of every chunk width."""
    rng = np.random.default_rng(3)
    sizes = [0, 1, 7, 127, 128, 129, 0, 4095, 4096, 4097, 8192, 9000, 0]
    segments = [np.full(k, -0.0) if i % 2 else rng.normal(size=k)
                for i, k in enumerate(sizes)]
    got = [bits(x) for x in compensated_sums(segments)]
    assert got == [bits(padded_sum_4096(v)) for v in segments]
    assert [got[i] for i, k in enumerate(sizes) if i % 2 or k == 0] == \
        [bits(0.0)] * sum(1 for i, k in enumerate(sizes) if i % 2 or k == 0)
    assert compensated_sums([]) == []


def test_compensated_sums_add_chunk_sums_exactly():
    """Chunks of 4,096 elements summing to 1, 1e-16 and 1e-16 add exactly to
    1 + 2e-16 in every segment over 8,192 elements, where one pairwise tree
    over 16,384 would round it to 1."""
    segments = []
    for size in (8193, 9000, 12288):
        v = np.zeros(size)
        v[[0, 4096, 8192]] = 1.0, 1e-16, 1e-16
        segments.append(v)
    assert compensated_sums(segments + [np.ones(3)]) == [math.fsum([1.0, 1e-16, 1e-16])] * 3 + [3.0]


def test_compensated_sum_of_negative_zeros_is_positive_zero():
    """A row of -0.0 sums to the 0.0 of the padded reduction at every size,
    padded or not."""
    for size in range(1, 9001):
        v = np.full(size, -0.0)
        assert bits(compensated_sum(v)) == bits(padded_sum_4096(v)) == bits(0.0), size


# -- dyadic quotients ----------------------------------------------------------

# A second-order quotient 2 (F(t) - F(0)) / t^2 is taken, as variation_report
# takes it, as the first-order quotient of 2 F(sqrt(s)) in s = t^2.

def quotient(F, t0, levels):
    """liminf_quotient of F on the ladder t0 * 2^-k, k < levels."""
    ts = _dyadic_ladder(t0, levels)
    return liminf_quotient(ts, F(0.0), F(ts))


def test_quotient_exact_quadratic_order_two():
    est = quotient(lambda s: 2.0 * s, t0=0.5 ** 2, levels=6)   # F(t) = t^2
    assert est.extrapolated == pytest.approx(2.0, abs=1e-12)
    assert est.converged


def test_quotient_exact_quadratic_order_one():
    est = quotient(lambda t: t * t, t0=0.5, levels=8)
    assert est.extrapolated == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(est.quotients, est.parameters)


def test_quotient_with_cubic_correction():
    # F(t) = t^2 + t^4: the correction is of first order in s
    est = quotient(lambda s: 2.0 * (s + s * s), t0=0.25 ** 2, levels=6)
    assert np.allclose(est.quotients, 2.0 + 2.0 * est.parameters)
    assert est.extrapolated == pytest.approx(2.0, abs=1e-10)


@given(a=st.floats(min_value=-5, max_value=5), b=st.floats(min_value=-5, max_value=5))
def test_quotient_generic_smooth_function(a, b):
    # F(t) = a t^2 + b t^4
    est = quotient(lambda s: 2.0 * (a * s + b * s * s), t0=0.25 ** 2, levels=6)
    assert est.extrapolated == pytest.approx(2.0 * a, abs=1e-8)


def test_quotient_validation():
    """The estimator takes the ladder and its values as arrays, and checks
    them: a ladder of three or more strictly decreasing positive steps, one
    finite value per step."""
    ts = _dyadic_ladder(0.1, 4)
    with pytest.raises(TypeError):  # the quotient is first order only
        liminf_quotient(ts, 0.0, ts, order=1)
    with pytest.raises(TypeError):  # values, not a callable
        liminf_quotient(ts, 0.0, lambda t: t)
    with pytest.raises(ValueError):
        liminf_quotient(ts[:2], 0.0, ts[:2])
    with pytest.raises(ValueError):
        liminf_quotient(-ts, 0.0, -ts)
    with pytest.raises(ValueError):
        liminf_quotient(ts, 0.0, ts[:1])
    with pytest.raises(QuadratureError):
        liminf_quotient(ts, 0.0, np.where(ts < 0.05, np.nan, ts))


def test_estimate_invariants_enforced():
    with pytest.raises(ValueError):
        LiminfEstimate(parameters=np.array([1.0, 2.0, 3.0]),
                       quotients=np.zeros(3), extrapolated=0.0,
                       converged=True, tail_min=0.0)


def scalar_liminf(parameters, f0, values):
    """One ladder's estimate in scalar arithmetic, as a reference for the
    array pass: (quotients, Richardson limit, convergence flag, tail minimum)."""
    quotients = (np.asarray(values, dtype=float) - float(f0)) / np.asarray(parameters)
    tail = quotients[-3:]
    scale = max(1.0, float(np.max(np.abs(tail))))
    table = list(quotients[-4:])  # Richardson: step ratio 2, error orders 1, 2, 3
    for level in range(1, len(table)):
        factor = 2.0 ** level
        table = [(factor * table[i + 1] - table[i]) / (factor - 1.0)
                 for i in range(len(table) - 1)]
    return (quotients, float(table[0]), bool(np.max(tail) - np.min(tail) <= 1e-3 * scale),
            float(np.min(tail)))


@given(st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
                          st.floats(-1.0, 1.0)), min_size=1, max_size=6),
       st.integers(3, 14), st.booleans())
def test_batched_quotients_equal_one_call_per_ladder(ladders, levels, squared):
    """liminf_quotients over ladders of one length gives, ladder by ladder,
    the LiminfEstimate of liminf_quotient bit for bit: parameters, quotients,
    the Richardson limit, the convergence flag and the tail minimum; and
    the quotients, limit, flag and minimum equal scalar_liminf's."""
    params, f0s, values = [], [], []
    for t0, a, b, f0 in ladders:
        ts = _dyadic_ladder(t0, levels, squared=squared)
        params.append(ts)
        f0s.append(f0)
        values.append(f0 + a * ts + b * ts * ts * np.sin(1.0 / ts))
    got = liminf_quotients(params, f0s, values)
    want = [liminf_quotient(p, f0, v) for p, f0, v in zip(params, f0s, values)]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.parameters.tobytes() == w.parameters.tobytes()
        assert g.quotients.tobytes() == w.quotients.tobytes()
        assert np.float64(g.extrapolated).tobytes() == np.float64(w.extrapolated).tobytes()
        assert (g.converged, np.float64(g.tail_min).tobytes()) == \
            (w.converged, np.float64(w.tail_min).tobytes())
        assert type(g.extrapolated) is float and type(g.converged) is bool
    for g, p, f0, v in zip(got, params, f0s, values):
        quotients, limit, converged, low = scalar_liminf(p, f0, v)
        assert g.quotients.tobytes() == quotients.tobytes()
        assert np.float64(g.extrapolated).tobytes() == np.float64(limit).tobytes()
        assert (g.converged, np.float64(g.tail_min).tobytes()) == \
            (converged, np.float64(low).tobytes())


def test_batched_quotients_check_their_ladders():
    """The batch refuses what one ladder refuses: a values array of another
    shape, a non-finite value (named by the first such parameter, ladder
    by ladder), and a ladder that is not strictly decreasing and positive."""
    ts = [_dyadic_ladder(0.1, 5), _dyadic_ladder(0.3, 5)]
    with pytest.raises(ValueError, match="8 values for 10 parameters"):
        liminf_quotients(ts, [0.0, 0.0], [ts[0][:4], ts[1][:4]])
    bad = [ts[0], np.where(ts[1] < 0.05, np.nan, ts[1])]
    with pytest.raises(QuadratureError, match=f"at parameter {ts[1][3]}"):
        liminf_quotients(ts, [0.0, 0.0], bad)
    with pytest.raises(ValueError, match="strictly decreasing"):
        liminf_quotients([ts[0], ts[1][::-1]], [0.0, 0.0], ts)
