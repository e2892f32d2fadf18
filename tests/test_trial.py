"""Trial-function families: values, exact gradients, supports, kink sets."""

import dataclasses

import numpy as np
import pytest
from conftest import is_smooth_point

from conestab import trial
from conestab.domain import ConeParams, PlanePoint
from conestab.quadrature import QuadratureSpec, sigma_grid
from conestab.trial import (TrialFunction, build_trial, make_boundary_bump, make_radial_bump,
                            make_shifted_bump, make_tensor_bump, sample_smooth_points, scaled,
                            standard_battery)

SEED = 20260810


def test_radial_bump_examples():
    f = make_radial_bump(np.zeros(3), 1.0, 3)
    assert f.evaluator(np.zeros(3)) == 1.0                  # peak at its center
    x = np.array([0.5, 0.0, 0.0])
    assert f.evaluator(x) == pytest.approx(0.5)             # 1 - |x|
    assert f.evaluator(np.array([0.0, 0.0, 1.7])) == 0.0    # support cutoff
    assert f.lipschitz_bound == pytest.approx(1.0)
    assert f.support_radius == pytest.approx(1.0)


def test_radial_bump_rejects_bad_shape():
    with pytest.raises(ValueError):
        make_radial_bump(np.zeros(3), -1.0, 3)
    with pytest.raises(ValueError):
        make_radial_bump(np.zeros(3), 1.0, 3, exponent=0)


def test_gradient_matches_finite_differences(rng):
    """Exact gradients agree with centered differences at smooth points."""
    params = ConeParams(3, 0.6)
    fields = [
        make_radial_bump([0.0, 0.0, 1.2], 0.8, 3),
        make_radial_bump([0.2, 0.0, 1.0], 0.6, 3, exponent=2),
        make_tensor_bump([0.0, 0.0, 1.0], 0.5, 3),
        make_tensor_bump([0.0, 0.0, 1.4], 0.6, 3, exponent=2),
        make_boundary_bump(1.1, 3),
    ]
    step = 1e-6
    for f in fields:
        pts = sample_smooth_points(params, f, rng, 1000)
        grad = f.gradient(pts)
        fd = np.empty_like(grad)
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            fd[:, j] = (f.evaluator(pts + e) - f.evaluator(pts - e)) / (2 * step)
        tol = 1e-5 * (1.0 + f.lipschitz_bound)
        assert np.max(np.abs(grad - fd)) <= tol


def test_compact_support_sampled(rng):
    for f in (make_radial_bump([0.0, 0.0, 1.5], 0.7, 3),
              make_tensor_bump([0.0, 0.0, 1.0], 0.5, 3, exponent=2)):
        direction = rng.normal(size=(1000, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radii = f.support_radius * rng.uniform(1.0, 3.0, size=1000)
        pts = direction * radii[:, None]
        assert np.all(f.evaluator(pts) == 0.0)
        assert np.all(f.gradient(pts) == 0.0)


def test_lipschitz_bound_sampled(rng):
    f = make_tensor_bump([0.0, 0.0, 1.0], 0.5, 3, exponent=2)
    a = rng.uniform(-2, 2, size=(500, 3))
    b = rng.uniform(-2, 2, size=(500, 3))
    gap = np.abs(f.evaluator(a) - f.evaluator(b))
    dist = np.linalg.norm(a - b, axis=1)
    assert np.all(gap <= f.lipschitz_bound * dist * (1 + 1e-12))


def test_smooth_point_predicate():
    """The sampler's mask and the reference predicate agree point by point."""
    f = make_radial_bump([0.0, 0.0, 1.0], 0.5, 3)
    pts = np.array([[0.0, 0.0, 1.0],                  # tip of the bump
                    [0.0, 0.0, 1.5],                  # on the axis x' = 0
                    [0.5, 0.0, 1.0],                  # support sphere kink
                    [0.2, 0.1, 1.1],                  # generic point
                    PlanePoint([0.2, 0.1], 1.1).vector])
    expected = [False, False, False, True, True]
    assert trial._smooth_mask(f, pts, 1e-9).tolist() == expected
    assert [is_smooth_point(f, x) for x in pts] == expected


def test_value_at_vertex_cached():
    assert make_boundary_bump(1.0, 2).value_at_vertex == 1.0
    assert make_radial_bump([0.0, 2.0], 1.0, 2).value_at_vertex == 0.0
    # derived from the evaluator, so it follows every derived field
    f = make_tensor_bump([0.0, 0.2], 0.5, 2)
    lifted = dataclasses.replace(f, evaluator=lambda p: 2.0 + 0.0 * p[..., 0])
    for g in (f, scaled(f, -1.7), lifted):
        assert g.value_at_vertex == float(g.evaluator(np.zeros((1, 2)))[0])
        assert isinstance(g.value_at_vertex, float)


def test_shifted_bump_translates_along_axis():
    f = make_shifted_bump([0.0, 0.0, 0.0], 0.5, 3, shift=2.0)
    assert f.evaluator(np.array([0.0, 0.0, 2.0])) == 1.0
    assert f.value_at_vertex == 0.0


def test_scaled_field():
    f = make_boundary_bump(1.0, 2)
    g = scaled(f, 3.0)
    x = np.array([0.1, 0.3])
    assert g.evaluator(x) == pytest.approx(3.0 * f.evaluator(x))
    assert np.allclose(g.gradient(x), 3.0 * f.gradient(x))
    assert g.value_at_vertex == 3.0
    zero = scaled(f, 0.0)
    assert zero.evaluator(x) == 0.0


def test_build_trial_descriptors():
    f = build_trial({"kind": "radial_bump", "center": [0, 0, 2.0], "radius": 0.8}, 3)
    assert f.evaluator(np.array([0.0, 0.0, 2.0])) == 1.0
    f = build_trial({"kind": "boundary_concentrated", "radius": 1.0, "exponent": 2}, 4)
    assert f.value_at_vertex == 1.0
    f = build_trial({"kind": "tensor_bump", "center": 1.0, "half_width": 0.4}, 3)
    assert f.evaluator(np.array([0.0, 0.0, 1.0])) == 1.0
    with pytest.raises(ValueError):
        build_trial({"kind": "mystery"}, 3)


def test_standard_battery_members_are_valid():
    for n in (2, 3, 4):
        battery = standard_battery(n)
        assert len(battery) == 20
        assert len({f.label for f in battery}) == 20
        for f in battery:
            assert f.dimension == n
            assert f.support_radius <= 3.1
            assert f.lipschitz_bound > 0
            # support descriptor honest: zero outside the stated ball
            far = np.zeros(n)
            far[0] = f.support_radius * 1.01
            assert f.evaluator(far) == 0.0


def test_sampler_emits_smooth_support_points(rng):
    params = ConeParams(3, 0.4)
    f = make_radial_bump([0.0, 0.0, 1.2], 0.8, 3)
    pts = sample_smooth_points(params, f, rng, 256)
    assert pts.shape == (256, 3)
    assert np.all(f.evaluator(pts) != 0.0)
    assert is_smooth_point(f, pts)
    # strictly inside the slice
    assert np.all(pts[:, -1] > params.lam * np.linalg.norm(pts[:, :-1], axis=1))


def test_gradient_vanishes_where_field_vanishes_on_grid_nodes():
    """The contract slice integrals rely on to skip the zero set of f."""
    specs = {2: QuadratureSpec(), 3: QuadratureSpec(), 4: QuadratureSpec(48, 10, 48, 3.1),
             5: QuadratureSpec(32, 8, 32, 3.1)}
    for n, spec in specs.items():
        pts, _, _ = sigma_grid(ConeParams(n, 0.3), spec)
        battery = standard_battery(n)
        for f in battery + [scaled(battery[12], -1.7)]:
            zero = f.evaluator(pts) == 0.0
            assert np.all(f.gradient(pts[zero]) == 0.0), (n, f.label)


def test_fields_vanish_outside_their_support_box_on_grid_nodes():
    """The contract support_sample relies on to evaluate only the nodes in
    the box: f and grad f are exactly 0 at every sigma-grid node outside the
    unpadded box, for every family at exponents 1 and 2, a scaled field and
    the battery's descriptors."""
    specs = {2: QuadratureSpec(48, 2, 48, 3.1), 3: QuadratureSpec(32, 16, 32, 3.1),
             4: QuadratureSpec(24, 8, 24, 3.1), 5: QuadratureSpec(16, 6, 16, 3.1)}
    for n, spec in specs.items():
        pts, _, _ = sigma_grid(ConeParams(n, 0.3), spec)
        off = np.zeros(n)
        off[0], off[-1] = 0.3, 1.2
        fields = standard_battery(n)
        for p in (1, 2):
            fields += [make_radial_bump(off, 0.7, n, exponent=p),
                       make_tensor_bump(off, 0.5, n, exponent=p),
                       make_shifted_bump(off, 0.6, n, shift=0.4, exponent=p),
                       make_boundary_bump(0.9, n, exponent=p)]
        fields.append(scaled(fields[-3], -2.5))
        for f in fields:
            lo, hi = (np.array(b) for b in f.support_box)
            assert lo.shape == hi.shape == (n,) and np.all(lo < hi), f.label
            outside = np.any((pts < lo) | (pts > hi), axis=-1)
            assert np.any(outside)
            assert np.all(f.evaluator(pts[outside]) == 0.0), (n, f.label)
            assert np.all(f.gradient(pts[outside]) == 0.0), (n, f.label)


def test_support_box_defaults_hashes_and_survives_replace():
    f = make_radial_bump([0.1, 0.0, 1.2], 0.5, 3, exponent=2)
    assert f.support_box == ((-0.4, -0.5, 0.7), (0.6, 0.5, 1.7))
    assert make_tensor_bump([0.0, 0.0, 1.0], 0.25, 3).support_box == \
        ((-0.25, -0.25, 0.75), (0.25, 0.25, 1.25))
    assert scaled(f, 3.0).support_box == f.support_box
    assert all(isinstance(v, float) for bound in f.support_box for v in bound)
    hand_built = TrialFunction(dimension=3, evaluator=f.evaluator, gradient=f.gradient,
                               support_radius=1.5, lipschitz_bound=1.0)
    assert hand_built.support_box == ((-1.5,) * 3, (1.5,) * 3)
    for g in (f, hand_built):
        assert {g: 1}[g] == 1 and hash(g) == hash(g)
        traced = dataclasses.replace(g, evaluator=lambda p: g.evaluator(p))
        assert traced.support_box == g.support_box
