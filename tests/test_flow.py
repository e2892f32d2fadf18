"""Flow map, its coefficients, and derivative cross-validation.

The flow image of x at time t is the foliation point of x at parameter
t*f(x), ``foliation_map(params, x, t * f.evaluator(x))``."""

import math

import numpy as np
import pytest

from conestab.domain import ConeParams, classify_ambient_point, foliation_map, omega_profile
from conestab.flow import flow_coefficients_batch, partials_from_coefficients
from conestab.trial import (make_boundary_bump, make_radial_bump, make_tensor_bump,
                            sample_smooth_points)


def tensor_plateau_at(x, n, value_shape=0.5):
    """Tensor bump centered at x: f = 1 and grad f = 0 exactly at x."""
    return make_tensor_bump(x, value_shape, n)


def flow_image(params, f, x, t):
    """The flow image of the slice points ``x`` at time t."""
    return foliation_map(params, x, t * f.evaluator(x))


def test_flow_fixes_points_at_time_zero():
    params = ConeParams(3, 0.5)
    f = make_radial_bump([0.0, 0.0, 1.0], 0.7, 3)
    x = np.array([0.3, 0.1, 1.2])
    assert np.allclose(flow_image(params, f, x, 0.0), [0.3, 0.1, 1.2, 0.0])


def test_flow_fixes_points_outside_support():
    params = ConeParams(3, 0.5)
    f = make_radial_bump([0.0, 0.0, 1.0], 0.5, 3)
    x = np.array([2.0, 0.0, 2.5])  # far from the bump
    for t in (0.5, 1.0, 7.0):
        assert np.allclose(flow_image(params, f, x, t), [2.0, 0.0, 2.5, 0.0])


def test_flow_direct_substitution():
    # f = 1 at the evaluation point, gradient zero there
    params = ConeParams(3, 0.5)
    x = np.array([1.0, 0.0, 2.0])
    f = tensor_plateau_at(x, 3)
    out = flow_image(params, f, x, 2.0)
    expected = [1.0, 0.0, 0.5 * math.sqrt(5.0) + 1.5, 2.0]
    assert np.allclose(out, expected, rtol=1e-14)


def test_coefficients_vanish_at_time_zero():
    params = ConeParams(3, 1.2)
    f = make_radial_bump([0.0, 0.0, 1.0], 0.7, 3)
    c = flow_coefficients_batch(params, f, np.array([0.3, 0.2, 1.1]), 0.0)
    assert np.all(c.alpha == 0.0)
    assert np.all(c.beta == 0.0)


def test_coefficient_bounds_sampled(rng):
    """|alpha_n|/t <= lam * Lip(f) and |beta_i|/t <= Lip(f), uniformly."""
    params = ConeParams(3, 0.9)
    f = make_radial_bump([0.0, 0.0, 1.2], 0.8, 3)
    pts = sample_smooth_points(params, f, rng, 500)
    for t in (0.05, 0.3, 1.0):
        c = flow_coefficients_batch(params, f, pts, t)
        assert np.max(np.abs(c.alpha[:, -1])) <= params.lam * f.lipschitz_bound * t * (1 + 1e-12)
        assert np.max(np.abs(c.beta)) <= f.lipschitz_bound * t * (1 + 1e-12)
        # beta is t * grad f, bit-for-bit
        assert np.array_equal(c.beta, t * f.gradient(pts))


def test_constant_field_coefficients():
    # gradient vanishes at the plateau point: alpha_n = 0, beta = 0, but the
    # in-plane alpha keep their geometric part
    params = ConeParams(3, 1.0)
    x = np.array([1.0, 0.0, 2.0])
    f = tensor_plateau_at(x, 3)
    c = flow_coefficients_batch(params, f, x, 1.0)
    assert c.alpha[-1] == 0.0
    assert np.all(c.beta == 0.0)
    assert c.alpha[0] == pytest.approx(1.0 / math.sqrt(2.0) - 1.0, rel=1e-14)
    assert c.alpha[1] == 0.0


def test_degenerate_normalization_returns_zero_coefficients():
    # on the axis with t*f = 0 the normalizing factor vanishes; the limiting
    # convention alpha = 0 applies (such points are never quadrature nodes)
    params = ConeParams(3, 1.0)
    f = make_boundary_bump(1.0, 3)
    pts = np.array([[0.0, 0.0, 0.5]])
    c = flow_coefficients_batch(params, f, pts, 0.0)
    assert np.all(c.alpha == 0.0)
    assert np.all(np.isfinite(c.alpha))


def test_partials_identity_at_time_zero():
    params = ConeParams(3, 0.7)
    f = make_radial_bump([0.0, 0.0, 1.0], 0.7, 3)
    c = flow_coefficients_batch(params, f, np.array([0.2, 0.3, 1.4]), 0.0)
    v = partials_from_coefficients(c)
    assert v.shape == (3, 4)
    assert np.allclose(v, np.eye(3, 4))


def test_partials_constant_field_gives_shear_rows():
    params = ConeParams(3, 1.0)
    x = np.array([1.0, 0.0, 2.0])
    f = tensor_plateau_at(x, 3)
    c = flow_coefficients_batch(params, f, x, 1.0)
    v = partials_from_coefficients(c)
    # the axis-direction row stays e_n when the field is locally constant
    assert np.allclose(v[-1], [0.0, 0.0, 1.0, 0.0])
    assert v[0, 2] == pytest.approx(1.0 / math.sqrt(2.0) - 1.0)


def test_partials_match_finite_differences(rng):
    """Analytic partials vs centered differences of the flow map, 1e-6."""
    params = ConeParams(3, 0.8)
    fields = [make_radial_bump([0.0, 0.0, 1.2], 0.8, 3),
              make_tensor_bump([0.0, 0.0, 1.0], 0.6, 3, exponent=2)]
    step = 2e-7
    for f in fields:
        pts = sample_smooth_points(params, f, rng, 60, margin=2e-3)
        for t in (0.1, 0.7):
            v = partials_from_coefficients(flow_coefficients_batch(params, f, pts, t))
            for j in range(3):
                e = np.zeros(3)
                e[j] = step
                up, down = pts + e, pts - e
                fd = (flow_image(params, f, up, t) - flow_image(params, f, down, t)) / (2 * step)
                scale = np.maximum(np.abs(v[:, j, :]), 1.0)
                assert np.max(np.abs(v[:, j, :] - fd) / scale) <= 1e-6


def test_flow_injective_at_fixed_time(rng):
    params = ConeParams(3, 1.1)
    f = make_boundary_bump(1.3, 3)
    reach = f.geometry.reach

    def slice_points(count):
        # sheared coordinates on the cylinder r, y < reach: in and out of spt f
        theta = rng.normal(size=(count, 2))
        r = rng.uniform(1e-3, reach, size=count)
        xp = r[:, None] * theta / np.linalg.norm(theta, axis=1, keepdims=True)
        y = rng.uniform(1e-3, reach, size=count)
        return np.concatenate([xp, (y + params.lam * r)[:, None]], axis=1)

    xs, ys = slice_points(1000), slice_points(1000)
    inside = np.count_nonzero(f.evaluator(np.concatenate([xs, ys])))
    assert 100 <= inside <= 1900
    t = 0.35
    # the flow image of x is the foliation point at parameter t*f(x)
    fx = flow_image(params, f, xs, t)
    fy = flow_image(params, f, ys, t)
    distinct = np.max(np.abs(xs - ys), axis=1) > 0
    assert np.all(np.max(np.abs(fx - fy), axis=1)[distinct] > 0)


def test_flow_preserves_free_boundary(rng):
    """Slice-boundary points stay on the container boundary for all t."""
    params = ConeParams(2, 1.4)
    f = make_boundary_bump(1.2, 2)
    for _ in range(100):
        a = rng.uniform(-1.5, 1.5)
        x = np.array([a, params.lam * abs(a)])
        for t in (-1.0, -0.2, 0.4, 1.0):
            out = flow_image(params, f, x, t)
            gap = out[-2] - omega_profile(params, out[:-2], out[-1])
            assert abs(gap) <= 1e-13 * (1 + abs(out[-2]))
            assert classify_ambient_point(params, out) == "boundary"


def test_inplane_coefficients_decay_on_dyadic_sequence(rng):
    """alpha_i -> 0 and alpha_n/t -> 0 as t -> 0 off the axis.

    The decay is pointwise, with a constant growing like 1/r^2 toward the
    axis, so the sup is taken over points sampled with a fixed axis margin.
    """
    params = ConeParams(3, 1.0)
    f = make_boundary_bump(1.0, 3)
    pts = sample_smooth_points(params, f, rng, 200, margin=0.1)
    sup_inplane = []
    sup_axis_over_t = []
    for k in range(18):  # the axis ratio decays only linearly in t
        t = 0.5 ** k
        c = flow_coefficients_batch(params, f, pts, t)
        sup_inplane.append(np.max(np.abs(c.alpha[:, :-1])))
        sup_axis_over_t.append(np.max(np.abs(c.alpha[:, -1])) / t)
    assert sup_inplane[-1] <= 1e-4 * max(sup_inplane[0], 1.0)
    assert sup_axis_over_t[-1] <= 1e-4 * max(sup_axis_over_t[0], 1.0)
    assert np.all(np.diff(sup_inplane) <= 1e-12)
