"""Cone geometry, slice membership, and foliation properties."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conestab.domain import (ConeParams, _dot, _prod, _sumsq, classify_ambient_point,
                             classify_points,
                             foliation_lipschitz_bound, foliation_map, gamma_curve,
                             omega_profile)
from conestab.errors import MembershipError


def test_cone_params_validation():
    with pytest.raises(ValueError):
        ConeParams(1, 1.0)
    with pytest.raises(ValueError):
        ConeParams(3, -0.5)
    with pytest.raises(ValueError):
        ConeParams(3, float("inf"))
    assert ConeParams(2, 0.0).aperture == pytest.approx(math.pi)
    assert ConeParams(2, 1.0).aperture == pytest.approx(math.pi / 2)


def test_profile_at_vertex_is_zero():
    assert omega_profile(ConeParams(2, 1.0), [0.0], 0.0) == 0.0


def test_profile_direct_substitution():
    assert omega_profile(ConeParams(3, 2.0), [3.0, 4.0], 0.0) == pytest.approx(10.0)
    assert omega_profile(ConeParams(2, 0.5), [0.0], -4.0) == pytest.approx(2.0)


def test_profile_vectorized():
    params = ConeParams(3, 1.5)
    xp = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = omega_profile(params, xp, 0.0)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(7.5)
    assert out[1] == 0.0


@given(c=st.floats(min_value=1e-3, max_value=1e3),
       x1=st.floats(min_value=-10, max_value=10),
       x2=st.floats(min_value=-10, max_value=10),
       t=st.floats(min_value=-10, max_value=10))
def test_profile_positively_homogeneous(c, x1, x2, t):
    params = ConeParams(3, 0.8)
    one = omega_profile(params, [x1, x2], t)
    scaled = omega_profile(params, [c * x1, c * x2], c * t)
    assert scaled == pytest.approx(c * one, rel=1e-12, abs=1e-12)


def test_membership_classification():
    params = ConeParams(2, 1.0)
    assert classify_points(params, [1.0, 2.0]) == "interior"
    assert classify_points(params, [1.0, 1.0]) == "boundary"
    assert classify_points(params, [1.0, 0.5]) == "outside"
    # the vertex is a boundary point
    assert classify_points(params, [0.0, 0.0]) == "boundary"


def test_gamma_curve_fixes_initial_point():
    params = ConeParams(2, 0.7)
    x = np.array([0.4, 1.0])
    out = gamma_curve(params, x, 0.0)
    assert out.shape == (3,)
    assert np.allclose(out, [0.4, 1.0, 0.0])
    assert np.allclose(out[:-1], x)


def test_gamma_curve_substitution():
    params = ConeParams(2, 1.0)
    out = gamma_curve(params, [0.0, 1.0], 2.0)
    assert np.allclose(out, [0.0, 3.0, 2.0])


def test_gamma_curve_boundary_point_stays_on_container_boundary():
    params = ConeParams(2, 1.0)
    out = gamma_curve(params, [1.0, 1.0], 1.0)
    assert np.allclose(out, [1.0, math.sqrt(2.0), 1.0])
    # exactly at profile height
    assert out[-2] == pytest.approx(omega_profile(params, out[:-2], out[-1]), abs=1e-15)
    assert classify_ambient_point(params, out) == "boundary"


def test_gamma_curve_rejects_outside_points():
    params = ConeParams(2, 2.0)
    with pytest.raises(MembershipError):
        gamma_curve(params, [1.0, 0.5], 0.3)


def test_single_point_forms_reject_other_shapes():
    """gamma_curve takes one (n,) slice point and classify_ambient_point one
    (n+1,) ambient point; any other shape, a batch included, is refused."""
    params = ConeParams(3, 0.5)
    for bad in ([0.1, 2.0], [0.1, 0.2, 2.0, 0.0], [[0.1, 0.2, 2.0]], 2.0):
        with pytest.raises(ValueError):
            gamma_curve(params, bad, 0.3)
    for bad in ([0.1, 0.2, 2.0], [0.1, 0.2, 2.0, 0.0, 0.0], [[0.1, 0.2, 2.0, 0.0]], 2.0):
        with pytest.raises(ValueError):
            classify_ambient_point(params, bad)


def test_foliation_lipschitz_bound_values():
    assert foliation_lipschitz_bound(ConeParams(2, 0.0)) == 1.0
    assert foliation_lipschitz_bound(ConeParams(3, 1.0)) == 3.0
    assert foliation_lipschitz_bound(ConeParams(4, 0.5)) == 2.0


def test_curves_through_distinct_points_are_disjoint(rng):
    params = ConeParams(3, 0.9)
    for _ in range(200):
        xp1, xp2 = rng.normal(size=(2, 2))
        x = np.append(xp1, params.lam * np.linalg.norm(xp1) + rng.uniform(0, 2))
        y = np.append(xp2, params.lam * np.linalg.norm(xp2) + rng.uniform(0, 2))
        if np.allclose(x, y):
            continue
        t = rng.uniform(-2, 2)
        # equal parameter: images must differ (t-coordinates agree, so curve
        # disjointness reduces to this)
        assert np.max(np.abs(gamma_curve(params, x, t) - gamma_curve(params, y, t))) > 0


def test_foliation_lipschitz_property_sampled(rng):
    for lam in (0.0, 0.5, 2.0):
        params = ConeParams(2, lam)
        bound = foliation_lipschitz_bound(params)
        for _ in range(200):
            a, b = rng.uniform(-2, 2, size=2)
            x = np.array([a, lam * abs(a) + rng.uniform(0, 2)])
            y = np.array([b, lam * abs(b) + rng.uniform(0, 2)])
            t, u = rng.uniform(-2, 2, size=2)
            lhs = np.linalg.norm(gamma_curve(params, x, t) - gamma_curve(params, y, u))
            rhs = (np.linalg.norm(x[:-1] - y[:-1])
                   + abs(x[-1] - y[-1]) + abs(t - u))
            assert lhs <= bound * rhs * (1 + 1e-12) + 1e-12


def test_ambient_membership():
    params = ConeParams(2, 1.0)
    assert classify_ambient_point(params, [0.0, 1.0, 0.5]) == "interior"
    assert classify_ambient_point(params, [1.0, 0.0, 0.0]) == "outside"


def test_array_forms_match_single_point_wrappers(rng):
    """Batch foliation points and labels equal the single-point wrappers'."""
    params = ConeParams(3, 0.9)
    xp = rng.normal(size=(50, 2))
    heights = params.lam * np.linalg.norm(xp, axis=1) + rng.uniform(-0.5, 1.5, size=50)
    heights[:10] = omega_profile(params, xp[:10], 0.0)  # on the slice boundary
    pts = np.concatenate([xp, heights[:, None]], axis=1)
    ts = rng.uniform(-2, 2, size=50)
    labels = classify_points(params, pts)
    inside = labels != "outside"
    images = foliation_map(params, pts[inside], ts[inside])
    ambient = classify_points(params, images)
    for i, k in enumerate(np.flatnonzero(inside)):
        assert labels[k] == classify_points(params, pts[k])
        single = gamma_curve(params, pts[k], ts[k])
        assert np.array_equal(images[i], single)
        assert ambient[i] == classify_ambient_point(params, single)
    assert set(labels) == {"interior", "boundary", "outside"}
    assert np.all(ambient[:10] == "boundary")
    with pytest.raises(ValueError):
        classify_points(params, np.zeros((2, 5)))


@pytest.mark.parametrize("length", range(1, 8))
@pytest.mark.parametrize("lead", [(), (1000,), (40, 25)], ids=["0d", "1d", "2d"])
def test_coordinate_sums_match_numpy_bit_for_bit(lead, length):
    """The column-order helpers reproduce numpy's reductions exactly for
    coordinate axes shorter than 8, on values spread over many binades, on a
    strided view (the x' columns of a point batch) and on Fortran-ordered
    (coordinate-major) batches and their x' columns."""
    rng = np.random.default_rng(length)
    shape = lead + (length + 1,)
    wide = rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))
    other = rng.standard_normal(shape)
    fwide, fother = np.asfortranarray(wide), np.asfortranarray(other)
    for a, b in ((wide[..., :-1], other[..., :-1]), (wide[..., 1:].copy(), other[..., 1:]),
                 (np.asfortranarray(wide[..., 1:]), np.asfortranarray(other[..., 1:])),
                 (fwide[..., :-1], fother[..., :-1])):
        cases = [(np.sqrt(_sumsq(a)), np.linalg.norm(a, axis=-1)),
                 (_sumsq(a), np.sum(a * a, axis=-1)),
                 (_dot(a, b), np.sum(a * b, axis=-1)),
                 (_prod(a), np.prod(a, axis=-1))]
        cases += [(_prod(a, skip=j), np.prod(np.delete(a, j, axis=-1), axis=-1))
                  for j in range(length) if length > 1]
        for got, want in cases:
            assert np.shape(got) == np.shape(want)
            assert type(got) is type(want)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
