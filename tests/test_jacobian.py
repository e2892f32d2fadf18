"""Distortion-factor algebra: closed form, wedge norm, Gram oracle, remainder."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conestab.domain import ConeParams
from conestab.errors import QuadratureError
from conestab.flow import FlowCoefficients, flow_coefficients_batch, partials_from_coefficients
from conestab.jacobian import (_lu_det, _main_term, jacobian_closed_form, jacobian_gram_oracle,
                               remainder, remainder_uniform_bound, wedge_expansion)
from conestab.trial import (make_boundary_bump, make_radial_bump, make_shifted_bump,
                            make_tensor_bump, sample_smooth_points)

SEED = 20260810


def main_term_batch(params, f, pts, t):
    """The main term 1 + t^2 (|grad f|^2 + 2 lam f (axis partial of f)/sqrt(|x'|^2+t^2 f^2))
    on a (..., n) batch, with f and its gradient evaluated afresh on ``pts``."""
    pts = np.asarray(pts, dtype=float)
    return _main_term(params, pts, f.evaluator(pts), f.gradient(pts), t)


def coeffs(alpha, beta):
    return FlowCoefficients(alpha=np.asarray(alpha, float), beta=np.asarray(beta, float))


def test_closed_form_of_undeformed_plane():
    assert jacobian_closed_form(coeffs([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])) == 1.0


def test_closed_form_of_pure_shear_is_one():
    # constant field: beta = 0 and no axis tilt; a shear has unit Gram det
    for a in ([0.5, -0.3, 0.0], [2.0, 1.0, 0.0]):
        assert jacobian_closed_form(coeffs(a, [0.0, 0.0, 0.0])) == pytest.approx(1.0)


def test_closed_form_tilted_plane_two_dims():
    b = 0.7
    assert jacobian_closed_form(coeffs([0.0, 0.0], [0.0, b])) == pytest.approx(1 + b * b)


def test_gram_oracle_identity_basis():
    assert jacobian_gram_oracle(np.eye(3, 4)) == pytest.approx(1.0)


def test_gram_oracle_single_scaled_vector():
    assert jacobian_gram_oracle(np.array([[2.0, 0.0]])) == pytest.approx(4.0)


def test_gram_oracle_rejects_non_finite():
    for bad in (np.inf, np.nan):
        with pytest.raises(QuadratureError):
            jacobian_gram_oracle(np.array([[bad, 0.0]]))
        with pytest.raises(QuadratureError):
            jacobian_gram_oracle(np.full((5, 2, 3), bad))


def test_gram_oracle_matches_lapack_on_random_partials(rng):
    """The batched elimination agrees with LAPACK's det(v v^T) to 1e-13
    relative on flow partials from random coefficients at n = 1..6, on a
    flat batch, a two-axis batch and one matrix at a time (a float)."""
    for n in range(1, 7):
        draws = rng.uniform(-1.0, 1.0, size=(2000, 2 * n))
        v = partials_from_coefficients(coeffs(draws[:, :n], draws[:, n:]))
        ref = np.linalg.det(v @ np.swapaxes(v, -1, -2))
        assert np.max(np.abs(jacobian_gram_oracle(v) - ref) / np.abs(ref)) <= 1e-13
        grid = jacobian_gram_oracle(v.reshape(40, 50, n, n + 1))
        assert grid.shape == (40, 50)
        assert np.max(np.abs(grid.reshape(-1) - ref) / np.abs(ref)) <= 1e-13
        for k in range(10):
            one = jacobian_gram_oracle(v[k])
            assert isinstance(one, float)
            assert abs(one - ref[k]) <= 1e-13 * abs(ref[k])


def test_gram_elimination_swaps_rows_at_a_zero_pivot(rng):
    """A leading pivot of 0 forces a row swap, and every swap flips the
    determinant's sign; a column of zeros gives 0, not nan."""
    sym = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 1.0]])
    assert _lu_det(sym.copy()) == pytest.approx(11.0, rel=1e-15)
    assert _lu_det(np.array([[0.0, 2.0], [3.0, 0.0]])) == -6.0
    assert _lu_det(np.array([[0.0, 1.0], [0.0, 2.0]])) == 0.0
    # a batch on the trailing axis mixing both cases
    mats = rng.normal(size=(500, 4, 4))
    mats[::2, 0, 0] = 0.0
    got = _lu_det(np.moveaxis(mats, 0, -1).copy())
    scale = np.prod(np.linalg.norm(mats, axis=-1), axis=-1)   # Hadamard's bound
    assert np.max(np.abs(got - np.linalg.det(mats)) / scale) <= 1e-14
    # through the oracle: |v0 . v1| > |v0|^2 swaps at the first step
    assert jacobian_gram_oracle(np.array([[1.0, 0.0], [2.0, 1.0]])) == pytest.approx(1.0, rel=1e-15)


def test_three_way_agreement_on_random_draws(rng):
    for n in (2, 3, 4, 6):
        draws = rng.uniform(-1, 1, size=(10_000, 2 * n))
        c = coeffs(draws[:, :n], draws[:, n:])
        closed = jacobian_closed_form(c)
        wedge_sq = np.sum(wedge_expansion(c) ** 2, axis=-1)
        gram = jacobian_gram_oracle(partials_from_coefficients(c))
        denom = np.maximum(np.maximum(np.abs(closed), np.abs(gram)), 1e-300)
        # wedge and closed form are regroupings of the same polynomial
        assert np.max(np.abs(closed - wedge_sq) / denom) <= 1e-12
        assert np.max(np.abs(closed - gram) / denom) <= 1e-10


def test_wedge_expansion_of_undeformed_plane():
    w = wedge_expansion(coeffs([0.0] * 4, [0.0] * 4))
    assert np.allclose(w, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_wedge_mixed_coefficient_formula():
    a1, a3 = 0.4, -0.2
    b = np.array([0.3, -0.1, 0.8])
    w = wedge_expansion(coeffs([a1, 0.0, a3], b))
    assert w[0] == pytest.approx(1 + a3)
    assert w[1] == pytest.approx(b[2])
    assert w[2] == pytest.approx(b[2] * a1 - (1 + a3) * b[0])
    assert w[3] == pytest.approx(b[2] * 0.0 - (1 + a3) * b[1])


@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=6, max_size=6))
def test_wedge_norm_equals_closed_form(values):
    c = coeffs(values[:3], values[3:])
    closed = jacobian_closed_form(c)
    wedge_sq = float(np.sum(wedge_expansion(c) ** 2))
    assert wedge_sq == pytest.approx(closed, rel=1e-12, abs=1e-12)


def test_remainder_zero_without_deformation():
    assert remainder(coeffs([0.0, 0.0], [0.0, 0.0])) == 0.0


def test_remainder_identity_against_closed_form(rng):
    draws = rng.uniform(-1, 1, size=(5000, 8))
    c = coeffs(draws[:, :4], draws[:, 4:])
    lhs = jacobian_closed_form(c) - remainder(c)
    rhs = 1.0 + 2.0 * c.alpha[:, -1] + np.sum(c.beta ** 2, axis=-1)
    denom = np.maximum(np.abs(rhs), 1.0)
    assert np.max(np.abs(lhs - rhs) / denom) <= 1e-12


def test_remainder_vanishes_off_the_support(rng):
    params = ConeParams(3, 0.8)
    f = make_radial_bump([0.0, 0.0, 1.0], 0.5, 3)
    # points with f = 0 and grad f = 0 in a neighborhood
    pts = np.array([[1.5, 0.2, 2.0], [0.4, 0.4, 2.5], [2.0, 0.0, 2.2]])
    c = flow_coefficients_batch(params, f, pts, 0.7)
    assert np.all(remainder(c) == 0.0)


def test_remainder_uniform_bound_and_decay(rng):
    params = ConeParams(3, 0.7)
    f = make_tensor_bump([0.0, 0.0, 1.1], 0.6, 3, exponent=2)
    bound = remainder_uniform_bound(params, f)
    pts = sample_smooth_points(params, f, rng, 300)
    sup = []
    for k in range(0, 21):
        t = 2.0 ** (-k)
        r = remainder(flow_coefficients_batch(params, f, pts, t))
        sup.append(np.max(np.abs(r)) / t ** 2)
        assert sup[-1] <= bound
    assert sup[-1] <= 1e-3 * bound


def test_main_term_matches_closed_minus_remainder(rng):
    params = ConeParams(3, 1.0)
    f = make_radial_bump([0.0, 0.0, 1.2], 0.8, 3)
    pts = sample_smooth_points(params, f, rng, 400)
    for t in (0.05, 0.4, 0.9):
        c = flow_coefficients_batch(params, f, pts, t)
        lhs = jacobian_closed_form(c) - remainder(c)
        rhs = main_term_batch(params, f, pts, t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_positivity_at_genuine_coefficients(rng):
    params = ConeParams(3, 1.3)
    f = make_radial_bump([0.0, 0.0, 1.0], 0.6, 3)
    pts = sample_smooth_points(params, f, rng, 500)
    for t in (0.02, 0.1, 0.5):
        j2 = jacobian_closed_form(flow_coefficients_batch(params, f, pts, t))
        assert np.min(j2) > 0.0



@pytest.mark.parametrize("n", range(2, 7))
def test_coordinate_major_batches_give_the_same_bits(n):
    """Field values, gradients, flow coefficients, the main term and the
    three routes to J^2 are the same bits on a C-ordered point batch and on
    its coordinate-major copy (the layout sample_smooth_points returns), for
    all four trial families; the scaled half of the batch leaves the support."""
    params = ConeParams(n, 0.7)
    fields = (make_radial_bump(1.2, 0.7, n), make_tensor_bump(1.0, 0.5, n, exponent=2),
              make_shifted_bump(0.0, 0.6, n, 1.5), make_boundary_bump(0.9, n, exponent=2))
    rng = np.random.default_rng(SEED + n)
    for f in fields:
        smooth = sample_smooth_points(params, f, rng, 300)
        rows = np.ascontiguousarray(np.concatenate([smooth, 1.8 * smooth]))
        cols = np.asfortranarray(rows)
        assert cols.T.flags.c_contiguous
        outs = []
        for pts in (rows, cols):
            c = flow_coefficients_batch(params, f, pts, 0.3)
            outs.append((f.evaluator(pts), f.gradient(pts), c.alpha, c.beta,
                         main_term_batch(params, f, pts, 0.3), jacobian_closed_form(c),
                         wedge_expansion(c),
                         jacobian_gram_oracle(partials_from_coefficients(c))))
        for got, want in zip(*outs):
            assert got.shape == want.shape and np.array_equal(got, want), f.label
