"""Deformed area, variation reports, and the closed-form second variation."""

import dataclasses
import math

import numpy as np
import pytest

import conestab.variation
from conestab.domain import ConeParams
from conestab.errors import QuadratureError
from conestab.flow import flow_coefficients_batch
from conestab.jacobian import jacobian_closed_form
from conestab.quadrature import QuadratureSpec, compensated_sum, integrate_sigma, sigma_grid
from conestab.trial import (make_boundary_bump, make_radial_bump, make_shifted_bump,
                            scaled, standard_battery)
from conestab.variation import (DEFAULT_LEVELS, area, default_t0, dirichlet_energy,
                                second_variation_closed_form, variation_report)

SPEC3 = QuadratureSpec(48, 16, 48, 3.0)


def test_reference_area_is_support_measure():
    # interior unit ball support: measure 4*pi/3 (indicator quadrature, so a
    # generous tolerance)
    params = ConeParams(3, 0.4)
    f = make_radial_bump([0.0, 0.0, 2.0], 1.0, 3)
    a0 = area(params, f, 0.0, QuadratureSpec(256, 8, 256, 3.2))
    assert a0 == pytest.approx(4 * math.pi / 3, rel=5e-3)


def test_zero_field_area_constant():
    params = ConeParams(3, 0.5)
    f = scaled(make_radial_bump([0.0, 0.0, 1.5], 0.8, 3), 0.0)
    values = {area(params, f, t, SPEC3) for t in (0.0, 0.1, 0.5, 2.0)}
    assert values == {0.0}


def test_zero_field_report_is_all_zero():
    params = ConeParams(3, 0.5)
    f = scaled(make_radial_bump([0.0, 0.0, 1.5], 0.8, 3), 0.0)
    rep = variation_report(params, f, t0=0.05, levels=4, spec=SPEC3)
    assert rep.closed_form == 0.0
    assert rep.dirichlet_term == 0.0
    assert rep.boundary_term == 0.0
    assert np.all(rep.first_variation.quotients == 0.0)
    assert np.all(rep.second_variation_fd.quotients == 0.0)


def test_area_grows_no_faster_than_quadratically_below_threshold():
    """In the proven-stable regime the area cannot dip below its reference
    value at first order along the dyadic sequence."""
    params = ConeParams(3, 0.15)  # below the n = 3 threshold
    for f in (make_boundary_bump(1.0, 3), make_radial_bump([0.0, 0.0, 1.2], 0.8, 3)):
        a0 = area(params, f, 0.0, SPEC3)
        for k in range(6):
            t = 0.05 * 0.5 ** k
            assert area(params, f, t, SPEC3) >= a0 - 1e-10


def test_default_deformation_scale():
    f = make_radial_bump([0.0, 0.0, 1.0], 0.5, 3)
    assert default_t0(f) == pytest.approx(0.1 * 0.5 / (1 + 2.0))


def test_closed_form_scaling_covariance():
    """Both closed-form terms are quadratic in the field."""
    params = ConeParams(3, 0.3)
    f = make_boundary_bump(1.0, 3)
    base = second_variation_closed_form(params, f, SPEC3)
    for c in (2.0, 10.0):
        rep = second_variation_closed_form(params, scaled(f, c), SPEC3)
        assert rep.closed_form == pytest.approx(c * c * base.closed_form, rel=1e-12)
        assert rep.dirichlet_term == pytest.approx(c * c * base.dirichlet_term, rel=1e-12)
        assert rep.boundary_term == pytest.approx(c * c * base.boundary_term, rel=1e-12)


def test_translation_detaches_boundary_term():
    """Pushing the support deep into the interior kills the trace, leaving
    half the Dirichlet energy."""
    params = ConeParams(3, 0.3)
    touching = make_radial_bump([0.0, 0.0, 0.9], 0.9, 3)
    rep_touch = second_variation_closed_form(params, touching, SPEC3)
    assert rep_touch.boundary_term < 0.0
    deep = make_shifted_bump([0.0, 0.0, 0.9], 0.9, 3, shift=1.5)
    rep_deep = second_variation_closed_form(params, deep, QuadratureSpec(192, 12, 192, 3.5))
    assert rep_deep.boundary_term == 0.0
    assert rep_deep.closed_form == rep_deep.dirichlet_term
    # fully interior hat bump: energy is vol(B_rho)/rho^2, half of it here
    assert rep_deep.dirichlet_term == pytest.approx(0.5 * (4 * math.pi / 3) * 0.9,
                                                    rel=5e-3)


def test_report_consistency_light_case():
    """Finite-difference route vs closed form, small grid, 1% agreement."""
    params = ConeParams(3, 0.1)
    f = make_boundary_bump(1.0, 3)
    rep = variation_report(params, f, levels=11, spec=QuadratureSpec(64, 16, 64, 3.0))
    assert rep.first_variation.converged
    assert abs(rep.first_variation.extrapolated) <= 1e-4
    assert rep.second_variation_fd.converged
    assert rep.discrepancy <= 0.01 * abs(rep.closed_form)
    # doubled-in-t consistency: lower-right second variation in t equals
    # twice the s-derivative
    second_in_t = 2.0 * rep.second_variation_fd.extrapolated
    assert second_in_t == pytest.approx(2.0 * rep.closed_form, rel=0.01)


def test_divergent_verdict_two_dims():
    """Nonzero vertex value in dimension two: -inf verdict with a fitted
    log-slope certificate instead of a number."""
    params = ConeParams(2, 0.8)
    f = make_boundary_bump(1.0, 2)
    spec = QuadratureSpec(96, 2, 96, 2.0)
    rep = second_variation_closed_form(params, f, spec)
    assert rep.divergent
    assert rep.closed_form == float("-inf")
    assert rep.boundary_term == float("-inf")
    assert math.isfinite(rep.dirichlet_term)
    cert = rep.divergence
    assert cert is not None
    # the regularized values drift down linearly in log(1/eps) at rate
    # -lam * f(0)^2
    assert cert.slope == pytest.approx(-params.lam, rel=0.05)
    assert all(b < a for a, b in zip(cert.values, cert.values[1:]))


def test_two_dims_flat_reference_has_no_divergence():
    """At lam = 0 the trace term lam * T is 0 even where T diverges: the
    closed form is the Dirichlet term, as at every n >= 3."""
    f = make_boundary_bump(1.0, 2)
    spec = QuadratureSpec(96, 2, 96, 2.0)
    rep = second_variation_closed_form(ConeParams(2, 0.0), f, spec)
    assert not rep.divergent and rep.divergence is None
    assert math.copysign(1.0, rep.boundary_term) == -1.0 and rep.boundary_term == 0.0
    assert rep.closed_form == rep.dirichlet_term
    flat = second_variation_closed_form(ConeParams(3, 0.0), make_boundary_bump(1.0, 3),
                                        QuadratureSpec(32, 8, 32, 2.0))
    assert math.copysign(1.0, flat.boundary_term) == -1.0 and flat.boundary_term == 0.0


def test_two_dim_zero_vertex_value_is_finite():
    params = ConeParams(2, 0.8)
    f = make_radial_bump([0.0, 1.5], 0.8, 2)  # f(0) = 0
    rep = second_variation_closed_form(params, f, QuadratureSpec(96, 2, 96, 3.0))
    assert not rep.divergent
    assert math.isfinite(rep.closed_form)


def test_report_serializes_expected_fields():
    params = ConeParams(3, 0.2)
    f = make_radial_bump([0.0, 0.0, 1.5], 0.6, 3)
    rep = variation_report(params, f, levels=4, spec=SPEC3)
    assert rep.closed_form == pytest.approx(rep.dirichlet_term + rep.boundary_term)
    assert len(rep.second_variation_fd.parameters) == 4
    assert rep.reference_area > 0
    assert rep.label == f.label


def test_report_evaluates_each_area_once(monkeypatch):
    """Each distinct t is evaluated once: at 8 levels the even levels of the
    s-ladder, sqrt(t0^2 * 4^-j) = t0 * 2^-j, and all three A(0) repeat, so 13
    area calls serve 19 uses, and the ladders equal direct evaluation."""
    params = ConeParams(3, 0.2)
    f = make_radial_bump([0.0, 0.0, 1.5], 0.6, 3)
    calls = []

    def counted(p, g, t, spec):
        calls.append(t)
        return area(p, g, t, spec)

    monkeypatch.setattr(conestab.variation, "area", counted)
    rep = variation_report(params, f, levels=8, spec=SPEC3)
    assert len(calls) == 13 and len(set(calls)) == 13
    a0 = area(params, f, 0.0, SPEC3)
    assert rep.reference_area == a0
    for est, at in ((rep.first_variation, lambda t: t),
                    (rep.second_variation_fd, math.sqrt)):
        direct = [(area(params, f, at(float(p)), SPEC3) - a0) / p for p in est.parameters]
        assert est.quotients.tolist() == direct


def test_dirichlet_energy_matches_full_grid_integral():
    for n, spec in ((3, SPEC3), (4, QuadratureSpec(32, 8, 32, 3.1))):
        params = ConeParams(n, 0.3)
        for f in standard_battery(n) + [scaled(make_boundary_bump(0.9, n), -1.7)]:
            full = integrate_sigma(params, lambda p: np.sum(f.gradient(p) ** 2, axis=-1), spec)
            assert dirichlet_energy(params, f, spec) == pytest.approx(full, rel=1e-13)


def test_dirichlet_energy_rejects_non_finite_gradient_in_support():
    f = make_radial_bump([0.0, 0.0, 1.5], 0.6, 3)
    nan_gradient = dataclasses.replace(f, gradient=lambda p: np.full(p.shape, np.nan))
    with pytest.raises(QuadratureError):
        dirichlet_energy(ConeParams(3, 0.2), nan_gradient, SPEC3)


def test_area_from_sampled_values_matches_flow_coefficients_batch():
    """area builds its flow coefficients from the sampled f and grad f; on
    every t of a default report's ladders that equals evaluating f again
    through flow_coefficients_batch, bit for bit."""
    for n, spec in ((3, SPEC3), (4, QuadratureSpec(32, 8, 32, 3.1))):
        params = ConeParams(n, 0.2)
        pts, weights, _ = sigma_grid(params, spec)
        for f in standard_battery(n):
            support = f.evaluator(pts) != 0.0
            sub, w = pts[support], weights[support]
            t0 = default_t0(f)
            steps = 0.5 ** np.arange(DEFAULT_LEVELS)
            ts = [0.0] + (t0 * steps).tolist() + [math.sqrt(s) for s in t0 * t0 * steps]
            for t in ts:
                j2 = jacobian_closed_form(flow_coefficients_batch(params, f, sub, t))
                assert area(params, f, t, spec) == compensated_sum(w * np.sqrt(j2)), (f.label, t)


def test_report_evaluates_the_gradient_once():
    """The report's 13 areas and its Dirichlet energy share one support
    sample, so the field's gradient runs once."""
    params = ConeParams(3, 0.2)
    for f in standard_battery(3)[::4]:
        calls = []

        def gradient(pts, f=f):
            calls.append(len(pts))
            return f.gradient(pts)

        variation_report(params, dataclasses.replace(f, gradient=gradient), levels=8,
                         spec=SPEC3)
        assert len(calls) == 1, f.label
