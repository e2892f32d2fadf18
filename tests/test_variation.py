"""Deformed area, variation reports, and the closed-form second variation."""

import dataclasses
import json
import math
from itertools import accumulate

import numpy as np
import pytest
from conftest import battery_samples, oracle, slice_rule
from hypothesis import given, settings
from hypothesis import strategies as st
from unittest import mock

import conestab.cli
import conestab.variation
from conestab.cli import _jsonable
from conestab.domain import ConeParams
from conestab.errors import JacobianPositivityError, QuadratureError
from conestab.flow import flow_coefficients_batch
from conestab.jacobian import jacobian_closed_form
from conestab.quadrature import (QuadratureSpec, _battery_pass, _dyadic_ladder,
                                 boundary_integral, compensated_sum)
from conestab.stability import instability_witness_n2, lambda_star, shear_transform_check
from conestab.trial import (battery_descriptors, build_trial, make_boundary_bump,
                            make_radial_bump, make_shifted_bump, scaled, standard_battery)
from conestab.variation import (DEFAULT_CUTOFFS, DEFAULT_LEVELS, VariationReport,
                                _battery_areas, _closed_forms, _cutoff_ladders,
                                _variation_reports, area, default_t0, dirichlet_energy,
                                variation_report)

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
    base = variation_report(params, f, spec=SPEC3)
    for c in (2.0, 10.0):
        rep = variation_report(params, scaled(f, c), spec=SPEC3)
        assert rep.closed_form == pytest.approx(c * c * base.closed_form, rel=1e-12)
        assert rep.dirichlet_term == pytest.approx(c * c * base.dirichlet_term, rel=1e-12)
        assert rep.boundary_term == pytest.approx(c * c * base.boundary_term, rel=1e-12)


def test_translation_detaches_boundary_term():
    """Pushing the support deep into the interior kills the trace, leaving
    half the Dirichlet energy."""
    params = ConeParams(3, 0.3)
    touching = make_radial_bump([0.0, 0.0, 0.9], 0.9, 3)
    rep_touch = variation_report(params, touching, spec=SPEC3)
    assert rep_touch.boundary_term < 0.0
    deep = make_shifted_bump([0.0, 0.0, 0.9], 0.9, 3, shift=1.5)
    rep_deep = variation_report(params, deep, spec=QuadratureSpec(192, 12, 192, 3.5))
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
    rep = variation_report(params, f, spec=spec)
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


def test_cutoff_ladder_applies_to_two_dims_only():
    """At n >= 3 T is finite and no trace is cut: the ladder refuses a field
    that meets the cone and one that misses it alike, instead of fitting a
    flat line through uncut values."""
    params, spec = ConeParams(3, 1.0), QuadratureSpec(32, 8, 32, 3.0)
    for f in (make_boundary_bump(1.0, 3), make_radial_bump([0.0, 0.0, 2.0], 0.8, 3)):
        with pytest.raises(ValueError, match="the cutoff ladder applies to n = 2 only, got n = 3"):
            _cutoff_ladders(params, [f], [1.0], spec, DEFAULT_CUTOFFS)


def test_two_dims_certificates_come_from_one_trace_pass(monkeypatch, capsys):
    """`variation --n 2 --lambda 1 --levels 4` on the 8-member default
    battery makes two _plane_traces calls: the battery's uncut traces, then
    every cut trace of its six vertex fields at the five default cutoffs.
    Each certificate equals the one of its field's closed form alone, and
    its values the margins of witness-n2 on that field, bit for bit."""
    calls = []
    real = conestab.quadrature._plane_traces

    def counting(params, fields, spec, cutoffs=None):
        calls.append(len(fields))
        return real(params, fields, spec, cutoffs)

    for module in (conestab.quadrature, conestab.variation):
        monkeypatch.setattr(module, "_plane_traces", counting)
    assert conestab.cli.main(["variation", "--n", "2", "--lambda", "1", "--levels", "4"]) == 5
    assert calls == [8, 6 * 5]
    reports = json.loads(capsys.readouterr().out)["results"]
    params, spec = ConeParams(2, 1.0), QuadratureSpec()
    for f, report in zip(standard_battery(2, 8), reports):
        if f.value_at_vertex == 0.0:
            assert report["divergence"] is None, f.label
            continue
        *_, cert = _closed_forms(params, [f], _battery_pass(params, [f], spec), spec,
                                 DEFAULT_CUTOFFS)[0]
        assert report["divergence"] == _jsonable(dataclasses.asdict(cert)), f.label
        witness = instability_witness_n2(params, DEFAULT_CUTOFFS, spec=spec, f=f)
        assert report["divergence"]["values"] == _jsonable(witness.margins), f.label


def test_two_dims_flat_reference_has_no_divergence():
    """At lam = 0 the trace term lam * T is 0 even where T diverges: the
    closed form is the Dirichlet term, as at every n >= 3."""
    f = make_boundary_bump(1.0, 2)
    spec = QuadratureSpec(96, 2, 96, 2.0)
    rep = variation_report(ConeParams(2, 0.0), f, spec=spec)
    assert not rep.divergent and rep.divergence is None
    assert math.copysign(1.0, rep.boundary_term) == -1.0 and rep.boundary_term == 0.0
    assert rep.closed_form == rep.dirichlet_term
    flat = variation_report(ConeParams(3, 0.0), make_boundary_bump(1.0, 3),
                            spec=QuadratureSpec(32, 8, 32, 2.0))
    assert math.copysign(1.0, flat.boundary_term) == -1.0 and flat.boundary_term == 0.0


def test_two_dim_zero_vertex_value_is_finite():
    params = ConeParams(2, 0.8)
    f = make_radial_bump([0.0, 1.5], 0.8, 2)  # f(0) = 0
    rep = variation_report(params, f, spec=QuadratureSpec(96, 2, 96, 3.0))
    assert not rep.divergent
    assert math.isfinite(rep.closed_form)


def test_every_report_field_is_required():
    """A VariationReport is built once, from its closed form and its ladders:
    no field has a placeholder default to be replaced later."""
    assert all(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
               for f in dataclasses.fields(VariationReport))


def test_report_serializes_expected_fields():
    params = ConeParams(3, 0.2)
    f = make_radial_bump([0.0, 0.0, 1.5], 0.6, 3)
    rep = variation_report(params, f, levels=4, spec=SPEC3)
    assert rep.closed_form == pytest.approx(rep.dirichlet_term + rep.boundary_term)
    assert len(rep.second_variation_fd.parameters) == 4
    assert rep.reference_area > 0
    assert rep.label == f.label


def test_report_evaluates_each_area_once(monkeypatch):
    """Each distinct t is evaluated once, all in one batch: at 8 levels the
    even levels of the s-ladder, sqrt(t0^2 * 4^-j) = t0 * 2^-j, and all three
    A(0) repeat, so one batch of 13 distinct t serves 19 uses, and the
    ladders equal direct evaluation."""
    params = ConeParams(3, 0.2)
    f = make_radial_bump([0.0, 0.0, 1.5], 0.6, 3)
    batches = []
    batch = conestab.variation._battery_areas

    def counted(p, samples, times):
        batches.append([t for ts in times for t in ts])
        return batch(p, samples, times)

    monkeypatch.setattr(conestab.variation, "_battery_areas", counted)
    rep = variation_report(params, f, levels=8, spec=SPEC3)
    monkeypatch.undo()
    assert len(batches) == 1
    assert len(batches[0]) == 13 and len(set(batches[0])) == 13
    a0 = area(params, f, 0.0, SPEC3)
    assert rep.reference_area == a0
    for est, at in ((rep.first_variation, lambda t: t),
                    (rep.second_variation_fd, math.sqrt)):
        direct = [(area(params, f, at(float(p)), SPEC3) - a0) / p for p in est.parameters]
        assert est.quotients.tolist() == direct


def test_dirichlet_energy_matches_full_grid_integral():
    """The energy of the support sample equals the integral of |grad f|^2
    over every node of the field's rule, zeros included, and the exact
    energy: at lam = 0.3 the oracle covers every battery member at n = 3, 4
    (the oracle test covers the other apertures)."""
    scaled_vertex = {"kind": "boundary_concentrated", "radius": 0.9, "scale": -1.7}
    for n, spec in ((3, SPEC3), (4, QuadratureSpec(32, 8, 32, 3.1))):
        params = ConeParams(n, 0.3)
        for desc in battery_descriptors(20) + [scaled_vertex]:
            f = build_trial(desc, n)
            pts, weights = slice_rule(params, f.geometry, spec)
            full = compensated_sum(weights * np.sum(f.gradient(pts) ** 2, axis=-1))
            got = dirichlet_energy(params, f, spec)
            assert got == pytest.approx(full, rel=1e-13), f.label
            energy, _ = oracle.energy_and_trace(desc, n, params.lam)
            assert got == pytest.approx(desc.get("scale", 1.0) ** 2 * energy, rel=1e-13), f.label


def test_dirichlet_energy_rejects_non_finite_gradient_in_support():
    f = make_radial_bump([0.0, 0.0, 1.5], 0.6, 3)
    nan_gradient = dataclasses.replace(f, gradient=lambda p: np.full(p.shape, np.nan))
    with pytest.raises(QuadratureError):
        dirichlet_energy(ConeParams(3, 0.2), nan_gradient, SPEC3)


def _ladder_times(f):
    """Every t of a default report's two quotient ladders, and t = 0."""
    t0 = default_t0(f)
    steps = 0.5 ** np.arange(DEFAULT_LEVELS)
    return [0.0] + (t0 * steps).tolist() + [math.sqrt(s) for s in t0 * t0 * steps]


def _reference_area(params, f, t, spec, sample=None):
    """The deformed area through the flow coefficients and the closed-form
    distortion factor, with f evaluated afresh at the nodes of its support
    sample (built here unless ``sample`` is given)."""
    pts, weights = (sample or battery_samples(params, [f], spec)[0])[:2]
    j2 = jacobian_closed_form(flow_coefficients_batch(params, f, pts, t))
    return compensated_sum(weights * np.sqrt(j2))


def test_area_from_sampled_values_matches_flow_coefficients_batch():
    """area builds its flow coefficients from the sampled f and grad f; on
    every t of a default report's ladders that equals evaluating f again
    through flow_coefficients_batch, bit for bit."""
    for n, spec in ((3, SPEC3), (4, QuadratureSpec(32, 8, 32, 3.1))):
        params = ConeParams(n, 0.2)
        for f in standard_battery(n):
            for t in _ladder_times(f):
                assert area(params, f, t, spec) == _reference_area(params, f, t, spec), \
                    (f.label, t)


@pytest.mark.parametrize("n, spec", [(2, QuadratureSpec(32, 2, 32, 3.0)),
                                     (5, QuadratureSpec(12, 4, 12, 3.1))], ids=["n2", "n5"])
def test_area_matches_flow_coefficient_reference_in_low_and_high_dimension(n, spec):
    """At n = 2 (x' one-dimensional) and n = 5, on a default report's
    ladders, the areas equal the closed form on flow_coefficients_batch's
    coefficients bit for bit, at lam = 0, 0.2 and lam*(n) where it exists.
    Each field's sample is built once: a one-field ``_battery_areas`` call
    covers the whole ladder on it, and one public ``area`` call per field,
    at t0, the same."""
    lams = (0.0, 0.2) + ((lambda_star(n).lambda_star,) if n >= 3 else ())
    for lam in lams:
        params = ConeParams(n, lam)
        for f in standard_battery(n):
            sample, times = battery_samples(params, [f], spec)[0], _ladder_times(f)
            for t, got in zip(times, _battery_areas(params, [sample], [times])[0]):
                assert got == _reference_area(params, f, t, spec, sample), (lam, f.label, t)
            assert area(params, f, times[1], spec) == _reference_area(params, f, times[1], spec), \
                (lam, f.label)


def test_area_scalars_follow_cone_spec_and_field():
    """area builds its per-node scalars for each (cone, spec, field).  Calls
    that change one of the three at a time, back and forth, must each match
    the reference, so a scalar set kept past its key would fail here."""
    fields = standard_battery(3)[:2]
    apertures = (ConeParams(3, 0.2), ConeParams(3, 0.6))
    specs = (SPEC3, QuadratureSpec(32, 8, 32, 3.1))
    # Gray-code order: each step flips exactly one of field, aperture, spec
    order = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1),
             (1, 0, 0), (0, 0, 0)]
    for i, j, k in order:
        params, f, spec = apertures[j], fields[i], specs[k]
        t = default_t0(f)
        assert area(params, f, t, spec) == _reference_area(params, f, t, spec), (i, j, k)


def test_reports_of_a_battery_equal_one_report_per_field():
    """The reports the CLI builds for a battery, whose samples come from one
    battery pass and whose energies from one reduction, equal one
    variation_report per field, field by field."""
    for n, lam in ((2, 0.4), (3, 0.2), (4, 1.0)):
        params, spec = ConeParams(n, lam), QuadratureSpec(16, 4, 16, 3.1)
        fields = standard_battery(n, 12)
        # compared as the CLI prints them: every float at full precision
        assert _jsonable(_variation_reports(params, fields, None, 5, spec)) == \
            _jsonable([variation_report(params, f, levels=5, spec=spec) for f in fields])


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


def test_shear_check_evaluates_the_gradient_once():
    """E_f and E_g of the shear check share one support sample, so the
    field's gradient runs once, and the check equals the energy and trace
    computed on their own."""
    params = ConeParams(3, lambda_star(3).lambda_star)
    for f in standard_battery(3)[::4]:
        calls = []

        def gradient(pts, f=f):
            calls.append(len(pts))
            return f.gradient(pts)

        energy_f, _, trace = shear_transform_check(
            params, dataclasses.replace(f, gradient=gradient), SPEC3)
        assert len(calls) == 1, f.label
        assert energy_f == dirichlet_energy(params, f, SPEC3), f.label
        assert trace == boundary_integral(params, f, SPEC3), f.label


def _rows_per_block(monkeypatch, params, f, spec, rows):
    """Make _battery_areas evaluate ``rows`` times per block for this field."""
    nodes = battery_samples(params, [f], spec)[0][1].size
    monkeypatch.setattr(conestab.quadrature, "_BLOCK_ELEMENTS", rows * nodes)


@pytest.mark.parametrize("n, spec", [(2, QuadratureSpec(32, 2, 32, 3.0)), (3, SPEC3),
                                     (4, QuadratureSpec(32, 8, 32, 3.1)),
                                     (5, QuadratureSpec(12, 4, 12, 3.1))],
                         ids=["n2", "n3", "n4", "n5"])
def test_ladders_split_across_blocks_match_per_t_area(n, spec, monkeypatch):
    """A report's 12 nonzero times split into blocks of 1 or 5 rows give the
    areas and quotients of per-t area bit for bit."""
    params = ConeParams(n, 0.2)
    for f in standard_battery(n):
        times = list(dict.fromkeys(_ladder_times(f)))
        direct = [area(params, f, t, spec) for t in times]
        for rows in (1, 5):
            _rows_per_block(monkeypatch, params, f, spec, rows)
            sample = battery_samples(params, [f], spec)[0]
            assert _battery_areas(params, [sample], [times])[0] == direct, f.label
            rep = variation_report(params, f, spec=spec)
            for est, at in ((rep.first_variation, lambda t: t),
                            (rep.second_variation_fd, math.sqrt)):
                want = [(area(params, f, at(float(p)), spec) - direct[0]) / p
                        for p in est.parameters]
                assert est.quotients.tolist() == want, (f.label, rows)


def _poison_rows(monkeypatch, values):
    """Make the squared distortion factor of the k-th nonzero time of a batch
    take ``values[k]`` at its first node, whatever the blocks."""
    real = conestab.jacobian._distortion_squared
    seen = [0]

    def poisoned(*args):
        j2 = real(*args)
        for k in range(len(j2)):
            if seen[0] + k in values:
                j2[k, 0] = values[seen[0] + k]
        seen[0] += len(j2)
        return j2

    monkeypatch.setattr(conestab.variation, "_distortion_squared", poisoned)


@pytest.mark.parametrize("rows", [1, 4, 13])
def test_positivity_abort_names_the_first_failing_t(rows, monkeypatch):
    """A squared distortion factor that turns negative at two times aborts
    the report at the first of them in ladder order, with that t and the
    minimum, however the times fall into blocks; a non-finite area at an
    earlier time ends the ladder there, as a per-t evaluation does."""
    params = ConeParams(3, 0.2)
    f = make_radial_bump([0.0, 0.0, 1.5], 0.6, 3)
    times = [t for t in dict.fromkeys(_ladder_times(f)) if t != 0.0]
    _rows_per_block(monkeypatch, params, f, SPEC3, rows)
    _poison_rows(monkeypatch, {9: -0.5, 6: -0.25})
    with pytest.raises(JacobianPositivityError) as err:
        variation_report(params, f, spec=SPEC3)
    assert (err.value.t, err.value.worst_value) == (times[6], -0.25)
    assert str(err.value) == (f"squared distortion factor reached -0.25 at t={times[6]}; "
                              "deformation too large for this field")
    # the s-ladder's first new time, after all eight of the t-ladder
    _poison_rows(monkeypatch, {8: -0.5, 11: -1.0})
    with pytest.raises(JacobianPositivityError) as err:
        variation_report(params, f, spec=SPEC3)
    assert (err.value.t, err.value.worst_value) == (times[8], -0.5)
    _poison_rows(monkeypatch, {4: math.nan, 6: -0.25})
    with pytest.raises(QuadratureError, match="non-finite evaluation") as err:
        variation_report(params, f, spec=SPEC3)
    assert not isinstance(err.value, JacobianPositivityError)


def _report_times(t0, levels):
    """t = 0 and the distinct times of a report's two ladders from t0."""
    squares = _dyadic_ladder(t0, levels, squared=True).tolist()
    return list(dict.fromkeys([0.0, *_dyadic_ladder(t0, levels).tolist(),
                               *map(math.sqrt, squares)]))


@settings(max_examples=40)
@given(st.lists(st.tuples(st.sampled_from(battery_descriptors(20)), st.floats(0.05, 1.5)),
                min_size=1, max_size=5),
       st.integers(3, 14), st.sampled_from([1, 5, None]))
def test_battery_areas_equal_per_field_area(members, levels, rows):
    """The areas of a drawn battery, whose fields differ in node counts and
    t0, at 3-14 levels, from one _battery_areas call, equal a one-field call
    per field on its own sample bit for bit, one public area call per
    (field, t) at every fourth t, and at every fourth other t the closed
    form on flow_coefficients_batch's coefficients, which shares no code
    with the batch.  Each field's rows, its area at t = 0 and one per
    nonzero t, are reduced in chunks that hold the rows of that field
    alone, at most max(_BLOCK_ELEMENTS, N) elements for its N nodes: with
    _BLOCK_ELEMENTS at 1 every chunk is one row, at 5 rows of the smallest
    field's nodes the larger fields' ladders split, and at None each field
    is one chunk.  Each nonzero t is evaluated once, and each evaluation of
    a field's rows holds at most max(_BLOCK_ELEMENTS, N) elements, one row
    when _BLOCK_ELEMENTS is 1."""
    params, spec = ConeParams(3, 0.2), QuadratureSpec(16, 4, 16, 3.1)
    fields = [build_trial(desc, 3) for desc, _ in members]
    times = [_report_times(scale * default_t0(f), levels)
             for f, (_, scale) in zip(fields, members)]
    samples = battery_samples(params, fields, spec)
    sizes = [s[1].size for s in samples]
    block = {1: 1, 5: 5 * max(1, min(sizes)), None: 2 ** 62}[rows]
    evaluated, reductions = [], []
    real_j2, real_sums = conestab.variation._distortion_squared, conestab.variation.compensated_sums

    def j2(*args):
        out = real_j2(*args)
        evaluated.append(out.shape)
        return out

    def sums(segments):
        reductions.append([np.size(v) for v in segments])
        return real_sums(segments)

    with mock.patch.object(conestab.quadrature, "_BLOCK_ELEMENTS", block), \
            mock.patch.object(conestab.variation, "_distortion_squared", j2), \
            mock.patch.object(conestab.variation, "compensated_sums", sums):
        got = _battery_areas(params, samples, times)
    assert got == [_battery_areas(params, [sample], [ts])[0]
                   for sample, ts in zip(samples, times)]
    for f, sample, ts, values in zip(fields, samples, times, got):
        assert [area(params, f, t, spec) for t in ts[1::4]] == values[1::4], f.label
        assert [_reference_area(params, f, t, spec, sample) for t in ts[2::4]] == \
            values[2::4], f.label
    assert sum(r for r, _ in evaluated) == sum(len(ts) - 1 for ts in times)
    for r, m in evaluated:
        assert m in sizes and r * m <= max(block, m)
        if rows == 1:
            assert r <= 1
    owner = [i for i, ts in enumerate(times) for _ in ts]  # the field of each row, in order
    done = 0
    for segments in reductions:
        i, = set(owner[done:done + len(segments)])
        assert segments == [sizes[i]] * len(segments)
        assert sum(segments) <= max(block, sizes[i])
        done += len(segments)
    assert done == len(owner)
    if rows is None:
        assert len(reductions) == len(fields)


@pytest.mark.parametrize("rows", [1, 4, 40])
def test_battery_area_errors_name_the_first_failing_field_and_t(rows, monkeypatch):
    """In a battery's area pass the first failing row in field order, then
    ladder order, raises: a squared distortion factor <= 0 in the second
    and third fields aborts at the second field's first failing t, with
    its minimum, however the rows fall into blocks; a non-finite area in
    the second field before any positivity failure raises the non-finite
    error instead, naming that field's t."""
    params = ConeParams(3, 0.2)
    fields = [make_radial_bump([0.0, 0.0, 1.5], 0.6, 3), make_boundary_bump(0.9, 3),
              make_radial_bump([0.0, 0.0, 1.2], 0.7, 3)]
    times = [[t for t in dict.fromkeys(_ladder_times(f)) if t != 0.0] for f in fields]
    _rows_per_block(monkeypatch, params, fields[0], SPEC3, rows)
    first = len(times[0])  # rows of the first field come first
    second = first + len(times[1])
    _poison_rows(monkeypatch, {second + 1: -2.0, first + 7: -0.5, first + 3: -0.25})
    with pytest.raises(JacobianPositivityError) as err:
        _variation_reports(params, fields, None, DEFAULT_LEVELS, SPEC3)
    assert (err.value.t, err.value.worst_value) == (times[1][3], -0.25)
    _poison_rows(monkeypatch, {second: -2.0, first + 2: math.nan, first + 5: -0.5})
    with pytest.raises(QuadratureError, match="non-finite evaluation") as err:
        _variation_reports(params, fields, None, DEFAULT_LEVELS, SPEC3)
    assert not isinstance(err.value, JacobianPositivityError)
    assert str(err.value) == f"non-finite evaluation: area nan at t={times[1][2]}"
    _poison_rows(monkeypatch, {second + 4: -1.0})
    with pytest.raises(JacobianPositivityError) as err:
        _variation_reports(params, fields, None, DEFAULT_LEVELS, SPEC3)
    assert (err.value.t, err.value.worst_value) == (times[2][4], -1.0)


@pytest.mark.parametrize("size", [1, 4, 10])
def test_a_battery_report_makes_a_fixed_number_of_reductions(size, monkeypatch):
    """One _variation_reports call reduces with one compensated_sums per
    area chunk of each field (its area at t = 0 and its nonzero times, at
    most max(1, _BLOCK_ELEMENTS // N) rows for its N nodes) and one per
    block of the battery pass for the energies with every trace, whatever
    the battery's size, in one block and under a budget that splits it.  No
    one-field path runs: no compensated_sum, area, boundary_integral or
    liminf_quotient call.  This guards the battery passes against a
    per-field loop coming back."""
    params = ConeParams(3, 0.2)
    fields = standard_battery(3, size)
    nodes = [battery_samples(params, [f], SPEC3)[0][1].size for f in fields]
    rows = [len(_report_times(default_t0(f), 5)) for f in fields]
    calls, blocks = [], []
    for module in (conestab.variation, conestab.quadrature):
        real = module.compensated_sums
        monkeypatch.setattr(module, "compensated_sums",
                            lambda segments, real=real: calls.append(len(segments))
                            or real(segments))
    real_rules = conestab.quadrature._slice_rules
    monkeypatch.setattr(conestab.quadrature, "_slice_rules",
                        lambda params, block, *rest: blocks.append(len(block))
                        or real_rules(params, block, *rest))
    for name in ("compensated_sum", "boundary_integral", "liminf_quotient"):
        monkeypatch.setattr(conestab.quadrature, name, None)
    monkeypatch.setattr(conestab.variation, "area", None)
    for budget in (conestab.quadrature._BLOCK_ELEMENTS, 3 * max(nodes)):
        monkeypatch.setattr(conestab.quadrature, "_BLOCK_ELEMENTS", budget)
        calls.clear()
        blocks.clear()
        reports = _variation_reports(params, fields, None, 5, SPEC3)
        want, start = [], 0
        for stop in accumulate(blocks):
            for k, m in zip(rows[start:stop], nodes[start:stop]):
                per = max(1, budget // m)
                want += [min(per, k - j) for j in range(0, k, per)]
            traced = sum(1 for f in fields[start:stop]
                         if conestab.quadrature.trace_span(params, f)[1] > 0.0)
            want.append(stop - start + traced)
            start = stop
        assert calls == want, budget
        assert len(reports) == size and sum(blocks) == size
    assert len(want) > len(blocks) + size  # the small budget splits the ladders
