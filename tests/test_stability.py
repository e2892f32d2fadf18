"""Trace constant, threshold aperture, margins, and stability verdicts."""

import math

import numpy as np
import pytest
from conftest import oracle

from conestab.domain import ConeParams
from conestab.quadrature import QuadratureSpec, boundary_integral, support_sample
from conestab.stability import (INCONCLUSIVE, PROVEN_STABLE, UNSTABLE, _shear_checks,
                                instability_witness_n2, kato_constant, lambda_star,
                                shear_transform_check, stability_sweep)
from conestab.trial import (battery_descriptors, build_trial, make_boundary_bump,
                            make_radial_bump, scaled, standard_battery)
from conestab.variation import dirichlet_energy
from conestab.verify import KATO_SPECS, kato_suite

# frozen high-precision references
K3_REFERENCE = 0.2284732905222318
LAMBDA3_REFERENCE = 0.167591979448816
LAMBDA4_REFERENCE = 0.349546212970872

SPEC3 = QuadratureSpec(64, 16, 64, 3.1)


def test_constant_special_values():
    assert kato_constant(4) == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert kato_constant(6) == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert kato_constant(3) == pytest.approx(K3_REFERENCE, abs=1e-12)
    assert abs(kato_constant(3) - 0.228473) <= 1e-6


def test_constant_rejects_degenerate_dimensions():
    for n in (2, 1, 0):
        with pytest.raises(ValueError):
            kato_constant(n)


def test_constant_monotone_and_asymptotic():
    values = [kato_constant(n) for n in range(3, 13)]
    assert np.all(np.diff(values) > 0)
    # ratio against (n-2)/2 climbs toward 1 from below
    ratios = [values[i] / ((n - 2) / 2.0) for i, n in enumerate(range(3, 13))]
    assert np.all(np.diff(ratios) > 0)
    assert 0.4 < ratios[0] < ratios[-1] < 1.0


def test_threshold_values():
    thr3 = lambda_star(3)
    thr4 = lambda_star(4)
    assert abs(thr3.lambda_star - 0.1676) <= 1e-4
    assert abs(thr4.lambda_star - 0.3496) <= 1e-4
    assert thr3.lambda_star == pytest.approx(LAMBDA3_REFERENCE, abs=1e-12)
    assert thr4.lambda_star == pytest.approx(LAMBDA4_REFERENCE, abs=1e-12)


def test_threshold_residual_contract():
    for n in range(3, 13):
        thr = lambda_star(n)
        assert abs(thr.residual) <= 1e-12 * thr.k_n
        cubic = thr.lambda_star * (1 + thr.lambda_star) ** 2
        assert cubic == pytest.approx(thr.k_n, rel=1e-12)


def test_threshold_monotone_in_dimension():
    stars = [lambda_star(n).lambda_star for n in range(3, 13)]
    assert np.all(np.diff(stars) > 0)


def test_margin_zero_field():
    params = ConeParams(3, 0.2)
    zero = scaled(make_boundary_bump(1.0, 3), 0.0)
    assert stability_sweep(params, [zero], SPEC3).margins == (0.0,)


def test_margin_interior_field_is_dirichlet_energy():
    params = ConeParams(3, 0.2)
    f = make_radial_bump([0.0, 0.0, 2.0], 0.8, 3)
    (m,) = stability_sweep(params, [f], SPEC3).margins
    assert m > 0.5  # boundary term vanishes; pure Dirichlet energy remains


def test_margin_battery_nonnegative():
    res = kato_suite(battery_size=6)
    assert res.passed, res.detail
    assert res.worst_error >= -1e-8


def test_shear_check_identity_at_flat_aperture():
    params = ConeParams(3, 0.0)
    f = make_boundary_bump(1.0, 3)
    energy_f, energy_g, trace = shear_transform_check(params, f, SPEC3)
    assert energy_g == pytest.approx(energy_f, rel=1e-12)
    assert trace >= 0


def test_shear_check_contract_inequalities():
    params = ConeParams(3, 0.3)
    for f in standard_battery(3, 8):
        energy_f, energy_g, trace = shear_transform_check(params, f, SPEC3)
        assert energy_g <= (1 + params.lam) ** 2 * energy_f + 1e-8
        assert energy_g >= kato_constant(3) * trace - 1e-8


def _energy_g_reference(desc, n, lam):
    """E_g of g = f(x', x_n + lam*|x'|) from the field's definition, or None
    for a box that meets the slice boundary.

    The shear has unit Jacobian, so E_g is the slice integral of |grad' f +
    lam d_n f x'/|x'||^2 + (d_n f)^2.
      * Axis-centred radial field: grad f = f'(s) omega, omega at polar
        angle phi from the axis, so the integrand is f'(s)^2 ((sin phi + lam
        cos phi)^2 + cos^2 phi).  For a vertex bump the rays inside the
        slice are phi < atan(1/lam), in closed form; for a ball that crosses
        the boundary, the oracle's cut-angle integral over phi with this
        factor.
      * A ball (on or off the axis) or a box inside the slice: the cross term
        2 lam d_n f d_r f integrates to 0 (reflection through the horizontal
        plane of a ball's centre flips d_n f; on a box each x_n column gives
        [B^2 / 2] = 0 for the x_n factor B), and d_n f carries 1/n of the
        energy by the field's symmetry, so E_g = (1 + lam^2/n) E_f with E_f
        the oracle's."""
    exact = oracle.energy_and_trace(desc, n, lam)
    if exact is None:
        return None
    energy, trace = exact
    p = int(desc.get("exponent", 1))
    if desc["kind"] == "boundary_concentrated":
        top = math.atan2(1.0, lam)
        j = [oracle._sin_power_integral(k, top) for k in (n - 2, n)]
        angular = (j[1] + 2.0 * lam * math.sin(top) ** n / n
                   + (1.0 + lam * lam) * (j[0] - j[1]))
        rho = float(desc["radius"])
        return (oracle.sphere_measure(n - 2) * angular
                * oracle._radial_energy_partial(n, rho, p, rho))
    if trace == 0.0:
        return (1.0 + lam * lam / n) * energy
    # an axis-centred ball that crosses the boundary (the oracle has no
    # value for crossing off-axis balls)
    rho, h = float(desc["radius"]), oracle._center(desc, n)[-1]
    alpha = math.atan2(1.0, lam)
    b = math.asin(h / math.sqrt(1.0 + lam * lam) / rho)
    cuts = sorted({0.0, math.pi} | {c for c in (alpha + b, alpha + math.pi - b)
                                    if 0.0 < c < math.pi})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        phi, wphi = oracle._gauss(lo, hi)
        denom = lam * np.sin(phi) - np.cos(phi)
        reach = np.where(denom > 0.0, h / np.where(denom > 0.0, denom, 1.0), np.inf)
        radial = np.array([oracle._radial_energy_partial(n, rho, p, float(s)) for s in reach])
        factor = (np.sin(phi) + lam * np.cos(phi)) ** 2 + np.cos(phi) ** 2
        total += float(np.sum(wphi * np.sin(phi) ** (n - 2) * factor * radial))
    return oracle.sphere_measure(n - 2) * total


def test_shear_check_energy_matches_closed_form():
    """E_g against its value from the field's definition (see
    ``_energy_g_reference``) for every member but the boxes that meet the
    boundary: vertex bumps, balls on and off the axis, boxes inside the
    slice, and the axis ball that crosses the boundary at lam = 1.1.  For
    those boxes the check redoes stability.py's algebra with numpy's
    reductions on the same nodes: it checks only the arithmetic."""
    specs = {3: SPEC3, 4: QuadratureSpec(32, 8, 32, 3.1)}
    for n, spec in specs.items():
        for lam in (0.0, 0.3, 1.1):
            params = ConeParams(n, lam)
            independent = 0
            for desc in battery_descriptors(20):
                f = build_trial(desc, n)
                _, energy_g, _ = shear_transform_check(params, f, spec)
                want = _energy_g_reference(desc, n, lam)
                if want is None:
                    assert desc["kind"] == "tensor_bump" and lam > 0.0, desc["id"]
                    pts, weights, _, gv, _ = support_sample(params, f, spec)
                    xp = pts[:, :-1]
                    grad = gv[:, :-1] + lam * gv[:, -1:] * xp / np.linalg.norm(
                        xp, axis=-1, keepdims=True)
                    want = float(np.sum(weights * (np.sum(grad ** 2, axis=-1)
                                                   + gv[:, -1] ** 2)))
                else:
                    independent += 1
                assert energy_g == pytest.approx(want, rel=1e-12), (n, lam, desc["id"])
            assert independent >= 17, (n, lam)


def test_shear_check_rejects_two_dims():
    with pytest.raises(ValueError):
        shear_transform_check(ConeParams(2, 0.5), make_boundary_bump(1.0, 2), SPEC3)


def test_witness_two_dims_unstable():
    params = ConeParams(2, 1.0)
    spec = QuadratureSpec(128, 2, 128, 1.5)
    verdict = instability_witness_n2(params, (1e-2, 1e-3, 1e-4, 1e-5, 1e-6), spec=spec)
    assert verdict.regime == UNSTABLE
    assert verdict.witness is not None
    assert verdict.margin < 0
    # strictly decreasing regularized values
    assert all(b < a for a, b in zip(verdict.margins, verdict.margins[1:]))


def test_witness_respects_zero_vertex_value():
    params = ConeParams(2, 1.0)
    f = make_radial_bump([0.0, 1.5], 0.7, 2)  # vanishing vertex value
    verdict = instability_witness_n2(params, (1e-2, 1e-3, 1e-4), f=f,
                                     spec=QuadratureSpec(64, 2, 64, 3.0))
    assert verdict.regime == INCONCLUSIVE


def test_witness_is_not_applicable_at_lambda_zero():
    """At lam = 0 the trace term vanishes: no fit is attempted, where it
    used to report a failed fit of slope 2e-17 against -0."""
    verdict = instability_witness_n2(ConeParams(2, 0.0), (1e-2, 1e-3, 1e-4),
                                     spec=QuadratureSpec(64, 2, 64, 3.0))
    assert verdict.regime == INCONCLUSIVE and verdict.margins == ()
    assert verdict.detail == "lam = 0: no trace term, divergence hypothesis not applicable"


@pytest.mark.parametrize("epsilons", [(0.5, 0.5, 0.5), (1e-2, 1e-3, 1e-3, 1e-4)],
                         ids=["all-equal", "one-repeated"])
def test_witness_refuses_repeated_cutoffs(epsilons):
    with pytest.raises(ValueError, match="decreasing"):
        instability_witness_n2(ConeParams(2, 1.0), epsilons, spec=QuadratureSpec(64, 2, 64, 3.0))


def test_witness_requires_two_dims():
    with pytest.raises(ValueError):
        instability_witness_n2(ConeParams(3, 1.0), (1e-2, 1e-3, 1e-4))


def test_sweep_proved_regime():
    thr = lambda_star(3)
    params = ConeParams(3, 0.5 * thr.lambda_star)
    verdict = stability_sweep(params, standard_battery(3, 8), SPEC3)
    assert verdict.regime == PROVEN_STABLE
    assert verdict.margin > 0
    assert all(m >= -1e-8 for m in verdict.margins)


def test_sweep_finds_witness_far_beyond_threshold():
    thr = lambda_star(3)
    params = ConeParams(3, 1e3 * thr.lambda_star)
    verdict = stability_sweep(params, [make_boundary_bump(1.0, 3)], SPEC3)
    assert verdict.regime == UNSTABLE
    assert verdict.witness is not None
    assert verdict.margin < 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sweep_margins_equal_per_field_energy_and_trace(n):
    """Each margin of a sweep, which reduces the battery's energies together,
    is dirichlet_energy - lam * boundary_integral of its field, bit for bit,
    on the kato suite's rules at lam*/2, lam* and 2 lam*; the kato suite's
    battery of shear checks equals one shear_transform_check per field."""
    spec, star, battery = KATO_SPECS[n], lambda_star(n).lambda_star, standard_battery(n)
    for lam in (0.5 * star, star, 2.0 * star):
        params = ConeParams(n, lam)
        want = [dirichlet_energy(params, f, spec) - lam * boundary_integral(params, f, spec)
                for f in battery]
        got = stability_sweep(params, battery, spec).margins
        assert [np.float64(m).tobytes() for m in got] == [np.float64(m).tobytes() for m in want]
        checks = _shear_checks(params, battery, spec)
        assert np.array(checks).tobytes() == np.array(
            [shear_transform_check(params, f, spec) for f in battery]).tobytes()


def test_sweep_empty_battery_inconclusive():
    params = ConeParams(3, 0.05)
    assert stability_sweep(params, [], SPEC3).regime == INCONCLUSIVE


def test_sweep_conservative_slightly_beyond_threshold():
    """Just past the proven regime with well-behaved fields: nothing proven,
    nothing disproven."""
    thr = lambda_star(3)
    params = ConeParams(3, 1.05 * thr.lambda_star)
    verdict = stability_sweep(params, standard_battery(3, 6), SPEC3)
    assert verdict.regime == INCONCLUSIVE


def test_sweep_verdict_invariant_under_field_scaling():
    thr = lambda_star(3)
    battery = standard_battery(3, 4)
    for lam in (0.5 * thr.lambda_star, 1e3 * thr.lambda_star):
        params = ConeParams(3, lam)
        v1 = stability_sweep(params, battery, SPEC3)
        v2 = stability_sweep(params, [scaled(f, 2.0) for f in battery], SPEC3)
        assert v1.regime == v2.regime
        # margins are quadratic in the field
        assert np.allclose(np.asarray(v2.margins), 4.0 * np.asarray(v1.margins),
                           rtol=1e-10, atol=1e-12)


def test_sweep_rejects_two_dims():
    with pytest.raises(ValueError):
        stability_sweep(ConeParams(2, 0.5), [make_boundary_bump(1.0, 2)], SPEC3)
