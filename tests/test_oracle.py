"""Slice energies and traces against the benchmark's exact values.

``bench/oracle.py`` computes E and T of the battery from the fields'
definitions, without conestab; ``conftest`` imports it from there, so one
copy exists.  Where the oracle has a value, the slice rules are exact up to
rounding, at the benchmark's node counts and at the small counts of the
golden reports.
"""

import math

import numpy as np
import pytest
from conftest import oracle

from conestab.domain import ConeParams
from conestab.quadrature import QuadratureSpec, boundary_integral, support_sample
from conestab.trial import (Geometry, TrialFunction, battery_descriptors, build_trial,
                            make_boundary_bump, make_radial_bump, make_tensor_bump, scaled)
from conestab.variation import area, dirichlet_energy

# the margin benchmark's node counts, and the golden reports' small ones
SPECS = {3: QuadratureSpec(64, 16, 64, 3.1), 4: QuadratureSpec(48, 10, 48, 3.1),
         5: QuadratureSpec(32, 8, 32, 3.1)}
SMALL = QuadratureSpec(16, 4, 16, 3.0)


def _lams(n):
    star = oracle.lambda_star(n)
    return (0.0, 0.5 * star, star, 2.0 * star)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_energy_and_trace_match_the_oracle(n):
    """Every battery member the oracle covers, at lam = 0, lam*/2, lam* and
    2 lam*: E and T within 1e-12 relative (T absolutely where it is 0)."""
    covered = 0
    for spec in (SPECS[n], SMALL):
        for lam in _lams(n):
            params = ConeParams(n, lam)
            for desc in battery_descriptors(20):
                exact = oracle.energy_and_trace(desc, n, lam)
                if exact is None:
                    continue
                covered += 1
                f = build_trial(desc, n)
                energy, trace = exact
                where = (n, lam, desc["id"], spec.radial_nodes)
                assert dirichlet_energy(params, f, spec) == pytest.approx(energy, rel=1e-12), where
                assert boundary_integral(params, f, spec) == pytest.approx(
                    trace, rel=1e-12, abs=1e-12 * energy), where
    # only the boxes that meet the boundary at 2 lam* lack a value
    assert covered >= 2 * (4 * 20 - 3)


def test_scaled_field_energy_on_the_same_nodes():
    """scaled(f, c) has f's geometry, so it is sampled on f's nodes, and its
    energy and trace are c^2 times f's."""
    for n in (3, 4, 5):
        params = ConeParams(n, oracle.lambda_star(n))
        for desc in battery_descriptors(20):
            f = build_trial(desc, n)
            g = scaled(f, -1.7)
            assert np.array_equal(support_sample(params, f, SPECS[n])[0],
                                  support_sample(params, g, SPECS[n])[0]), desc["id"]
            for quantity in (dirichlet_energy, boundary_integral):
                assert quantity(params, g, SPECS[n]) == pytest.approx(
                    1.7 ** 2 * quantity(params, f, SPECS[n]), rel=1e-14), desc["id"]


def test_axis_centred_node_count_does_not_grow_with_n():
    """At the default spec, an axis-centred field's slice rule has one node
    count for every n from 3 to 8: one x'-direction stands for the sphere
    S^(n-2)."""
    spec = QuadratureSpec()
    for desc in battery_descriptors(18):
        if desc["kind"] == "tensor_bump":
            continue
        counts = {support_sample(ConeParams(n, 0.3), build_trial(desc, n), spec)[1].size
                  for n in range(3, 9)}
        assert len(counts) == 1, (desc["id"], counts)


def test_trace_is_exact_up_to_rounding_of_the_margin():
    """At the default spec, n = 3..8 and lam in {lam*/2, lam*, 2 lam*}, every
    battery member the oracle covers has lam |T - T_exact| <= 1e-14 (E + lam T),
    exact values on the right: T as a slice integral moves each margin
    E - lam T by rounding only.  The boxes the oracle covers miss the cone,
    so their T is 0.0 without a sample, also at n = 8, where their rule is
    refused."""
    spec = QuadratureSpec()
    for n in range(3, 9):
        for lam in _lams(n)[1:]:
            params = ConeParams(n, lam)
            for desc in battery_descriptors(20):
                exact = oracle.energy_and_trace(desc, n, lam)
                if exact is None:
                    continue
                energy, trace = exact
                got = boundary_integral(params, build_trial(desc, n), spec)
                assert lam * abs(got - trace) <= 1e-14 * (energy + lam * trace), \
                    (n, lam, desc["id"], got, trace)


def _ball_volume(n, rho):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * rho ** n


def test_support_measure_is_exact():
    """area at t = 0 is the measure of the support in the slice: rho^n / n
    times the cap measure for a vertex bump, the ball's volume for a ball
    inside the slice (on and off the axis), (2w)^n for a cube inside it."""
    for n in (2, 3, 4, 5):
        up = np.zeros(n)
        up[-1] = 2.5
        off = up.copy()
        off[0] = 0.3
        cases = [(make_boundary_bump(0.8, n), None),
                 (make_radial_bump(up, 0.6, n), _ball_volume(n, 0.6)),
                 (make_radial_bump(off, 0.5, n, exponent=2), _ball_volume(n, 0.5)),
                 (make_tensor_bump(up, 0.3, n), 0.6 ** n)]
        for lam in (0.0, 0.3, 1.1):
            params = ConeParams(n, lam)
            for f, want in cases:
                want = want if want is not None else 0.8 ** n / n * oracle.cap_measure(n, lam)
                assert area(params, f, 0.0, SMALL) == pytest.approx(want, rel=1e-13), \
                    (n, lam, f.label)


def test_doubling_the_spec_refines_every_rule():
    """Doubling every count of the spec adds nodes to every field's rule
    (radial on and off the axis, vertex, box, and the default ball), so a
    doubled spec can serve as an error estimate."""
    for n, spec in ((3, QuadratureSpec()), (5, SPECS[5])):
        doubled = QuadratureSpec(2 * spec.radial_nodes, 2 * spec.angular_nodes,
                                 2 * spec.box_nodes_per_axis, spec.support_radius)
        params = ConeParams(n, oracle.lambda_star(n))
        fields = [build_trial(desc, n) for desc in battery_descriptors(20)]
        vertex = fields[0]
        fields.append(TrialFunction(vertex.evaluator, vertex.gradient, 1.0 / 0.6,
                                    Geometry("ball", (0.0,) * n, 0.6), label="hand-built"))
        for f in fields:
            assert (support_sample(params, f, doubled)[1].size
                    > support_sample(params, f, spec)[1].size), (n, f.label)
