"""Trial-function families: values, exact gradients, supports, kink sets."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import is_smooth_point

from conestab import trial
from conestab.domain import ConeParams
from conestab.quadrature import QuadratureSpec, _slice_rules
from conestab.stability import lambda_star
from conestab.trial import (Geometry, TrialFunction, build_trial, make_boundary_bump,
                            make_radial_bump, make_shifted_bump, make_tensor_bump,
                            sample_smooth_points, scaled, standard_battery)
from conestab.verify import _flow_sample_fields

SEED = 20260810


def test_radial_bump_examples():
    f = make_radial_bump(np.zeros(3), 1.0, 3)
    assert f.evaluator(np.zeros(3)) == 1.0                  # peak at its center
    x = np.array([0.5, 0.0, 0.0])
    assert f.evaluator(x) == pytest.approx(0.5)             # 1 - |x|
    assert f.evaluator(np.array([0.0, 0.0, 1.7])) == 0.0    # support cutoff
    assert f.lipschitz_bound == pytest.approx(1.0)
    assert f.geometry.reach == pytest.approx(1.0)


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
        radii = f.geometry.reach * rng.uniform(1.0, 3.0, size=1000)
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
                    [-0.2, 0.1, 1.1]])                # generic, x' mirrored
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


def test_build_trial_rejects_keys_its_kind_does_not_read():
    """Every kind reads kind, id, exponent, scale and its constructor's keys;
    any other key is refused, also one that another kind reads, where it
    used to be dropped (a misspelt exponent ran at exponent 1)."""
    keys = {"radial_bump": {"center": 1.5, "radius": 0.5},
            "tensor_bump": {"center": 1.5, "half_width": 0.5},
            "shifted_bump": {"center": 0.0, "radius": 0.5, "shift": 1.5},
            "boundary_concentrated": {"radius": 0.5}}
    for kind, own in keys.items():
        desc = {"kind": kind, "id": "f", "exponent": 2, "scale": 0.5, **own}
        assert build_trial(desc, 3).label == "0.5*f"
        for key in sorted({"center", "radius", "half_width", "shift", "exponnent"} - set(own)):
            with pytest.raises(ValueError) as err:
                build_trial({**desc, key: 1.0}, 3)
            assert str(err.value) == f"unknown keys [{key!r}] for kind {kind!r}"


def test_standard_battery_members_are_valid():
    for n in (2, 3, 4):
        battery = standard_battery(n)
        assert len(battery) == 20
        assert len({f.label for f in battery}) == 20
        for f in battery:
            assert f.dimension == n
            assert f.geometry.reach <= 3.1
            assert f.lipschitz_bound > 0
            # support descriptor honest: zero outside the stated ball
            far = np.zeros(n)
            far[0] = f.geometry.reach * 1.01
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


def _reach_cylinder_sample(params, f, rng, count, margin=1e-3):
    """Reference for sample_smooth_points: ``count`` draws on the whole
    cylinder margin < r, y < reach, with the sampler's rejections."""
    n, reach = f.dimension, f.geometry.reach
    r = rng.uniform(margin, reach, size=count)
    theta = rng.normal(size=(count, n - 1))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    y = rng.uniform(margin, reach, size=count)
    pts = np.concatenate([r[:, None] * theta, (y + params.lam * r)[:, None]], axis=1)
    return pts[(f.evaluator(pts) != 0.0) & trial._smooth_mask(f, pts, margin)]


def test_draw_box_holds_every_support_point_of_the_reach_cylinder(rng):
    """The sampler draws (r, y) from a box inside the cylinder margin < r,
    y < reach that holds every point of spt f the cylinder holds, for a
    radial, vertex, shifted, off-axis and box member at n = 3, 4, 5 and
    lam in {0, lam*(n), 2.5}: so its points keep the cylinder's distribution."""
    for n in (3, 4, 5):
        fields = [f for f in standard_battery(n)
                  if f.label in ("axis-b", "vertex-b", "deep-a", "offaxis-a", "box-a")]
        assert len(fields) == 5
        for lam in (0.0, lambda_star(n).lambda_star, 2.5):
            params = ConeParams(n, lam)
            for f in fields:
                r_hi, y_lo, y_hi = trial._draw_box(params, f.geometry, 1e-3)
                assert r_hi <= f.geometry.reach and 1e-3 <= y_lo < y_hi <= f.geometry.reach
                pts = _reach_cylinder_sample(params, f, rng, 20_000)
                assert pts.shape[0] >= 100, (n, lam, f.label)
                r = np.linalg.norm(pts[:, :-1], axis=1)
                y = pts[:, -1] - lam * r
                assert np.all(r <= r_hi), (n, lam, f.label)
                assert np.all((y_lo <= y) & (y <= y_hi)), (n, lam, f.label)


def test_sampler_keeps_the_reach_cylinder_distribution():
    """Seeded two-sample check, reach cylinder against draw box, for both
    fields the flow suites sample: at each level q of the cylinder sample's
    quantiles of |x'| and of x_n, the share of sampler points below lies
    within 0.02 of q (about 4 standard errors at these sizes)."""
    params = ConeParams(3, 0.7)
    levels = np.linspace(0.05, 0.95, 19)
    for f in _flow_sample_fields(3):
        new = sample_smooth_points(params, f, np.random.default_rng(SEED), 20_000)
        old = _reach_cylinder_sample(params, f, np.random.default_rng(SEED + 1), 200_000)
        assert old.shape[0] >= 20_000
        for column in (lambda p: np.linalg.norm(p[:, :-1], axis=1), lambda p: p[:, -1]):
            a, b = column(new), column(old)
            share = np.searchsorted(np.sort(a), np.quantile(b, levels)) / a.size
            assert np.max(np.abs(share - levels)) <= 0.02, f.label


def _unblocked_sample(params, f, rng, count, margin=1e-3):
    """Reference for sample_smooth_points: the same draws, each round
    normalised, evaluated and masked as one array, no blocks."""
    n = f.dimension
    r_hi, y_lo, y_hi = trial._draw_box(params, f.geometry, margin)
    chunks, got = [], 0
    for _ in range(200):
        m = max(2 * (count - got), 64)
        r = rng.uniform(margin, r_hi, size=m)
        cols = np.empty((n, m))
        rng.standard_normal(out=cols[:-1])
        cols[:-1] *= r / np.linalg.norm(cols[:-1], axis=0)
        cols[-1] = rng.uniform(y_lo, y_hi, size=m) + params.lam * r
        cand = cols.take(np.flatnonzero(f.evaluator(cols.T) != 0.0), axis=1)
        keep = np.flatnonzero(trial._smooth_mask(f, cand.T, margin))[:count - got]
        chunks.append(cand.take(keep, axis=1))
        got += keep.size
        if got == count:
            return np.concatenate(chunks, axis=1).T
    raise RuntimeError("smooth-point sampling failed to converge")


def _kept_in_first_blocks(params, f, seed, count, blocks, margin=1e-3):
    """Smooth support points among the first ``blocks`` sampler blocks of the
    first round of sample_smooth_points(..., count) from ``seed``."""
    rng, size = np.random.default_rng(seed), blocks * trial._SAMPLE_BLOCK
    r_hi, y_lo, y_hi = trial._draw_box(params, f.geometry, margin)
    m = max(2 * count, 64)
    r = rng.uniform(margin, r_hi, size=m)[:size]
    x = rng.standard_normal(size=(f.dimension - 1, m))[:, :size]
    y = rng.uniform(y_lo, y_hi, size=m)[:size]
    pts = np.vstack([x * (r / np.linalg.norm(x, axis=0)), y + params.lam * r]).T
    pts = pts[f.evaluator(pts) != 0.0]
    return int(np.count_nonzero(trial._smooth_mask(f, pts, margin)))


class _CountingGenerator(np.random.Generator):
    """A generator that counts its uniform draws: two per sampler round."""

    uniform_calls = 0

    def uniform(self, *args, **kwargs):
        self.uniform_calls += 1
        return super().uniform(*args, **kwargs)


def _assert_sample_equals_unblocked(params, f, seed, count):
    """The blocked sampler's points, their layout and the generator state it
    leaves equal the unblocked reference's; returns its number of rounds."""
    rng = _CountingGenerator(np.random.PCG64(seed))
    ref_rng = np.random.default_rng(seed)
    got, want = sample_smooth_points(params, f, rng, count), _unblocked_sample(
        params, f, ref_rng, count)
    assert np.array_equal(got, want) and got.strides == want.strides, (f.label, count)
    assert rng.bit_generator.state == ref_rng.bit_generator.state, (f.label, count)
    return rng.uniform_calls // 2


# (field of _flow_sample_fields(3), seed, count, blocks): the count-th smooth
# point is the last one of the first ``blocks`` blocks of the first round
FLOW_BLOCK_ENDS = [(0, 314, 9388, 1), (0, 40, 28470, 3), (1, 48, 8570, 1), (1, 260, 26192, 3)]


def test_blocked_sampler_equals_the_unblocked_reference_on_the_flow_fields():
    """For both fields the flow suites sample, at counts from 1 to 50,000, the
    blocked sampler returns the unblocked reference's points bit for bit and
    leaves the generator where it does, so the next field's sample is the
    same too; four counts stop exactly at the end of a block, one or three
    blocks into a round of two or more."""
    params = ConeParams(3, 0.7)
    fields = _flow_sample_fields(3)
    for f in fields:
        for count in (1, 2, 63, 64, 65, 1000, trial._SAMPLE_BLOCK, 50_000):
            _assert_sample_equals_unblocked(params, f, SEED, count)
    for i, seed, count, blocks in FLOW_BLOCK_ENDS:
        f = fields[i]
        assert 2 * count > blocks * trial._SAMPLE_BLOCK  # the round has another block
        assert _kept_in_first_blocks(params, f, seed, count, blocks) == count, (i, count)
        assert _kept_in_first_blocks(params, f, seed, count, blocks - 1) < count
        assert _assert_sample_equals_unblocked(params, f, seed, count) == 1


@pytest.mark.parametrize("n", [3, 4])
def test_blocked_sampler_equals_the_unblocked_reference_on_the_battery(n):
    """Every member of the 20-member battery at lam = 0.7 and 2.5, from 1 to
    20,000 points: the vertex members take 3 or more rounds at 5,000 points
    and the off-axis members more than 12, so counts finished in a later
    round, and in a later block of it, are covered."""
    rounds = {}
    for lam in (0.7, 2.5):
        params = ConeParams(n, lam)
        for f in standard_battery(n):
            for count in (1, 50, 5000, 20_000):
                used = _assert_sample_equals_unblocked(params, f, SEED, count)
                rounds[f.label] = max(rounds.get(f.label, 0), used)
    assert min(rounds[f"vertex-{k}"] for k in "abcdef") >= 3
    assert min(rounds["offaxis-a"], rounds["offaxis-b"]) > 12


def test_sampler_peak_memory_is_bounded():
    """One 50,000-point sample of each flow-suite field traces at most 7 MB:
    the 2 * 50,000 candidates of its first round, the result and one block
    of the evaluator's and the mask's temporaries.  Unblocked, the
    temporaries of the whole round came on top (7.5 and 9.9 MB here)."""
    params = ConeParams(3, 0.7)
    for f in _flow_sample_fields(3):
        rng = np.random.default_rng(SEED)
        tracemalloc.start()
        try:
            sample_smooth_points(params, f, rng, 50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2 ** 20, (f.label, peak)


def _ball_rule(n, spec, lam=0.3, radius=3.1):
    """Nodes of the rule a hand-built field gets (polar about the origin,
    full sphere grid of directions) out to ``radius``: they cover the slice
    there, in and outside every battery member's support."""
    geom = Geometry("ball", (0.0,) * n, radius)
    return _slice_rules(ConeParams(n, lam), [geom], spec)[0][0]


def test_gradient_vanishes_where_field_vanishes_on_grid_nodes():
    """The contract slice integrals rely on to skip the zero set of f, on
    the nodes of the default ball rule and of each field's own rule."""
    specs = {2: QuadratureSpec(), 3: QuadratureSpec(), 4: QuadratureSpec(48, 10, 48, 3.1),
             5: QuadratureSpec(32, 8, 32, 3.1)}
    for n, spec in specs.items():
        ball = _ball_rule(n, spec)
        battery = standard_battery(n)
        for f in battery + [scaled(battery[12], -1.7)]:
            pts = np.concatenate([ball, _slice_rules(ConeParams(n, 0.3), [f.geometry], spec)[0][0]])
            zero = f.evaluator(pts) == 0.0
            assert np.any(zero), (n, f.label)
            assert np.all(f.gradient(pts[zero]) == 0.0), (n, f.label)


def _masked_forms(f):
    """The evaluator (and, for a box, the gradient) of f in the form that
    masks the support with np.where."""
    (kind, c, w, p), n = f.descriptor[:4], f.dimension
    c = np.asarray(c)
    if kind == "radial_bump":
        def evaluator(pts):
            u = np.linalg.norm(pts - c, axis=-1) / w
            return np.where(u < 1.0, (1.0 - np.minimum(u, 1.0)) ** p, 0.0)
        return evaluator, None

    def bump(pts):
        u = (pts - c) / w
        inside = np.abs(u) < 1.0
        h = np.where(inside, (1.0 - np.minimum(u * u, 1.0)) ** p, 0.0)
        hp = np.where(inside, -2.0 * p * u * (1.0 - np.minimum(u * u, 1.0)) ** (p - 1) / w, 0.0)
        return h, hp

    def gradient(pts):
        h, hp = bump(pts)
        return np.stack([hp[..., j] * np.prod(np.delete(h, j, axis=-1), axis=-1)
                         for j in range(n)], axis=-1)
    return (lambda pts: np.prod(bump(pts)[0], axis=-1)), gradient


def test_bump_evaluators_equal_their_masked_forms(rng):
    """The radial and box evaluators and the box gradient read 1 - fmin(., 1)
    as exactly 0 off the support instead of masking it: bit for bit the
    masked forms, on points inside, on and outside the region and at
    non-finite coordinates."""
    for n in (2, 3, 5):
        fields = [make_radial_bump([0.2] + [0.0] * (n - 2) + [1.1], 0.7, n, exponent=p)
                  for p in (1, 2, 3)]
        fields += [make_tensor_bump([0.1] * (n - 1) + [1.0], 0.5, n, exponent=p) for p in (1, 2, 3)]
        for f in fields:
            c = np.asarray(f.geometry.center)
            pts = c + rng.uniform(-1.2, 1.2, size=(4000, n)) * f.geometry.radius
            pts[:50] = c + f.geometry.radius * np.sign(rng.normal(size=(50, n)))  # on the faces
            pts[50:60, 0] = [np.nan, np.inf, -np.inf] * 3 + [np.nan]
            evaluator, gradient = _masked_forms(f)
            with np.errstate(invalid="ignore"):  # inf * 0 in a box's slope at infinite points
                assert f.evaluator(pts).tobytes() == evaluator(pts).tobytes(), f.label
                if gradient is not None:
                    assert f.gradient(pts).tobytes() == gradient(pts).tobytes(), f.label


def _outside(geom, pts):
    """Points of ``pts`` outside the region the geometry states."""
    d = pts - np.asarray(geom.center)
    if geom.shape == "box":
        return np.any(np.abs(d) >= geom.radius, axis=-1)
    return np.linalg.norm(d, axis=-1) >= geom.radius


def test_fields_vanish_outside_their_geometry(rng):
    """The contract the slice rules rely on to place nodes only in the
    field's region: f and grad f are exactly 0 at every point outside the
    ball or cube its geometry states, for every family at exponents 1 and 2,
    a scaled field and the battery's descriptors, on the nodes of the
    default ball rule and on random points."""
    specs = {2: QuadratureSpec(48, 2, 48, 3.1), 3: QuadratureSpec(32, 16, 32, 3.1),
             4: QuadratureSpec(24, 8, 24, 3.1), 5: QuadratureSpec(16, 6, 16, 3.1)}
    for n, spec in specs.items():
        pts = np.concatenate([_ball_rule(n, spec), rng.uniform(-3.2, 3.2, size=(20000, n))])
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
            outside = _outside(f.geometry, pts)
            assert np.any(outside) and not np.all(outside), (n, f.label)
            assert np.all(f.evaluator(pts[outside]) == 0.0), (n, f.label)
            assert np.all(f.gradient(pts[outside]) == 0.0), (n, f.label)


def test_geometry_defaults_hashes_and_survives_replace():
    f = make_radial_bump([0.1, 0.0, 1.2], 0.5, 3, exponent=2)
    assert f.geometry == Geometry("radial", (0.1, 0.0, 1.2), 0.5, 2)
    assert make_tensor_bump([0.0, 0.0, 1.0], 0.25, 3).geometry == \
        Geometry("box", (0.0, 0.0, 1.0), 0.25, 2)
    assert make_shifted_bump([0.0, 0.0, 0.5], 0.6, 3, shift=1.0).geometry == \
        Geometry("radial", (0.0, 0.0, 1.5), 0.6, 1)
    assert make_boundary_bump(0.9, 4, exponent=3).geometry == \
        Geometry("radial", (0.0,) * 4, 0.9, 3)
    assert scaled(f, 3.0).geometry == f.geometry
    assert all(isinstance(v, float) for v in f.geometry.center)
    with pytest.raises(TypeError):  # a field states its region
        TrialFunction(evaluator=f.evaluator, gradient=f.gradient, lipschitz_bound=1.0)
    hand_built = TrialFunction(f.evaluator, f.gradient, 1.0, Geometry("ball", (0.0,) * 3, 1.5))
    assert hand_built.dimension == 3 and hand_built.geometry.reach == 1.5
    for g in (f, hand_built):
        assert {g: 1}[g] == 1 and hash(g) == hash(g)
        traced = dataclasses.replace(g, evaluator=lambda p: g.evaluator(p))
        assert traced.geometry == g.geometry
    with pytest.raises(ValueError):
        Geometry("cone", (0.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        Geometry("radial", (0.0, 1.0), 0.0)
    # the dimension is the geometry's
    assert dataclasses.replace(f, geometry=Geometry("radial", (0.0, 1.0), 1.0)).dimension == 2
