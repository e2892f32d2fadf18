"""Compactly supported Lipschitz deformation fields with exact gradients.

Every variational quantity in this package is driven by a scalar field on
the closed slice.  The fields come from four parameterized families (so
they can be serialized through the CLI config); each instance carries its
evaluator, exact gradient, a Lipschitz upper bound and its geometry, which
states its region and with it its kink set, so that smooth points can be
recognized exactly rather than detected numerically.

Evaluators and gradients are vectorized: they take a batch of points of
shape (..., n) and return the values, shape (...), or the gradients,
shape (..., n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._inputs import check
from .domain import ConeParams, _prod, _sumsq

__all__ = [
    "Geometry",
    "TrialFunction",
    "make_radial_bump",
    "make_tensor_bump",
    "make_shifted_bump",
    "make_boundary_bump",
    "scaled",
    "build_trial",
    "standard_battery",
    "battery_descriptors",
    "sample_smooth_points",
]


def _fmt(vec) -> str:
    return "(" + ",".join(f"{float(v):g}" for v in np.atleast_1d(vec)) + ")"


@dataclass(frozen=True)
class Geometry:
    """Where a field lives, stated once: the slice rules, the trace range,
    the smooth-point sampler and the default deformation scale read it.

    ``shape`` is one of
      * "radial": f depends only on the distance s = |x - center| and
        vanishes for s >= radius; on (0, radius) it is a polynomial of
        ``degree`` in s;
      * "box": f is a product of one-variable polynomials of ``degree`` in
        x_i - center_i on the cube of half-width ``radius``, 0 outside it;
      * "ball": f vanishes outside the ball of ``radius`` about ``center``;
        nothing else is known.
    The dimension is ``len(center)``.  Entries are tuples of floats, so a
    geometry compares and hashes by value and a field holding it stays
    hashable.  Computed once, on construction, and left out of comparisons:
    ``offset``, the distance of the centre from the axis x' = 0, and
    ``reach``, the radius of a ball about the origin that holds the region
    (|c| plus the radius, or plus the half-diagonal radius*sqrt(n) of a box).
    """

    shape: str
    center: tuple
    radius: float
    degree: int = 1
    offset: float = field(init=False, repr=False, compare=False)
    reach: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.shape not in ("radial", "box", "ball"):
            raise ValueError(f"unknown geometry shape {self.shape!r}")
        check("radius", self.radius)  # a box's half-width is its radius
        c = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "offset", math.sqrt(float(np.dot(c[:-1], c[:-1]))))
        object.__setattr__(self, "reach", float(np.linalg.norm(c)) + self.radius * (
            float(np.sqrt(c.size)) if self.shape == "box" else 1.0))

    def kink_distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance from each point of ``pts`` (..., n) to the set where f is
        not differentiable (+inf where there is none): the centre of a
        radial field, and its sphere at degree 1; the faces of a box at
        degree 2.  A "ball" states no kink set and raises ValueError."""
        d = np.asarray(pts, dtype=float) - np.asarray(self.center, dtype=float)
        if self.shape == "radial":
            u = np.sqrt(_sumsq(d))
            return np.minimum(u, np.abs(self.radius - u)) if self.degree == 1 else u
        if self.shape == "ball":
            raise ValueError("a 'ball' geometry states no kink set")
        return np.min(np.abs(np.abs(d) - self.radius), axis=-1) if self.degree == 2 \
            else np.full(d.shape[:-1], np.inf)


@dataclass(frozen=True)
class TrialFunction:
    """A compactly supported Lipschitz scalar field on the closed slice.

    Contract: ``gradient`` is exactly 0 at every quadrature node where
    ``evaluator`` is 0, so slice integrals may skip the field's zero set;
    and both are exactly 0 outside the region ``geometry`` states (which
    also gives the dimension and the kink set), so rules place nodes only there.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float
    geometry: Geometry
    label: str = ""
    descriptor: tuple = ()

    @property
    def dimension(self) -> int:
        return len(self.geometry.center)

    @property
    def value_at_vertex(self) -> float:
        """f at the vertex x = 0, read from the evaluator."""
        return float(self.evaluator(np.zeros((1, self.dimension)))[0])


def make_radial_bump(center, radius: float, n: int, exponent: int = 1,
                     label: str = "") -> TrialFunction:
    """Cone-shaped bump ((1 - |x-c|/radius)_+)^exponent.

    Exponent 1 is the plain hat with |grad| = 1/radius on its support; higher
    exponents are C^1 across the support sphere but keep the tip kink at the
    center.
    """
    rho, p, c = check("radius", radius), check("exponent", exponent), check("center", center, n)

    def evaluator(pts):  # 1 - fmin(u, 1) is exactly 0 off the support, NaN included
        return (1.0 - np.fmin(np.sqrt(_sumsq(pts - c)) / rho, 1.0)) ** p

    def gradient(pts):
        d = pts - c
        u = np.sqrt(_sumsq(d))
        inside = (u > 0.0) & (u < rho)
        safe = np.where(inside, u, 1.0)
        mag = np.where(inside, p * (1.0 - np.minimum(u / rho, 1.0)) ** (p - 1) / rho, 0.0)
        d *= -(mag / safe)[..., None]
        return d

    return TrialFunction(
        evaluator=evaluator,
        gradient=gradient,
        lipschitz_bound=p / rho,
        label=label or f"radial(c={_fmt(c)},r={rho:g},p={p})",
        descriptor=("radial_bump", tuple(float(v) for v in c), rho, p),
        geometry=Geometry("radial", tuple(float(v) for v in c), rho, p),
    )


def make_tensor_bump(center, half_width: float, n: int, exponent: int = 1,
                     label: str = "") -> TrialFunction:
    """Separable bump prod_i (1 - ((x_i-c_i)/w)^2)_+^exponent on a box.

    Exponent 1 is smooth inside the box but kinks on its faces; exponent >= 2
    is C^1 everywhere.  Not axially symmetric, which makes these the battery
    members that exercise genuinely angular integrands.
    """
    w, p = check("half_width", half_width), check("exponent", exponent)
    c = check("center", center, n)

    def evaluator(pts):
        u = (pts - c) / w
        return _prod((1.0 - np.fmin(u * u, 1.0)) ** p)

    def gradient(pts):
        u = (pts - c) / w
        h = 1.0 - np.fmin(u * u, 1.0)  # exactly 0 off the box, as fmin takes NaN to 1
        hp = np.where(np.abs(u) < 1.0, -2.0 * p * u * h ** (p - 1) / w, 0.0)
        h **= p
        # the product over the other axes is recomputed per axis (not divided
        # out of the full product) to stay exact at zeros
        grad = np.empty_like(u)
        for j in range(n):
            grad[..., j] = hp[..., j] * _prod(h, skip=j)
        return grad

    return TrialFunction(
        evaluator=evaluator,
        gradient=gradient,
        lipschitz_bound=2.0 * p * float(np.sqrt(n)) / w,
        label=label or f"tensor(c={_fmt(c)},w={w:g},p={p})",
        descriptor=("tensor_bump", tuple(float(v) for v in c), w, p),
        geometry=Geometry("box", tuple(float(v) for v in c), w, 2 * p),
    )


def make_shifted_bump(center, radius: float, n: int, shift: float,
                      exponent: int = 1, label: str = "") -> TrialFunction:
    """Radial bump translated by ``shift`` along the axis direction e_n.

    Convenience constructor for the translation-covariance checks: pushing a
    bump deep into the interior detaches its support from the slice boundary.
    """
    c, shift = check("center", center, n), check("shift", shift)
    f = make_radial_bump(np.concatenate([c[:-1], c[-1:] + shift]), radius, n,
                         exponent=exponent, label=label)
    rho, p = f.geometry.radius, f.geometry.degree
    return replace(f, descriptor=("shifted_bump", tuple(float(v) for v in c), rho, p, shift),
                   label=label or f"shifted(h=+{shift:g},r={rho:g},p={p})")


def make_boundary_bump(radius: float, n: int, exponent: int = 1,
                       label: str = "") -> TrialFunction:
    """Vertex-centered bump with value 1 at the vertex.

    Its trace on the slice boundary stays bounded away from zero near the
    axis, which is exactly what the two-dimensional divergence witness
    needs.
    """
    f = make_radial_bump(np.zeros(n), radius, n, exponent=exponent, label=label)
    rho, p = f.geometry.radius, f.geometry.degree
    return replace(f, descriptor=("boundary_concentrated", (0.0,) * n, rho, p),
                   label=label or f"boundary(r={rho:g},p={p})")


def scaled(f: TrialFunction, c: float) -> TrialFunction:
    """The field c*f (same support, geometry and kink set; quantities scale
    by c^2)."""
    c = check("scale", c)

    def evaluator(pts):
        return c * f.evaluator(pts)

    def gradient(pts):
        return c * f.gradient(pts)

    return replace(f, evaluator=evaluator, gradient=gradient,
                   lipschitz_bound=abs(c) * f.lipschitz_bound, label=f"{c}*{f.label}",
                   descriptor=("scaled", c) + f.descriptor)


def _smooth_mask(f: TrialFunction, pts: np.ndarray, tol: float) -> np.ndarray:
    """Per point of ``pts`` (..., n): its distances to the axis x' = 0 and to
    the kink set of f both exceed tol*(1+|x|)."""
    scale = tol * (1.0 + np.sqrt(_sumsq(pts)))
    return ((np.sqrt(_sumsq(pts[..., :-1])) > scale)
            & (f.geometry.kink_distance(pts) > scale))


# -- serializable descriptors -------------------------------------------------

def build_trial(desc: dict, n: int) -> TrialFunction:
    """Build a trial function from a JSON-style descriptor.

    Every kind reads kind (required), id, exponent and scale, and the
    arguments of its constructor (center, radius, half_width, shift), each
    checked against its row of the input table; a key that the kind does
    not read is rejected.
    """
    rest = dict(desc)
    take = rest.pop  # each key is taken where it is read; what is left is unknown
    kind = check("kind", take("kind", None))
    label = check("id", take("id", ""))
    exponent = take("exponent", 1)
    scale = check("scale", take("scale", 1.0))
    if kind == "radial_bump":
        f = make_radial_bump(take("center", 0.0), take("radius"), n, exponent, label)
    elif kind == "tensor_bump":
        f = make_tensor_bump(take("center", 0.0), take("half_width"), n, exponent, label)
    elif kind == "shifted_bump":
        f = make_shifted_bump(take("center", 0.0), take("radius"), n, take("shift", 0.0),
                              exponent, label)
    else:
        f = make_boundary_bump(take("radius"), n, exponent, label)
    if rest:
        raise ValueError(f"unknown keys {sorted(rest)} for kind {kind!r}")
    return f if scale == 1.0 else scaled(f, scale)


def battery_descriptors(size: int = 20) -> list[dict]:
    """Descriptors for the standard deterministic battery (any dimension).

    A mix of vertex-concentrated, boundary-crossing, interior, box-shaped,
    and off-axis members; all supports fit in the ball of radius 3.
    """
    descs = [
        {"id": "vertex-a", "kind": "boundary_concentrated", "radius": 0.6, "exponent": 1},
        {"id": "vertex-b", "kind": "boundary_concentrated", "radius": 0.9, "exponent": 1},
        {"id": "vertex-c", "kind": "boundary_concentrated", "radius": 1.2, "exponent": 1},
        {"id": "vertex-d", "kind": "boundary_concentrated", "radius": 0.7, "exponent": 2},
        {"id": "vertex-e", "kind": "boundary_concentrated", "radius": 1.0, "exponent": 2},
        {"id": "vertex-f", "kind": "boundary_concentrated", "radius": 1.3, "exponent": 2},
        {"id": "axis-a", "kind": "radial_bump", "center": 0.8, "radius": 0.5, "exponent": 1},
        {"id": "axis-b", "kind": "radial_bump", "center": 1.2, "radius": 0.7, "exponent": 1},
        {"id": "axis-c", "kind": "radial_bump", "center": 1.6, "radius": 0.9, "exponent": 1},
        {"id": "axis-d", "kind": "radial_bump", "center": 2.0, "radius": 0.8, "exponent": 1},
        {"id": "axis-e", "kind": "radial_bump", "center": 1.0, "radius": 0.8, "exponent": 2},
        {"id": "axis-f", "kind": "radial_bump", "center": 1.5, "radius": 1.0, "exponent": 2},
        {"id": "box-a", "kind": "tensor_bump", "center": 1.0, "half_width": 0.5, "exponent": 1},
        {"id": "box-b", "kind": "tensor_bump", "center": 1.4, "half_width": 0.6, "exponent": 2},
        {"id": "box-c", "kind": "tensor_bump", "center": 0.9, "half_width": 0.35, "exponent": 1},
        {"id": "box-d", "kind": "tensor_bump", "center": 1.8, "half_width": 0.5, "exponent": 2},
        {"id": "deep-a", "kind": "shifted_bump", "center": 0.0, "radius": 0.6, "shift": 2.2},
        {"id": "deep-b", "kind": "shifted_bump", "center": 0.0, "radius": 0.5, "shift": 2.0},
        {"id": "offaxis-a", "kind": "radial_bump", "center": "offaxis:1.4:0.4", "radius": 0.5},
        {"id": "offaxis-b", "kind": "radial_bump", "center": "offaxis:1.8:0.5", "radius": 0.6},
    ]
    return descs[:size]


def standard_battery(n: int, size: int = 20) -> list[TrialFunction]:
    """The deterministic 20-member battery instantiated at dimension n."""
    return [build_trial(desc, n) for desc in battery_descriptors(size)]


# Candidates of sample_smooth_points normalised, evaluated and masked at once.
_SAMPLE_BLOCK = 2 ** 14


def _draw_box(params: ConeParams, geom: Geometry, margin: float):
    """(r_hi, y_lo, y_hi) of the smallest box margin < r < r_hi, y_lo < y < y_hi
    in sheared coordinates x = (r*theta, y + lam*r) that holds the region's
    part of the cylinder margin < r, y < reach: there |x'| and x_n stay within
    the radius (a box's |x'|: sqrt(n-1) radii) of the centre's, and y <= x_n."""
    width = geom.radius * (math.sqrt(len(geom.center) - 1) if geom.shape == "box" else 1.0)
    r_hi = min(geom.reach, geom.offset + width)
    return (r_hi, max(margin, geom.center[-1] - geom.radius - params.lam * r_hi),
            min(geom.reach, geom.center[-1] + geom.radius))


def sample_smooth_points(params: ConeParams, f: TrialFunction, rng: np.random.Generator,
                         count: int, margin: float = 1e-3) -> np.ndarray:
    """Deterministically sample smooth points of spt(f), margin-clear of kinks.

    Points are drawn uniformly in sheared coordinates (r, theta, y) on the
    ``_draw_box`` of f, so they sit strictly inside the slice, and rejected
    where f = 0 or closer than ``margin`` to the axis or the kink set of f:
    they are distributed as if drawn on the whole cylinder margin < r,
    y < reach.  A "ball" geometry states no kink set, so its field is refused.
    The (count, n) result is coordinate-major, the transpose of an (n, count)
    array: each coordinate's column is contiguous.

    A round of m candidates draws all its r, then its normals, then its y;
    it then normalises, evaluates and masks them in blocks of
    ``_SAMPLE_BLOCK`` = 2^14 candidates and stops at the block that completes
    ``count``.  So the evaluator's and the mask's temporaries hold one
    block at any count, and a round holds its (n + 1) * m draws, m at most
    2 * count.
    """
    n = f.dimension
    r_hi, y_lo, y_hi = _draw_box(params, f.geometry, margin)
    out, got = np.empty((n, count)), 0
    for _ in range(200):
        # over half the draws land in spt(f) for the fields the suites use
        m = max(2 * (count - got), 64)
        r = rng.uniform(margin, r_hi, size=m)
        cols = np.empty((n, m))  # one contiguous row per coordinate
        rng.standard_normal(out=cols[:-1])
        cols[-1] = rng.uniform(y_lo, y_hi, size=m)
        for lo in range(0, m, _SAMPLE_BLOCK):
            block, rb = cols[:, lo:lo + _SAMPLE_BLOCK], r[lo:lo + _SAMPLE_BLOCK]
            block[:-1] *= rb / np.sqrt(_sumsq(block[:-1].T))
            block[-1] += params.lam * rb
            cand = block.take(np.flatnonzero(f.evaluator(block.T) != 0.0), axis=1)
            keep = np.flatnonzero(_smooth_mask(f, cand.T, margin))[:count - got]
            out[:, got:got + keep.size] = cand.take(keep, axis=1)
            got += keep.size
            if got == count:
                return out.T
        del r, cols  # before the next round draws its own
    raise RuntimeError("smooth-point sampling failed to converge")
