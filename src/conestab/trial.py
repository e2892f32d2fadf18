"""Compactly supported Lipschitz deformation fields with exact gradients.

Every variational quantity in this package is driven by a scalar field on
the closed slice.  The fields come from four parameterized families (so
they can be serialized through the CLI config); each instance carries its
evaluator, exact gradient, a support radius, a Lipschitz upper bound, and
an analytic description of its kink set so smooth points can be recognized
exactly rather than detected numerically.

Evaluators and gradients are vectorized: they take a batch of points of
shape (..., n) and return the values, shape (...), or the gradients,
shape (..., n).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .domain import ConeParams

__all__ = [
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

TRIAL_KINDS = ("radial_bump", "tensor_bump", "shifted_bump", "boundary_concentrated")


def _fmt(vec) -> str:
    return "(" + ",".join(f"{float(v):g}" for v in np.atleast_1d(vec)) + ")"


@dataclass(frozen=True)
class TrialFunction:
    """A compactly supported Lipschitz scalar field on the closed slice.

    Contract: ``gradient`` is exactly 0 at every quadrature node where
    ``evaluator`` is 0, so slice integrals may skip the field's zero set;
    and both are exactly 0 at every point outside ``support_box``, so slice
    integrals evaluate the field only on the nodes inside it.

    ``support_box`` is the axis-aligned box ((lo_1, ..., lo_n), (hi_1, ...,
    hi_n)) of float tuples (fields are cache keys, so it must hash).  It
    defaults to the cube of half-width ``support_radius`` about the origin.
    """

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    lipschitz_bound: float
    # Distance from a point to the non-differentiability set of f
    # (+inf when the field is C^1 everywhere).
    kink_distance: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)
    # Radius of the largest ball contained in the support; sets the default
    # deformation scale t0.
    inradius: float = 1.0
    label: str = ""
    descriptor: tuple = ()
    support_box: tuple | None = None

    def __post_init__(self):
        if self.support_box is None:
            r = float(self.support_radius)
            object.__setattr__(self, "support_box", _box(np.zeros(self.dimension), r))

    @property
    def value_at_vertex(self) -> float:
        """f at the vertex x = 0, read from the evaluator."""
        return float(self.evaluator(np.zeros((1, self.dimension)))[0])


def _box(center: np.ndarray, half_width: float) -> tuple:
    return (tuple(float(v) for v in center - half_width),
            tuple(float(v) for v in center + half_width))


def _center_array(center, n: int) -> np.ndarray:
    """The center as an (n,) array.  Besides a vector, ``center`` may be a
    number h (height h on the axis) or "offaxis:h:a" (height h, displaced by
    a along x_1)."""
    if isinstance(center, str) and center.startswith("offaxis:"):
        _, h, a = center.split(":")
        c = np.zeros(n)
        c[0], c[-1] = float(a), float(h)
        return c
    c = np.asarray(center, dtype=float).reshape(-1)
    if c.size == 1 and n > 1:
        c = np.concatenate([np.zeros(n - 1), c])
    if c.size != n:
        raise ValueError(f"center must have {n} components, got {c.size}")
    return c


def make_radial_bump(center, radius: float, n: int, exponent: int = 1,
                     label: str = "") -> TrialFunction:
    """Cone-shaped bump ((1 - |x-c|/radius)_+)^exponent.

    Exponent 1 is the plain hat with |grad| = 1/radius on its support; higher
    exponents are C^1 across the support sphere but keep the tip kink at the
    center.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    c = _center_array(center, n)
    rho = float(radius)
    p = int(exponent)

    def evaluator(pts):
        u = np.linalg.norm(pts - c, axis=-1) / rho
        return np.where(u < 1.0, (1.0 - np.minimum(u, 1.0)) ** p, 0.0)

    def gradient(pts):
        d = pts - c
        u = np.linalg.norm(d, axis=-1)
        inside = (u > 0.0) & (u < rho)
        safe = np.where(inside, u, 1.0)
        mag = np.where(inside, p * (1.0 - np.minimum(u / rho, 1.0)) ** (p - 1) / rho, 0.0)
        return -d * (mag / safe)[..., None]

    if p == 1:
        def kink_distance(pts):
            u = np.linalg.norm(pts - c, axis=-1)
            return np.minimum(u, np.abs(rho - u))
    else:
        def kink_distance(pts):
            return np.linalg.norm(pts - c, axis=-1)

    return TrialFunction(
        dimension=n,
        evaluator=evaluator,
        gradient=gradient,
        support_radius=float(np.linalg.norm(c)) + rho,
        lipschitz_bound=p / rho,
        kink_distance=kink_distance,
        inradius=rho,
        label=label or f"radial(c={_fmt(c)},r={rho:g},p={p})",
        descriptor=("radial_bump", tuple(float(v) for v in c), rho, p),
        support_box=_box(c, rho),
    )


def make_tensor_bump(center, half_width: float, n: int, exponent: int = 1,
                     label: str = "") -> TrialFunction:
    """Separable bump prod_i (1 - ((x_i-c_i)/w)^2)_+^exponent on a box.

    Exponent 1 is smooth inside the box but kinks on its faces; exponent >= 2
    is C^1 everywhere.  Not axially symmetric, which makes these the battery
    members that exercise genuinely angular integrands.
    """
    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    c = _center_array(center, n)
    w = float(half_width)
    p = int(exponent)

    def factors(pts):
        u = (pts - c) / w
        return np.where(np.abs(u) < 1.0, (1.0 - np.minimum(u * u, 1.0)) ** p, 0.0)

    def evaluator(pts):
        return np.prod(factors(pts), axis=-1)

    def gradient(pts):
        u = (pts - c) / w
        inside = np.abs(u) < 1.0
        h = np.where(inside, (1.0 - np.minimum(u * u, 1.0)) ** p, 0.0)
        hp = np.where(inside, -2.0 * p * u * (1.0 - np.minimum(u * u, 1.0)) ** (p - 1) / w, 0.0)
        # prod over the other axes, left to right as np.prod takes it;
        # recomputed per axis to stay exact at zeros
        grad = np.empty_like(u)
        for j in range(n):
            others = None
            for i in range(n):
                if i != j:
                    others = h[..., i] if others is None else others * h[..., i]
            grad[..., j] = hp[..., j] * others
        return grad

    if p == 1:
        def kink_distance(pts):
            u = np.abs(pts - c)
            return np.min(np.abs(u - w), axis=-1)
    else:
        def kink_distance(pts):
            out = np.empty(pts.shape[:-1], dtype=float)
            out.fill(np.inf)
            return out

    return TrialFunction(
        dimension=n,
        evaluator=evaluator,
        gradient=gradient,
        support_radius=float(np.linalg.norm(c)) + w * float(np.sqrt(n)),
        lipschitz_bound=2.0 * p * float(np.sqrt(n)) / w,
        kink_distance=kink_distance,
        inradius=w,
        label=label or f"tensor(c={_fmt(c)},w={w:g},p={p})",
        descriptor=("tensor_bump", tuple(float(v) for v in c), w, p),
        support_box=_box(c, w),
    )


def make_shifted_bump(center, radius: float, n: int, shift: float,
                      exponent: int = 1, label: str = "") -> TrialFunction:
    """Radial bump translated by ``shift`` along the axis direction e_n.

    Convenience constructor for the translation-covariance checks: pushing a
    bump deep into the interior detaches its support from the slice boundary.
    """
    c = _center_array(center, n)
    f = make_radial_bump(np.concatenate([c[:-1], c[-1:] + float(shift)]), radius, n,
                         exponent=exponent, label=label)
    return replace(f, descriptor=("shifted_bump", tuple(float(v) for v in c), float(radius),
                                  int(exponent), float(shift)),
                   label=label or f"shifted(h=+{shift:g},r={radius:g},p={exponent})")


def make_boundary_bump(radius: float, n: int, exponent: int = 1,
                       label: str = "") -> TrialFunction:
    """Vertex-centered bump with value 1 at the vertex.

    Its trace on the slice boundary stays bounded away from zero near the
    axis, which is exactly what the two-dimensional divergence witness
    needs.
    """
    f = make_radial_bump(np.zeros(n), radius, n, exponent=exponent, label=label)
    return replace(f, descriptor=("boundary_concentrated", (0.0,) * n, float(radius),
                                  int(exponent)),
                   label=label or f"boundary(r={radius:g},p={exponent})")


def scaled(f: TrialFunction, c: float) -> TrialFunction:
    """The field c*f (same support, support box and kink set; quantities
    scale by c^2)."""
    c = float(c)

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
    scale = tol * (1.0 + np.linalg.norm(pts, axis=-1))
    return ((np.linalg.norm(pts[..., :-1], axis=-1) > scale)
            & (f.kink_distance(pts) > scale))


# -- serializable descriptors -------------------------------------------------

def build_trial(desc: dict, n: int) -> TrialFunction:
    """Build a trial function from a JSON-style descriptor.

    Recognized keys: kind (required), center, radius, half_width, exponent,
    shift, scale, id.
    """
    kind = desc.get("kind")
    if kind not in TRIAL_KINDS:
        raise ValueError(f"unknown trial-function kind {kind!r}; expected one of {TRIAL_KINDS}")
    label = desc.get("id", "")
    exponent = int(desc.get("exponent", 1))
    center = desc.get("center", [0.0] * n)
    if kind == "radial_bump":
        f = make_radial_bump(center, float(desc["radius"]), n, exponent, label)
    elif kind == "tensor_bump":
        f = make_tensor_bump(center, float(desc["half_width"]), n, exponent, label)
    elif kind == "shifted_bump":
        f = make_shifted_bump(center, float(desc["radius"]), n, float(desc.get("shift", 0.0)),
                              exponent, label)
    else:
        f = make_boundary_bump(float(desc["radius"]), n, exponent, label)
    scale = float(desc.get("scale", 1.0))
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


def sample_smooth_points(params: ConeParams, f: TrialFunction, rng: np.random.Generator,
                         count: int, margin: float = 1e-3,
                         inside_support: bool = True) -> np.ndarray:
    """Deterministically sample smooth interior points, margin-clear of kinks.

    Points are drawn in sheared coordinates (so they sit strictly inside the
    slice), rejected while they come closer than ``margin`` to the axis or
    to the kink set of f, and optionally restricted to spt(f).
    """
    n = f.dimension
    R = f.support_radius
    pts = np.empty((0, n))
    attempts = 0
    while pts.shape[0] < count:
        attempts += 1
        if attempts > 200:
            raise RuntimeError("smooth-point sampling failed to converge")
        m = max(4 * (count - pts.shape[0]), 64)
        r = rng.uniform(margin, R, size=m)
        theta = rng.normal(size=(m, n - 1))
        theta /= np.linalg.norm(theta, axis=1, keepdims=True)
        y = rng.uniform(margin, R, size=m)
        cand = np.concatenate([r[:, None] * theta, (y + params.lam * r)[:, None]], axis=1)
        keep = _smooth_mask(f, cand, margin)
        if inside_support:
            keep &= f.evaluator(cand) != 0.0
        pts = np.concatenate([pts, cand[keep]], axis=0)
    return pts[:count]
