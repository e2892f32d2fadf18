"""Integration over the slice and over the boundary trace, plus the
finite-difference machinery for lower-right derivative estimates.

Both integrals of a field, over the slice (:func:`support_sample`) and over
its boundary (:func:`boundary_integral`), read the field's
:class:`~conestab.trial.Geometry`, so that its kinks fall on panel ends and
its symmetry is summed once:

* a "radial" field's slice rule is polar about its centre c: Gauss-Legendre
  in the distance s on the part of each ray c + s*omega in the slice and the
  ball, with the volume element s^(n-1), exact for its polynomial profile.
  The polar angle from the axis runs, for a centre on the axis, on panels
  split where a ray leaves the slice at the ball's radius, else on a rule
  exact for its sine-power weight.  A "ball" gets the same rule.
* a "box" field's slice rule is Cartesian Gauss-Legendre on its cube, each
  x_n column clipped at lam*|x'|; exact when the cube lies inside the slice.
* the trace rule is polar in |x'| on the range where the trace can be
  nonzero; that range is empty, and the trace integral 0.0 with no grid
  built and no value of f read, when the field's closed region cannot meet
  the boundary cone x_n = lam*|x'| (:func:`trace_span`).
* the polar rules of both take their x'-directions from :func:`_directions`:
  one for a radial field centred on the axis, so that its cost does not grow
  with n; a half-circle about the centre's x'-direction for one off the
  axis; the full sphere grid for a ball and for a box's trace.

Each rule counts its nodes before it builds them and refuses more than
``MAX_RULE_NODES``.  Nodes never touch the axis x' = 0, where the flow's
derivatives live only as one-sided limits.  :func:`support_sample` builds a
field's sample afresh on each call; a caller that reads it twice passes it
on.  The sheared sigma grid (:func:`sigma_grid`, :func:`integrate_sigma`)
serves no integral of the program (see ``QuadratureSpec.support_radius``).

The boundary trace integral carries a 1/|x'| weight: written in polar form
it is regular for n >= 3, log-divergent for n = 2 with a nonzero vertex
value, and integrated on a logarithmic grid in |x'| whenever its range starts
off the vertex: under a cutoff, or where a field's trace starts at |x'| > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .domain import ConeParams, _sumsq
from .errors import DivergentBoundaryIntegral, QuadratureError
from .trial import TrialFunction

__all__ = [
    "QuadratureSpec",
    "LiminfEstimate",
    "integrate_sigma",
    "boundary_integral",
    "liminf_quotient",
    "sigma_grid",
    "support_sample",
    "trace_span",
    "trace_grid",
    "sphere_grid",
    "gauss_legendre",
    "compensated_sum",
]

# Composite panels keep long Gauss-Legendre rules well-conditioned across
# the support kinks of the trial families.
_MAX_NODES_PER_PANEL = 32
# Most nodes one rule may place: the box rule and the sphere grids grow like a
# power of n, so each rule counts its nodes before it allocates them.
MAX_RULE_NODES = 2 ** 23


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the quadrature rules; each field's geometry sets
    where they go.

    ``radial_nodes`` sets the radii of the trace grid and, divided by 8,
    the nodes per ray of the polar slice rules; ``angular_nodes`` the nodes
    per angular coordinate of the x'-directions and of the off-axis polar
    angle, and half the nodes per polar-angle panel of the axis rule;
    ``box_nodes_per_axis`` divided by 8 the nodes per axis of the box rule.
    Each count is raised where needed to the least that keeps the field's
    rule exact; above that, doubling the spec's counts doubles the rule's.
    A rule of more than MAX_RULE_NODES nodes is refused.  ``support_radius``
    (finite, > 0) sets the extent of the sigma grid only, which remains
    only as the entry point of the benchmark set-ups.
    ``epsilon_cutoff`` (finite, >= 0) > 0 opts in to the regularized trace
    integral, which the divergent two-dimensional case needs.
    """

    radial_nodes: int = 64
    angular_nodes: int = 16
    box_nodes_per_axis: int = 64
    support_radius: float = 3.0
    epsilon_cutoff: float = 0.0

    def __post_init__(self):
        for name in ("radial_nodes", "angular_nodes", "box_nodes_per_axis"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {v!r}")
        if not (math.isfinite(self.support_radius) and self.support_radius > 0):
            raise ValueError("support_radius must be finite and > 0, "
                             f"got {self.support_radius!r}")
        if not (math.isfinite(self.epsilon_cutoff) and self.epsilon_cutoff >= 0):
            raise ValueError("epsilon_cutoff must be finite and >= 0, "
                             f"got {self.epsilon_cutoff!r}")


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=_MAX_NODES_PER_PANEL)
def _leggauss(m: int):
    return _read_only(*np.polynomial.legendre.leggauss(m))


def gauss_legendre(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with m total nodes on (a, b)."""
    if m <= _MAX_NODES_PER_PANEL:
        x0, w0 = _leggauss(m)
        half = 0.5 * (b - a)
        return half * x0 + 0.5 * (b + a), half * w0
    panels = math.ceil(m / _MAX_NODES_PER_PANEL)
    base = m // panels
    extra = m % panels
    edges = np.linspace(a, b, panels + 1)
    xs, ws = [], []
    for k in range(panels):
        mk = base + (1 if k < extra else 0)
        x0, w0 = _leggauss(mk)
        lo, hi = edges[k], edges[k + 1]
        xs.append(0.5 * (hi - lo) * x0 + 0.5 * (hi + lo))
        ws.append(0.5 * (hi - lo) * w0)
    return np.concatenate(xs), np.concatenate(ws)


@lru_cache(maxsize=32)
def sphere_grid(d: int, angular_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Product grid on the unit sphere S^d in R^(d+1).

    d = 0 is the two-point sphere {-1, +1} with counting measure; d = 1 a
    uniform circle; d >= 2 a latitude-longitude product x = (cos t, sin t y)
    with y on S^(d-1) and t on the rule of :func:`_polar_factor`.  Weights
    sum to the sphere measure.  Cached per (d, angular_nodes); the arrays
    are read-only.
    """
    if d < 0:
        raise ValueError("sphere dimension must be >= 0")
    if d == 0:
        return _read_only(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    m = angular_nodes
    if d == 1:
        phi = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        return _read_only(pts, np.full(m, 2.0 * np.pi / m))
    cos_t, sin_t, w_polar = _polar_factor(d, m)
    base_pts, base_w = sphere_grid(d - 1, m)
    pts = np.concatenate(
        [np.repeat(cos_t, base_pts.shape[0])[:, None],
         np.kron(sin_t[:, None], base_pts)], axis=1)
    return _read_only(pts, np.kron(w_polar, base_w))


def _polar_factor(d: int, m: int):
    """(cos t, sin t, weights) of m nodes t in (0, pi) whose weights carry
    sin^(d-1) t and integrate it exactly: Gauss-Legendre in z = cos t for
    even d, where the weight is the polynomial (1 - z^2)^((d-2)/2), else the
    midpoint rule in t, exact for the trigonometric polynomial sin^(d-1) t."""
    if d % 2 == 0:
        cos_t, wz = gauss_legendre(-1.0, 1.0, m)
        sin_t = np.sqrt(1.0 - cos_t * cos_t)
        return cos_t, sin_t, wz * sin_t ** (d - 2)
    theta = np.pi * (np.arange(m) + 0.5) / m
    sin_t = np.sin(theta)
    return np.cos(theta), sin_t, sin_t ** (d - 1) * (np.pi / m)


def _count_nodes(count: int, rule: str) -> None:
    """Refuse a rule of more than MAX_RULE_NODES nodes before it is built."""
    if count > MAX_RULE_NODES:
        raise QuadratureError(f"the {rule} needs {count} nodes; a rule may place {MAX_RULE_NODES}")


def sigma_grid(params: ConeParams, spec: QuadratureSpec):
    """Nodes (m, n), weights (m,) and x'-radii (m,) on the sheared box
    {|x'| <= R, 0 < x_n - lam*|x'| <= R}, R the spec's support radius.

    Ordered radius (major) x direction x axis (minor), so each run of
    ``box_nodes_per_axis`` nodes shares its x'.  Nodes lie strictly inside
    the slice and strictly off the axis; each call builds the grid afresh.
    """
    n, m = params.n, spec.angular_nodes
    _count_nodes(spec.radial_nodes * max(2, m ** (n - 2)) * spec.box_nodes_per_axis,
                 "sigma grid")
    r, wr = gauss_legendre(0.0, spec.support_radius, spec.radial_nodes)
    y, wy = gauss_legendre(0.0, spec.support_radius, spec.box_nodes_per_axis)
    theta, wt = sphere_grid(n - 2, m)
    pts = np.empty((r.size, wt.size, y.size, n))
    pts[..., :-1] = r[:, None, None, None] * theta[:, None, :]
    pts[..., -1] = y + params.lam * r[:, None, None]
    # the polar weight carries the volume element r^(n-2)
    weights = ((wr[:, None] * wt) * (r ** (n - 2))[:, None])[..., None] * wy
    return pts.reshape(-1, n), weights.ravel(), np.repeat(r, wt.size * y.size)


# -- slice rules ------------------------------------------------------------------

def _sphere_measure(k: int) -> float:
    """Measure of the unit sphere S^k in R^(k+1)."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def _ray_spans(params: ConeParams, c: np.ndarray, omega: np.ndarray, reach: float):
    """The s-interval (lo, hi) of each ray c + s*omega, 0 <= s <= reach, that
    lies in the slice; lo == hi where the ray misses it.

    g(s) = x_n - lam*|x'| along a ray is concave, so {g > 0} is one
    interval, bounded by roots of (c_n + s w_n)^2 = lam^2 |c' + s w'|^2.
    The roots cut [0, reach] into pieces; the interval is the union of the
    pieces whose midpoint has g > 0."""
    lam = params.lam
    lam2 = lam * lam
    wp, wn = omega[:, :-1], omega[:, -1]
    a = wn * wn - lam2 * _sumsq(wp)
    b = c[-1] * wn - lam2 * (wp @ c[:-1])
    cc = c[-1] ** 2 - lam2 * float(c[:-1] @ c[:-1])
    disc = b * b - a * cc
    real = disc >= 0.0
    q = -(b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    # edges 0, the roots q/a and cc/q (0 where complex or not finite), reach
    edges = np.zeros((len(a), 4))
    edges[:, 3] = reach
    roots = edges[:, 1:3]
    np.divide(q, a, out=roots[:, 0], where=real & (a != 0.0))
    np.divide(cc, q, out=roots[:, 1], where=real & (q != 0.0))
    roots[~np.isfinite(roots)] = 0.0
    np.clip(roots, 0.0, reach, out=roots)
    edges.sort(axis=1)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    x = c + mid[..., None] * omega[:, None, :]
    inside = x[..., -1] - lam * np.sqrt(_sumsq(x[..., :-1])) > 0.0
    lo = np.min(np.where(inside, edges[:, :-1], reach), axis=1)
    hi = np.max(np.where(inside, edges[:, 1:], 0.0), axis=1)
    return lo, np.maximum(lo, hi)


def _ray_rule(params: ConeParams, geom, m: int, omega, w_omega):
    """Nodes c + s*omega and weights for the directions omega (weights
    w_omega on the unit sphere): m Gauss-Legendre nodes in s on each ray's
    part of the slice within the geometry's radius, with the volume element
    s^(n-1)."""
    n = params.n
    c = np.asarray(geom.center, dtype=float)
    lo, hi = _ray_spans(params, c, omega, geom.radius)
    x0, w0 = _leggauss(m)
    half = 0.5 * (hi - lo)
    s = (half + lo)[:, None] + half[:, None] * x0
    w = (half * w_omega)[:, None] * w0 * s ** (n - 1)
    pts = c + s[..., None] * omega[:, None, :]
    keep = np.flatnonzero(w.ravel() > 0.0)
    return pts.reshape(-1, n).take(keep, axis=0), w.ravel().take(keep)


def _panel_angles(params: ConeParams, geom, angular_nodes: int):
    """(cos, sin, weights) of Gauss-Legendre nodes in the polar angle phi from
    the axis, for rays from a centre on the axis at height h, with the weight
    sin^(n-2) folded in.  Panels end at 0, pi and the angles at which a ray
    leaves the slice at the geometry's radius (lam sin(phi) - cos(phi) =
    h / radius), where the length of its part inside the ball has a kink.
    Twice the spec's angular count, and at least n + 12 nodes, integrate
    sin^(n-2) to rounding on any panel (checked for n <= 16)."""
    n, lam = params.n, params.lam
    alpha = math.atan2(1.0, lam)
    gap = geom.center[-1] / (geom.radius * math.sqrt(1.0 + lam ** 2))
    cuts = {0.0, math.pi}
    if abs(gap) <= 1.0:
        b = math.asin(gap)
        cuts |= {phi for phi in (alpha + b, alpha + math.pi - b) if 0.0 < phi < math.pi}
    cuts = sorted(cuts)
    m = max(2 * angular_nodes, n + 12)
    phi, w = (np.concatenate(a) for a in zip(*(
        gauss_legendre(lo, hi, m) for lo, hi in zip(cuts[:-1], cuts[1:]))))
    sin_p = np.sin(phi)
    return np.cos(phi), sin_p, w * sin_p ** (n - 2)


def _box_rule(params: ConeParams, geom, spec: QuadratureSpec):
    """Cartesian Gauss-Legendre on the cube, each x_n column clipped to the
    slice (x_n > lam*|x'|).  An even node count per axis keeps every node off
    the axis; with at least degree + 1 nodes the rule is exact for
    |grad f|^2 of a "box" geometry whose cube lies inside the slice."""
    n, lam = params.n, params.lam
    c, w = np.asarray(geom.center, dtype=float), geom.radius
    m = max(geom.degree + 1, spec.box_nodes_per_axis // 8)
    m += m % 2
    _count_nodes(m ** n, "box rule")
    x0, w0 = _leggauss(m)
    xp = np.stack(np.meshgrid(*(c[j] + w * x0 for j in range(n - 1)), indexing="ij"),
                  axis=-1).reshape(-1, n - 1)
    w_col = np.ones(1)
    for _ in range(n - 1):
        w_col = np.multiply.outer(w_col, w * w0).ravel()
    lo = np.maximum(c[-1] - w, lam * np.sqrt(_sumsq(xp)))
    half = 0.5 * np.maximum(c[-1] + w - lo, 0.0)
    pts = np.empty((xp.shape[0], m, n))
    pts[..., :-1] = xp[:, None, :]
    pts[..., -1] = (lo + half)[:, None] + half[:, None] * x0
    wts = (w_col * half)[:, None] * w0
    keep = np.flatnonzero(wts.ravel() > 0.0)
    return pts.reshape(-1, n).take(keep, axis=0), wts.ravel().take(keep)


def _directions(n: int, geom, m: int, per_direction: int, rule: str):
    """Unit x'-directions (k, n-1) with weights that integrate the field's
    functions of x' over the sphere S^(n-2), for a rule that places
    ``per_direction`` nodes on each; the node count is checked first.

    At n = 2 they are S^0, for every shape.  A "radial" field centred on the
    axis depends on |x'| only: one direction carries |S^(n-2)|.  Centred off
    the axis, it is invariant under the rotations that fix its centre's
    x'-direction a: cos(psi) a + sin(psi) e with e normal to a, psi in
    (0, pi) with the weight |S^(n-3)| sin^(n-3) psi.  A box or a ball gets
    the full sphere grid."""
    radial = n > 2 and geom.shape == "radial"
    offset = geom.offset if radial else 0.0
    _count_nodes(((m if offset else 1) if radial else max(2, m ** (n - 2))) * per_direction,
                 rule)
    if not radial:
        return sphere_grid(n - 2, m)
    if offset == 0.0:
        return np.eye(1, n - 1), np.array([_sphere_measure(n - 2)])
    a = np.asarray(geom.center[:-1], dtype=float) / offset
    e = np.zeros(n - 1)
    e[np.argmin(np.abs(a))] = 1.0
    e -= (e @ a) * a
    e /= np.linalg.norm(e)
    cos_p, sin_p, w = _polar_factor(n - 2, m)
    return cos_p[:, None] * a + sin_p[:, None] * e, w * _sphere_measure(n - 3)


def _slice_rule(params: ConeParams, geom, spec: QuadratureSpec):
    """Nodes (m, n) and weights (m,) of the rule for a field of geometry
    ``geom``: all inside the slice and inside the field's region.  The s
    rule has at least ceil((n + 2*degree)/2) nodes, so it is exact for a
    "radial" profile: |grad f|^2 s^(n-1) has degree n - 3 + 2*degree."""
    if geom.shape == "box":
        return _box_rule(params, geom, spec)
    n, m = params.n, spec.angular_nodes
    cos_t, sin_t, w_t = (_polar_factor(n - 1, m) if geom.offset
                         else _panel_angles(params, geom, m))
    m_s = max((n + 2 * geom.degree + 1) // 2, spec.radial_nodes // 8)
    xi, w_xi = _directions(n, geom, m, cos_t.size * m_s, "slice rule")
    omega = np.empty((cos_t.size, xi.shape[0], n))
    omega[..., :-1] = sin_t[:, None, None] * xi
    omega[..., -1] = cos_t[:, None]
    return _ray_rule(params, geom, m_s, omega.reshape(-1, n), (w_t[:, None] * w_xi).ravel())


def support_sample(params: ConeParams, f: TrialFunction, spec: QuadratureSpec):
    """(pts, weights, radii, grad f, f) at the nodes of f's slice rule where
    f != 0, in rule order; radii are |x'|.  Sums over them drop only exact
    zeros (see :class:`TrialFunction`), and non-finite values of f or
    grad f are rejected.

    The rule follows f's geometry (see the module docstring).  Its
    Dirichlet energy is exact when the field's profile is the stated
    polynomial and, for a box or an off-axis ball, its region lies inside
    the slice.  Each call evaluates f and its gradient afresh; the arrays
    are the caller's."""
    pts, weights = _slice_rule(params, f.geometry, spec)
    fv = f.evaluator(pts)
    keep = np.flatnonzero(fv)
    sub, fv = pts.take(keep, axis=0), fv.take(keep)
    grads = f.gradient(sub)
    if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(grads))):
        raise QuadratureError("field or gradient non-finite at quadrature nodes")
    return sub, weights.take(keep), np.sqrt(_sumsq(sub[:, :-1])), grads, fv


def compensated_sum(values: np.ndarray) -> float:
    """Deterministic compensated reduction (chunked pairwise + exact fsum):
    numpy's pairwise sum of each zero-padded 4,096-element chunk, then the
    exact sum of the chunk sums.

    A row under 4,096 elements is one chunk of the least power-of-two
    multiple of 128 that holds it: that is the leftmost subtree of the
    4,096-element pairwise tree, whose other subtrees sum zeros, so the
    result keeps its bits."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        return 0.0
    chunk = 4096 if v.size >= 4096 else max(128, 1 << (v.size - 1).bit_length())
    pad = (-v.size) % chunk
    if pad:
        v = np.concatenate([v, np.zeros(pad)])
    partials = v.reshape(-1, chunk).sum(axis=1)
    return math.fsum(partials.tolist())


def integrate_sigma(params: ConeParams, integrand: Callable[[np.ndarray], np.ndarray],
                    spec: QuadratureSpec) -> float:
    """Integral of ``integrand`` over the slice.

    The grid covers the sheared box {|x'| <= R, 0 < x_n - lam*|x'| <= R}
    with R the spec's support radius, which contains the slice ball of
    radius R; the integrand's support must fit inside it.  ``integrand``
    receives the full (m, n) node array and must return one value per node
    (stacked plane points).  Non-finite node values are rejected.
    """
    pts, weights, _ = sigma_grid(params, spec)
    vals = np.asarray(integrand(pts), dtype=float)
    if vals.shape != weights.shape:
        raise QuadratureError(
            f"integrand returned shape {vals.shape}, expected {weights.shape}")
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand produced non-finite values at quadrature nodes")
    return compensated_sum(vals * weights)


# -- boundary trace integral --------------------------------------------------

def _meets_cone(lam: float, geom) -> bool:
    """Whether the closed region of ``geom`` may meet the boundary cone
    x_n = lam*|x'|, with a relative slack of 1e-9 towards meeting.

    A box meets it unless lam*|x'| over its x'-cube lies wholly below or
    above its x_n-range; a radial region or a ball unless the distance from
    its centre (offset a, height h) to the ray (r, lam*r), r >= 0, of the
    centre's meridian half-plane exceeds its radius."""
    *cp, h = geom.center
    w = geom.radius
    if geom.shape == "box":
        near = math.hypot(*(max(abs(x) - w, 0.0) for x in cp))
        far = math.hypot(*(abs(x) + w for x in cp))
        slack = 1e-9 * (abs(h) + w + lam * far)
        return lam * near <= h + w + slack and lam * far >= h - w - slack
    a = geom.offset
    if a + lam * h > 0.0:  # the nearest point of the ray is off the vertex
        dist = abs(h - lam * a) / math.sqrt(1.0 + lam * lam)
    else:
        dist = math.hypot(a, h)
    return dist <= w + 1e-9 * (w + math.hypot(a, h))


def trace_span(params: ConeParams, f: TrialFunction):
    """(lo, hi): the range of |x'| where f's boundary trace, at the boundary
    point (x', lam |x'|), can be nonzero, read from the field alone.

    It is the empty range (0.0, 0.0) when f's closed region cannot meet the
    boundary cone (:func:`_meets_cone`), where f, and so its trace, is
    exactly 0.  For a radial field centred on the axis this is the exact
    range, so the trace integrand is smooth on it; otherwise it runs from 0
    to the point where the geometry's reach bounds |x|."""
    lam = params.lam
    q = 1.0 + lam * lam
    geom = f.geometry
    if not _meets_cone(lam, geom):
        return 0.0, 0.0
    lo, hi = 0.0, geom.reach / math.sqrt(q)
    if geom.shape == "radial" and geom.offset == 0.0:
        # |(r e, lam r) - (0, h)| = radius at the roots of
        # q r^2 - 2 lam h r + h^2 - radius^2
        h = geom.center[-1]
        disc = (lam * h) ** 2 - q * (h * h - geom.radius ** 2)
        if disc <= 0.0:
            return 0.0, 0.0
        lo = max(0.0, (lam * h - math.sqrt(disc)) / q)
        hi = (lam * h + math.sqrt(disc)) / q
    return lo, hi


def trace_grid(params: ConeParams, spec: QuadratureSpec, r_max: float, geometry,
               log_from: float | None = None):
    """Nodes on the slice boundary, in polar trace form.

    Returns (pts (m, n), weights (m,), radii (m,)) such that
    sum w * h(pts) approximates the integral of r^(n-3) * h(r*theta, lam*r)
    dr dsigma(theta), the 1/|x'| trace integral in polar form.  With
    ``log_from`` set, radii are Gauss-Legendre in log r on (log_from, r_max)
    with the extra 1/r folded into the weights.  theta runs over the
    directions of ``geometry`` (:func:`_directions`), so h must have the
    symmetry the geometry states.
    """
    n = params.n
    if log_from is None:
        r, wr = gauss_legendre(0.0, r_max, spec.radial_nodes)
        wr = wr * r ** (n - 3)
    else:
        u, wu = gauss_legendre(math.log(log_from), math.log(r_max), spec.radial_nodes)
        r = np.exp(u)
        wr = wu * r ** (n - 2)  # du = dr/r
    xi, w_xi = _directions(n, geometry, spec.angular_nodes, r.size, "trace grid")
    pts = np.empty((r.size, w_xi.size, n))
    pts[..., :-1] = r[:, None, None] * xi
    pts[..., -1] = (params.lam * r)[:, None]
    return pts.reshape(-1, n), (wr[:, None] * w_xi).ravel(), np.repeat(r, w_xi.size)


def boundary_integral(params: ConeParams, f: TrialFunction,
                      spec: QuadratureSpec) -> float:
    """The weighted trace integral of f^2 / |x'| over the slice boundary
    (without any aperture prefactor), on a grid logarithmic in |x'| from
    max(``epsilon_cutoff``, r_min) when that is positive, r_min from
    :func:`trace_span`: also without a cutoff, as for axis-b at lam = 2.
    Where that range is empty it is 0.0, without a grid.

    Regular for n >= 3.  For n = 2 it is finite only when f vanishes at the
    vertex; a nonzero vertex value without a positive ``epsilon_cutoff``
    raises :class:`DivergentBoundaryIntegral` -- the instability signature,
    reported explicitly rather than returned as a huge number.
    """
    r_min, r_max = trace_span(params, f)
    cutoff = spec.epsilon_cutoff
    if params.n == 2 and cutoff == 0.0 and f.value_at_vertex != 0.0:
        raise DivergentBoundaryIntegral(
            "trace integral diverges: two-dimensional slice with nonzero "
            f"vertex value {f.value_at_vertex}; set epsilon_cutoff > 0 to regularize",
            vertex_value=f.value_at_vertex)
    lower = max(cutoff, r_min)
    if lower >= r_max:
        return 0.0
    pts, weights, _ = trace_grid(params, spec, r_max, f.geometry, log_from=lower or None)
    vals = f.evaluator(pts) ** 2
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("trace integrand produced non-finite values")
    return compensated_sum(vals * weights)


# -- lower-right derivative estimates -----------------------------------------

@dataclass(frozen=True)
class LiminfEstimate:
    """Dyadic difference quotients with a Richardson-extrapolated limit.

    ``parameters`` decrease strictly to zero; ``converged`` records whether
    the last three quotients agree to within 1e-3 (that flag,
    not the extrapolation, is what acceptance gates on); ``tail_min`` is the
    conservative lower proxy for a liminf.
    """

    parameters: np.ndarray
    quotients: np.ndarray
    extrapolated: float
    converged: bool
    tail_min: float

    def __post_init__(self):
        p = np.asarray(self.parameters, dtype=float)
        q = np.asarray(self.quotients, dtype=float)
        if p.shape != q.shape or p.size < 3:
            raise ValueError("parameter/quotient sequences must match with length >= 3")
        if not np.all(np.diff(p) < 0) or not np.all(p > 0):
            raise ValueError("parameters must be strictly decreasing and positive")
        object.__setattr__(self, "parameters", p)
        object.__setattr__(self, "quotients", q)


def _richardson_tail(quotients: np.ndarray) -> float:
    """Richardson table on the last four quotients (step ratio 2, integer
    error orders starting at 1)."""
    tail = list(quotients[-4:])
    for level in range(1, len(tail)):
        factor = 2.0 ** level
        tail = [(factor * tail[i + 1] - tail[i]) / (factor - 1.0)
                for i in range(len(tail) - 1)]
    return float(tail[0])


def _dyadic_ladder(t0: float, levels: int, squared: bool = False) -> np.ndarray:
    """The parameters t0 * 2^-k, k < ``levels``, of :func:`liminf_quotient`
    (t0^2 * 2^-k if ``squared``), after its checks on ``t0`` and ``levels``."""
    if levels < 3:
        raise ValueError(f"levels must be >= 3, got {levels}")
    if not t0 > 0:
        raise ValueError(f"t0 must be positive, got {t0}")
    start = t0 * t0 if squared else t0
    # checked before the ladder is allocated, so a huge ``levels`` costs nothing
    if start * 0.5 ** (levels - 1) == 0.0:
        step = "t0^2 * 2^-k of the s = t^2 ladder" if squared else "t0 * 2^-k"
        raise QuadratureError(f"the step {step} underflows to 0 within {levels} "
                              f"levels from t0 = {t0}")
    return start * 0.5 ** np.arange(levels)


def liminf_quotient(parameters, f0: float, values) -> LiminfEstimate:
    """Difference quotients (F(t) - F(0)) / t from F(0) = ``f0`` and the
    ``values`` F(t) at the ``parameters`` t, a dyadic sequence t0 * 2^-k
    (:func:`_dyadic_ladder`).

    A second variation is the quotient of F(sqrt(s)) in s = t^2.  The
    convergence flag requires the last three quotients to agree within
    1e-3 relative to max(1, |tail|), so sequences decaying to zero also
    register as converged once they are absolutely small.
    """
    ts, ft = np.asarray(parameters, dtype=float), np.asarray(values, dtype=float)
    if ft.shape != ts.shape:
        raise ValueError(f"{ft.size} values for {ts.size} parameters")
    if not np.all(np.isfinite(ft)):
        raise QuadratureError(f"non-finite evaluation at parameter {ts[~np.isfinite(ft)][0]}")
    quotients = (ft - float(f0)) / ts
    tail = quotients[-3:]
    scale = max(1.0, float(np.max(np.abs(tail))))
    converged = bool(np.max(tail) - np.min(tail) <= 1e-3 * scale)
    return LiminfEstimate(
        parameters=ts,
        quotients=quotients,
        extrapolated=_richardson_tail(quotients),
        converged=converged,
        tail_min=float(np.min(tail)),
    )
