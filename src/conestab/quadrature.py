"""Integration over the slice and over the boundary trace, plus the
finite-difference machinery for lower-right derivative estimates.

Both integrals of a field, over the slice (:func:`support_sample`) and its
boundary (:func:`boundary_integral`), read the field's
:class:`~conestab.trial.Geometry`, so that its kinks fall on panel ends and
its symmetry is summed once:

* a "radial" field's (or a "ball"'s) slice rule is polar about its centre c:
  Gauss-Legendre in the distance s on the part of each ray c + s*omega in the
  slice and the ball, with the volume element s^(n-1), exact for its
  polynomial profile; the polar angle from the axis runs, for a centre on
  the axis, on panels split where a ray leaves the slice at the ball's
  radius, else on a rule exact for its sine-power weight.
* a "box" field's slice rule is Cartesian Gauss-Legendre on its cube, each
  x_n column clipped at lam*|x'|; exact when the cube lies inside the slice.
* the trace rule is polar in |x'| on the range where the trace can be
  nonzero: empty, with no grid built and no value of f read, when the
  field's closed region cannot meet the boundary cone (:func:`trace_span`).
* both take their x'-directions from :func:`_directions`: one for a radial
  field centred on the axis; a half-circle about the centre's x'-direction
  off the axis; the full sphere grid for a ball and for a box's trace.

Each rule counts its nodes before building them and refuses more than
``MAX_RULE_NODES``; no node touches the axis x' = 0, where the flow's
derivatives are one-sided limits.  A battery is sampled, traced and its
ladders turned into quotients in one pass each, with nothing cached across
calls: :func:`support_samples` builds the polar angles of its fields
centred on the axis in one pass, its rays in one pass per count of nodes
per ray and each box coordinate-major, then evaluates each field once on
its own nodes; :func:`boundary_integrals` takes one column rule of radii
per kind of grid and one :func:`compensated_sums`; :func:`liminf_quotients`
is one array pass.  ``stability_sweep``, the kato suite's shear checks and
the CLI's variation reports call them once per battery; their one-field
cases are :func:`support_sample`, :func:`boundary_integral` and
:func:`liminf_quotient`.  The sigma grid (:func:`sigma_grid`,
:func:`integrate_sigma`) serves no integral of the program.

The trace integral carries a 1/|x'| weight: regular for n >= 3 in polar
form, log-divergent for n = 2 with a nonzero vertex value; its grid is
logarithmic in |x'| whenever its range starts off the vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
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


def gauss_legendre(a, b, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with m total nodes on (a, b); columns a
    and b of shape (k, 1) give k rules (k, m), each row as its own call."""
    if m <= _MAX_NODES_PER_PANEL:
        x0, w0 = _leggauss(m)
        half = 0.5 * (b - a)
        return half * x0 + 0.5 * (b + a), half * w0
    panels = math.ceil(m / _MAX_NODES_PER_PANEL)
    step = (b - a) / panels  # the ends of np.linspace(a, b, panels + 1), row by row
    edges = [k * step + a for k in range(panels)] + [b]
    xs, ws = [], []
    for k in range(panels):  # the first m % panels panels take a node more
        x0, w0 = _leggauss(m // panels + (k < m % panels))
        lo, hi = edges[k], edges[k + 1]
        xs.append(0.5 * (hi - lo) * x0 + 0.5 * (hi + lo))
        ws.append(0.5 * (hi - lo) * w0)
    return np.concatenate(xs, axis=-1), np.concatenate(ws, axis=-1)


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


def _ray_spans(params: ConeParams, centres, omega: np.ndarray, reaches, counts):
    """The s-interval (lo, hi) of each ray c + s*omega, 0 <= s <= reach, that
    lies in the slice; lo == hi where the ray misses it.  The rays come in
    runs of ``counts``, one run per centre c and reach.

    g(s) = x_n - lam*|x'| along a ray is concave, so {g > 0} is one
    interval, bounded by roots of (c_n + s w_n)^2 = lam^2 |c' + s w'|^2.
    The roots cut [0, reach] into pieces; the interval is the union of the
    pieces whose midpoint has g > 0.  A run's products w'.c' are one
    matrix-vector product, as for the run alone."""
    lam = params.lam
    lam2 = lam * lam
    # rows: centre, reach and cc = c_n^2 - lam^2 |c'|^2 of the ray's run
    c = np.repeat(np.column_stack([centres, reaches, [
        x[-1] ** 2 - lam2 * float(x[:-1] @ x[:-1]) for x in centres]]), counts, axis=0).T
    cc, reach = c[-1], c[-2]
    wp, wn = omega[:, :-1], omega[:, -1]
    a = wn * wn - lam2 * _sumsq(wp)
    b = c[-3] * wn - lam2 * np.concatenate(
        [wp[e - k:e] @ x[:-1] for e, k, x in zip(accumulate(counts), counts, centres)])
    disc = b * b - a * cc
    real = disc >= 0.0
    q = -(b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    # edges 0, the roots q/a and cc/q (0 where complex or not finite), reach
    edges = np.zeros((4, len(a)))
    edges[3] = reach
    roots = edges[1:3]
    np.divide(q, a, out=roots[0], where=real & (a != 0.0))
    np.divide(cc, q, out=roots[1], where=real & (q != 0.0))
    roots[~np.isfinite(roots)] = 0.0
    np.clip(roots, 0.0, reach, out=roots)
    roots[:] = np.minimum(*roots), np.maximum(*roots)  # all four edges in order
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = c[:-2, None, :] + mid * omega.T[:, None, :]  # (n, 3, rows)
    inside = x[-1] - lam * np.sqrt(_sumsq(x[:-1].transpose(1, 2, 0))) > 0.0
    lo = np.where(inside, edges[:-1], reach).min(axis=0)
    hi = np.where(inside, edges[1:], 0.0).max(axis=0)
    return lo, np.maximum(lo, hi)


def _kept(mask: np.ndarray, cols: np.ndarray, *rows: np.ndarray) -> tuple:
    """``cols`` (n, N) as nodes (N, n), and ``rows``, where ``mask`` holds; no copy if all do."""
    keep = np.flatnonzero(mask)
    if keep.size < mask.size:
        cols, rows = cols.take(keep, axis=1), [r.take(keep) for r in rows]
    return (cols.T, *rows)


def _panel_angles(params: ConeParams, geoms, angular_nodes: int):
    """(cos, sin, weights) of Gauss-Legendre nodes in the polar angle phi from
    the axis, with the weight sin^(n-2) folded in, for each of ``geoms``
    (centred on the axis at height h), all in one gauss_legendre pass.
    Panels end at 0, pi and the angles at which a ray leaves the slice at
    the geometry's radius (lam sin(phi) - cos(phi) = h / radius), where the
    length of its part inside the ball has a kink.  Twice the spec's angular
    count, and at least n + 12 nodes, integrate sin^(n-2) to rounding on any
    panel (checked for n <= 16)."""
    n, lam = params.n, params.lam
    alpha = math.atan2(1.0, lam)
    cuts = []
    for geom in geoms:
        gap = geom.center[-1] / (geom.radius * math.sqrt(1.0 + lam ** 2))
        ends = {0.0, math.pi}
        if abs(gap) <= 1.0:
            b = math.asin(gap)
            ends |= {phi for phi in (alpha + b, alpha + math.pi - b) if 0.0 < phi < math.pi}
        cuts.append(sorted(ends))
    panels = np.array([pair for e in cuts for pair in zip(e[:-1], e[1:])])  # rows (lo, hi)
    phi, w = gauss_legendre(panels[:, :1], panels[:, 1:], max(2 * angular_nodes, n + 12))
    sin_p = np.sin(phi)
    cos_p, w = np.cos(phi), w * sin_p ** (n - 2)
    rows = [len(e) - 1 for e in cuts]
    return [tuple(a[e - k:e].ravel() for a in (cos_p, sin_p, w))
            for e, k in zip(accumulate(rows), rows)]


def _box_rule(params: ConeParams, geom, spec: QuadratureSpec):
    """Cartesian Gauss-Legendre on the cube, coordinate-major, each x_n column
    clipped to the slice (x_n > lam*|x'|).  An even node count per axis keeps
    every node off the axis; with at least degree + 1 nodes the rule is exact
    for |grad f|^2 of a "box" geometry whose cube lies inside the slice."""
    n, lam = params.n, params.lam
    c, w = geom.center, geom.radius
    m = max(geom.degree + 1, spec.box_nodes_per_axis // 8)
    m += m % 2
    _count_nodes(m ** n, "box rule")
    x0, w0 = _leggauss(m)
    xp = np.array(np.meshgrid(*(c[j] + w * x0 for j in range(n - 1)), indexing="ij",
                              copy=False)).reshape(n - 1, -1)
    w_col = np.ones(1)
    for _ in range(n - 1):
        w_col = np.multiply.outer(w_col, w * w0).ravel()
    lo = np.maximum(c[-1] - w, lam * np.sqrt(_sumsq(xp.T)))
    half = 0.5 * np.maximum(c[-1] + w - lo, 0.0)
    cols = np.empty((n, xp.shape[1], m))
    cols[:-1] = xp[..., None]
    cols[-1] = (lo + half)[:, None] + half[:, None] * x0
    weights = ((w_col * half)[:, None] * w0).ravel()
    return _kept(weights > 0.0, cols.reshape(n, -1), weights)


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


def _slice_rules(params: ConeParams, geoms, spec: QuadratureSpec):
    """Nodes (m, n), coordinate-major, and weights (m,) of the rule of each of
    ``geoms``: inside the slice and the region, with positive weights.  A box
    gets a :func:`_box_rule`; the polar rules of the others are built together:
    one :func:`_panel_angles` pass, then per count m_s of nodes per ray one
    Gauss-Legendre rule in s on the rays' spans (:func:`_ray_spans`), with the
    volume element s^(n-1), exact for a "radial" profile as m_s >=
    ceil((n + 2*degree)/2): |grad f|^2 s^(n-1) has degree n - 3 + 2*degree."""
    n, m = params.n, spec.angular_nodes
    rules = [None] * len(geoms)
    axis = [i for i, g in enumerate(geoms) if g.shape != "box" and not g.offset]
    angles = dict(zip(axis, _panel_angles(params, [geoms[i] for i in axis], m))) if axis else {}
    runs = {}  # nodes per ray -> [(index, directions, weights)]
    for i, geom in enumerate(geoms):
        if geom.shape == "box":
            rules[i] = _box_rule(params, geom, spec)
            continue
        cos_t, sin_t, w_t = angles[i] if i in angles else _polar_factor(n - 1, m)
        m_s = max((n + 2 * geom.degree + 1) // 2, spec.radial_nodes // 8)
        xi, w_xi = _directions(n, geom, m, cos_t.size * m_s, "slice rule")
        omega = np.empty((cos_t.size, xi.shape[0], n))
        omega[..., :-1] = sin_t[:, None, None] * xi
        omega[..., -1] = cos_t[:, None]
        runs.setdefault(m_s, []).append((i, omega.reshape(-1, n), (w_t[:, None] * w_xi).ravel()))
    for m_s, run in runs.items():
        index, omega, w_omega = zip(*run)
        counts = [w.size for w in w_omega]
        centres = np.array([geoms[i].center for i in index])
        omega, w_omega = np.concatenate(omega), np.concatenate(w_omega)
        lo, hi = _ray_spans(params, centres, omega, [geoms[i].radius for i in index], counts)
        x0, w0 = _leggauss(m_s)
        half = 0.5 * (hi - lo)
        s = (half + lo)[:, None] + half[:, None] * x0
        w = (half * w_omega)[:, None] * w0 * s ** (n - 1)
        cols = np.repeat(centres.T, counts, axis=1)[..., None] + s * omega.T[..., None]
        for i, e, k in zip(index, accumulate(counts), counts):
            w_i = w[e - k:e].ravel()
            rules[i] = _kept(w_i > 0.0, cols[:, e - k:e].reshape(n, -1), w_i)
    return rules


def support_samples(params: ConeParams, fields, spec: QuadratureSpec) -> list:
    """The :func:`support_sample` of each of ``fields``, the rules built
    together (:func:`_slice_rules`), each field evaluated once on its own."""
    out = []
    for f, (pts, weights) in zip(fields, _slice_rules(params, [f.geometry for f in fields], spec)):
        fv = f.evaluator(pts)
        pts, weights, fv = _kept(fv != 0.0, pts.T, weights, fv)
        grads = f.gradient(pts)
        if not (np.isfinite(fv).all() and np.isfinite(grads).all()):
            raise QuadratureError("field or gradient non-finite at quadrature nodes")
        out.append((pts, weights, np.sqrt(_sumsq(pts[:, :-1])), grads, fv))
    return out


def support_sample(params: ConeParams, f: TrialFunction, spec: QuadratureSpec):
    """(pts, weights, radii, grad f, f) at the nodes of f's slice rule where
    f != 0, in rule order, the points coordinate-major; radii are |x'|.  Sums
    over them drop only exact zeros (see :class:`TrialFunction`); non-finite
    values of f or grad f are rejected.  The rule follows f's geometry; its
    Dirichlet energy is exact when the profile is the stated polynomial and
    a box's or off-axis ball's region lies inside the slice.  Each call, the
    one-field case of :func:`support_samples`, evaluates f afresh."""
    return support_samples(params, [f], spec)[0]


def compensated_sum(values: np.ndarray) -> float:
    """Deterministic compensated reduction of ``values``: the one-segment case
    of :func:`compensated_sums`."""
    return compensated_sums([values])[0]


def compensated_sums(segments) -> list:
    """Deterministic compensated reduction (chunked pairwise + exact fsum) of
    each of ``segments``: numpy's pairwise sum of each zero-padded 4,096-element
    chunk, then the exact sum of the chunk sums.  A segment under 4,096
    elements is one chunk of the least power-of-two multiple of 128 that holds
    it, the leftmost subtree of the 4,096-element tree (the others sum zeros),
    so its bits stay; chunks of one width are summed as rows of one array."""
    segments = [np.asarray(v, dtype=float).ravel() for v in segments]
    widths = [min(4096, max(128, 1 << (v.size - 1).bit_length())) for v in segments]
    out = [0.0] * len(segments)  # an empty segment has no chunk
    for width in set(widths):
        group = [i for i, w in enumerate(widths) if w == width]
        rows = [0, *accumulate(-(-segments[i].size // width) for i in group)]
        chunks = np.zeros(rows[-1] * width)
        for i, r in zip(group, rows):
            chunks[r * width:r * width + segments[i].size] = segments[i]
        partials = chunks.reshape(-1, width).sum(axis=1).tolist()
        for i, r0, r1 in zip(group, rows, rows[1:]):
            out[i] = math.fsum(partials[r0:r1])
    return out


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
    symmetry the geometry states.  The one-grid case of :func:`_trace_grids`.
    """
    if log_from is not None and not log_from > 0.0:  # _trace_grids reads lo <= 0 as linear
        raise ValueError(f"log_from must be positive, got {log_from!r}")
    pts, weights, r = _trace_grids(params, spec, [geometry], [(log_from or 0.0, r_max)])[0]
    return pts, weights, np.repeat(r, weights.size // r.size)


def _trace_grids(params: ConeParams, spec: QuadratureSpec, geoms, spans) -> list:
    """(pts, weights, radii rule) of the :func:`trace_grid` of each of ``geoms``
    on its (lo, r_max) in ``spans``, logarithmic when lo > 0; the radii of
    each kind of grid from one column call of :func:`gauss_legendre`."""
    n, rules = params.n, {}
    for log in {lo > 0.0 for lo, _ in spans}:
        index = [i for i, (lo, _) in enumerate(spans) if (lo > 0.0) == log]
        ends = [[math.log(x) for x in spans[i]] if log else spans[i] for i in index]
        # one grid takes its ends as floats, the cheaper case of the same arithmetic
        u, wu = gauss_legendre(*(np.array(ends).T[..., None] if len(ends) > 1 else ends[0]),
                               spec.radial_nodes)
        r = np.exp(u) if log else u
        wr = wu * r ** (n - 2 if log else n - 3)  # in log r, du = dr/r
        rules.update(zip(index, zip(r.reshape(len(index), -1), wr.reshape(len(index), -1))))
    grids = []
    for geom, (r, wr) in zip(geoms, map(rules.get, range(len(spans)))):
        xi, w_xi = _directions(n, geom, spec.angular_nodes, r.size, "trace grid")
        pts = np.empty((r.size, w_xi.size, n))
        pts[..., :-1] = r[:, None, None] * xi
        pts[..., -1] = (params.lam * r)[:, None]
        grids.append((pts.reshape(-1, n), (wr[:, None] * w_xi).ravel(), r))
    return grids


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
    reported explicitly rather than returned as a huge number.  The
    one-field case of :func:`boundary_integrals`.
    """
    value = boundary_integrals(params, [f], spec)[0]
    if value is None:
        raise DivergentBoundaryIntegral(
            "trace integral diverges: two-dimensional slice with nonzero "
            f"vertex value {f.value_at_vertex}; set epsilon_cutoff > 0 to regularize",
            vertex_value=f.value_at_vertex)
    return value


def boundary_integrals(params: ConeParams, fields, spec: QuadratureSpec) -> list:
    """The :func:`boundary_integral` of each of ``fields``, None where it
    diverges: the grids of non-empty ranges built together (:func:`_trace_grids`),
    each field evaluated once on its own, all reduced by one :func:`compensated_sums`."""
    cutoff, out, index, spans = spec.epsilon_cutoff, [], [], []
    for f in fields:
        if params.n == 2 and cutoff == 0.0 and f.value_at_vertex != 0.0:
            out.append(None)
            continue
        r_min, r_max = trace_span(params, f)
        if max(cutoff, r_min) < r_max:
            index.append(len(out))
            spans.append((max(cutoff, r_min), r_max))
        out.append(0.0)
    if not index:
        return out
    terms = []
    for i, (pts, weights, _) in zip(index, _trace_grids(
            params, spec, [fields[i].geometry for i in index], spans)):
        vals = fields[i].evaluator(pts) ** 2
        if not np.isfinite(vals).all():
            raise QuadratureError("trace integrand produced non-finite values")
        terms.append(vals * weights)
    for i, value in zip(index, compensated_sums(terms)):
        out[i] = value
    return out


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
    (:func:`_dyadic_ladder`); the one-ladder case of :func:`liminf_quotients`.

    A second variation is the quotient of F(sqrt(s)) in s = t^2.  The
    convergence flag requires the last three quotients to agree within
    1e-3 relative to max(1, |tail|), so sequences decaying to zero also
    register as converged once they are absolutely small.  The limit is a
    Richardson table on the last four quotients (step ratio 2, integer
    error orders starting at 1).
    """
    return liminf_quotients([parameters], [f0], [values])[0]


def liminf_quotients(parameters, f0, values) -> list:
    """The :func:`liminf_quotient` of each row of ``parameters`` (ladders of
    one length), its F(0) in ``f0`` and its row of ``values``: quotients,
    tails and Richardson tables of all ladders in one array pass."""
    ts, ft = np.asarray(parameters, dtype=float), np.asarray(values, dtype=float)
    if ft.shape != ts.shape:
        raise ValueError(f"{ft.size} values for {ts.size} parameters")
    if not np.all(np.isfinite(ft)):
        raise QuadratureError(f"non-finite evaluation at parameter {ts[~np.isfinite(ft)][0]}")
    quotients = (ft - np.asarray(f0, dtype=float)[:, None]) / ts
    tail, table = quotients[:, -3:], quotients[:, -4:]
    low = np.min(tail, axis=1)
    converged = np.max(tail, axis=1) - low <= 1e-3 * np.maximum(1.0, np.max(np.abs(tail), axis=1))
    for level in range(1, table.shape[1]):
        factor = 2.0 ** level
        table = (factor * table[:, 1:] - table[:, :-1]) / (factor - 1.0)
    return [LiminfEstimate(parameters=p, quotients=q, extrapolated=x, converged=c, tail_min=m)
            for p, q, x, c, m in zip(ts, quotients, table[:, 0].tolist(), converged.tolist(),
                                     low.tolist())]
