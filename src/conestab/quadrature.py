"""Integration over the slice, the boundary trace as a slice integral, and
the finite-difference machinery for lower-right derivative estimates.

A field's slice rule reads its :class:`~conestab.trial.Geometry`, so that
its kinks fall on panel ends and its symmetry is summed once:

* a "radial" field's (or a "ball"'s) slice rule is polar about its centre c:
  Gauss-Legendre in the distance s on the part of each ray c + s*omega in the
  slice and the ball, with the volume element s^(n-1), exact for its
  polynomial profile; the polar angle from the axis runs, for a centre on
  the axis, on panels split where a ray leaves the slice at the ball's
  radius, else on a rule exact for its sine-power weight.  Its
  x'-directions (:func:`_directions`) are one for a radial field centred on
  the axis, a half-circle about the centre's x'-direction off the axis, and
  the full sphere grid for a ball.
* a "box" field's slice rule is Cartesian Gauss-Legendre on its cube, each
  x_n column clipped at lam*|x'|; exact when the cube lies inside the slice.

For n >= 3 the trace integral T of f^2/|x'| over the slice boundary is a
slice integral too: V = -e_n/|x'| is divergence-free off the axis and f has
compact support, so T = -2 * int f (d_n f)/|x'| dx, summed on the nodes that
give the Dirichlet energy.  T is 0.0 where the field's closed region cannot
meet the boundary cone (:func:`trace_span`).  At n = 2 the identity holds
only column by column, and T has its own rule (:func:`trace_grid`).

Every sum over a field's slice sample comes from one pipeline,
:func:`_battery_pass`, for a battery or for one field:

1. plan: count each field's rule once (:func:`_rule_nodes`, which refuses
   more than ``MAX_RULE_NODES`` nodes) and cut the fields, in order, into
   blocks whose rules hold at most ``_BLOCK_ELEMENTS`` = 2^20 elements
   (nodes times n), or one rule alone above it;
2. rules: build a block's rules together from those counts
   (:func:`_slice_rules`); no node touches the axis x' = 0, where the
   flow's derivatives are one-sided limits;
3. evaluation: each field once on its own nodes, dropping those where
   f = 0, its gradient on the rest, non-finite values refused;
4. reduce: one call per block, by default :func:`energies_and_traces`;
   only its result is kept, so a pass holds one block's samples at a time.

The Dirichlet energy, the deformed area and :func:`boundary_integral`
(n >= 3) are one-field passes.  :func:`liminf_quotients` turns a battery's
ladders into quotients in one array pass.  Nothing is cached.  The sigma
grid (:func:`sigma_grid`, :func:`integrate_sigma`) serves no integral of
the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate
from typing import Callable

import numpy as np

from ._inputs import MAX_RULE_NODES, check
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
    "trace_span",
    "trace_grid",
    "sphere_grid",
    "gauss_legendre",
    "compensated_sum",
]

# Composite panels keep long Gauss-Legendre rules well-conditioned across
# the support kinks of the trial families.
_MAX_NODES_PER_PANEL = 32


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the quadrature rules; each field's geometry sets
    where they go.

    ``radial_nodes`` sets the radii of the two-dimensional trace grid and,
    divided by 8, the nodes per ray of the polar slice rules;
    ``angular_nodes`` the nodes per angular coordinate of the x'-directions
    and of the off-axis polar angle, and half the nodes per polar-angle
    panel of the axis rule; ``box_nodes_per_axis`` divided by 8 the nodes per
    axis of the box rule.  Each count is raised where needed to the least
    that keeps the field's rule exact; above that, doubling the spec's
    counts doubles the rule's.  A rule of more than MAX_RULE_NODES nodes is
    refused.  ``support_radius`` sets the extent of the sigma grid only, the
    entry point of the benchmark set-ups.  Each field is checked against its
    row of the input table.
    """

    radial_nodes: int = 64
    angular_nodes: int = 16
    box_nodes_per_axis: int = 64
    support_radius: float = 3.0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, check(f.name, getattr(self, f.name)))


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


# Most elements of one block of a battery pass (a rule's nodes times n, summed
# over the block's fields) and of one reduction of variation._battery_areas (a
# field's area rows), unless one field or row alone is more.
_BLOCK_ELEMENTS = 2 ** 20


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
    matrix-vector product, as for the run alone; one run broadcasts its
    centre, reach and cc.  a, b and cc carry 2^-k, the least k >= 0 that
    leaves lam^2 under 2^448: b*b stays finite up to the lambda cap, and the
    roots keep their bits up to about lam = 1e140, where a square underflows."""
    lam = params.lam
    scale = math.ldexp(1.0, min(0, 448 - math.frexp(lam * lam)[1]))
    lam2 = lam * lam * scale  # cc below is c_n^2 - lam^2 |c'|^2
    cc = [x[-1] ** 2 * scale - lam2 * float(x[:-1] @ x[:-1]) for x in centres]
    wp, wn, wn_s = omega[:, :-1], omega[:, -1], omega[:, -1] * scale
    a = wn * wn_s - lam2 * _sumsq(wp)
    if len(counts) == 1:
        (c,), (reach,), (cc,) = centres, reaches, cc
        cp = wp @ c[:-1]
    else:  # rows: centre, reach and cc of the ray's run
        c = np.repeat(np.column_stack([centres, reaches, cc]), counts, axis=0).T
        c, reach, cc = c[:-2], c[-2], c[-1]
        cp = np.concatenate(
            [wp[e - k:e] @ x[:-1] for e, k, x in zip(accumulate(counts), counts, centres)])
    b = c[-1] * wn_s - lam2 * cp
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
    mid = 0.5 * (edges[:-1] + edges[1:])  # (3, rows), tested coordinate by coordinate
    r2 = 0.0  # 0.0 + x*x keeps the bits of x*x
    for j in range(params.n - 1):
        x = c[j] + mid * omega[:, j]
        r2 = r2 + x * x
    inside = c[-1] + mid * wn - lam * np.sqrt(r2) > 0.0
    lo = np.where(inside, edges[:-1], reach).min(axis=0)
    hi = np.where(inside, edges[1:], 0.0).max(axis=0)
    return lo, np.maximum(lo, hi)


def _kept(mask: np.ndarray, cols: np.ndarray, *rows: np.ndarray) -> tuple:
    """``cols`` (n, N) as nodes (N, n), and ``rows``, where ``mask`` holds; no copy if all do."""
    keep, = mask.nonzero()
    if keep.size < mask.size:
        cols, rows = cols.take(keep, axis=1), [r.take(keep) for r in rows]
    return (cols.T, *rows)


def _panel_ends(lam: float, geom) -> list:
    """The ends of the polar-angle panels of ``geom``, centred on the axis at
    height h: 0, pi and the angles at which a ray leaves the slice at the
    geometry's radius (lam sin(phi) - cos(phi) = h / radius), where the
    length of its part inside the ball has a kink."""
    alpha = math.atan2(1.0, lam)
    gap = geom.center[-1] / (geom.radius * math.sqrt(1.0 + lam ** 2))
    ends = {0.0, math.pi}
    if abs(gap) <= 1.0:
        b = math.asin(gap)
        ends |= {phi for phi in (alpha + b, alpha + math.pi - b) if 0.0 < phi < math.pi}
    return sorted(ends)


def _panel_nodes(n: int, angular_nodes: int) -> int:
    """Nodes per polar-angle panel, which integrate sin^(n-2) to rounding on
    any panel (checked for n <= 16)."""
    return max(2 * angular_nodes, n + 12)


def _panel_angles(params: ConeParams, cuts, angular_nodes: int):
    """(cos, sin, weights) of Gauss-Legendre nodes in the polar angle phi from
    the axis, with the weight sin^(n-2) folded in, for each list of panel
    ends in ``cuts`` (:func:`_panel_ends`), all in one gauss_legendre pass,
    with :func:`_panel_nodes` nodes per panel."""
    n = params.n
    panels = np.array([pair for e in cuts for pair in zip(e[:-1], e[1:])])  # rows (lo, hi)
    phi, w = gauss_legendre(panels[:, :1], panels[:, 1:], _panel_nodes(n, angular_nodes))
    sin_p = np.sin(phi)
    cos_p, w = np.cos(phi), w * sin_p ** (n - 2)
    rows = [len(e) - 1 for e in cuts]
    return [tuple(a[e - k:e].ravel() for a in (cos_p, sin_p, w))
            for e, k in zip(accumulate(rows), rows)]


def _rule_nodes(params: ConeParams, geom, spec: QuadratureSpec) -> tuple:
    """(k, count, ends) of the slice rule of ``geom``: its nodes per box axis
    or per ray; the nodes it places before it drops those outside the
    slice, k^n for a box, k per polar angle and x'-direction for a polar
    rule; and the :func:`_panel_ends` of a polar rule centred on the axis,
    else None.  A rule of more than MAX_RULE_NODES nodes is refused here,
    before it is built."""
    n, m = params.n, spec.angular_nodes
    if geom.shape == "box":
        k = max(geom.degree + 1, spec.box_nodes_per_axis // 8)
        k += k % 2
        _count_nodes(k ** n, "box rule")
        return k, k ** n, None
    k = max((n + 2 * geom.degree + 1) // 2, spec.radial_nodes // 8)
    ends = None if geom.offset else _panel_ends(params.lam, geom)
    angles = m if geom.offset else (len(ends) - 1) * _panel_nodes(n, m)
    radial = n > 2 and geom.shape == "radial"
    count = ((m if geom.offset else 1) if radial else max(2, m ** (n - 2))) * angles * k
    _count_nodes(count, "slice rule")
    return k, count, ends


def _box_rule(params: ConeParams, geom, m: int):
    """Cartesian Gauss-Legendre on the cube with m nodes per axis,
    coordinate-major, each x_n column clipped to the slice (x_n > lam*|x'|).
    An even node count per axis keeps every node off the axis; with at least
    degree + 1 nodes the rule is exact for |grad f|^2 of a "box" geometry
    whose cube lies inside the slice.  Each axis is broadcast straight into
    its coordinate row, and |x'|^2 and the x'-weights are summed and
    multiplied axis by axis, in one value per x'-column."""
    n, lam = params.n, params.lam
    c, w = geom.center, geom.radius
    x0, w0 = _leggauss(m)
    cols, ww = np.empty((n,) + (m,) * n), w * w0
    r2, w_col = 0.0, 1.0  # 0.0 + x*x and 1.0 * ww keep the bits of x*x and ww
    for j in range(n - 1):
        x = (c[j] + w * x0).reshape([m if i == j else 1 for i in range(n)])
        cols[j] = x
        r2, w_col = r2 + x * x, w_col * ww.reshape(x.shape)
    lo = np.maximum(c[-1] - w, lam * np.sqrt(r2))
    half = 0.5 * np.maximum(c[-1] + w - lo, 0.0)
    np.multiply(half, x0, out=cols[-1])
    cols[-1] += lo + half
    weights = (w_col * half * w0).ravel()
    return _kept(weights > 0.0, cols.reshape(n, -1), weights)


def _directions(n: int, geom, m: int):
    """Unit x'-directions (k, n-1) with weights that integrate the field's
    functions of x' over the sphere S^(n-2).

    At n = 2 they are S^0, for every shape.  A "radial" field centred on the
    axis depends on |x'| only: one direction carries |S^(n-2)|.  Centred off
    the axis, it is invariant under the rotations that fix its centre's
    x'-direction a: cos(psi) a + sin(psi) e with e normal to a, psi in
    (0, pi) with the weight |S^(n-3)| sin^(n-3) psi.  A ball gets the full
    sphere grid."""
    radial = n > 2 and geom.shape == "radial"
    offset = geom.offset if radial else 0.0
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


def _slice_rules(params: ConeParams, geoms, spec: QuadratureSpec, nodes):
    """Nodes (m, n), coordinate-major, and weights (m,) of the rule of each of
    ``geoms`` from its :func:`_rule_nodes` in ``nodes``: inside the slice and
    the region, with positive weights.  A box gets a :func:`_box_rule`; the
    polar rules of the others are built together: one :func:`_panel_angles`
    pass, then per count m_s of nodes per ray one Gauss-Legendre rule in s on
    the rays' spans (:func:`_ray_spans`), with the volume element s^(n-1),
    exact for a "radial" profile as m_s >= ceil((n + 2*degree)/2):
    |grad f|^2 s^(n-1) has degree n - 3 + 2*degree."""
    n, m = params.n, spec.angular_nodes
    rules = [None] * len(geoms)
    axis = [i for i, (_, _, ends) in enumerate(nodes) if ends]
    angles = dict(zip(axis, _panel_angles(params, [nodes[i][2] for i in axis], m))) if axis else {}
    runs = {}  # nodes per ray -> [(index, directions, weights)]
    for i, (geom, (m_s, _, _)) in enumerate(zip(geoms, nodes)):
        if geom.shape == "box":
            rules[i] = _box_rule(params, geom, m_s)
            continue
        cos_t, sin_t, w_t = angles[i] if i in angles else _polar_factor(n - 1, m)
        xi, w_xi = _directions(n, geom, m)
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
        cols = s * omega.T[..., None]  # (n, rays, m_s); each run's centre is added below
        for c, i, e, k in zip(centres, index, accumulate(counts), counts):
            cols[:, e - k:e] += c[:, None, None]
            w_i = w[e - k:e].ravel()
            rules[i] = _kept(w_i > 0.0, cols[:, e - k:e].reshape(n, -1), w_i)
    return rules


def _battery_pass(params: ConeParams, fields, spec: QuadratureSpec, reduce=None) -> list:
    """``reduce(block, samples)`` (by default :func:`energies_and_traces`) of
    each block of ``fields``, a slice of them, and ``samples`` the support
    sample of each of its fields; the lists it returns (one entry per field)
    joined in field order.  The plan, the rules, the evaluation and the
    reduce are those of the module's pipeline.  A field's support sample is
    (pts, weights, |x'|, grad f, f) at the nodes of its rule where f != 0."""
    reduce = reduce or (lambda block, samples: energies_and_traces(
        params, fields[block], samples, spec))
    nodes = [_rule_nodes(params, f.geometry, spec) for f in fields]
    out, start, total = [], 0, 0
    for stop, (_, size, _) in enumerate([*nodes, (0, math.inf, None)]):  # inf closes the last
        if stop > start and total + params.n * size > _BLOCK_ELEMENTS:
            block, samples = slice(start, stop), []
            for f, (pts, weights) in zip(fields[block], _slice_rules(
                    params, [f.geometry for f in fields[block]], spec, nodes[block])):
                fv = f.evaluator(pts)
                pts, weights, fv = _kept(fv != 0.0, pts.T, weights, fv)
                grads = f.gradient(pts)
                if not (np.isfinite(fv).all() and np.isfinite(grads).all()):
                    raise QuadratureError("field or gradient non-finite at quadrature nodes")
                samples.append((pts, weights, np.sqrt(_sumsq(pts[:, :-1])), grads, fv))
            out += reduce(block, samples)
            start, total = stop, 0
        total += params.n * size
    return out


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
    """(lo, hi): the range of |x'| where f's trace at (x', lam |x'|) can be
    nonzero, read from the field alone: empty, (0.0, 0.0), when f's closed
    region cannot meet the boundary cone (:func:`_meets_cone`); exact for a
    radial field centred on the axis, so its trace is smooth on it; else
    from 0 to the point where the geometry's reach bounds |x|."""
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
        disc = q * geom.radius ** 2 - h * h  # (lam h)^2 - q (h^2 - radius^2)
        if disc <= 0.0:
            return 0.0, 0.0
        if disc < math.inf:  # q radius^2 overflows only near the lambda cap
            lo = max(0.0, (lam * h - math.sqrt(disc)) / q)
            hi = (lam * h + math.sqrt(disc)) / q
    return lo, hi


def trace_grid(params: ConeParams, spec: QuadratureSpec, r_max: float,
               log_from: float | None = None):
    """Nodes (m, 2), weights (m,) and radii (m,) on the boundary of the
    two-dimensional slice: sum w * h(pts) approximates the integral of
    h(r*theta, lam*r) / r over 0 < r < r_max and theta = +-1, the 1/|x'|
    trace integral; with ``log_from`` set, Gauss-Legendre in log r on
    (log_from, r_max).  At n >= 3 the trace is a slice integral, without a
    grid."""
    if params.n != 2:
        raise ValueError(f"the trace grid is the n = 2 rule, got n = {params.n}")
    if log_from is not None and not log_from > 0.0:
        raise ValueError(f"log_from must be positive, got {log_from!r}")
    _count_nodes(2 * spec.radial_nodes, "trace grid")
    if log_from is None:
        r, wr = gauss_legendre(0.0, r_max, spec.radial_nodes)
        wr = wr * r ** -1
    else:  # in log r, du = dr/r
        u, wr = gauss_legendre(math.log(log_from), math.log(r_max), spec.radial_nodes)
        r = np.exp(u)
    pts = np.empty((r.size, 2, 2))
    pts[..., 0] = r[:, None] * [1.0, -1.0]
    pts[..., 1] = (params.lam * r)[:, None]
    return pts.reshape(-1, 2), np.repeat(wr, 2), np.repeat(r, 2)


def _plane_traces(params: ConeParams, fields, spec: QuadratureSpec, cutoffs=None) -> list:
    """The n = 2 trace integral of each of ``fields``, cut off at its radius
    in ``cutoffs`` (None: no cutoff), each on its own :func:`trace_grid` on
    its span, logarithmic in |x'| from max(cutoff, r_min) if that is
    positive, and all reduced by one :func:`compensated_sums`; None where it
    diverges, at a nonzero vertex value without a cutoff."""
    out, index, terms = [0.0] * len(fields), [], []
    for i, (f, cutoff) in enumerate(zip(fields, cutoffs or [0.0] * len(fields))):
        if cutoff == 0.0 and f.value_at_vertex != 0.0:
            out[i] = None
            continue
        r_min, r_max = trace_span(params, f)
        lower = max(cutoff, r_min)
        if lower < r_max:
            pts, weights, _ = trace_grid(params, spec, r_max, lower if lower > 0.0 else None)
            vals = f.evaluator(pts) ** 2
            if not np.isfinite(vals).all():
                raise QuadratureError("trace integrand produced non-finite values")
            index.append(i)
            terms.append(vals * weights)
    for i, value in zip(index, compensated_sums(terms)):
        out[i] = value
    return out


def boundary_integral(params: ConeParams, f: TrialFunction,
                      spec: QuadratureSpec) -> float:
    """The weighted trace integral of f^2 / |x'| over the slice boundary,
    without any aperture prefactor; 0.0, with no sample or grid, where
    :func:`trace_span` is empty.  For n >= 3 a slice integral on f's
    support sample, the one-field case of :func:`energies_and_traces`.  For
    n = 2 the :func:`trace_grid` on the span (:func:`_plane_traces`): a
    nonzero vertex value raises :class:`DivergentBoundaryIntegral`, the
    instability signature."""
    if params.n == 2:
        value, = _plane_traces(params, [f], spec)
        if value is None:
            raise DivergentBoundaryIntegral(
                f"trace integral diverges: n = 2 and vertex value {f.value_at_vertex} != 0; "
                "a cutoff ladder measures its rate", vertex_value=f.value_at_vertex)
        return value
    if not trace_span(params, f)[1] > 0.0:
        return 0.0
    return _battery_pass(params, [f], spec)[0][1]


def energies_and_traces(params: ConeParams, fields, samples, spec: QuadratureSpec,
                        extra=()) -> list:
    """(E, T) of each of ``fields`` from its support sample in ``samples``
    (:func:`_battery_pass`): its Dirichlet energy and :func:`boundary_integral`
    (None where that diverges), each with the bits of its own
    :func:`compensated_sum`.  One :func:`compensated_sums` reduces every
    field's energy terms, the segments of ``extra`` (one per field, whose
    sum follows (E, T) in the field's tuple) and, at n >= 3 where its
    :func:`trace_span` is not empty (else T = 0.0), its weighted
    -2 f (d_n f) / |x'|.  At n = 2, T is :func:`_plane_traces`' without a
    cutoff."""
    k = len(fields)
    terms = [w * _sumsq(g) for _, w, _, g, _ in samples] + list(extra)
    index = [] if params.n == 2 else [i for i, f in enumerate(fields)
                                      if trace_span(params, f)[1] > 0.0]
    sums = compensated_sums(terms + [-2.0 * w * fv * g[:, -1] / r
                                     for _, w, r, g, fv in (samples[i] for i in index)])
    traces = _plane_traces(params, fields, spec) if params.n == 2 else [0.0] * k
    for i, trace in zip(index, sums[len(terms):]):
        traces[i] = trace
    return [(sums[i], traces[i], *sums[k + i:len(terms):k]) for i in range(k)]


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
    (t0^2 * 2^-k if ``squared``); the quotients check the ladder."""
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
