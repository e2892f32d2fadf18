"""Integration over the slice and over the boundary trace, plus the
finite-difference machinery for lower-right derivative estimates.

The slice integral is flattened by the unit-Jacobian shear
(x', x_n) -> (x', x_n + lam*|x'|) onto the half-space x_n > 0, then
integrated by tensor Gauss-Legendre in the axis direction times a polar
grid in x' (Gauss-Legendre radii times a uniform sphere grid).  Nodes
never touch the axis x' = 0, where the flow's derivatives live only as
one-sided limits.

The boundary trace integral carries a 1/|x'| weight: written in polar form
it is regular for n >= 3, log-divergent for n = 2 with a nonzero vertex
value, and in the cutoff regime it is integrated on a logarithmic grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .domain import ConeParams
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
    "trace_radius",
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
    """Node counts and geometry for the quadrature grids.

    ``box_nodes_per_axis`` is used for the axis direction of the sheared
    slice; ``angular_nodes`` is the node count per angular coordinate of
    the sphere grid; ``epsilon_cutoff`` > 0 opts in to the regularized
    trace integral (required to get a finite number in the divergent
    two-dimensional case).
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
        if not self.support_radius > 0:
            raise ValueError(f"support_radius must be positive, got {self.support_radius!r}")
        if self.epsilon_cutoff < 0:
            raise ValueError(f"epsilon_cutoff must be >= 0, got {self.epsilon_cutoff!r}")


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=_MAX_NODES_PER_PANEL)
def _leggauss(m: int):
    return _read_only(*np.polynomial.legendre.leggauss(m))


def gauss_legendre(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with m total nodes on (a, b)."""
    panels = max(1, math.ceil(m / _MAX_NODES_PER_PANEL))
    base = m // panels
    extra = m % panels
    edges = np.linspace(a, b, panels + 1)
    xs, ws = [], []
    for k in range(panels):
        mk = base + (1 if k < extra else 0)
        if mk == 0:
            continue
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
    with y on S^(d-1) and weight sin^(d-1) t dt.  For even d the polar rule
    is Gauss-Legendre in z = cos t, where the weight is the polynomial
    (1 - z^2)^((d-2)/2); for odd d it is the midpoint rule in t, exact for
    the trigonometric polynomial sin^(d-1) t.  Weights sum to the sphere
    measure.  Cached per (d, angular_nodes); the arrays are read-only.
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
    if d % 2 == 0:
        cos_t, wz = gauss_legendre(-1.0, 1.0, m)
        sin_t = np.sqrt(1.0 - cos_t * cos_t)
        w_polar = wz * sin_t ** (d - 2)
    else:
        theta = np.pi * (np.arange(m) + 0.5) / m
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        w_polar = sin_t ** (d - 1) * (np.pi / m)
    base_pts, base_w = sphere_grid(d - 1, m)
    pts = np.concatenate(
        [np.repeat(cos_t, base_pts.shape[0])[:, None],
         np.kron(sin_t[:, None], base_pts)], axis=1)
    return _read_only(pts, np.kron(w_polar, base_w))


def _polar_nodes(n: int, r: np.ndarray, wr: np.ndarray, angular_nodes: int):
    """The polar product of radii r (weights wr) with the sphere grid on
    S^(n-2): x' nodes (m, n-1), their radii (m,) and weights wr * w_theta
    (m,), radius major."""
    theta, wt = sphere_grid(n - 2, angular_nodes)
    m_t = theta.shape[0]
    xp = (r[:, None, None] * theta[None, :, :]).reshape(-1, n - 1)
    return xp, np.repeat(r, m_t), np.repeat(wr, m_t) * np.tile(wt, r.size)


@lru_cache(maxsize=32)
def _sigma_factors(params: ConeParams, spec: QuadratureSpec):
    """The sigma grid's tensor factors, in its order radius (major) x
    direction x axis (minor): x', its radius and its polar weight (with the
    volume element r^(n-2)) per (radius, direction) node, the height x_n
    per (radius, axis) node, and the axis weights."""
    r, wr = gauss_legendre(0.0, spec.support_radius, spec.radial_nodes)
    y, wy = gauss_legendre(0.0, spec.support_radius, spec.box_nodes_per_axis)
    xp, radii, w = _polar_nodes(params.n, r, wr, spec.angular_nodes)
    return _read_only(xp, radii, w * radii ** (params.n - 2),
                      y[None, :] + params.lam * r[:, None], wy)


def sigma_grid(params: ConeParams, spec: QuadratureSpec):
    """Nodes (m, n), weights (m,) and x'-radii (m,) for the slice integral.

    Nodes lie strictly inside the slice and strictly off the axis; the grid
    is deterministic for a given (params, spec).  Assembled afresh from the
    cached tensor factors on each call, by broadcasting them in grid order.
    """
    xp, radii, wpol, heights, wy = _sigma_factors(params, spec)
    n_r, m_y = heights.shape
    pts = np.empty((n_r, xp.shape[0] // n_r, m_y, params.n))
    pts[..., :-1] = xp.reshape(n_r, -1, 1, params.n - 1)
    pts[..., -1] = heights[:, None, :]
    return pts.reshape(-1, params.n), (wpol[:, None] * wy).ravel(), np.repeat(radii, m_y)


def _box_nodes(xp: np.ndarray, heights: np.ndarray, box) -> np.ndarray:
    """Indices, in grid order, of the sigma-grid nodes inside ``box``, padded
    by a relative 1e-9 so that rounding in a field cannot reach past it.

    A node is inside when its polar node x' is and its height x_n is, so
    one test per factor node and their product decide every node.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    lo = lo - 1e-9 * (1.0 + np.abs(lo))
    hi = hi + 1e-9 * (1.0 + np.abs(hi))
    polar = np.all((xp >= lo[:-1]) & (xp <= hi[:-1]), axis=-1)
    axial = (heights >= lo[-1]) & (heights <= hi[-1])
    return np.flatnonzero(polar.reshape(heights.shape[0], -1, 1) & axial[:, None, :])


@lru_cache(maxsize=1)
def support_sample(params: ConeParams, f: TrialFunction, spec: QuadratureSpec):
    """Read-only (pts, weights, radii, grad f, f) at the sigma-grid nodes where
    f != 0, in grid order; sums over them drop only exact zeros (see
    :class:`TrialFunction`).  f is evaluated only at the nodes inside its
    support box, gathered from the grid's tensor factors, and non-finite
    values are rejected on the nodes it evaluates.  One entry is cached, as
    callers finish one field before moving to the next."""
    xp, radii, wpol, heights, wy = _sigma_factors(params, spec)
    # node k is polar node k // m_y at axis node k % m_y
    polar, axial = np.divmod(_box_nodes(xp, heights, f.support_box), wy.size)
    candidates = np.empty((polar.size, params.n))
    candidates[:, :-1] = np.take(xp, polar, axis=0)
    candidates[:, -1] = heights[polar // (xp.shape[0] // heights.shape[0]), axial]
    fv = f.evaluator(candidates)
    keep = fv != 0.0
    polar, axial, sub, fv = polar[keep], axial[keep], candidates[keep], fv[keep]
    grads = f.gradient(sub)
    if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(grads))):
        raise QuadratureError("field or gradient non-finite at quadrature nodes")
    weights = np.take(wpol, polar) * np.take(wy, axial)
    return _read_only(sub, weights, np.take(radii, polar), grads, fv)


def compensated_sum(values: np.ndarray) -> float:
    """Deterministic compensated reduction (chunked pairwise + exact fsum)."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        return 0.0
    chunk = 4096
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

def trace_radius(params: ConeParams, f: TrialFunction, spec: QuadratureSpec) -> float:
    """Largest |x'| where f's boundary trace, at |x| = |x'|*sqrt(1+lam^2), can be nonzero."""
    return min(spec.support_radius, f.support_radius / math.sqrt(1.0 + params.lam ** 2))


def trace_grid(params: ConeParams, spec: QuadratureSpec, r_max: float,
               log_from: float | None = None):
    """Nodes on the slice boundary, in polar trace form.

    Returns (pts (m, n), weights (m,), radii (m,)) such that
    sum w * h(pts) approximates the integral of r^(n-3) * h(r*theta, lam*r)
    dr dsigma(theta), the 1/|x'| trace integral in polar form.  With
    ``log_from`` set, radii are Gauss-Legendre in log r on (log_from, r_max)
    with the extra 1/r folded into the weights.
    """
    n = params.n
    if log_from is None:
        r, wr = gauss_legendre(0.0, r_max, spec.radial_nodes)
        wr = wr * r ** (n - 3)
    else:
        u, wu = gauss_legendre(math.log(log_from), math.log(r_max), spec.radial_nodes)
        r = np.exp(u)
        wr = wu * r ** (n - 2)  # du = dr/r
    xp, radii, weights = _polar_nodes(n, r, wr, spec.angular_nodes)
    return np.column_stack([xp, params.lam * radii]), weights, radii


def boundary_integral(params: ConeParams, f: TrialFunction,
                      spec: QuadratureSpec) -> float:
    """The weighted trace integral of f^2 / |x'| over the slice boundary
    (without any aperture prefactor).

    Regular for n >= 3.  For n = 2 it is finite only when f vanishes at the
    vertex; a nonzero vertex value without a positive ``epsilon_cutoff``
    raises :class:`DivergentBoundaryIntegral` -- the instability signature,
    reported explicitly rather than returned as a huge number.
    """
    r_max = trace_radius(params, f, spec)
    cutoff = spec.epsilon_cutoff
    if params.n == 2 and cutoff == 0.0 and f.value_at_vertex != 0.0:
        raise DivergentBoundaryIntegral(
            "trace integral diverges: two-dimensional slice with nonzero "
            f"vertex value {f.value_at_vertex}; set epsilon_cutoff > 0 to regularize",
            vertex_value=f.value_at_vertex)
    if cutoff >= r_max:
        return 0.0
    pts, weights, _ = trace_grid(params, spec, r_max, log_from=cutoff or None)
    vals = f.evaluator(pts) ** 2
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("trace integrand produced non-finite values")
    return compensated_sum(vals * weights)


# -- lower-right derivative estimates -----------------------------------------

@dataclass(frozen=True)
class LiminfEstimate:
    """Dyadic difference quotients with a Richardson-extrapolated limit.

    ``parameters`` decrease strictly to zero; ``converged`` records whether
    the last three quotients agree to the configured tolerance (that flag,
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
    level = 1
    while len(tail) > 1:
        factor = 2.0 ** level
        tail = [(factor * tail[i + 1] - tail[i]) / (factor - 1.0)
                for i in range(len(tail) - 1)]
        level += 1
    return float(tail[0])


def liminf_quotient(values: Callable[[float], float], t0: float, levels: int,
                    rtol: float = 1e-3) -> LiminfEstimate:
    """Difference quotients (F(t) - F(0)) / t of ``values`` on the dyadic
    sequence t0 * 2^-k.

    A second variation is the quotient of F(sqrt(s)) in s = t^2.  The
    convergence flag requires the last three quotients to agree within
    ``rtol`` relative to max(1, |tail|), so sequences decaying to zero also
    register as converged once they are absolutely small.
    """
    if levels < 3:
        raise ValueError(f"levels must be >= 3, got {levels}")
    if not t0 > 0:
        raise ValueError(f"t0 must be positive, got {t0}")
    # checked before the ladder is allocated, so a huge ``levels`` costs nothing
    if t0 * 0.5 ** (levels - 1) == 0.0:
        raise QuadratureError(f"the step t0 * 2^-k underflows to 0 within {levels} "
                              f"levels from t0 = {t0}")
    f0 = float(values(0.0))
    ts = t0 * 0.5 ** np.arange(levels)
    quotients = np.empty(levels)
    for k, t in enumerate(ts):
        ft = float(values(float(t)))
        if not math.isfinite(ft):
            raise QuadratureError(f"non-finite evaluation at parameter {t}")
        quotients[k] = (ft - f0) / t
    tail = quotients[-3:]
    scale = max(1.0, float(np.max(np.abs(tail))))
    converged = bool(np.max(tail) - np.min(tail) <= rtol * scale)
    return LiminfEstimate(
        parameters=ts,
        quotients=quotients,
        extrapolated=_richardson_tail(quotients),
        converged=converged,
        tail_min=float(np.min(tail)),
    )
