"""Geometry of the convex circular cone, its flat slice, and the foliation.

The container is the region above the conical profile
``lam * sqrt(|x'|^2 + t^2)`` in R^(n+1); the slice is the half-plane cut
out of the hyperplane t = 0 by the same profile.  Through every point of
the closed slice runs one curve of a foliation of the closed container,
obtained by letting the profile's t-argument vary while keeping the height
above the profile fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MembershipError

__all__ = [
    "ConeParams",
    "omega_profile",
    "foliation_map",
    "gamma_curve",
    "foliation_lipschitz_bound",
    "profile_gap",
    "classify_points",
    "classify_ambient_point",
]


# Sums and products over the coordinate (last) axis of a batch of points.
# The columns are combined left to right, which is the order numpy's own
# reductions use for axes shorter than 8: np.sum(a * b, axis=-1),
# np.linalg.norm(a, axis=-1) and np.prod(a, axis=-1) give the same bits as
# _dot(a, b), np.sqrt(_sumsq(a)) and _prod(a).  Elementwise column
# operations skip the reduction machinery, which is slow on short axes.
# 0-d results come back as numpy scalars.

def _sumsq(a: np.ndarray):
    """Sum of squares over the last axis; sqrt of it is np.linalg.norm."""
    return _dot(a, a)


def _dot(a: np.ndarray, b: np.ndarray):
    """Sum of a*b over the last axis (a and b of one shape)."""
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out[()]


def _prod(a: np.ndarray, skip: int | None = None):
    """Product over the last axis, leaving out column ``skip`` if given."""
    cols = [j for j in range(a.shape[-1]) if j != skip]
    out = a[..., cols[0]].copy()
    for j in cols[1:]:
        out *= a[..., j]
    return out[()]


@dataclass(frozen=True)
class ConeParams:
    """Dimension n of the slice and slope ``lam`` of the conical profile.

    ``lam = 0`` is accepted as the degenerate flat half-space reference
    (identity shear, aperture pi); every positive ``lam`` gives a genuine
    cone with aperture ``2*arccot(lam)`` in (0, pi).
    """

    n: int
    lam: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"dimension n must be an integer >= 2, got {self.n!r}")
        lam = float(self.lam)
        if not math.isfinite(lam) or lam < 0.0:
            raise ValueError(f"aperture parameter must be finite and >= 0, got {self.lam!r}")
        object.__setattr__(self, "lam", lam)

    @property
    def aperture(self) -> float:
        """Opening angle 2*arccot(lam), in (0, pi] with pi at lam = 0."""
        return 2.0 * math.atan2(1.0, self.lam)


def omega_profile(params: ConeParams, x_prime, t) -> float | np.ndarray:
    """Profile height lam*sqrt(|x'|^2 + t^2).

    Total, nonnegative, and jointly 1-homogeneous in (x', t).  ``x_prime``
    may carry leading batch axes; ``t`` broadcasts against them.
    """
    xp = np.atleast_1d(np.asarray(x_prime, dtype=float))
    rsq = _sumsq(xp)
    out = params.lam * np.sqrt(rsq + np.square(np.asarray(t, dtype=float)))
    return float(out) if np.ndim(out) == 0 else out


def profile_gap(params: ConeParams, pts) -> float | np.ndarray:
    """Height x_n - profile(x', t) above the profile.

    ``pts`` holds slice points (last axis n, t = 0) or ambient points (last
    axis n+1, t last); leading batch axes are kept.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1] == params.n:
        return pts[..., -1] - omega_profile(params, pts[..., :-1], 0.0)
    if pts.shape[-1] == params.n + 1:
        return pts[..., -2] - omega_profile(params, pts[..., :-2], pts[..., -1])
    raise ValueError(f"point dimension {pts.shape[-1]} fits neither the slice "
                     f"({params.n}) nor the container ({params.n + 1})")


def classify_points(params: ConeParams, pts) -> np.ndarray:
    """'interior' / 'boundary' / 'outside' per point, by :func:`profile_gap`.

    A point is 'boundary' when its gap is within 1e-12*(1+|x|), with |x|
    the point's Euclidean norm.  The vertex of the slice classifies as
    'boundary' (its height equals the profile, both zero there).
    """
    pts = np.asarray(pts, dtype=float)
    gap = profile_gap(params, pts)
    eps = 1e-12 * (1.0 + np.sqrt(_sumsq(pts)))
    return np.where(gap > eps, "interior", np.where(gap >= -eps, "boundary", "outside"))


def classify_ambient_point(params: ConeParams, p) -> str:
    """'interior' / 'boundary' / 'outside' of one (n+1,) point (x', x_n, t)
    relative to the closed container."""
    p = np.asarray(p, dtype=float)
    if p.shape != (params.n + 1,):
        raise ValueError(f"ambient point of shape {p.shape}, expected ({params.n + 1},)")
    return str(classify_points(params, p))


def foliation_map(params: ConeParams, pts, t) -> np.ndarray:
    """Foliation points (x', x_n + profile(x', t) - profile(x', 0), t).

    ``pts`` is a (..., n) batch of slice points and ``t`` a scalar or an
    array of the batch shape; returns (..., n+1).  No membership checks.
    """
    pts = np.asarray(pts, dtype=float)
    t = np.broadcast_to(np.asarray(t, dtype=float), pts.shape[:-1])
    xp = pts[..., :-1]
    out = np.concatenate([pts, t[..., None]], axis=-1)
    out[..., -2] += omega_profile(params, xp, t) - omega_profile(params, xp, 0.0)
    return out


def gamma_curve(params: ConeParams, x, t: float) -> np.ndarray:
    """Foliation point (x', x_n + profile(x', t) - profile(x', 0), t) of one
    (n,) slice point x, as an (n+1,) array.

    Requires x in the closed slice; the result lies in the closed container,
    on its boundary exactly when x lies on the slice boundary.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (params.n,):
        raise ValueError(f"slice point of shape {x.shape}, expected ({params.n},)")
    if classify_points(params, x) == "outside":
        raise MembershipError(
            f"gamma_curve: point with height {x[-1]} lies below the profile "
            f"{omega_profile(params, x[:-1], 0.0)}"
        )
    return foliation_map(params, x, float(t))


def foliation_lipschitz_bound(params: ConeParams) -> float:
    """Certified Lipschitz constant 1 + 2*lam of (x, t) -> foliation point.

    Measured against the 1-norm |x'-y'| + |x_n-y_n| + |t-u| on inputs; the
    profile itself is lam-Lipschitz.
    """
    return 1.0 + 2.0 * params.lam
