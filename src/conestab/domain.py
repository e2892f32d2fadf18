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
    "PlanePoint",
    "AmbientPoint",
    "omega_profile",
    "foliation_map",
    "gamma_curve",
    "foliation_lipschitz_bound",
    "profile_gap",
    "classify_points",
    "classify_ambient_point",
]


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


@dataclass(frozen=True)
class PlanePoint:
    """A point x = (x', x_n) of the slice hyperplane R^n."""

    x_prime: np.ndarray
    x_n: float

    def __post_init__(self):
        xp = np.asarray(self.x_prime, dtype=float).reshape(-1)
        xp.setflags(write=False)
        object.__setattr__(self, "x_prime", xp)
        object.__setattr__(self, "x_n", float(self.x_n))

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.x_prime, [self.x_n]])

    @property
    def dimension(self) -> int:
        return self.x_prime.size + 1


@dataclass(frozen=True)
class AmbientPoint:
    """A point (x', x_n, t) of the ambient space R^(n+1)."""

    x_prime: np.ndarray
    x_n: float
    t: float

    def __post_init__(self):
        xp = np.asarray(self.x_prime, dtype=float).reshape(-1)
        xp.setflags(write=False)
        object.__setattr__(self, "x_prime", xp)
        object.__setattr__(self, "x_n", float(self.x_n))
        object.__setattr__(self, "t", float(self.t))

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.x_prime, [self.x_n, self.t]])


def omega_profile(params: ConeParams, x_prime, t) -> float | np.ndarray:
    """Profile height lam*sqrt(|x'|^2 + t^2).

    Total, nonnegative, and jointly 1-homogeneous in (x', t).  ``x_prime``
    may carry leading batch axes; ``t`` broadcasts against them.
    """
    xp = np.atleast_1d(np.asarray(x_prime, dtype=float))
    rsq = np.sum(xp * xp, axis=-1)
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


def classify_points(params: ConeParams, pts, tol: float | None = None) -> np.ndarray:
    """'interior' / 'boundary' / 'outside' per point, by :func:`profile_gap`.

    A point is 'boundary' when its gap is within ``tol``, by default
    1e-12*(1+|x|) with |x| the point's Euclidean norm.  The vertex of the
    slice classifies as 'boundary' (its height equals the profile, both
    zero there).
    """
    pts = np.asarray(pts, dtype=float)
    gap = profile_gap(params, pts)
    eps = 1e-12 * (1.0 + np.linalg.norm(pts, axis=-1)) if tol is None else float(tol)
    return np.where(gap > eps, "interior", np.where(gap >= -eps, "boundary", "outside"))


def classify_ambient_point(params: ConeParams, p: AmbientPoint, tol: float | None = None) -> str:
    """'interior' / 'boundary' / 'outside' relative to the closed container."""
    return str(classify_points(params, p.vector, tol))


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


def gamma_curve(params: ConeParams, x: PlanePoint, t: float) -> AmbientPoint:
    """Foliation point (x', x_n + profile(x', t) - profile(x', 0), t).

    Requires x in the closed slice; the result lies in the closed container,
    on its boundary exactly when x lies on the slice boundary.
    """
    if x.dimension != params.n:
        raise ValueError(f"point dimension {x.dimension} != slice dimension {params.n}")
    if classify_points(params, x.vector) == "outside":
        raise MembershipError(
            f"gamma_curve: point with height {x.x_n} lies below the profile "
            f"{omega_profile(params, x.x_prime, 0.0)}"
        )
    out = foliation_map(params, x.vector, float(t))
    return AmbientPoint(out[:-2], out[-2], out[-1])


def foliation_lipschitz_bound(params: ConeParams) -> float:
    """Certified Lipschitz constant 1 + 2*lam of (x, t) -> foliation point.

    Measured against the 1-norm |x'-y'| + |x_n-y_n| + |t-u| on inputs; the
    profile itself is lam-Lipschitz.
    """
    return 1.0 + 2.0 * params.lam
