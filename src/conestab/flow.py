"""The deformation flow of the slice and its exact partial derivatives.

Moving each point of the slice along its foliation curve, proportionally to
a scalar field f, gives the flow

    (x, t)  ->  (x', lam*sqrt(|x'|^2 + t^2 f(x)^2) + x_n - lam*|x'|, t*f(x)),

the foliation point of x at parameter t*f(x), i.e.
``foliation_map(params, x, t * f.evaluator(x))``.  At smooth points the
i-th partial is e_i + alpha_i e_n + beta_i e_(n+1) with algebraic
coefficients; those coefficients are all the downstream area computations
ever need.

``flow_coefficients_batch`` is a field evaluation (f and its gradient on the
points) followed by the per-t step ``_coefficients``, which callers that need
several times on one point set run per t on values computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ConeParams, _sumsq
from .trial import TrialFunction

__all__ = [
    "FlowCoefficients",
    "flow_coefficients_batch",
]


@dataclass(frozen=True)
class FlowCoefficients:
    """Per-direction deformation coefficients at one point or a batch.

    ``alpha`` and ``beta`` have shape (..., n); the last component of beta is
    exactly t * (axis-direction partial of f).
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        b = np.asarray(self.beta, dtype=float)
        if a.shape != b.shape:
            raise ValueError(f"alpha/beta shape mismatch: {a.shape} vs {b.shape}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def dimension(self) -> int:
        return self.alpha.shape[-1]


def flow_coefficients_batch(params: ConeParams, f: TrialFunction, pts: np.ndarray,
                            t: float) -> FlowCoefficients:
    """Coefficients alpha, beta on a (..., n) batch. No smoothness checks.

    Callers must feed smooth points (quadrature nodes are generated that
    way); the degenerate normalization sqrt(|x'|^2 + t^2 f^2) = 0 returns
    the limiting alpha = 0.
    """
    pts = np.asarray(pts, dtype=float)
    return _coefficients(params, pts, f.evaluator(pts), f.gradient(pts), t)


def _coefficients(params: ConeParams, pts: np.ndarray, fv: np.ndarray, gv: np.ndarray,
                  t: float) -> FlowCoefficients:
    """The per-t step of ``flow_coefficients_batch``, from the values ``fv``
    and gradients ``gv`` of f on ``pts``."""
    lam = params.lam
    xp = pts[..., :-1]
    r = np.sqrt(_sumsq(xp))
    s = np.sqrt(r * r + (t * fv) ** 2)

    s_ok = s > 0.0
    r_ok = r > 0.0
    inv_s = np.where(s_ok, 1.0 / np.where(s_ok, s, 1.0), 0.0)
    inv_r = np.where(r_ok, 1.0 / np.where(r_ok, r, 1.0), 0.0)

    alpha = np.empty_like(gv)
    common = (t * t) * fv * inv_s
    alpha[..., :-1] = lam * (common[..., None] * gv[..., :-1]
                             + xp * (inv_s - inv_r)[..., None])
    alpha[..., -1] = lam * common * gv[..., -1]
    beta = t * gv
    return FlowCoefficients(alpha=alpha, beta=beta)


def partials_from_coefficients(coeffs: FlowCoefficients) -> np.ndarray:
    """Assemble (..., n, n+1) derivative vectors from coefficients."""
    a = coeffs.alpha
    b = coeffs.beta
    n = a.shape[-1]
    shape = a.shape[:-1] + (n, n + 1)
    v = np.zeros(shape)
    idx = np.arange(n)
    v[..., idx, idx] = 1.0
    v[..., :, n - 1] += a
    v[..., :, n] += b
    return v
