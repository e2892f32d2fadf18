"""Squared area-distortion factor of the flow, computed three ways.

The three routes are algebraically equal but numerically independent:

* the closed form in the deformation coefficients,
* the squared norm of the wedge product of the partial-derivative vectors
  on its (n+1)-element orthonormal multivector basis,
* a brute-force Gram determinant of the partials (LU elimination with
  partial pivoting, nothing shared with the formula under test).

The module also splits J^2 into its main term, the part that survives as
t -> 0 scaled by t^2 (a per-t step the invariant suites run), and the
higher-order remainder.
"""

from __future__ import annotations

import numpy as np

from .domain import ConeParams, _dot, _sumsq
from .errors import QuadratureError
from .flow import FlowCoefficients
from .trial import TrialFunction

__all__ = [
    "jacobian_closed_form",
    "jacobian_gram_oracle",
    "wedge_expansion",
    "remainder",
    "remainder_uniform_bound",
]


def _split(coeffs: FlowCoefficients):
    a = coeffs.alpha
    b = coeffs.beta
    an = a[..., -1]
    bn = b[..., -1]
    sa2 = _sumsq(a[..., :-1])
    sb2 = _sumsq(b[..., :-1])
    sab = _dot(a[..., :-1], b[..., :-1])
    return an, bn, sa2, sb2, sab


def _distortion_squared(an, bn, sa2, sb2, sab):
    """The closed form from a_n, b_n, |a'|^2, |b'|^2 and a'.b' (also read by area)."""
    return (1.0 + an) ** 2 * (1.0 + sb2) + bn ** 2 * (1.0 + sa2) \
        - 2.0 * (1.0 + an) * bn * sab


def jacobian_closed_form(coeffs: FlowCoefficients) -> float | np.ndarray:
    """(1+a_n)^2 (1+sum b_i^2) + b_n^2 (1+sum a_i^2) - 2(1+a_n) b_n sum a_i b_i."""
    out = _distortion_squared(*_split(coeffs))
    return float(out) if np.ndim(out) == 0 else out


def wedge_expansion(coeffs: FlowCoefficients) -> np.ndarray:
    """Multivector coefficients of the wedge of the n partial vectors.

    Shape (..., n+1) on the orthonormal basis: the undeformed component,
    the tilt component, and one mixed component per in-plane direction
    (b_n a_i - (1+a_n) b_i).  The squared Euclidean norm of this list equals
    the closed form.
    """
    a = coeffs.alpha
    b = coeffs.beta
    an = a[..., -1:]
    bn = b[..., -1:]
    mixed = bn * a[..., :-1] - (1.0 + an) * b[..., :-1]
    return np.concatenate([1.0 + an, bn, mixed], axis=-1)


def remainder(coeffs: FlowCoefficients) -> float | np.ndarray:
    """Higher-order part R of J^2; J^2 - R = 1 + 2 a_n + sum_i b_i^2 exactly."""
    an, bn, sa2, sb2, sab = _split(coeffs)
    out = an ** 2 * (1.0 + sb2) + 2.0 * an * sb2 + bn ** 2 * sa2 \
        - 2.0 * (1.0 + an) * bn * sab
    return float(out) if np.ndim(out) == 0 else out


def _lu_det(a: np.ndarray) -> np.ndarray:
    """Determinants of the k x k matrices a[:, :, ...] (batch on the trailing
    axes) by LU elimination with partial pivoting, one step at a time over
    the whole batch, with no per-matrix library call.  Overwrites ``a``."""
    det = np.ones(a.shape[2:])
    for s in range(len(a)):
        for i in range(s + 1, len(a)):
            swap = np.abs(a[i, s]) > np.abs(a[s, s])
            if swap.any():
                top = np.where(swap, a[i, s:], a[s, s:])
                a[i, s:] = np.where(swap, a[s, s:], a[i, s:])
                a[s, s:] = top
                np.negative(det, out=det, where=swap)
        det *= a[s, s]
        # a zero pivot heads a zero column: det is already 0, skip the division
        pivot = np.where(a[s, s] != 0.0, a[s, s], 1.0)
        a[s + 1:, s + 1:] -= (a[s + 1:, s] / pivot)[:, None] * a[s, s + 1:]
    return det


def jacobian_gram_oracle(partials: np.ndarray) -> float | np.ndarray:
    """det of the k x k matrix of inner products of the k partial vectors
    (``partials`` has shape (..., k, d)), through ``_lu_det``: independent of
    the closed form.  Non-finite entries are rejected."""
    v = np.asarray(partials, dtype=float)
    if not np.all(np.isfinite(v)):
        raise QuadratureError("gram oracle: non-finite partial-derivative entries")
    # batch axis first in memory, so each column w[:, i, c] is contiguous
    w = np.asfortranarray(v.reshape((-1,) + v.shape[-2:]))
    gram = np.empty((w.shape[1], w.shape[1], w.shape[0]))
    for i, j in zip(*np.triu_indices(w.shape[1])):
        gram[i, j] = gram[j, i] = _dot(w[:, i], w[:, j])
    out = _lu_det(gram).reshape(v.shape[:-2])
    return float(out) if out.ndim == 0 else out


def _main_term(params: ConeParams, pts: np.ndarray, fv: np.ndarray, gv: np.ndarray,
               t: float) -> np.ndarray:
    """1 + t^2 (|grad f|^2 + 2 lam f (axis partial of f)/sqrt(|x'|^2+t^2 f^2))
    at one t, from the values ``fv`` and gradients ``gv`` of f on ``pts``."""
    r = np.sqrt(_sumsq(pts[..., :-1]))
    s = np.sqrt(r * r + (t * fv) ** 2)
    inv_s = np.where(s > 0.0, 1.0 / np.where(s > 0.0, s, 1.0), 0.0)
    grad_sq = _sumsq(gv)
    return 1.0 + t * t * (grad_sq + 2.0 * params.lam * fv * gv[..., -1] * inv_s)


def remainder_uniform_bound(params: ConeParams, f: TrialFunction) -> float:
    """Certified bound for |R|/t^2, valid for all |t| <= 1 and all points.

    Derived from |a_n| <= lam*L*|t|, |b_i| <= L*|t|, and
    |a_i| <= lam*(L*|t| + 1) with L the Lipschitz bound of f; the loss of a
    radial factor in the middle estimate keeps the constant simple.
    """
    lam = params.lam
    L = f.lipschitz_bound
    m = f.dimension - 1
    return (lam * lam * L * L * (1.0 + L * L)
            + 2.0 * lam * L ** 3 * m
            + m * lam * lam * L * L * (L + 1.0) ** 2
            + 2.0 * (1.0 + lam * L) * m * lam * L * L * (L + 1.0))
