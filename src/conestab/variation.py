"""Area of the deformed slice and its first/second lower-right variations.

The deformed area at time t integrates the area-distortion factor over the
support of the deformation field.  Because the distortion depends on t only
at second order, the first variation vanishes and the second variation is
the first variation with respect to s = t^2: its closed form is

    (1/2) * (Dirichlet energy of f  -  lam * weighted trace integral of f^2),

and the finite-difference route must reproduce it.  For a two-dimensional
slice with a nonzero vertex value the trace integral diverges; for lam > 0
the closed form is then reported as -inf together with a fitted
log-divergence certificate instead of a bare sentinel.

A variation report evaluates the area at every distinct time of its two
quotient ladders in one vectorised pass: the times form a column against
the row of per-node scalars, built from the field's support sample, which
the report builds once and also reads for the Dirichlet energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import ConeParams, _dot, _sumsq
from .errors import DivergentBoundaryIntegral, JacobianPositivityError, QuadratureError
from .jacobian import _distortion_squared
from .quadrature import (LiminfEstimate, QuadratureSpec, _dyadic_ladder, boundary_integral,
                         compensated_sum, liminf_quotient, support_sample)
from .trial import TrialFunction

__all__ = [
    "VariationReport",
    "LogDivergenceCertificate",
    "area",
    "dirichlet_energy",
    "second_variation_closed_form",
    "variation_report",
    "cutoff_ladder",
]

DEFAULT_LEVELS = 8
# Trace cutoffs of the two-dimensional divergence ladder, largest first.
DEFAULT_CUTOFFS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
# Most elements of one t-by-node array of _areas, unless a single t at every
# node is more: bounds the memory of a ladder at any number of levels.
_BLOCK_ELEMENTS = 2 ** 20


@dataclass(frozen=True)
class LogDivergenceCertificate:
    """Evidence for a divergent second variation: the cutoff-regularized
    values and their fitted slope against log(1/cutoff)."""

    epsilons: tuple
    values: tuple
    slope: float
    intercept: float


@dataclass(frozen=True)
class VariationReport:
    """Finite-difference and closed-form variation data for one field."""

    first_variation: LiminfEstimate | None
    second_variation_fd: LiminfEstimate | None
    closed_form: float
    dirichlet_term: float
    boundary_term: float
    discrepancy: float
    reference_area: float = float("nan")
    label: str = ""
    divergence: LogDivergenceCertificate | None = None

    @property
    def divergent(self) -> bool:
        return math.isinf(self.closed_form)


def area(params: ConeParams, f: TrialFunction, t: float, spec: QuadratureSpec) -> float:
    """Deformed area at time t (the support measure at t = 0).

    The flow's coefficients are a' = lam (c grad' f + d x'), a_n = lam c
    (axis partial of f) and b = t grad f, with s = sqrt(|x'|^2 + t^2 f^2),
    c = t^2 f / s and d = 1/s - 1/|x'|.  So the squared distortion factor
    (1+a_n)^2 (1+|b'|^2) + b_n^2 (1+|a'|^2) - 2 (1+a_n) b_n a'.b' needs
    only |b'|^2 = t^2 P, |a'|^2 = lam^2 (c^2 P + 2cd Q + d^2 |x'|^2) and
    a'.b' = lam t (c P + d Q), from per-node scalars built once per call
    (P = |grad' f|^2, Q = x'.grad' f).  This is the one-t case of the batch
    that serves a variation report's ladders.

    Raises if the squared distortion factor loses positivity at any node
    (the deformation left the small-|t| regime) or the area is not finite.
    """
    return _areas(params, support_sample(params, f, spec), [t])[0]


def _areas(params: ConeParams, sample, ts) -> list:
    """Deformed areas at the times ``ts``, in order, on a field's support ``sample``.

    As :func:`area`: the nonzero t are evaluated together, each t a row
    against the node columns, in blocks of at most max(N, _BLOCK_ELEMENTS)
    elements for N nodes; each row is reduced by ``compensated_sum``.  The
    checks run in the order of ``ts``: the first t whose squared distortion
    factor is <= 0 somewhere, or whose area is not finite, raises.
    """
    pts, weights, r, grads, fv = sample
    out = [compensated_sum(weights)] * len(ts)
    if weights.size == 0:
        return out
    # per-node scalars, primes dropping the axis component; r = |x'| > 0
    # since the nodes lie strictly off the axis
    xp, gp, gn = pts[:, :-1], grads[:, :-1], grads[:, -1]
    r2, inv_r, p, q = r * r, 1.0 / r, _sumsq(gp), _dot(xp, gp)
    lam = params.lam
    nonzero = [i for i, t in enumerate(ts) if t != 0.0]
    rows = max(1, _BLOCK_ELEMENTS // weights.size)
    for start in range(0, len(nonzero), rows):
        block = nonzero[start:start + rows]
        t = np.array([float(ts[i]) for i in block])[:, None]
        inv_s = 1.0 / np.sqrt(r2 + (t * fv) ** 2)
        c = (t * t) * fv * inv_s
        d = inv_s - inv_r
        an = lam * c * gn
        bn = t * gn
        sa2 = (lam * lam) * (c * c * p + 2.0 * c * d * q + d * d * r2)
        sb2 = (t * t) * p
        sab = (lam * t) * (c * p + d * q)
        j2 = _distortion_squared(an, bn, sa2, sb2, sab)
        worst = np.min(j2, axis=1)
        bad = np.flatnonzero(worst <= 0.0)
        stop = bad[0] if bad.size else len(block)
        for i, row in zip(block, weights * np.sqrt(j2[:stop])):
            out[i] = compensated_sum(row)
            if not math.isfinite(out[i]):
                raise QuadratureError(f"non-finite evaluation: area {out[i]} at t={ts[i]}")
        if bad.size:
            at, value = float(ts[block[stop]]), float(worst[stop])
            raise JacobianPositivityError(
                f"squared distortion factor reached {value} at t={at}; "
                "deformation too large for this field", t=at, worst_value=value)
    return out


def dirichlet_energy(params: ConeParams, f: TrialFunction, spec: QuadratureSpec) -> float:
    """Integral of |grad f|^2 over the slice."""
    return _energy(support_sample(params, f, spec))


def _energy(sample) -> float:
    """The Dirichlet energy of a field from its ``support_sample``."""
    _, weights, _, grads, _ = sample
    return compensated_sum(weights * _sumsq(grads))


def cutoff_ladder(params: ConeParams, f: TrialFunction, energy: float,
                  spec: QuadratureSpec, epsilons=DEFAULT_CUTOFFS) -> LogDivergenceCertificate:
    """Values (1/2) energy - (1/2) lam * trace integral cut off at each radius
    in ``epsilons`` (sorted largest first), with their least-squares line
    against log(1/cutoff).  ``energy`` is the Dirichlet energy of f."""
    eps = tuple(sorted((float(e) for e in epsilons), reverse=True))
    vals = tuple(0.5 * energy - 0.5 * params.lam
                 * boundary_integral(params, f, replace(spec, epsilon_cutoff=e))
                 for e in eps)
    slope, intercept = np.polyfit(np.log(1.0 / np.asarray(eps)), np.asarray(vals), 1)
    return LogDivergenceCertificate(epsilons=eps, values=vals,
                                    slope=float(slope), intercept=float(intercept))


def second_variation_closed_form(params: ConeParams, f: TrialFunction,
                                 spec: QuadratureSpec) -> VariationReport:
    """Closed-form second-variation fields only (no finite differences)."""
    return _closed_form(params, f, dirichlet_energy(params, f, spec), spec)


def _closed_form(params: ConeParams, f: TrialFunction, diri: float, spec: QuadratureSpec):
    """:func:`second_variation_closed_form` from f's Dirichlet energy ``diri``."""
    cert = None
    try:
        boundary_term = -0.5 * params.lam * boundary_integral(params, f, spec)
    except DivergentBoundaryIntegral:
        if params.lam == 0.0:
            boundary_term = -0.0  # -0.5 * lam * T at lam = 0, as at every n >= 3
        else:
            # divergent verdict with the fitted log slope as evidence
            cert = cutoff_ladder(params, f, diri, spec)
            boundary_term = float("-inf")
    closed = 0.5 * diri + boundary_term
    return VariationReport(first_variation=None, second_variation_fd=None,
                           closed_form=closed, dirichlet_term=0.5 * diri,
                           boundary_term=boundary_term, label=f.label, divergence=cert,
                           discrepancy=float("nan") if cert is None else float("inf"))


def default_t0(f: TrialFunction) -> float:
    """Deformation scale keeping the flow in the positivity regime."""
    return 0.1 * f.geometry.radius / (1.0 + f.lipschitz_bound)


def variation_report(params: ConeParams, f: TrialFunction, t0: float | None = None,
                     levels: int = DEFAULT_LEVELS,
                     spec: QuadratureSpec | None = None) -> VariationReport:
    """Full report: dyadic first/second variation estimates plus closed form.

    The second variation is estimated as an order-1 quotient in the squared
    time s = t^2 (the area is evaluated at sqrt(s); no separate quadrature
    path exists).  A non-converged estimate marks the report inconclusive,
    not erroneous.  The areas of both ladders are computed before either is
    read, in one batched pass over the distinct t (the even levels of the
    second ladder repeat t values of the first, exactly) on the one support
    sample of f; the ladders' checks, underflow included, run before it.
    """
    spec = spec if spec is not None else QuadratureSpec()
    t0 = float(t0) if t0 is not None else default_t0(f)
    # both ladders' checks run before any area is evaluated
    steps, squares = _dyadic_ladder(t0, levels), _dyadic_ladder(t0, levels, squared=True)
    sample = support_sample(params, f, spec)
    times = dict.fromkeys([0.0, *steps.tolist(), *map(math.sqrt, squares.tolist())])
    area_at = dict(zip(times, _areas(params, sample, list(times))))
    first = liminf_quotient(steps, area_at[0.0], [area_at[t] for t in steps])
    second = liminf_quotient(squares, area_at[0.0], [area_at[math.sqrt(s)] for s in squares])
    closed = _closed_form(params, f, _energy(sample), spec)
    discrepancy = (abs(second.extrapolated - closed.closed_form)
                   if closed.divergence is None else closed.discrepancy)
    return replace(closed, first_variation=first, second_variation_fd=second,
                   discrepancy=discrepancy, reference_area=area_at[0.0])
