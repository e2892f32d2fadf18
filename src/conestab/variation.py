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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .domain import ConeParams
from .errors import DivergentBoundaryIntegral, JacobianPositivityError
from .flow import coefficients_from_values
from .jacobian import jacobian_closed_form
from .quadrature import (LiminfEstimate, QuadratureSpec, boundary_integral,
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

    Aborts with a diagnostic if the squared distortion factor loses
    positivity at any node -- the deformation left the small-|t| regime.
    """
    pts, weights, _, grads, values = support_sample(params, f, spec)
    if t == 0.0 or weights.size == 0:
        return compensated_sum(weights)
    j2 = jacobian_closed_form(coefficients_from_values(params, pts, values, grads, float(t)))
    worst = float(np.min(j2))
    if worst <= 0.0:
        raise JacobianPositivityError(
            f"squared distortion factor reached {worst} at t={t}; "
            "deformation too large for this field", t=t, worst_value=worst)
    return compensated_sum(weights * np.sqrt(j2))


def dirichlet_energy(params: ConeParams, f: TrialFunction, spec: QuadratureSpec) -> float:
    """Integral of |grad f|^2 over the slice."""
    _, weights, _, grads, _ = support_sample(params, f, spec)
    return compensated_sum(weights * np.sum(grads ** 2, axis=-1))


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
    diri = dirichlet_energy(params, f, spec)
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
    return 0.1 * f.inradius / (1.0 + f.lipschitz_bound)


def variation_report(params: ConeParams, f: TrialFunction, t0: float | None = None,
                     levels: int = DEFAULT_LEVELS, spec: QuadratureSpec | None = None,
                     rtol: float = 1e-3) -> VariationReport:
    """Full report: dyadic first/second variation estimates plus closed form.

    The second variation is estimated as an order-1 quotient in the squared
    time s = t^2 (the area is evaluated at sqrt(s); no separate quadrature
    path exists).  A non-converged estimate marks the report inconclusive,
    not erroneous.  The area is computed once per distinct t: the even
    levels of the second ladder repeat t values of the first, exactly.
    """
    spec = spec if spec is not None else QuadratureSpec()
    t0 = float(t0) if t0 is not None else default_t0(f)
    area_at = cache(lambda t: area(params, f, t, spec))
    first = liminf_quotient(area_at, t0, levels, rtol)
    second = liminf_quotient(lambda s: area_at(math.sqrt(s)), t0 * t0, levels, rtol)
    closed = second_variation_closed_form(params, f, spec)
    discrepancy = (abs(second.extrapolated - closed.closed_form)
                   if closed.divergence is None else closed.discrepancy)
    return replace(closed, first_variation=first, second_variation_fd=second,
                   discrepancy=discrepancy, reference_area=area_at(0.0))
