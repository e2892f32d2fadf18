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

The reports of a battery (``_variation_reports``, which ``variation_report``
and the CLI call) read one support sample per field, block by block of the
one block planner, ``quadrature._battery_pass``.  Per block, one segmented
reduction per chunk of one field's rows gives the areas at every distinct
time of its two ladders (:func:`_battery_areas`), and one the energies with
the traces; then one pass makes the quotients and, at n = 2, one the
cutoff ladders of every divergent trace (:func:`_cutoff_ladders`); ``area``
is the one-field, one-t case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import quadrature
from ._inputs import check
from .domain import ConeParams, _dot, _sumsq
from .errors import JacobianPositivityError, QuadratureError
from .jacobian import _distortion_squared
from .quadrature import (LiminfEstimate, QuadratureSpec, _battery_pass, _dyadic_ladder,
                         _energy_terms, _plane_traces, compensated_sums, energies_and_traces,
                         liminf_quotients, support_sample)
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

    The flow's coefficients are a' = lam (c grad' f + d x'), a_n = lam c
    (axis partial of f) and b = t grad f, with s = sqrt(|x'|^2 + t^2 f^2),
    c = t^2 f / s and d = 1/s - 1/|x'|.  So the squared distortion factor
    (1+a_n)^2 (1+|b'|^2) + b_n^2 (1+|a'|^2) - 2 (1+a_n) b_n a'.b' needs
    only |b'|^2 = t^2 P, |a'|^2 = lam^2 (c^2 P + 2cd Q + d^2 |x'|^2) and
    a'.b' = lam t (c P + d Q), from per-node scalars built once per call
    (P = |grad' f|^2, Q = x'.grad' f).  This is the one-t case of the batch
    that serves a battery's ladders, :func:`_battery_areas`.

    Raises if the squared distortion factor loses positivity at any node
    (the deformation left the small-|t| regime) or the area is not finite.
    """
    return _battery_areas(params, [support_sample(params, f, spec)], [[t]])[0][0]


def _battery_areas(params: ConeParams, samples, times) -> list:
    """The deformed areas of each field at its ``times``, in order, on its
    support sample in ``samples``, as :func:`area`, field by field.

    A field's rows are its area at t = 0, the sum of its weights, then one
    per nonzero t, in ladder order.  They go in chunks of at most
    max(1, quadrature._BLOCK_ELEMENTS // N) rows, N the field's nodes, which
    bounds the memory of a battery's ladders at any number of levels, and
    one ``compensated_sums`` reduces each chunk.  The first row whose
    squared distortion factor is <= 0 somewhere, or whose area is not
    finite, raises."""
    out, lam = [], params.lam
    for (pts, weights, r, grads, fv), ts in zip(samples, times):
        # per-node scalars, primes dropping the axis component; r = |x'| > 0
        # since the nodes lie strictly off the axis
        r2, inv_r, gn = r * r, 1.0 / r, grads[:, -1]
        p, q = _sumsq(grads[:, :-1]), _dot(pts[:, :-1], grads[:, :-1])
        rows = [0.0, *(t for t in ts if t != 0.0)]
        per, sums = max(1, quadrature._BLOCK_ELEMENTS // max(1, weights.size)), []
        for start in range(0, len(rows), per):
            t = np.array(rows[max(start, 1):start + per])[:, None]  # row 0 is the weights
            inv_s = 1.0 / np.sqrt(r2 + (t * fv) ** 2)
            c = (t * t) * fv * inv_s
            d = inv_s - inv_r
            sa2 = (lam * lam) * (c * c * p + 2.0 * c * d * q + d * d * r2)
            j2 = _distortion_squared(lam * c * gn, t * gn, sa2, (t * t) * p,
                                     (lam * t) * (c * p + d * q))
            worst = j2.min(axis=1, initial=math.inf)
            bad = np.flatnonzero(worst <= 0.0)
            good = bad[0] if bad.size else len(t)
            sums += compensated_sums([weights] * (start == 0) + list(weights * np.sqrt(j2[:good])))
            for at, value in zip(rows[start:], sums[start:]):
                if not math.isfinite(value):
                    raise QuadratureError(f"non-finite evaluation: area {value} at t={at}")
            if bad.size:
                at, value = float(t[good, 0]), float(worst[good])
                raise JacobianPositivityError(
                    f"squared distortion factor reached {value} at t={at}; "
                    "deformation too large for this field", t=at, worst_value=value)
        areas = iter(sums[1:])
        out.append([sums[0] if t == 0.0 else next(areas) for t in ts])
    return out


def dirichlet_energy(params: ConeParams, f: TrialFunction, spec: QuadratureSpec) -> float:
    """Integral of |grad f|^2 over the slice, as ``energies_and_traces`` sums it."""
    return compensated_sums(_energy_terms([support_sample(params, f, spec)]))[0]


def cutoff_ladder(params: ConeParams, f: TrialFunction, energy: float,
                  spec: QuadratureSpec, epsilons=DEFAULT_CUTOFFS) -> LogDivergenceCertificate:
    """Values (1/2) energy - (1/2) lam * trace integral cut off at each radius
    in ``epsilons`` (checked as the input ``epsilons``, largest first), with
    their least-squares line against log(1/cutoff); ``energy`` is f's energy.
    n = 2 only; the one-field case of :func:`_cutoff_ladders`."""
    return _cutoff_ladders(params, [f], [energy], spec, epsilons)[0]


def _cutoff_ladders(params: ConeParams, fields, energies, spec: QuadratureSpec,
                    epsilons) -> list:
    """The :func:`cutoff_ladder` of each of ``fields``, its energy in
    ``energies``: every cut trace of every field from one
    :func:`_plane_traces` pass, then one least-squares fit per field."""
    if params.n != 2:
        raise ValueError(f"the cutoff ladder applies to n = 2 only, got n = {params.n}")
    eps = check("epsilons", epsilons)
    traces = _plane_traces(params, [f for f in fields for _ in eps], spec, eps * len(fields))
    logs = np.log(1.0 / np.asarray(eps))
    out = []
    for k, energy in enumerate(energies):
        vals = tuple(0.5 * energy - 0.5 * params.lam * trace
                     for trace in traces[k * len(eps):(k + 1) * len(eps)])
        slope, intercept = np.polyfit(logs, np.asarray(vals), 1)
        out.append(LogDivergenceCertificate(epsilons=eps, values=vals,
                                            slope=float(slope), intercept=float(intercept)))
    return out


def second_variation_closed_form(params: ConeParams, f: TrialFunction,
                                 spec: QuadratureSpec) -> VariationReport:
    """Closed-form second-variation fields only, E and T from one support
    sample (:func:`~conestab.quadrature._battery_pass`)."""
    return _closed_forms(params, [f], _battery_pass(params, [f], spec), spec, DEFAULT_CUTOFFS)[0]


def _closed_forms(params: ConeParams, fields, sums, spec, epsilons) -> list:
    """:func:`second_variation_closed_form` of each of ``fields`` from its
    Dirichlet energy and trace integral in ``sums``, the trace None where it
    diverges; at lam > 0 the divergent ones are certified together on the
    cutoffs ``epsilons`` (:func:`_cutoff_ladders`)."""
    lam = params.lam
    divergent = [i for i, (_, trace) in enumerate(sums) if trace is None and lam != 0.0]
    certs = dict(zip(divergent, _cutoff_ladders(
        params, [fields[i] for i in divergent], [sums[i][0] for i in divergent], spec,
        epsilons))) if divergent else {}
    reports = []
    for i, (f, (diri, trace)) in enumerate(zip(fields, sums)):
        cert = certs.get(i)
        if trace is not None:
            boundary_term = -0.5 * lam * trace
        elif cert is None:
            boundary_term = -0.0  # -0.5 * lam * T at lam = 0, as at every n >= 3
        else:
            boundary_term = float("-inf")  # divergent, the fitted log slope as evidence
        reports.append(VariationReport(
            first_variation=None, second_variation_fd=None, closed_form=0.5 * diri + boundary_term,
            dirichlet_term=0.5 * diri, boundary_term=boundary_term, label=f.label,
            divergence=cert, discrepancy=float("nan") if cert is None else float("inf")))
    return reports


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
    return _variation_reports(params, [f], t0, levels, spec)[0]


def _variation_reports(params: ConeParams, fields, t0, levels: int, spec,
                       epsilons=DEFAULT_CUTOFFS) -> list:
    """:func:`variation_report` of each of ``fields``: all ladder checks, then
    one :func:`support_samples` call per block of the battery pass
    (:func:`~conestab.quadrature._battery_pass`), which keeps each block's
    areas, one reduction per chunk of one field's rows, and its energies
    with the traces, one reduction; then one pass for the quotients, and one
    for the certificates of the divergent traces on ``epsilons``
    (:func:`_closed_forms`)."""
    spec = spec if spec is not None else QuadratureSpec()
    levels = check("levels", levels)
    pairs = []  # the t-ladder and the s = t^2 ladder of each field
    for f in fields:
        start = check("t0", t0) if t0 is not None else default_t0(f)
        if t0 is None and not start > 0.0:  # 0.1 * radius / (1 + Lipschitz bound) underflowed
            raise QuadratureError(f"the default t0 of field {f.label!r}, 0.1 * radius / "
                                  f"(1 + Lipschitz bound), underflows to {start}; set t0")
        if start > 1e6 * default_t0(f):  # far past it, the flow's distortion overflows
            raise QuadratureError(f"t0 = {start} is over 1e6 times the default t0 of {f.label!r}")
        pairs.append((_dyadic_ladder(start, levels), _dyadic_ladder(start, levels, squared=True)))
    times = [list(dict.fromkeys([0.0, *steps.tolist(), *map(math.sqrt, squares.tolist())]))
             for steps, squares in pairs]

    def reduce(block, samples):
        return list(zip(_battery_areas(params, samples, times[block]),
                        energies_and_traces(params, fields[block], samples, spec)))

    passes = _battery_pass(params, fields, spec, reduce)
    areas = [dict(zip(ts, a)) for ts, (a, _) in zip(times, passes)]
    estimates = liminf_quotients(
        [ladder for pair in pairs for ladder in pair], [a[0.0] for a in areas for _ in (0, 1)],
        [values for a, (steps, squares) in zip(areas, pairs)
         for values in ([a[t] for t in steps], [a[math.sqrt(s)] for s in squares])])
    reports = []
    for closed, a, first, second in zip(
            _closed_forms(params, fields, [sums for _, sums in passes], spec, epsilons), areas,
            estimates[::2], estimates[1::2]):
        discrepancy = (abs(second.extrapolated - closed.closed_form)
                       if closed.divergence is None else closed.discrepancy)
        reports.append(replace(closed, first_variation=first, second_variation_fd=second,
                               discrepancy=discrepancy, reference_area=a[0.0]))
    return reports
