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
and the CLI call) read one support sample per field and make one pass each
for the areas at every distinct time of every field's two ladders
(:func:`_battery_areas`), the quotients, and the energies with the traces,
each pass with one segmented reduction; ``area`` is the one-field, one-t case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate, groupby
from operator import itemgetter

import numpy as np

from ._inputs import check
from .domain import ConeParams, _dot, _sumsq
from .errors import JacobianPositivityError, QuadratureError
from .jacobian import _distortion_squared
from .quadrature import (LiminfEstimate, QuadratureSpec, _dyadic_ladder, _energy_terms,
                         _plane_traces, compensated_sums, energies_and_traces,
                         liminf_quotients, support_sample, support_samples)
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
# Most elements of one block of _battery_areas rows, unless a single row is
# more: bounds the memory of a battery's ladders at any number of levels.
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
    that serves a battery's ladders, :func:`_battery_areas`.

    Raises if the squared distortion factor loses positivity at any node
    (the deformation left the small-|t| regime) or the area is not finite.
    """
    return _battery_areas(params, [support_sample(params, f, spec)], [[t]])[0][0]


def _battery_areas(params: ConeParams, samples, times) -> list:
    """The deformed areas of each field at its ``times``, in order, on its
    support sample in ``samples``, as :func:`area`, all fields in one pass.

    The per-node scalars of all fields are concatenated once.  The rows
    (field, nonzero t), in field and then ladder order, go in blocks of at
    most max(N, _BLOCK_ELEMENTS) elements, N a row's nodes; in a block each
    field's times form rows against its own nodes, and one ``compensated_sums``
    reduces all its rows (the first also each field's area at t = 0).  The
    first row whose squared distortion factor is <= 0 somewhere, or whose
    area is not finite, raises."""
    pts, weights, r, grads, fv = (np.concatenate(a) for a in zip(*samples))
    # per-node scalars, primes dropping the axis component; r = |x'| > 0
    # since the nodes lie strictly off the axis
    xp, gp = pts[:, :-1], grads[:, :-1]
    scalars = np.stack([r * r, 1.0 / r, _sumsq(gp), _dot(xp, gp), fv, grads[:, -1], weights])
    sizes = [s[1].size for s in samples]
    ends = list(accumulate(sizes))
    rows = [(i, k) for i, ts in enumerate(times) if sizes[i] for k, t in enumerate(ts) if t != 0.0]
    bounds, elements = [0], 0
    for j, (i, _) in enumerate(rows):
        if j > bounds[-1] and elements + sizes[i] > _BLOCK_ELEMENTS:
            bounds.append(j)
            elements = 0
        elements += sizes[i]
    heads, lam = [weights[e - k:e] for e, k in zip(ends, sizes)], params.lam
    for start, stop in zip(bounds, bounds[1:] + [len(rows)]):
        done, areas, failure = [], [], None
        for i, run in groupby(rows[start:stop], key=itemgetter(0)):
            ks = [k for _, k in run]
            r2, inv_r, p, q, f, gn, w = scalars[:, ends[i] - sizes[i]:ends[i]]
            t = np.array([float(times[i][k]) for k in ks])[:, None]
            inv_s = 1.0 / np.sqrt(r2 + (t * f) ** 2)
            c = (t * t) * f * inv_s
            d = inv_s - inv_r
            an = lam * c * gn
            bn = t * gn
            sa2 = (lam * lam) * (c * c * p + 2.0 * c * d * q + d * d * r2)
            sb2 = (t * t) * p
            sab = (lam * t) * (c * p + d * q)
            j2 = _distortion_squared(an, bn, sa2, sb2, sab)
            worst = np.min(j2, axis=1)
            bad = np.flatnonzero(worst <= 0.0)
            good = bad[0] if bad.size else len(ks)
            done += [(i, k) for k in ks[:good]]
            areas.extend(w * np.sqrt(j2[:good]))
            if bad.size:
                failure = float(times[i][ks[good]]), float(worst[good])
                break
        sums = compensated_sums(heads + areas)
        if heads:  # the first block: every area starts as the field's area at t = 0
            out = [[value] * len(ts) for value, ts in zip(sums, times)]
            heads, sums = [], sums[len(samples):]
        for (i, k), value in zip(done, sums):
            out[i][k] = value
            if not math.isfinite(value):
                raise QuadratureError(f"non-finite evaluation: area {value} at t={times[i][k]}")
        if failure:
            at, value = failure
            raise JacobianPositivityError(
                f"squared distortion factor reached {value} at t={at}; "
                "deformation too large for this field", t=at, worst_value=value)
    return out


def dirichlet_energy(params: ConeParams, f: TrialFunction, spec: QuadratureSpec) -> float:
    """Integral of |grad f|^2 over the slice, as ``energies_and_traces`` sums it."""
    return compensated_sums(_energy_terms([support_sample(params, f, spec)]))[0]


def cutoff_ladder(params: ConeParams, f: TrialFunction, energy: float,
                  spec: QuadratureSpec, epsilons=DEFAULT_CUTOFFS) -> LogDivergenceCertificate:
    """Values (1/2) energy - (1/2) lam * trace integral cut off at each radius
    in ``epsilons`` (checked as the input ``epsilons``, largest first), with
    their least-squares line against log(1/cutoff); ``energy`` is f's energy.
    n = 2 only; one trace pass gives every cut trace."""
    if params.n != 2:
        raise ValueError(f"the cutoff ladder applies to n = 2 only, got n = {params.n}")
    eps = check("epsilons", epsilons)
    vals = tuple(0.5 * energy - 0.5 * params.lam * trace
                 for trace in _plane_traces(params, [f] * len(eps), spec, eps))
    slope, intercept = np.polyfit(np.log(1.0 / np.asarray(eps)), np.asarray(vals), 1)
    return LogDivergenceCertificate(epsilons=eps, values=vals,
                                    slope=float(slope), intercept=float(intercept))


def second_variation_closed_form(params: ConeParams, f: TrialFunction,
                                 spec: QuadratureSpec) -> VariationReport:
    """Closed-form second-variation fields only, E and T from one support sample."""
    (energy, trace), = energies_and_traces(params, [f], support_samples(params, [f], spec), spec)
    return _closed_form(params, f, energy, trace, spec, DEFAULT_CUTOFFS)


def _closed_form(params: ConeParams, f: TrialFunction, diri: float, trace, spec, epsilons):
    """:func:`second_variation_closed_form` from f's Dirichlet energy ``diri``
    and its trace integral ``trace``, None where that diverges, certified on
    the cutoffs ``epsilons``."""
    cert = None
    if trace is not None:
        boundary_term = -0.5 * params.lam * trace
    elif params.lam == 0.0:
        boundary_term = -0.0  # -0.5 * lam * T at lam = 0, as at every n >= 3
    else:
        # divergent verdict with the fitted log slope as evidence
        cert = cutoff_ladder(params, f, diri, spec, epsilons)
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
    return _variation_reports(params, [f], t0, levels, spec)[0]


def _variation_reports(params: ConeParams, fields, t0, levels: int, spec,
                       epsilons=DEFAULT_CUTOFFS) -> list:
    """:func:`variation_report` of each of ``fields``: all ladder checks, then one
    :func:`support_samples` call and one pass each for the areas, the quotients, and
    the energies with the traces, a divergent trace certified on ``epsilons``."""
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
    samples = support_samples(params, fields, spec)
    times = [list(dict.fromkeys([0.0, *steps.tolist(), *map(math.sqrt, squares.tolist())]))
             for steps, squares in pairs]
    areas = [dict(zip(ts, a)) for ts, a in zip(times, _battery_areas(params, samples, times))]
    estimates = liminf_quotients(
        [ladder for pair in pairs for ladder in pair], [a[0.0] for a in areas for _ in (0, 1)],
        [values for a, (steps, squares) in zip(areas, pairs)
         for values in ([a[t] for t in steps], [a[math.sqrt(s)] for s in squares])])
    reports = []
    for f, (energy, trace), a, first, second in zip(
            fields, energies_and_traces(params, fields, samples, spec), areas,
            estimates[::2], estimates[1::2]):
        closed = _closed_form(params, f, energy, trace, spec, epsilons)
        discrepancy = (abs(second.extrapolated - closed.closed_form)
                       if closed.divergence is None else closed.discrepancy)
        reports.append(replace(closed, first_variation=first, second_variation_fd=second,
                               discrepancy=discrepancy, reference_area=a[0.0]))
    return reports
