"""Stability analysis: trace-inequality constant, threshold aperture
parameter, numerical inequality margins, and verdicts.

For slice dimension n >= 3 the weighted trace integral is controlled by
Dirichlet energy with the sharp constant K_n = 2*Gamma(n/4)^2 /
Gamma((n-2)/4)^2 (after shearing the slice onto a half-space, which costs
a factor (1+lam)^2).  Stability of the slice under all compact
deformations is therefore guaranteed whenever lam*(1+lam)^2 <= K_n, i.e.
for lam up to the unique positive root lam* of lam*(1+lam)^2 = K_n.

n = 2 is different: the trace integral diverges for any deformation field
with a nonzero vertex value, so the slice is unconditionally unstable and
the module exposes only the divergence-witness path there (the constant
would degenerate through the Gamma pole and is deliberately not computed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import ConeParams, _sumsq
from .errors import ConfigError
from .quadrature import QuadratureSpec, _battery_pass, compensated_sums, energies_and_traces
from .trial import TrialFunction, make_boundary_bump
from .variation import cutoff_ladder, dirichlet_energy

__all__ = [
    "ThresholdResult",
    "StabilityVerdict",
    "kato_constant",
    "lambda_star",
    "shear_transform_check",
    "instability_witness_n2",
    "stability_sweep",
]

RESIDUAL_RTOL = 1e-12

PROVEN_STABLE = "proven_stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ThresholdResult:
    """Trace constant, threshold aperture parameter, and root residual."""

    n: int
    k_n: float
    lambda_star: float
    residual: float


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability check.

    ``proven_stable`` is only issued in the regime where the trace
    inequality settles the question (n >= 3, lam <= lam*); ``unstable``
    always carries a witness whose margin is negative (or divergent);
    anything else is ``inconclusive`` -- in particular the regime
    lam > lam*, where nothing is known either way.
    """

    regime: str
    witness: TrialFunction | None = None
    margin: float | None = None
    margins: tuple = ()
    detail: str = ""


def kato_constant(n: int) -> float:
    """Sharp trace-inequality constant 2*Gamma(n/4)^2 / Gamma((n-2)/4)^2.

    Defined for n >= 3.  At n = 2 the second Gamma factor has a pole, the
    constant degenerates to 0, and the slice is unconditionally unstable;
    that case is rejected here and handled by the witness path instead.
    """
    if not isinstance(n, int) or n < 3:
        raise ConfigError(
            f"kato_constant requires integer n >= 3, got {n!r} (the n = 2 "
            "slice is unconditionally unstable; use the witness API)")
    return 2.0 * (math.gamma(n / 4.0) / math.gamma((n - 2) / 4.0)) ** 2


def lambda_star(n: int) -> ThresholdResult:
    """Unique positive root of lam*(1+lam)^2 = K_n.

    The cubic is strictly increasing, so bracketed bisection with a Newton
    polish converges unconditionally; the residual is driven below
    1e-12 * K_n.
    """
    k = kato_constant(n)

    def cubic(lam):
        return lam * (1.0 + lam) ** 2 - k

    lo, hi = 0.0, max(1.0, k)  # cubic(hi) >= 0 since K*(1+K)^2 >= K
    for _ in range(200):  # cubic and max inlined: some 50 steps per call
        mid = 0.5 * (lo + hi)
        if mid * (1.0 + mid) ** 2 - k < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * (hi if hi > 1.0 else 1.0):
            break
    root = 0.5 * (lo + hi)
    # Newton polish for the last digits
    for _ in range(4):
        d = (1.0 + root) * (1.0 + 3.0 * root)  # derivative of the cubic
        step = cubic(root) / d
        root -= step
        if abs(step) < 1e-17 * max(1.0, root):
            break
    res = cubic(root)
    if abs(res) > RESIDUAL_RTOL * k:
        raise ArithmeticError(f"threshold root residual {res} exceeds tolerance")
    return ThresholdResult(n=n, k_n=k, lambda_star=root, residual=res)


def shear_transform_check(params: ConeParams, f: TrialFunction,
                          spec: QuadratureSpec) -> tuple[float, float, float]:
    """(E_f, E_g, trace) for the flattening reduction, n >= 3.

    E_f is the Dirichlet energy of f on the slice; E_g that of the composed
    field g = f(shear(.)) on the flat half-space; ``trace`` the weighted
    trace integral they share.  Contract: E_g <= (1+lam)^2 * E_f (the shear
    stretches gradients by at most 1+lam) and E_g >= K_n * trace (the
    half-space trace inequality, taken as given and spot-checked here).
    """
    if params.n < 3:
        raise ValueError("shear_transform_check requires n >= 3")
    return _shear_checks(params, [f], spec)[0]


def _shear_checks(params: ConeParams, fields, spec: QuadratureSpec) -> list:
    """:func:`shear_transform_check` of each of ``fields`` (n >= 3), one
    :func:`support_samples` call per block of the battery pass
    (:func:`~conestab.quadrature._battery_pass`): per block, E_f with the
    traces one reduction (:func:`energies_and_traces`), E_g another."""
    def reduce(block, samples):
        # g(x) = f(x', x_n + lam*|x'|).  The shear has unit Jacobian, so E_g is the
        # slice integral of |grad g|^2 at the sheared points, on f's own nodes; the
        # axis partial of f leaks into the in-plane gradient along the radial direction.
        sheared = [w * (_sumsq(gv[:, :-1] + params.lam * gv[:, -1:] * (pts[:, :-1] / r[:, None]))
                        + gv[:, -1] ** 2) for pts, w, r, gv, _ in samples]
        return [(energy, energy_g, trace) for (energy, trace), energy_g in zip(
            energies_and_traces(params, fields[block], samples, spec), compensated_sums(sheared))]

    return _battery_pass(params, fields, spec, reduce)


def instability_witness_n2(params: ConeParams, epsilons,
                           spec: QuadratureSpec | None = None,
                           f: TrialFunction | None = None) -> StabilityVerdict:
    """Divergence witness for the two-dimensional slice.

    Evaluates the cutoff-regularized second variation of a vertex-value-1
    field on a decreasing cutoff ladder.  Unstable verdict requires the
    values to decrease strictly and their slope against log(1/cutoff) to
    match -lam within 10%; a failed fit signals quadrature misconfiguration
    and yields ``inconclusive``, as do lam = 0 and a zero vertex value.
    """
    if params.n != 2:
        raise ValueError("the divergence witness applies to n = 2 only")
    spec = spec if spec is not None else QuadratureSpec()
    f = f if f is not None else make_boundary_bump(1.0, 2, label="witness")
    vertex = f.value_at_vertex
    if vertex == 0.0 or params.lam == 0.0:
        why = "lam = 0: no trace term" if vertex else "vertex value is zero: trace integral finite"
        return StabilityVerdict(regime=INCONCLUSIVE,
                                detail=f"{why}, divergence hypothesis not applicable")
    ladder = cutoff_ladder(params, f, dirichlet_energy(params, f, spec), spec, epsilons)
    vals, slope = ladder.values, ladder.slope
    expected = -params.lam * vertex ** 2
    decreasing = bool(np.all(np.diff(vals) < 0.0))
    slope_ok = abs(slope - expected) <= 0.1 * abs(expected)
    if decreasing and slope_ok:
        return StabilityVerdict(regime=UNSTABLE, witness=f, margin=vals[-1],
                                margins=vals,
                                detail=f"regularized values drift with slope {slope:.6g} "
                                       f"per log(1/eps), expected {expected:.6g}")
    return StabilityVerdict(regime=INCONCLUSIVE, margins=vals,
                            detail=f"fit failed: slope {slope:.6g} vs expected "
                                   f"{expected:.6g}, decreasing={decreasing}")


def stability_sweep(params: ConeParams, battery, spec: QuadratureSpec) -> StabilityVerdict:
    """Margins of the stability inequality over a battery of fields, n >= 3.

    For lam <= lam*(n) the verdict is ``proven_stable`` (the margins are
    reported; they must all be nonnegative up to quadrature slack).  Beyond
    the threshold nothing is proven: the verdict is ``unstable`` only with
    a robustly negative margin, else ``inconclusive``.
    """
    if params.n < 3:
        raise ConfigError("stability_sweep requires n >= 3; use the n = 2 witness API")
    battery = list(battery)
    if not battery:
        return StabilityVerdict(regime=INCONCLUSIVE, detail="empty battery")
    margins, witness, witness_margin = [], None, math.inf
    for f, (energy, trace) in zip(battery, _battery_pass(params, battery, spec)):
        margin = energy - params.lam * trace
        margins.append(margin)
        # robustness floor: ten times a crude absolute quadrature error proxy
        floor = 10.0 * 1e-6 * (1.0 + abs(energy) + params.lam * abs(trace))
        if margin < -floor and margin < witness_margin:
            witness, witness_margin = f, margin
    thr = lambda_star(params.n)
    if params.lam <= thr.lambda_star:
        return StabilityVerdict(regime=PROVEN_STABLE, margin=float(min(margins)),
                                margins=tuple(margins),
                                detail=f"lam <= lam*({params.n}) = {thr.lambda_star:.6g}")
    if witness is not None:
        return StabilityVerdict(regime=UNSTABLE, witness=witness,
                                margin=float(witness_margin), margins=tuple(margins),
                                detail="negative margin beyond the proven regime")
    return StabilityVerdict(regime=INCONCLUSIVE, margin=float(min(margins)),
                            margins=tuple(margins),
                            detail="beyond the proven regime; no robustly negative margin")
