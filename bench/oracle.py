"""Exact values for the benchmark's checks, computed without conestab.

Only ``math`` and numpy's Gauss-Legendre nodes are used.  Fields are given
as the same JSON-style descriptors the benchmark hands to the program, and
interpreted here from their mathematical definition:

* radial bump:  f(x) = (1 - |x - c| / rho)_+^p, centre c, radius rho;
* tensor bump:  f(x) = prod_i (1 - ((x_i - c_i) / w)^2)_+^p on a box;
* vertex bump:  the radial bump centred at the vertex;
* shifted bump: the radial bump moved up the axis by ``shift``.

The slice is {x_n > lam |x'|}.  E is the Dirichlet energy of f on the slice
and T its weighted trace integral, the integral of f(x', lam|x'|)^2 / |x'|
over x' in R^(n-1).  A value the oracle has no closed form for is None.
"""

from __future__ import annotations

import math

import numpy as np

_GL_NODES = 96


def sphere_measure(k: int) -> float:
    """Measure of the unit sphere S^k in R^(k+1)."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _sin_power_integral(k: int, phi: float) -> float:
    """Integral of sin^k over (0, phi), by the reduction formula."""
    if k == 0:
        return phi
    if k == 1:
        return 1.0 - math.cos(phi)
    return (-math.sin(phi) ** (k - 1) * math.cos(phi) / k
            + (k - 1) / k * _sin_power_integral(k - 2, phi))


def cap_measure(n: int, lam: float) -> float:
    """Measure of {theta in S^(n-1) : theta_n > lam |theta'|}."""
    half_angle = math.atan2(1.0, lam)
    if n == 2:
        return 2.0 * half_angle
    return sphere_measure(n - 2) * _sin_power_integral(n - 2, half_angle)


def _gauss(a: float, b: float, m: int = _GL_NODES):
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


def _radial_energy_partial(n: int, rho: float, p: int, s: float) -> float:
    """Integral of |grad f|^2 s^(n-1) over 0 < s < min(s, rho) for one
    direction of a radial bump: p^2 rho^(n-2) B_x(n, 2p-1), x = s/rho."""
    x = min(s / rho, 1.0)
    m = 2 * p - 2
    acc = sum(math.comb(m, k) * (-1) ** k * x ** (n + k) / (n + k) for k in range(m + 1))
    return p * p * rho ** (n - 2) * acc


def _axis_bump(n: int, lam: float, h: float, rho: float, p: int):
    """(E, T) of a radial bump centred on the axis at height h > 0."""
    gap = h / math.sqrt(1.0 + lam * lam)  # distance from the centre to the boundary
    full_energy = p * p * rho ** (n - 2) * sphere_measure(n - 1) * beta(n, 2 * p - 1)
    if rho <= gap:
        return full_energy, 0.0
    # Rays from the centre at polar angle phi leave the slice after
    # h / (lam sin(phi) - cos(phi)); that length equals rho at two angles.
    alpha = math.atan2(1.0, lam)
    b = math.asin(gap / rho)
    cuts = sorted({0.0, math.pi} | {c for c in (alpha + b, alpha + math.pi - b)
                                    if 0.0 < c < math.pi})
    energy = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        phi, wphi = _gauss(lo, hi)
        denom = lam * np.sin(phi) - np.cos(phi)
        reach = np.where(denom > 0.0, h / np.where(denom > 0.0, denom, 1.0), np.inf)
        inner = np.array([_radial_energy_partial(n, rho, p, float(s)) for s in reach])
        energy += float(np.sum(wphi * np.sin(phi) ** (n - 2) * inner))
    energy *= sphere_measure(n - 2)
    # Trace: the boundary ray (r e, lam r) lies within rho of the centre
    # between the roots of (1+lam^2) r^2 - 2 lam h r + h^2 - rho^2.
    q = 1.0 + lam * lam
    disc = math.sqrt(lam * lam * h * h - q * (h * h - rho * rho))
    r_lo = max(0.0, (lam * h - disc) / q)
    r_hi = (lam * h + disc) / q
    r, wr = _gauss(r_lo, r_hi, 2 * _GL_NODES)
    dist = np.sqrt(r * r + (lam * r - h) ** 2)
    vals = np.clip(1.0 - dist / rho, 0.0, None) ** (2 * p) * r ** (n - 3)
    trace = sphere_measure(n - 2) * float(np.sum(wr * vals))
    return energy, trace


def _vertex_bump(n: int, lam: float, rho: float, p: int):
    energy = p * p * rho ** (n - 2) * cap_measure(n, lam) * beta(n, 2 * p - 1)
    if n == 2:
        return energy, math.inf
    trace = (sphere_measure(n - 2) * (rho / math.sqrt(1.0 + lam * lam)) ** (n - 2)
             * beta(n - 2, 2 * p + 1))
    return energy, trace


def vertex_cutoff_trace(lam: float, rho: float, p: int, epsilon: float) -> float:
    """T of a two-dimensional vertex bump with the trace cut off at |x'| = epsilon."""
    a = math.sqrt(1.0 + lam * lam) / rho
    if epsilon >= 1.0 / a:
        return 0.0
    # integral of (1 - u)^(2p) / u from a*epsilon to 1, expanded binomially
    m = 2 * p
    acc = -math.log(a * epsilon)
    for k in range(1, m + 1):
        acc += math.comb(m, k) * (-1) ** k * (1.0 - (a * epsilon) ** k) / k
    return 2.0 * acc  # S^0 has two points


def _center(desc: dict, n: int) -> list[float]:
    center = desc.get("center", 0.0)
    if isinstance(center, str):  # "offaxis:<height>:<x1-offset>"
        _, h, a = center.split(":")
        c = [0.0] * n
        c[0], c[-1] = float(a), float(h)
    elif isinstance(center, (int, float)):
        c = [0.0] * n
        c[-1] = float(center)
    else:
        c = [float(v) for v in center]
    if desc["kind"] == "shifted_bump":
        c[-1] += float(desc.get("shift", 0.0))
    return c


def energy_and_trace(desc: dict, n: int, lam: float):
    """Exact (E, T) of a descriptor's field on the slice, or None."""
    kind = desc["kind"]
    p = int(desc.get("exponent", 1))
    if kind == "boundary_concentrated":
        return _vertex_bump(n, lam, float(desc["radius"]), p)
    c = _center(desc, n)
    if kind == "tensor_bump":
        w = float(desc["half_width"])
        h = c[-1]
        if any(c[:-1]) or h - w < lam * w * math.sqrt(n - 1):
            return None  # the box meets the boundary: no closed form
        j0 = beta(0.5, 2 * p + 1)
        j1 = 4 * p * p * beta(1.5, 2 * p - 1)
        return n * w ** (n - 2) * j1 * j0 ** (n - 1), 0.0
    rho = float(desc["radius"])
    offset = math.sqrt(sum(v * v for v in c[:-1]))
    h = c[-1]
    if offset == 0.0:
        return _axis_bump(n, lam, h, rho, p) if h > 0.0 else None
    if (h - lam * offset) / math.sqrt(1.0 + lam * lam) >= rho:
        return p * p * rho ** (n - 2) * sphere_measure(n - 1) * beta(n, 2 * p - 1), 0.0
    return None


def kato_constant(n: int) -> float:
    return 2.0 * (math.gamma(n / 4.0) / math.gamma((n - 2) / 4.0)) ** 2


def lambda_star(n: int) -> float:
    """Real root of lam (1+lam)^2 = K_n by Cardano's formula."""
    k = kato_constant(n)
    # lam = mu - 2/3 turns lam^3 + 2 lam^2 + lam - k into mu^3 + a mu + b
    a = -1.0 / 3.0
    b = -2.0 / 27.0 - k
    root = math.sqrt(b * b / 4.0 + a ** 3 / 27.0)
    return math.cbrt(-b / 2.0 + root) + math.cbrt(-b / 2.0 - root) - 2.0 / 3.0


def rel_gap(computed: float, exact: float, scale: float) -> float:
    """|computed - exact| over |energy part| + |trace part| of the exact value."""
    return abs(computed - exact) / scale


def self_test() -> None:
    """Check the oracle against values known in closed form; raise if off."""
    checks = {
        "trace pi*sqrt(2)/3": (_vertex_bump(3, 1.0, 1.0, 1)[1], math.pi * math.sqrt(2.0) / 3.0),
        "K_4 = 2/pi": (kato_constant(4), 2.0 / math.pi),
        "K_6 = pi/2": (kato_constant(6), math.pi / 2.0),
    }
    for n in (3, 4, 5):
        rho = 0.7
        ball = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * rho ** n
        checks[f"hat energy vol(B)/rho^2, n={n}"] = (_axis_bump(n, 0.5, 2.0, rho, 1)[0],
                                                      ball / rho ** 2)
        # the crossing-ball route must approach the vertex formula as h -> 0
        for p in (1, 2):
            near = _axis_bump(n, 0.5, 1e-9, 1.0, p)
            vertex = _vertex_bump(n, 0.5, 1.0, p)
            checks[f"crossing -> vertex energy, n={n}, p={p}"] = (near[0], vertex[0])
            checks[f"crossing -> vertex trace, n={n}, p={p}"] = (near[1], vertex[1])
    for eps in (1e-2, 1e-6):
        # the same integral by Gauss-Legendre in log r
        u, wu = _gauss(math.log(eps), math.log(1.0 / math.sqrt(2.0)), 4 * _GL_NODES)
        numeric = 2.0 * float(np.sum(wu * (1.0 - math.sqrt(2.0) * np.exp(u)) ** 2))
        checks[f"n=2 cutoff trace, eps={eps:g}"] = (vertex_cutoff_trace(1.0, 1.0, 1, eps),
                                                    numeric)
    for n in (3, 4, 5, 12):
        lam = lambda_star(n)
        checks[f"cubic residual n={n}"] = (lam * (1.0 + lam) ** 2, kato_constant(n))
    for name, (got, want) in checks.items():
        if not abs(got - want) <= 1e-8 * max(1.0, abs(want)):
            raise AssertionError(f"oracle self-test {name}: {got!r} != {want!r}")
