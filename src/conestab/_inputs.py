"""The input table: a row per key of a run's config, its ``quadrature`` spec
and ``samples`` counts and a trial-function descriptor; and :func:`check`,
which holds a value to its row wherever it is read.  The constant ranges
keep each derived quantity finite at every admitted n: t0^2 > 0, lambda^2,
a field's reach^(n-1), |scale*f|^2, the node counts and the suites' arrays.
"""

from __future__ import annotations

import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

# Most nodes one quadrature rule may place; box and sphere rules grow like a power of n.
MAX_RULE_NODES = 2 ** 23
# Bound of every length: a field's reach |c| + radius*sqrt(n) < 2e4, reach^63 < 1e271.
LENGTH = 1e3
# Bound of every samples count: at it, a verify run peaks at 172 MB in 0.7 s (2-core x86-64).
COUNT = 10 ** 5


class Input(NamedTuple):
    """A row: the value's ``kind``; the ``span`` [low, high] of its numbers (a list's length) or
    the words a text or object key may be (empty: any); its ``readers``; ``rule`` and ``cap``."""

    kind: str
    span: tuple
    readers: str
    rule: str = ""
    cap: str = "{key} must be in [{span[0]}, {span[1]}]"


_RULES = {"object": "{key} must be a JSON object with keys among {span}",
          "text": "{key} must be one of {span}"}
_CMDS = "variation sweep witness-n2"
_KINDS = "radial_bump tensor_bump shifted_bump boundary_concentrated"
_NODES = ("radial_nodes", "angular_nodes", "box_nodes_per_axis")
_COUNTS = ("random_draws", "flow_samples", "pairs", "points")
_TF = ("trial_functions must be a non-empty list of at most 64 descriptors, each an object "
       "(leave the key out for the default battery)")
_EPS = "epsilons must be at least three cutoffs in (0, 1), distinct, read in decreasing order"

INPUTS = {
    # the config file's keys; the flags of the same names override them
    "n": Input("int", (2, 64), "variation sweep threshold", "dimension n must be an integer >= 2"),
    "lambda": Input("float", (0.0, math.sqrt(sys.float_info.max)), _CMDS,
                    "aperture parameter must be finite and >= 0",
                    "lambda must have a finite square"),
    # low: the least t0 whose square, the first step of the s = t^2 ladder, is not 0
    "t0": Input("float", (math.sqrt(math.ulp(0.0)), LENGTH), "variation"),
    # from about 1,085 levels on every ladder underflows (exit 3); 0.5^levels stays a float
    "levels": Input("int", (3, 2048), "variation"),
    # low: the least normal float, so log(1/low) is finite
    "epsilons": Input("cutoffs", (sys.float_info.min, math.nextafter(1.0, 0.0)),
                      "variation at n = 2, witness-n2", _EPS, _EPS),
    "seed": Input("int", (0, 2 ** 64 - 1), "verify"),
    "quadrature": Input("object", (*_NODES, "support_radius"), _CMDS),
    "samples": Input("object", (*_COUNTS, "battery_size"), "verify"),
    # the stacked passes hold the nodes of every field at once
    "trial_functions": Input("list", (1, 64), "variation sweep", _TF, _TF),
    "format": Input("text", ("json", "csv"), "every command"),
    "out": Input("path", (), "every command", "cannot write report outside a writable directory"),
    # the quadrature object: the fields of QuadratureSpec
    **dict.fromkeys(_NODES, Input("int", (2, MAX_RULE_NODES), _CMDS)),
    "support_radius": Input("float", (1e-300, LENGTH), "the sigma grid only",
                            "support_radius must be finite and > 0"),
    # the samples object: the counts of the verify suites; the battery has 20 members
    **dict.fromkeys(_COUNTS, Input("int", (1, COUNT), "verify")),
    "battery_size": Input("int", (1, 20), "verify"),
    # a trial-function descriptor's keys; the exponent raises the rules' node counts
    "kind": Input("text", tuple(_KINDS.split()), _KINDS),
    "id": Input("text", (), _KINDS, "id must be a string"),
    "exponent": Input("int", (1, 32), _KINDS),
    "scale": Input("float", (-LENGTH, LENGTH), _KINDS, "scale must be finite"),
    "center": Input("center", (-LENGTH, LENGTH), "radial_bump tensor_bump shifted_bump",
                    "center must be {n} finite components"),
    "radius": Input("float", (1e-300, LENGTH), "radial_bump shifted_bump boundary_concentrated",
                    "radius must be finite and positive"),
    "half_width": Input("float", (1e-300, LENGTH), "tensor_bump"),
    "shift": Input("float", (-LENGTH, LENGTH), "shifted_bump", "shift must be finite"),
}


def _read(kind: str, span: tuple, value, n):
    """(``value`` read as ``kind``, the numbers ``span`` bounds or None if it is malformed);
    a centre may be h, the axis point at height h, or "offaxis:h:a", moved by a along x_1."""
    if isinstance(value, bool):  # a JSON true or false is malformed for every kind
        return value, None
    if kind in ("int", "float"):
        out = int(value) if kind == "int" else float(value)
        return out, (out,)
    if kind == "center":
        if isinstance(value, str) and value.startswith("offaxis:"):
            _, h, a = value.split(":")
            value = [float(a)] + [0.0] * (n - 2) + [float(h)]
        c = np.asarray(value, dtype=float).reshape(-1)
        c = np.concatenate([np.zeros(n - 1), c]) if c.size == 1 else c
        return c, c if c.size == n else None
    if kind == "cutoffs":
        eps = tuple(sorted((float(e) for e in value), reverse=True))
        return eps, eps if len(set(eps)) == len(eps) >= 3 else None
    if kind == "list":
        ok = isinstance(value, (list, tuple)) and all(isinstance(d, dict) for d in value)
        return (tuple(value), (len(value),)) if ok else (value, None)
    if kind == "path":  # "-" is stdout
        folder = os.path.dirname(os.path.abspath(value))
        ok = value == "-" or os.path.isdir(folder) and os.access(folder, os.W_OK)
    elif kind == "object":
        ok = isinstance(value, dict) and set(value) <= set(span)
    else:
        ok = isinstance(value, str) and (not span or value in span)
    return value, () if ok else None


def check(key: str, value, n: int | None = None):
    """``value`` of input ``key`` read as its row's kind, if well formed with each number
    finite and in the row's span; else ConfigError (a ValueError) stating the row's rule,
    or its cap for a number above the span.  A ``center`` needs the dimension ``n``."""
    row = INPUTS[key]
    try:
        out, numbers = _read(row.kind, row.span, value, n)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    integral = row.kind != "int" or out == value  # an integer has no fractional part
    if numbers is not None and integral and all(row.span[0] <= v <= row.span[1] for v in numbers):
        return out
    rule = row.rule or _RULES.get(row.kind, row.cap)
    if not integral:
        rule = "{key} must be an integer"
    elif numbers is not None and all(-math.inf < v < math.inf for v in numbers):  # big ints too
        rule = row.cap if any(abs(v) > row.span[1] for v in numbers) else rule
    shown = out if row.kind == "float" else value  # a float read from "nan" shows as nan
    raise ConfigError(f"{rule.format(key=key, span=row.span, n=n)}, got {shown!r}")
