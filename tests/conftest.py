import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from conestab import quadrature

# The benchmark's exact values (bench/oracle.py, written without conestab),
# imported from there so that one copy exists.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
try:
    import oracle  # noqa: F401  (tests import it from here)
finally:
    sys.path.pop(0)

settings.register_profile(
    "ci", max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")

SEED = 20260810


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def slice_rule(params, geom, spec):
    """(nodes, weights) of the slice rule of ``geom``, counted and built as
    a battery pass counts and builds it."""
    return quadrature._slice_rules(params, [geom], spec,
                                   [quadrature._rule_nodes(params, geom, spec)])[0]


def battery_samples(params, fields, spec):
    """The support sample of each of ``fields``, from one battery pass that
    keeps its samples."""
    return quadrature._battery_pass(params, fields, spec, lambda block, samples: samples)


def is_smooth_point(f, pts, tol: float = 1e-9) -> bool:
    """Reference predicate: every point of ``pts`` (..., n) lies farther than
    tol * (1 + |x|) from the axis x' = 0 (where the slice profile has no
    gradient) and from the kink set of f, so f and the flow are
    differentiable there."""
    pts = np.asarray(pts, dtype=float)
    scale = tol * (1.0 + np.linalg.norm(pts, axis=-1))
    return bool(np.all(np.linalg.norm(pts[..., :-1], axis=-1) > scale)
                and np.all(f.geometry.kink_distance(pts) > scale))
