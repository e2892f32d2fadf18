import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")

SEED = 20260810


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def is_smooth_point(f, pts, tol: float = 1e-9) -> bool:
    """Reference predicate: every point of ``pts`` (..., n) lies farther than
    tol * (1 + |x|) from the axis x' = 0 (where the slice profile has no
    gradient) and from the kink set of f, so f and the flow are
    differentiable there."""
    pts = np.asarray(pts, dtype=float)
    scale = tol * (1.0 + np.linalg.norm(pts, axis=-1))
    return bool(np.all(np.linalg.norm(pts[..., :-1], axis=-1) > scale)
                and np.all(f.kink_distance(pts) > scale))
