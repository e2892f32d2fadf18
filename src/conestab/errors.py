"""Exception types shared across the package."""


class ConeStabError(Exception):
    """Base class for all errors raised by conestab."""


class MembershipError(ConeStabError):
    """A point lies outside the closed region it must belong to."""


class QuadratureError(ConeStabError):
    """Numerical integration could not produce a trustworthy value."""


class JacobianPositivityError(QuadratureError):
    """The squared area-distortion factor lost positivity at a node."""

    def __init__(self, message, t=None, worst_value=None):
        super().__init__(message)
        self.t = t
        self.worst_value = worst_value


class DivergentBoundaryIntegral(ConeStabError):
    """The weighted trace integral diverges.

    For a two-dimensional slice this happens exactly when the deformation
    field does not vanish at the vertex; it is the instability signature,
    not a numerical failure.  Callers that want a finite number must opt in
    to a positive inner cutoff.
    """

    def __init__(self, message, vertex_value=None):
        super().__init__(message)
        self.vertex_value = vertex_value


class ConfigError(ConeStabError, ValueError):
    """Invalid run configuration or input; the CLI exits 2 on it."""
