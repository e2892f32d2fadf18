"""Desk-scale stability analysis of the free-boundary half-plane inside an
axially symmetric convex cone.

The toolkit builds the foliation of the cone, the compact deformation flow
of the half-plane slice, exact expansions of the flow's area-distortion
factor, numerical first/second lower-right area variations, the weighted
trace integral with its dimension-two divergence, and the threshold
aperture parameter below which the slice is provably strictly stable.
"""

__version__ = "0.1.0"

from .domain import (ConeParams, classify_ambient_point, foliation_lipschitz_bound,
                     gamma_curve, omega_profile)
from .errors import (ConeStabError, ConfigError, DivergentBoundaryIntegral,
                     JacobianPositivityError, MembershipError, QuadratureError)
from .flow import FlowCoefficients
from .jacobian import (jacobian_closed_form, jacobian_gram_oracle, remainder,
                       remainder_uniform_bound, wedge_expansion)
from .quadrature import (LiminfEstimate, QuadratureSpec, boundary_integral,
                         integrate_sigma, liminf_quotient)
from .stability import (StabilityVerdict, ThresholdResult, instability_witness_n2,
                        kato_constant, lambda_star, shear_transform_check,
                        stability_sweep)
from .trial import (TrialFunction, build_trial, make_boundary_bump, make_radial_bump,
                    make_shifted_bump, make_tensor_bump, scaled, standard_battery)
from .variation import VariationReport, area, dirichlet_energy, variation_report

__all__ = [name for name in dir() if not name.startswith("_")]
