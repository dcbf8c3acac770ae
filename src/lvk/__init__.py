"""lvk: exact Darboux / Liouvillian integrability toolkit for polynomial vector fields."""

from .darboux import (
    Cofactor,
    DarbouxFunction,
    ExponentialFactor,
    cofactor_of,
    is_first_integral,
    is_jacobian_multiplier,
    synthesize,
    verify_exponential_factor,
)
from .forms import OneForm, is_closed
from .integrator import IntegrationResult, differentiate, integrate_closed, to_darboux
from .multipoly import MultiPoly, exact_div, gcd_multivar, try_exact_div
from .pipeline import (
    ClosedFormUnavailable,
    IndependenceCertificate,
    first_integral_2d,
    gamma_determinants,
    multiplier_from_rational_integrals,
    ratio_first_integrals,
    theorem2_pipeline,
)
from .ratfunc import RatFunc
from .residues import ResidueGroup, rothstein_trager
from .unipoly import UniPoly, hermite_reduce, resultant, squarefree_yun
from .vectorfield import PolyVectorField, parse_system

__all__ = [
    "Cofactor",
    "DarbouxFunction",
    "ExponentialFactor",
    "IntegrationResult",
    "IndependenceCertificate",
    "ClosedFormUnavailable",
    "MultiPoly",
    "OneForm",
    "PolyVectorField",
    "RatFunc",
    "ResidueGroup",
    "UniPoly",
    "cofactor_of",
    "differentiate",
    "exact_div",
    "first_integral_2d",
    "gamma_determinants",
    "gcd_multivar",
    "hermite_reduce",
    "integrate_closed",
    "is_closed",
    "is_first_integral",
    "is_jacobian_multiplier",
    "multiplier_from_rational_integrals",
    "parse_system",
    "ratio_first_integrals",
    "resultant",
    "rothstein_trager",
    "squarefree_yun",
    "synthesize",
    "theorem2_pipeline",
    "to_darboux",
    "try_exact_div",
    "verify_exponential_factor",
]

__version__ = "0.1.0"
