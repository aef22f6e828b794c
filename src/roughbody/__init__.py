"""Homological integration on simplicial complexes: chains, flat norms,
Whitney cochains, Lipschitz pushforwards, sharp products, rough bodies and
Cauchy fluxes."""

from .bodies import (
    Body,
    GeneralizedBody,
    Surface,
    body_from_simplices,
    geometric_boundary_surface,
    koch_generalized_body,
    koch_prefractal,
    surface_from_facets,
    trace,
)
from .chains import (
    Chain,
    defect_integral,
    elementary,
    restrict,
    restriction_defect,
)
from .flatnorm import (
    CauchyReport,
    FlatDecomposition,
    certify_cauchy,
    cochain_flat_norm,
    flat_distance,
    flat_norm,
)
from .forms import (
    Cochain,
    EvaluableCurrent,
    FormField,
    chain_as_current,
    coboundary,
    constant_form,
    evaluate,
    interior_product,
    whitney_realize,
)
from .maps import (
    EmbeddingVerdict,
    PAMap,
    compose,
    is_embedding,
    lip_seminorm,
    lipschitz_constant,
    pullback_cochain,
    pullback_form,
    pushforward,
)
from .mechanics import (
    BalanceEstimate,
    CauchyFlux,
    CochainRecovery,
    Configuration,
    StressReport,
    VirtualPowerReport,
    VirtualVelocity,
    cochains_from_flux,
    estimate_balance_constants,
    flux_from_cochains,
    strain,
    stress_report,
    virtual_power_report,
)
from .mesh import (
    Complex,
    HalfSpace,
    Refinement,
    barycentric_refine,
    build_complex,
    refine_by_halfspace,
)
from .sharp import ProductBoundsReport, SharpField, boundary_product, check_product_bounds, multiply

__version__ = "0.1.0"
