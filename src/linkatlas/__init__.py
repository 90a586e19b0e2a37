"""Exact invariants of links of weighted homogeneous hypersurface
singularities: weight systems, Betti numbers, signatures, exotic
sphere classes, eta-Einstein constants and left-invariant curvature.
"""

from .betti import (
    BettiResult,
    betti,
    is_rational_homology_sphere,
    torsion_closed_form,
)
from .catalog import (
    TOOL_VERSION,
    InvariantRecord,
    build_record,
    catalog_append,
    catalog_query,
    read_catalog,
    reverify_record,
)
from .curvature import (
    MetricAlgebra,
    RicciFit,
    berger_sphere,
    eta_fit,
    ew_function_check,
    heisenberg_algebra,
    ricci_tensor,
)
from .errors import (
    AtlasError,
    BoundsTooLarge,
    DegenerateMetric,
    DimensionUnsupported,
    InconsistentInvariants,
    InvalidInput,
    NoEWPair,
    NonDivisible,
    NonIntegerResult,
    NonPositiveScale,
    NoPositiveSolution,
    NotASphere,
    NotNegativeClass,
    NotPairwiseCoprime,
    NotPositiveClass,
    NotQuasiSmooth,
    PoleProximity,
    RankDeficient,
)
from .eta import (
    EtaConstants,
    einstein_scale,
    ew_mu_squared,
    heisenberg_alpha_squared,
    lorentzian_scale,
    null_constants,
    scalar_curvature,
    scalar_flat_scale,
    squash_class,
    transverse_homothety,
)
from .links import (
    BPExponents,
    Pi1Class,
    SignClass,
    WeightSystem,
    ade_match,
    bp_link,
    canonical_key,
    classify_sign,
    count_monomials,
    is_quasi_smooth,
    is_well_formed,
    pi1_class,
    reciprocal_sum,
    solve_weights,
)
from .search import DEFAULT_BUDGET, run_search, seven_sphere_sweep
from .spheres import (
    SignatureResult,
    SphereVerdict,
    bp8_class,
    brieskorn_signature,
    brieskorn_signature_direct,
    casson_invariant,
    kervaire_classify,
)

__version__ = TOOL_VERSION
