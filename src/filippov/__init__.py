"""Analysis of planar piecewise-smooth fields split by the line y = 0:
classification of monodromic tangential singularities, unfolding of their
contact structure, and numerical detection of the limit cycles born when
the singularities are split apart."""

__version__ = "0.1.0"

from .field import (  # noqa: F401
    ContactInfo,
    MonodromyData,
    PiecewiseField,
    SigmaSegment,
    SmoothField,
    classify_mts,
    contact_info,
    local_V2,
    sigma_regions,
)
from .flow import (  # noqa: F401
    IntegratorConfig,
    LyapunovEstimate,
    ReturnSample,
    displacement,
    displacements,
    estimate_lyapunov,
    half_return,
    integrate_to_sigma,
)
from .poly import Poly1, Poly2  # noqa: F401
from .unfold import (  # noqa: F401
    PerturbationPolys,
    UnfoldingParams,
    apply_shift,
    build_perturbation,
    build_unfolded,
    lemma1_check,
    local_V2_limit_check,
    verify_contact_ladder,
    xi_values,
)
from .cycles import (  # noqa: F401
    CensusReport,
    LimitCycle,
    PseudoHopfPrediction,
    amplitude_prediction,
    cycle_census,
    cycle_producing_sign,
    find_cycles_local,
    pseudo_hopf_scan,
)
from .systems import cross_coupled_system, family_V2, monodromic_family  # noqa: F401
