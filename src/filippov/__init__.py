"""Analysis of planar piecewise-smooth fields split by the line y = 0:
classification of monodromic tangential singularities, unfolding of their
contact structure, and numerical detection of the limit cycles born when
the singularities are split apart.

The algebraic layers (``field``, ``poly``, ``unfold``, ``systems``) import
no numpy and load with the package.  The exports of the orbit layers
``flow`` and ``cycles``, which need numpy, are imported on first access.
"""

__version__ = "0.1.0"

import importlib

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
from .poly import Poly1, Poly2  # noqa: F401
from .scenario import IntegratorConfig  # noqa: F401
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
from .systems import cross_coupled_system, family_V2, monodromic_family  # noqa: F401

# Export name -> the submodule it is imported from on first access.
_ON_DEMAND = {
    **dict.fromkeys(("LyapunovEstimate", "ReturnSample", "displacement",
                     "displacements", "estimate_lyapunov", "half_arcs",
                     "half_return", "integrate_to_sigma"), "flow"),
    **dict.fromkeys(("CensusReport", "LimitCycle", "PseudoHopfPrediction",
                     "amplitude_prediction", "cycle_census",
                     "cycle_producing_sign", "find_cycles_local",
                     "pseudo_hopf_scan"), "cycles"),
}


def __getattr__(name):
    if name not in _ON_DEMAND:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ON_DEMAND[name]}", __name__),
                    name)
    globals()[name] = value
    return value
