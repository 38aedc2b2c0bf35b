"""The package's exports: the orbit layers load on first access, and every
name resolves to the object its defining module holds."""

import importlib

import pytest

import filippov

EXPORTS = {
    "field": ("ContactInfo", "MonodromyData", "PiecewiseField", "SigmaSegment",
              "SmoothField", "classify_mts", "contact_info", "local_V2",
              "sigma_regions"),
    "flow": ("IntegratorConfig", "LyapunovEstimate", "ReturnSample",
             "displacement", "displacements", "estimate_lyapunov",
             "half_return", "integrate_to_sigma"),
    "poly": ("Poly1", "Poly2"),
    "unfold": ("PerturbationPolys", "UnfoldingParams", "apply_shift",
               "build_perturbation", "build_unfolded", "lemma1_check",
               "local_V2_limit_check", "verify_contact_ladder", "xi_values"),
    "cycles": ("CensusReport", "LimitCycle", "PseudoHopfPrediction",
               "amplitude_prediction", "cycle_census", "cycle_producing_sign",
               "find_cycles_local", "pseudo_hopf_scan"),
    "systems": ("cross_coupled_system", "family_V2", "monodromic_family"),
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTS.items() for name in names])
def test_every_export_is_its_modules_object(module, name):
    source = importlib.import_module(f"filippov.{module}")
    assert getattr(filippov, name) is getattr(source, name)


def test_integrator_config_is_one_class():
    from filippov import flow, scenario

    assert filippov.IntegratorConfig is flow.IntegratorConfig
    assert flow.IntegratorConfig is scenario.IntegratorConfig


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        filippov.no_such_export  # noqa: B018
    assert not hasattr(filippov, "no_such_export")
