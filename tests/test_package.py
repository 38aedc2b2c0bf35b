"""The package's exports: the orbit layers load on first access, and every
name resolves to the object its defining module holds."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import filippov

EXPORTS = {
    "field": ("ContactInfo", "MonodromyData", "PiecewiseField", "SigmaSegment",
              "SmoothField", "classify_mts", "contact_info", "local_V2",
              "sigma_regions"),
    "flow": ("IntegratorConfig", "LyapunovEstimate", "ReturnSample",
             "displacement", "displacements", "estimate_lyapunov",
             "half_arcs", "integrate_to_sigma"),
    "poly": ("Poly1", "Poly2"),
    "unfold": ("PerturbationPolys", "UnfoldingParams", "apply_shift",
               "build_perturbation", "build_unfolded", "lemma1_check",
               "local_V2_limit_check", "verify_contact_ladder"),
    "cycles": ("CensusReport", "LimitCycle", "PseudoHopfPrediction",
               "amplitude_prediction", "cycle_census", "cycle_producing_sign",
               "find_cycles_local", "pseudo_hopf_scan"),
    "systems": ("monodromic_family",),
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


ROOT = Path(__file__).resolve().parents[1]

# Binds the bench tracer to the loaded layers and unbinds it again.  Run in
# a subprocess: install() wraps ``flow.solve_ivp``, which imports
# scipy.integrate, and other tests pin that no scipy module is loaded.
_TRACER = """
import json, sys
sys.path.insert(0, sys.argv[1])
import filippov.cycles, filippov.flow, filippov.portrait
from tracer import SPANS, Tracer
before = {key: getattr(sys.modules[key[0]], key[1]) for key in SPANS}
missing = [".".join(key) for key, fn in before.items() if not callable(fn)]
tracer = Tracer()
tracer.install()
wrapped = sorted(".".join(key) for key, fn in before.items()
                 if getattr(sys.modules[key[0]], key[1]) is not fn)
tracer.remove()
restored = all(getattr(sys.modules[key[0]], key[1]) is fn
               for key, fn in before.items())
print(json.dumps({"missing": missing, "wrapped": wrapped, "n": len(SPANS),
                  "restored": restored}))
"""


def test_bench_tracer_binds_every_span():
    """Every function that ``bench/tracer.py`` traces still exists under its
    name, is wrapped by ``install()`` and restored by ``remove()``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _TRACER, str(ROOT / "bench")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["missing"] == []
    assert len(got["wrapped"]) == got["n"]
    assert got["restored"]
