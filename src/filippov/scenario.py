"""Scenario files: the CLI's input format.

A scenario is a JSON document with the four monomial lists of the field,
optional unfolding parameters, optional integrator overrides, a query
window on the switching line, and an output directory.  Polynomials are
arrays of ``[i, j, coefficient]`` triples; duplicate exponent pairs are
rejected.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .errors import InputError
from .field import SIGMA, PiecewiseField, SmoothField
from .flow import IntegratorConfig
from .poly import Poly2
from .unfold import UnfoldingParams


@dataclass(frozen=True)
class Window:
    center: float
    radius: float


@dataclass(frozen=True)
class Scenario:
    name: str
    field: PiecewiseField
    unfold: UnfoldingParams | None
    integrator: IntegratorConfig
    window: Window
    outputs: str


_INTEGRATOR_KEYS = ("rel_tol", "abs_tol", "max_step", "event_tol",
                    "guard_height", "guard_time", "max_time")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{where} must be a JSON object")
    return value


def _component(side_doc: dict, side: str, comp: str) -> Poly2:
    triples = _object(side_doc, f"field.{side}").get(comp)
    if not triples:
        raise InputError(f"field.{side}.{comp} must be a nonempty monomial list")
    return Poly2.from_triples(triples)


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        name = doc["name"]
        field_doc = _object(doc["field"], "field")
    except KeyError as exc:
        raise InputError(f"scenario is missing key {exc}") from exc
    if not isinstance(name, str) or not name:
        raise InputError("scenario name must be a nonempty string")

    sides = {}
    for side in SIGMA:
        if side not in field_doc:
            raise InputError(f"field.{side} is missing")
        sides[side] = SmoothField(
            X=_component(field_doc[side], side, "X"),
            Y=_component(field_doc[side], side, "Y"))
    field = PiecewiseField(**sides)

    unfold = None
    if doc.get("unfold") is not None:
        u = doc["unfold"]
        try:
            unfold = UnfoldingParams(
                k=int(u["k"]),
                lam=tuple(float(a) for a in u.get("lambda", [])),
                epsilon=float(u.get("epsilon", 0.1)),
                b=float(u.get("b", 0.0)),
                shift_convention=str(u.get("shift", "minus")))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed unfold block: {exc}") from exc

    wdoc = _object(doc.get("window") or {}, "window")
    try:
        overrides = {}
        for key, value in _object(doc.get("integrator") or {},
                                  "integrator").items():
            if key not in _INTEGRATOR_KEYS:
                raise InputError(f"unknown integrator option {key!r}")
            overrides[key] = float(value)
        integrator = IntegratorConfig(**overrides)
        window = Window(center=float(wdoc.get("center", 0.0)),
                        radius=float(wdoc.get("radius", 0.3)))
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed integrator or window value: {exc}") from exc
    if not (math.isfinite(window.center) and 0 < window.radius < math.inf):
        raise InputError("window center must be finite, radius positive and finite")

    outputs = str(doc.get("outputs", "out"))
    return Scenario(name=name, field=field, unfold=unfold,
                    integrator=integrator, window=window, outputs=outputs)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("scenario document must be a JSON object")
    return scenario_from_dict(doc)


def field_to_dict(Z: PiecewiseField) -> dict:
    """``{upper|lower: {X|Y: [[i, j, coefficient], ...]}}``, sorted monomials."""
    return {name: {"X": f.X.to_triples(), "Y": f.Y.to_triples()}
            for name, _, f in Z.sides()}


def scenario_to_dict(s: Scenario) -> dict:
    """Normalized form: sorted monomials, explicit defaults."""
    doc = {
        "name": s.name,
        "field": field_to_dict(s.field),
        "unfold": None,
        "integrator": {key: getattr(s.integrator, key)
                       for key in _INTEGRATOR_KEYS},
        "window": {"center": s.window.center, "radius": s.window.radius},
        "outputs": s.outputs,
    }
    if s.unfold is not None:
        doc["unfold"] = {
            "k": s.unfold.k,
            "lambda": [float(a) for a in s.unfold.lam],
            "epsilon": float(s.unfold.epsilon),
            "b": float(s.unfold.b),
            "shift": s.unfold.shift_convention,
        }
    return doc


def with_overrides(s: Scenario, b=None, epsilon=None, shift=None,
                   out=None) -> Scenario:
    """Apply command-line overrides on top of a parsed scenario."""
    unfold = s.unfold
    if b is not None or epsilon is not None or shift is not None:
        if unfold is None:
            raise InputError(
                "override of b/epsilon/shift requires an unfold block")
        unfold = dataclasses.replace(
            unfold,
            b=unfold.b if b is None else float(b),
            epsilon=unfold.epsilon if epsilon is None else float(epsilon),
            shift_convention=(unfold.shift_convention if shift is None
                              else str(shift)))
    return dataclasses.replace(
        s, unfold=unfold, outputs=s.outputs if out is None else str(out))
