"""Scenario files: the CLI's input format.

A scenario is a JSON document with the four monomial lists of the field,
optional unfolding parameters, optional integrator overrides (an
:class:`IntegratorConfig`, which :mod:`filippov.flow` re-exports), a query
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
from .poly import Poly2
from .unfold import UnfoldingParams


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances for orbit-arc integration.

    They apply per lane: every arc of a batch gets its own step control
    from ``rel_tol``/``abs_tol``/``max_step`` and runs until its first
    sign change of ``y`` or ``max_time`` (then :class:`NoReturn`), with no
    chunks.  The abscissa bound of an arc is not an option here but an
    input of its lane (:func:`filippov.flow.half_arcs`).  ``event_tol``
    only sets the displacement noise floor, :attr:`noise_floor`; crossings
    are located to a few ulps whatever its value.  The fields are exactly
    the options a scenario's ``integrator`` block may set.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    event_tol: float = 1e-12
    max_time: float = 50.0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "event_tol", "max_time"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InputError(
                    f"integrator option {name}={value} must be positive and finite")
        if not self.max_step > 0:
            raise InputError(
                f"integrator option max_step={self.max_step} must be positive")

    @property
    def noise_floor(self) -> float:
        """Displacement magnitude that tells a sample from noise,
        ``10 * event_tol``."""
        return 10.0 * self.event_tol


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


_INTEGRATOR_KEYS = tuple(f.name for f in dataclasses.fields(IntegratorConfig))


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{where} must be a JSON object")
    return value


def _component(side_doc: dict, side: str, comp: str) -> Poly2:
    triples = _object(side_doc, f"field.{side}").get(comp)
    if not isinstance(triples, list) or not triples:
        raise InputError(f"field.{side}.{comp} must be a nonempty monomial list")
    return Poly2.from_triples(triples)


def scenario_from_dict(doc: dict) -> Scenario:
    _object(doc, "scenario document")
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    except (TypeError, ValueError, OverflowError) as exc:
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
        "integrator": dataclasses.asdict(s.integrator),
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
