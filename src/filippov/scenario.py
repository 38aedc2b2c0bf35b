"""Scenario files: the CLI's input format.

A scenario is a JSON document with the four monomial lists of the field,
optional blocks (absent when ``null``) of unfolding parameters, integrator
overrides (an :class:`IntegratorConfig`, which :mod:`filippov.flow`
re-exports) and a query window on the switching line, and an output
directory.  Polynomials are arrays of ``[i, j, coefficient]`` triples;
duplicate exponent pairs are rejected.  Every scalar is checked where it
enters: ``k`` is an integer and every other number a real, neither a bool
nor a string.  The ``to_json_dict`` of a :class:`Scenario` is the
normalized form (sorted monomials, explicit defaults) that
``--dump-normalized`` writes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

from .errors import InputError
from .field import SIGMA, PiecewiseField, SmoothField
from .poly import Poly2
from .record import Record
from .unfold import UnfoldingParams


@dataclass(frozen=True)
class IntegratorConfig(Record):
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
class Window(Record):
    center: float
    radius: float


@dataclass(frozen=True)
class Scenario(Record):
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


def _optional_object(doc: dict, key: str) -> dict:
    """The object under an optional ``key``, empty if absent or ``null``."""
    return {} if doc.get(key) is None else _object(doc[key], key)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{where} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError(f"{where} is out of the float range") from exc


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
        u = _object(doc["unfold"], "unfold")
        k, lam = u.get("k"), u.get("lambda", [])
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise InputError(f"unfold.k must be an integer, not {k!r}")
        if not isinstance(lam, list):
            raise InputError("unfold.lambda must be a list of numbers")
        unfold = UnfoldingParams(
            k=int(k),
            lam=tuple(_number(a, "unfold.lambda entry") for a in lam),
            epsilon=_number(u.get("epsilon", 0.1), "unfold.epsilon"),
            b=_number(u.get("b", 0.0), "unfold.b"),
            shift_convention=str(u.get("shift", "minus")))

    wdoc = _optional_object(doc, "window")
    overrides = {}
    for key, value in _optional_object(doc, "integrator").items():
        if key not in _INTEGRATOR_KEYS:
            raise InputError(f"unknown integrator option {key!r}")
        overrides[key] = _number(value, f"integrator option {key}")
    integrator = IntegratorConfig(**overrides)
    window = Window(center=_number(wdoc.get("center", 0.0), "window.center"),
                    radius=_number(wdoc.get("radius", 0.3), "window.radius"))
    if not (math.isfinite(window.center) and 0 < window.radius < math.inf):
        raise InputError("window center must be finite, radius positive and finite")

    outputs = doc.get("outputs", "out")
    if not isinstance(outputs, str) or not outputs:
        raise InputError("scenario outputs must be a nonempty string")
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
