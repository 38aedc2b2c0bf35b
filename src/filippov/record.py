"""JSON form of the result records.

Every result dataclass mixes in :class:`Record`, whose ``to_json_dict``
walks the dataclass fields in order.  A field whose annotation names
``float`` has every number in it converted with ``float()``, so integer,
``Fraction`` and NumPy inputs serialize alike; any other field goes through
:func:`jsonable`.  Keys that differ from attribute names and keys computed
by a method are declared per class as data.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

from .poly import Poly1


def jsonable(obj):
    """Plain JSON value of a record, container, polynomial or number."""
    if isinstance(obj, Record):
        return obj.to_json_dict()
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, Poly1):
        return obj.to_list()
    if isinstance(obj, (np.floating, Fraction)):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _floats(obj):
    if obj is None:
        return None
    if isinstance(obj, dict):
        return {k: _floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_floats(v) for v in obj]
    return float(obj)


class Record:
    """Mixin giving a dataclass its JSON form.

    ``json_renames`` maps attribute names to report keys; ``json_computed``
    maps extra report keys to the zero-argument methods that produce them.
    """

    json_renames: dict = {}
    json_computed: dict = {}

    def to_json_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            key = self.json_renames.get(f.name, f.name)
            out[key] = _floats(value) if "float" in str(f.type) else jsonable(value)
        for key, method in self.json_computed.items():
            out[key] = jsonable(getattr(self, method)())
        return out
