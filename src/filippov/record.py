"""JSON and CSV form of the records, and the one writer of both formats.

Every result dataclass, and every input record that a report or the
normalized scenario shows, mixes in :class:`Record`, whose ``to_json_dict``
walks the dataclass fields in order.  A field whose annotation names
``float`` has every number in it converted with ``float()``, so integer,
``Fraction`` and NumPy inputs serialize alike; any other field goes through
:func:`jsonable`.  Keys that differ from attribute names and keys computed
by a method are declared per class as data.  :func:`write_json` and
:func:`write_csv` write every JSON and CSV file the CLI leaves.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction

from .poly import Poly1, Poly2


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
    if isinstance(obj, Poly2):
        return obj.to_triples()
    if isinstance(obj, Fraction):
        return float(obj)
    np = sys.modules.get("numpy")  # a NumPy scalar implies NumPy is loaded
    if np is not None:
        if isinstance(obj, np.floating):
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


def write_json(path, doc) -> None:
    """Write ``jsonable(doc)`` with sorted keys, two-space indent and a
    final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(jsonable(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row: a float with 17
    significant digits, ``None`` as an empty cell, anything else with
    ``str``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
