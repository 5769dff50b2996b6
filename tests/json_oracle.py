"""The JSON path that ``report.render`` replaced, kept as the oracle of its tests.

``jsonable`` turned a result into JSON values, and ``json.dumps(...,
sort_keys=True, indent=2)`` wrote them. Both are verbatim apart from the
docstrings and one change: ``FairnessReport.payload()`` now holds results, so ``jsonable``
converts it too. A payload with Lipschitz rows was spliced; the oracles of
``test_lipschitz_scan`` cover those rows instead.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from fairaudit.confusion import GroupedConfusion
from fairaudit.conservativeness import Increment
from fairaudit.measures import MeasureVerdict
from fairaudit.report import _RECORDS, FairnessReport, verdict_status


def jsonable(x: Any) -> Any:
    """The JSON value of a result, as ``report``'s docstring listed: dicts and tuples
    element by element, an unlisted named tuple a ``TypeError``, anything else as is."""
    if isinstance(x, Fraction):
        return {"exact": str(x), "value": float(x)}
    if isinstance(x, GroupedConfusion):
        return jsonable(x.matrices)
    if isinstance(x, Increment):
        return jsonable(x.shifts)
    if isinstance(x, FairnessReport):
        return jsonable(x.payload())
    if isinstance(x, _RECORDS):
        out = {name: jsonable(value) for name, value in zip(x._fields, x)}
        if isinstance(x, MeasureVerdict):
            out["status"] = verdict_status(x)
        return out
    if hasattr(x, "_fields"):
        raise TypeError(f"{type(x).__name__} is a named tuple but not a result jsonable lists")
    if isinstance(x, dict):
        return {key: jsonable(value) for key, value in x.items()}
    if isinstance(x, tuple):
        return [jsonable(item) for item in x]
    return x


def dumps(payload: Any) -> str:
    """``render``'s text of a payload without Lipschitz rows."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"

