"""Instance and solution file formats, plus the trace CSV writer.

Instances travel as JSON documents with numeric fields stored as strings,
so fixtures stay diff-friendly and exact::

    {
      "schema_version": 1,
      "candidates": ["c1", "c2"],
      "voters": [
        {"name": "v",
         "bundles": [
           {"members": ["c1", "c2"], "budget": "1", "delegate": "u",
            "notion": "WCC", "weight": "10", "default": ["0.5", "0.5"]}
         ]}
      ]
    }

Numeric strings are decimal literals or rationals like ``"10/7"``; they
are parsed exactly and then converted to doubles.  Serialization emits
the shortest decimal that round-trips each double, so parsing a
serialized instance reproduces it bit for bit.  Unknown fields are
rejected.

Solutions are JSON documents carrying the row-major matrix together with
the orderings it is indexed by.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from .model import (
    Bundle,
    ElectionInstance,
    InvalidInstanceError,
    Notion,
    validate_instance,
)

INSTANCE_SCHEMA_VERSION = 1
SOLUTION_SCHEMA_VERSION = 1


class InstanceSyntaxError(ValueError):
    """Malformed instance or solution document, with a location."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


def _number(value, location):
    """Parse a numeric field: a decimal or ``p/q`` string, or a JSON number."""
    if isinstance(value, bool):
        raise InstanceSyntaxError("expected a number, got a boolean", location)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            if "/" in value:
                return float(Fraction(value))
            return float(Decimal(value))
        except (InvalidOperation, ValueError, ZeroDivisionError):
            raise InstanceSyntaxError(f"invalid number {value!r}", location) from None
    raise InstanceSyntaxError(f"expected a number, got {type(value).__name__}", location)


def _finite(value, location):
    """``_number``, refusing NaN and infinite values."""
    number = _number(value, location)
    if not math.isfinite(number):
        raise InstanceSyntaxError(f"non-finite value {value!r}", location)
    return number


def _matrix(rows, shape, location) -> np.ndarray:
    """A finite ``(n, m)`` matrix from ``n`` lists of ``m`` numbers; errors name the cell."""
    n, m = shape
    if not (
        isinstance(rows, list)
        and len(rows) == n
        and all(isinstance(row, list) and len(row) == m for row in rows)
    ):
        raise InstanceSyntaxError(f"expected a {n} x {m} row-major matrix", location)
    cells = [
        [_finite(v, f"{location}[{i}][{j}]") for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return np.array(cells, dtype=float).reshape(shape)


def _require(doc, keys, optional, location):
    if not isinstance(doc, dict):
        raise InstanceSyntaxError("expected an object", location)
    unknown = set(doc) - set(keys) - set(optional)
    if unknown:
        raise InstanceSyntaxError(
            "unknown fields: " + ", ".join(sorted(unknown)), location
        )
    for key in keys:
        if key not in doc:
            raise InstanceSyntaxError(f"missing field {key!r}", location)


def _string_list(value, location):
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise InstanceSyntaxError("expected a list of strings", location)
    return value


def instance_from_doc(doc) -> ElectionInstance:
    """Build an instance from a parsed JSON document, without validating."""
    _require(doc, ("schema_version", "candidates", "voters"), (), "instance")
    if doc["schema_version"] != INSTANCE_SCHEMA_VERSION:
        raise InstanceSyntaxError(
            f"unsupported schema_version {doc['schema_version']!r}", "instance"
        )
    candidates = _string_list(doc["candidates"], "candidates")
    if not isinstance(doc["voters"], list):
        raise InstanceSyntaxError("expected a list of voter records", "voters")

    voters = []
    delegations = []
    for i, record in enumerate(doc["voters"]):
        where = f"voters[{i}]"
        _require(record, ("name", "bundles"), (), where)
        if not isinstance(record["name"], str):
            raise InstanceSyntaxError("voter name must be a string", where)
        voters.append(record["name"])
        if not isinstance(record["bundles"], list):
            raise InstanceSyntaxError("expected a list of bundles", where)
        bundles = []
        for j, bdoc in enumerate(record["bundles"]):
            bwhere = f"{where}.bundles[{j}]"
            _require(
                bdoc,
                ("members", "budget", "delegate", "notion"),
                ("weight", "default"),
                bwhere,
            )
            members = _string_list(bdoc["members"], f"{bwhere}.members")
            if not isinstance(bdoc["delegate"], str):
                raise InstanceSyntaxError("delegate must be a string", bwhere)
            notion = bdoc["notion"]
            if not isinstance(notion, str) or notion not in Notion._value2member_map_:
                raise InstanceSyntaxError(f"invalid notion {notion!r}", bwhere)
            default = None
            if "default" in bdoc:
                if not isinstance(bdoc["default"], list):
                    raise InstanceSyntaxError("default must be a list", bwhere)
                default = tuple(
                    _number(d, f"{bwhere}.default[{k}]")
                    for k, d in enumerate(bdoc["default"])
                )
            bundles.append(
                Bundle(
                    members=tuple(members),
                    budget=_number(bdoc["budget"], f"{bwhere}.budget"),
                    delegate=bdoc["delegate"],
                    notion=notion,
                    weight=(
                        _number(bdoc["weight"], f"{bwhere}.weight")
                        if "weight" in bdoc
                        else None
                    ),
                    default=default,
                )
            )
        delegations.append(tuple(bundles))

    return ElectionInstance(tuple(candidates), tuple(voters), tuple(delegations))


def parse_instance(text) -> ElectionInstance:
    """Parse and validate an instance document.

    Raises ``InstanceSyntaxError`` (with line/position for malformed
    JSON, or a field path for structural problems) and
    ``InvalidInstanceError`` carrying the full validation report when the
    instance breaks a model rule.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceSyntaxError(exc.msg, f"line {exc.lineno} column {exc.colno}") from None
    instance = instance_from_doc(doc)
    report = validate_instance(instance)
    if not report.ok:
        raise InvalidInstanceError(report)
    return instance


def _format_number(value) -> str:
    """Shortest decimal string that parses back to the same double.

    Whole numbers below 1e16 print without a decimal point; non-finite
    values print as ``nan``, ``inf`` and ``-inf``.
    """
    value = float(value)
    if math.isfinite(value) and value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def instance_to_doc(instance) -> dict:
    voters = []
    for voter, bundles in zip(instance.voters, instance.delegations):
        records = []
        for bundle in bundles:
            record = {
                "members": list(bundle.members),
                "budget": _format_number(bundle.budget),
                "delegate": bundle.delegate,
                "notion": bundle.notion.value,
            }
            if bundle.weight is not None:
                record["weight"] = _format_number(bundle.weight)
            if bundle.default is not None:
                record["default"] = [_format_number(d) for d in bundle.default]
            records.append(record)
        voters.append({"name": voter, "bundles": records})
    return {
        "schema_version": INSTANCE_SCHEMA_VERSION,
        "candidates": list(instance.candidates),
        "voters": voters,
    }


def serialize_instance(instance) -> str:
    """Instance as a stable, diff-friendly JSON text."""
    return json.dumps(instance_to_doc(instance), indent=2) + "\n"


def solution_to_doc(instance, x) -> dict:
    x = np.asarray(x, dtype=float)
    return {
        "schema_version": SOLUTION_SCHEMA_VERSION,
        "candidates": list(instance.candidates),
        "voters": list(instance.voters),
        "values": [[float(v) for v in row] for row in x],
    }


def serialize_solution(instance, x) -> str:
    """Solution matrix as JSON, row-major, with its orderings."""
    return json.dumps(solution_to_doc(instance, x), indent=2) + "\n"


def parse_solution(text, instance) -> np.ndarray:
    """Load a solution matrix and check it targets ``instance``.

    The document's candidate and voter orderings must match the
    instance's exactly; the matrix shape is checked against them, and
    NaN or infinite values are refused.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceSyntaxError(exc.msg, f"line {exc.lineno} column {exc.colno}") from None
    _require(doc, ("schema_version", "candidates", "voters", "values"), (), "solution")
    if doc["schema_version"] != SOLUTION_SCHEMA_VERSION:
        raise InstanceSyntaxError(
            f"unsupported schema_version {doc['schema_version']!r}", "solution"
        )
    if tuple(_string_list(doc["candidates"], "candidates")) != instance.candidates:
        raise InstanceSyntaxError("candidate ordering does not match the instance", "candidates")
    if tuple(_string_list(doc["voters"], "voters")) != instance.voters:
        raise InstanceSyntaxError("voter ordering does not match the instance", "voters")
    return _matrix(doc["values"], (instance.n, instance.m), "values")


def trace_csv(trajectory) -> str:
    """Residual trajectory as CSV: iteration, l1_residual, linf_residual."""
    lines = ["iteration,l1_residual,linf_residual"]
    for i, (l1, linf) in enumerate(trajectory):
        lines.append(f"{i},{l1!r},{linf!r}")
    return "\n".join(lines) + "\n"
