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

The writers produce the text of ``json.dumps(doc, indent=2)`` byte for
byte, without the pure-Python encoder that an indent selects: the lazily
imported ``_documents`` lays out the two schemas with string joins (a
solution holding NaN or infinite values still goes through
``json.dumps``).  The reader checks the voter records a column at a
time, and walks them field by field only when a column is in doubt, so
that an error still names the first bad field.
"""

from __future__ import annotations

import itertools
import json
import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from .model import ElectionInstance, InvalidInstanceError, validate_instance

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
    """A finite ``(n, m)`` matrix from ``n`` lists of ``m`` numbers; errors name the cell.

    Cells that are all ``int`` or ``float`` are converted in one ``np.array``
    call, as ``float`` converts each; any other cell, and a non-finite
    value, sends the matrix through ``_finite`` cell by cell.
    """
    n, m = shape
    if not (
        isinstance(rows, list)
        and len(rows) == n
        and all(isinstance(row, list) and len(row) == m for row in rows)
    ):
        raise InstanceSyntaxError(f"expected a {n} x {m} row-major matrix", location)
    if set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        try:
            x = np.array(rows, dtype=float).reshape(shape)
        except OverflowError:  # an int past the float range, which _finite raises on
            pass
        else:
            if np.isfinite(x).all():
                return x
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


#: Required and optional fields of a bundle record, and both as sets.
_BUNDLE_REQUIRED = ("members", "budget", "delegate", "notion")
_BUNDLE_OPTIONAL = ("weight", "default")
_REQUIRED_FIELDS = frozenset(_BUNDLE_REQUIRED)
_BUNDLE_FIELDS = _REQUIRED_FIELDS | frozenset(_BUNDLE_OPTIONAL)

def _numbers(bundle_docs, counts):
    """Budgets, weights and default entries of the bundles, by ``_number``.

    Walks the bundle records in document order, ``counts[i]`` of them for
    voter ``i``, so the first bad number raises with its location.
    Absent weights and defaults are skipped.
    """
    budgets, weights, defaults = [], [], []
    bundle_docs = iter(bundle_docs)
    for i, count in enumerate(counts):
        for j, bdoc in zip(range(count), bundle_docs):
            where = f"voters[{i}].bundles[{j}]"
            if "default" in bdoc:
                defaults += [
                    _number(d, f"{where}.default[{k}]") for k, d in enumerate(bdoc["default"])
                ]
            budgets.append(_number(bdoc["budget"], f"{where}.budget"))
            if "weight" in bdoc:
                weights.append(_number(bdoc["weight"], f"{where}.weight"))
    return budgets, weights, defaults


def _walk(records):
    """Check the voter records field by field, raising at the first bad one.

    A bad number in an earlier bundle is reported before a structural
    error in a later one; ``_documents.read_columns`` converts the numbers
    of records that pass.
    """
    from ._columns import NOTION_CODES

    counts = []  # bundle records of each voter
    bundle_docs = []
    try:
        for i, record in enumerate(records):
            where = f"voters[{i}]"
            _require(record, ("name", "bundles"), (), where)
            if not isinstance(record["name"], str):
                raise InstanceSyntaxError("voter name must be a string", where)
            if not isinstance(record["bundles"], list):
                raise InstanceSyntaxError("expected a list of bundles", where)
            counts.append(len(record["bundles"]))
            for j, bdoc in enumerate(record["bundles"]):
                if not (
                    isinstance(bdoc, dict)
                    and _REQUIRED_FIELDS <= bdoc.keys() <= _BUNDLE_FIELDS
                ):
                    _require(bdoc, _BUNDLE_REQUIRED, _BUNDLE_OPTIONAL, f"{where}.bundles[{j}]")
                members = bdoc["members"]
                if not (isinstance(members, list) and all(isinstance(c, str) for c in members)):
                    _string_list(members, f"{where}.bundles[{j}].members")
                if not isinstance(bdoc["delegate"], str):
                    raise InstanceSyntaxError("delegate must be a string", f"{where}.bundles[{j}]")
                notion = bdoc["notion"]
                if not isinstance(notion, str) or notion not in NOTION_CODES:
                    raise InstanceSyntaxError(f"invalid notion {notion!r}", f"{where}.bundles[{j}]")
                if "default" in bdoc and not isinstance(bdoc["default"], list):
                    raise InstanceSyntaxError("default must be a list", f"{where}.bundles[{j}]")
                bundle_docs.append(bdoc)
    except InstanceSyntaxError:
        _numbers(bundle_docs, counts)  # a bad number earlier in the document comes first
        raise


def instance_from_doc(doc) -> ElectionInstance:
    """Build an instance from a parsed JSON document, without validating.

    The voter records are read a column at a time into a
    ``_columns.BundleColumns`` that the instance carries, with no
    ``Bundle`` objects; its plan is compiled from them on first use.
    Records that the column checks doubt are walked field by field, so
    that an error names the first bad field in document order.
    """
    from ._documents import read_columns  # compiled on the first parse only

    _require(doc, ("schema_version", "candidates", "voters"), (), "instance")
    if doc["schema_version"] != INSTANCE_SCHEMA_VERSION:
        raise InstanceSyntaxError(
            f"unsupported schema_version {doc['schema_version']!r}", "instance"
        )
    candidates = _string_list(doc["candidates"], "candidates")
    records = doc["voters"]
    if not isinstance(records, list):
        raise InstanceSyntaxError("expected a list of voter records", "voters")
    read = read_columns(records, candidates)
    if read is None:
        _walk(records)
        read = read_columns(records, candidates, checked=True)
    return ElectionInstance._from_columns(candidates, *read)


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
    del doc  # the instance keeps what it needs; validation runs without the document
    report = validate_instance(instance)
    if not report.ok:
        raise InvalidInstanceError(report)
    return instance


def _format_number(value) -> str:
    """Shortest decimal string that parses back to the same double.

    The ``repr`` of the double with a trailing ``.0`` dropped and ``-0``
    written ``0``: whole numbers below 1e16 print without a decimal point
    (``repr`` writes larger ones with an exponent), non-finite values as
    ``nan``, ``inf`` and ``-inf``.
    """
    text = repr(float(value) + 0.0)  # adding 0.0 turns -0.0 into 0.0
    return text[:-2] if text.endswith(".0") else text


def _format_numbers(values) -> list[str]:
    """``_format_number`` of every entry of the array ``values``, in C order.

    The same rule applied to the newline-joined text of all entries at once.
    """
    text = "\n".join(map(float.__repr__, (np.asarray(values, dtype=float).ravel() + 0.0).tolist()))
    return (text + "\n").replace(".0\n", "\n").split("\n")[:-1] if text else []


def instance_to_doc(instance) -> dict:
    """The document of ``instance``, built from its columns, not its ``Bundle`` view."""
    from ._columns import NOTIONS

    columns = instance._columns
    members = iter(columns.members)
    budgets, weights, defaults = (
        iter(_format_numbers(column))
        for column in (columns.budget, columns.weight[columns.has_weight], columns.default)
    )
    records = []
    for delegate, code, size, weighted, default_size in zip(
        columns.delegates, columns.notion.tolist(), columns.size.tolist(),
        columns.has_weight.tolist(), columns.default_size.tolist(),
    ):
        record = {
            "members": list(itertools.islice(members, size)),
            "budget": next(budgets),
            "delegate": delegate,
            "notion": NOTIONS[code].value,
        }
        if weighted:
            record["weight"] = next(weights)
        if default_size >= 0:
            record["default"] = list(itertools.islice(defaults, default_size))
        records.append(record)
    ends = np.cumsum(np.bincount(columns.voter, minlength=instance.n)).tolist()
    rows = min(instance.n, instance._rows)  # as a zip of voters with their rows
    return {
        "schema_version": INSTANCE_SCHEMA_VERSION,
        "candidates": list(instance.candidates),
        "voters": [
            {"name": voter, "bundles": records[lo:hi]}
            for voter, lo, hi in zip(instance.voters[:rows], [0, *ends], ends)
        ],
    }


def serialize_instance(instance) -> str:
    """Instance as a stable, diff-friendly JSON text: ``json.dumps(doc, indent=2)``."""
    from ._documents import instance_text

    doc = instance_to_doc(instance)
    try:
        return instance_text(doc)
    except TypeError:  # a name that is not a string
        return json.dumps(doc, indent=2) + "\n"


def solution_to_doc(instance, x) -> dict:
    x = np.asarray(x, dtype=float)
    return {
        "schema_version": SOLUTION_SCHEMA_VERSION,
        "candidates": list(instance.candidates),
        "voters": list(instance.voters),
        "values": x.tolist() if x.ndim == 2 else [[float(v) for v in row] for row in x],
    }


def serialize_solution(instance, x) -> str:
    """Solution matrix as JSON, row-major, with its orderings: ``json.dumps(doc, indent=2)``."""
    from ._documents import solution_text

    x = np.asarray(x, dtype=float)
    doc = solution_to_doc(instance, x)
    if np.isfinite(x).all():
        try:
            return solution_text(doc)
        except TypeError:  # a name that is not a string
            pass
    return json.dumps(doc, indent=2) + "\n"


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
