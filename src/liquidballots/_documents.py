"""Instance and solution documents as text, written and read a column at a time.

``io`` defines the two formats and their public functions; this module
holds their fast paths, and ``io`` imports it on first use, so that
importing the package does not compile it.

* ``instance_text`` and ``solution_text`` lay out the documents that
  ``io.instance_to_doc`` and ``io.solution_to_doc`` build, as
  ``json.dumps(doc, indent=2) + "\\n"`` would, byte for byte.  With an
  indent, ``json.dumps`` runs its pure-Python encoder; these writers know
  the schema and join whole lists at once.  Strings go through
  ``json.encoder.encode_basestring_ascii``, as in ``json.dumps``, and
  numbers through ``float.__repr__``.
* ``read_columns`` reads the voter records of an instance document into
  a ``_columns.BundleColumns``.  Each field is checked for a whole column
  at once, by the set of its values' types; on any doubt it returns
  ``None``, and ``io`` walks the records to name the first bad field.
"""

from __future__ import annotations

import math
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import contains, itemgetter

import numpy as np

from ._columns import NOTION_CODES, BundleColumns
from .io import _numbers


def _list(items, depth) -> str:
    """The text of a list of JSON texts ``items``, nested ``depth`` levels deep."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _strings(values, depth) -> str:
    return _list(list(map(_quote, values)), depth)


def instance_text(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` of a document from ``io.instance_to_doc``.

    Raises ``TypeError`` where a name or number is not a string.
    """
    voters = []
    for record in doc["voters"]:
        bundles = []
        for bundle in record["bundles"]:
            text = (
                '{\n          "members": ' + _strings(bundle["members"], 5)
                + ',\n          "budget": ' + _quote(bundle["budget"])
                + ',\n          "delegate": ' + _quote(bundle["delegate"])
                + ',\n          "notion": ' + _quote(bundle["notion"])
            )
            if "weight" in bundle:
                text += ',\n          "weight": ' + _quote(bundle["weight"])
            if "default" in bundle:
                text += ',\n          "default": ' + _strings(bundle["default"], 5)
            bundles.append(text + "\n        }")
        voters.append(
            '{\n      "name": ' + _quote(record["name"])
            + ',\n      "bundles": ' + _list(bundles, 3) + "\n    }"
        )
    return (
        f'{{\n  "schema_version": {doc["schema_version"]:d},\n  "candidates": '
        + _strings(doc["candidates"], 1) + ',\n  "voters": ' + _list(voters, 1) + "\n}\n"
    )


def solution_text(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` of a document from ``io.solution_to_doc``
    whose values are all finite (``json.dumps`` writes others as ``NaN``,
    ``Infinity``).  Raises ``TypeError`` where a name is not a string.
    """
    rows = [_list(list(map(float.__repr__, row)), 2) for row in doc["values"]]
    return (
        f'{{\n  "schema_version": {doc["schema_version"]:d},\n  "candidates": '
        + _strings(doc["candidates"], 1) + ',\n  "voters": ' + _strings(doc["voters"], 1)
        + ',\n  "values": ' + _list(rows, 1) + "\n}\n"
    )


#: Every byte of a column of plain decimals, joined by newlines.
_DECIMAL_BYTES = b"0123456789.+-eE\n"


def _floats(cells):
    """``io._number`` of every cell of a column of plain decimal strings, else ``None``.

    Over the characters of plain decimals (digits, ``.``, signs and an
    exponent) ``float`` and ``Decimal`` accept the same strings, and
    ``float(s)`` is the double nearest to the exact value, as
    ``float(Decimal(s))`` is.  The one exception is an exponent past
    ``Decimal``'s range, which ``_number`` refuses and ``float`` reads as
    0 or inf; columns holding one, rationals, JSON numbers or anything
    else are left to ``_number``.
    """
    try:
        text = "\n".join(cells)
    except TypeError:  # a cell that is not a string
        return None
    if not text.isascii() or text.encode().translate(None, _DECIMAL_BYTES):
        return None
    try:
        values = list(map(float, cells))
    except ValueError:
        return None
    if ("e" in text or "E" in text) and any(
        (v == 0.0 or math.isinf(v)) and ("e" in c or "E" in c) for v, c in zip(values, cells)
    ):
        return None
    return values


def _all(values, kind) -> bool:
    """True iff every one of ``values`` is exactly of type ``kind``."""
    return set(map(type, values)) <= {kind}


_VOTER_FIELDS = {"name", "bundles"}


def read_columns(records, candidates, checked=False):
    """The voter names and the ``BundleColumns`` of an instance document's voter records.

    ``None``, unless the records were ``checked`` by ``io``'s walk, where
    any field may be malformed: each column is tested at once by the set
    of its values' types, which the records ``json.loads`` makes of a
    well-formed document pass.  Budgets, weights and default entries
    are converted a column at a time by ``_floats``, or else by
    ``io._numbers``, which raises at the first bad number in document
    order.
    """
    if not (checked or _all(records, dict) and all(r.keys() == _VOTER_FIELDS for r in records)):
        return None
    voters = list(map(itemgetter("name"), records))
    lists = list(map(itemgetter("bundles"), records))
    if not (checked or _all(voters, str) and _all(lists, list)):
        return None
    docs = list(chain.from_iterable(lists))
    if not (checked or _all(docs, dict)):
        return None
    try:
        members, delegates, notions, budgets = (
            list(map(itemgetter(key), docs)) for key in ("members", "delegate", "notion", "budget")
        )
    except KeyError:  # a bundle without a required field
        return None
    has_weight = list(map(contains, docs, repeat("weight")))
    has_default = list(map(contains, docs, repeat("default")))
    defaults = list(map(itemgetter("default"), compress(docs, has_default)))
    if not (
        checked
        # each bundle has its required fields, so equal totals leave none with an unknown one
        or sum(map(len, docs)) == 4 * len(docs) + sum(has_weight) + sum(has_default)
        and _all(members, list) and _all(delegates, str) and _all(notions, str) and _all(defaults, list)
    ):
        return None
    names = list(chain.from_iterable(members))
    if not (checked or _all(names, str) and set(notions) <= NOTION_CODES.keys()):
        return None

    counts = list(map(len, lists))
    numbers = [
        _floats(list(column))
        for column in (
            budgets,
            map(itemgetter("weight"), compress(docs, has_weight)),
            chain.from_iterable(defaults),
        )
    ]
    if any(column is None for column in numbers):
        numbers = _numbers(docs, counts)
    budget, weight, default = (np.array(column, dtype=float) for column in numbers)
    has_weight = np.array(has_weight, dtype=bool)
    weights = np.full(len(docs), math.nan)
    weights[has_weight] = weight
    default_size = np.full(len(docs), -1)
    default_size[np.array(has_default, dtype=bool)] = list(map(len, defaults))
    voter_index = {v: i for i, v in enumerate(voters)}
    candidate_index = {c: i for i, c in enumerate(candidates)}
    return voters, BundleColumns(
        voter=np.repeat(np.arange(len(voters)), counts),
        delegate=np.array(list(map(voter_index.get, delegates, repeat(-1))), dtype=int),
        notion=np.array(list(map(NOTION_CODES.__getitem__, notions)), dtype=int),
        size=np.array(list(map(len, members)), dtype=int),
        budget=budget,
        weight=weights,
        has_weight=has_weight,
        default_size=default_size,
        cols=np.array(list(map(candidate_index.get, names, repeat(-1))), dtype=int),
        default=default,
        members=names,
        delegates=delegates,
    )
