"""The one rule every document loader follows.

A document is JSON text.  Each record in it is an object that names only keys
its parser knows and holds every key its parser reads unconditionally; any
other input is a ParseError.  Error text is built only when a check fails.
A loader that types its fields checks each with ``typed``.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .errors import ParseError


def decode(text: str, what: str) -> Any:
    """The JSON value in ``text``; ParseError "invalid <what> JSON: ..." when there is none."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid {what} JSON: {exc}") from exc


def record(
    doc: Any,
    keys: frozenset[str],
    what: str,
    required: frozenset[str] = frozenset(),
    name: Optional[str] = None,
) -> dict:
    """``doc``, once it is an object with no key outside ``keys`` and every key in ``required``.

    ``what`` names the record in the error text; the value under the key
    ``name``, when given, follows it (``component 'A'``).
    """
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    if not keys.issuperset(doc) or not doc.keys() >= required:
        label = what if name is None else f"{what} {doc.get(name)!r}"
        unknown = doc.keys() - keys
        if unknown:
            raise ParseError(f"unknown keys in {label}: {sorted(unknown)}")
        raise ParseError(f"{label} missing keys: {sorted(required - doc.keys())}")
    return doc


_JSON_TYPES = {
    bool: "a boolean",
    int: "an integer",
    str: "a string",
    list: "a list",
    dict: "an object",
    type(None): "null",
}


def typed(
    doc: dict,
    key: str,
    types: tuple[type, ...],
    what: str,
    name: Optional[str] = None,
    default: Any = None,
) -> Any:
    """``doc[key]`` (``default`` when absent), once its JSON type is one of ``types``.

    Types match exactly, so JSON ``true`` is no integer.  ``what`` and
    ``name`` label the record as in ``record``.
    """
    value = doc.get(key, default)
    if type(value) not in types:
        label = what if name is None else f"{what} {doc.get(name)!r}"
        expected = " or ".join(_JSON_TYPES[t] for t in types)
        raise ParseError(f"{label}: {key!r} must be {expected}")
    return value
