"""Parsed JSON checked against the type annotations of the fields it fills.

Config files, learner parameters and bundle manifests all reach dataclass
fields as parsed JSON. decode checks one value against one annotation and
raises DecodeError naming the dotted key path where it failed; each caller
maps that error onto its own error type. Standard library only.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from dataclasses import fields, is_dataclass

type_hints = functools.cache(typing.get_type_hints)

# The Python types json.loads returns for a value of each annotated type.
_JSON_TYPES = {str: {str}, int: {int}, float: {int, float}, bool: {bool}}


class DecodeError(Exception):
    """A value that does not fit its annotation: where it is, and the problem."""

    def __init__(self, where: str, problem: str):
        super().__init__(f"{where}: {problem}")
        self.where, self.problem = where, problem


def _plain(values, hint) -> bool:
    """Whether all values are JSON scalars of the annotated type; a float
    must be finite, as json.loads also accepts NaN and Infinity."""
    return set(map(type, values)) <= _JSON_TYPES.get(hint, set()) and (
        hint is not float or all(map(math.isfinite, values))
    )


def get(section: dict, key: str, hint, where: str = ""):
    """section[key] decoded against hint; a missing key is an error."""
    path = f"{where}.{key}" if where else key
    if key not in section:
        raise DecodeError(path, "missing")
    return decode(section[key], hint, path)


def record(section: dict, cls, keys, where: str = "") -> dict:
    """The given fields of cls, each checked against its annotation."""
    hints = type_hints(cls)
    return {key: get(section, key, hints[key], where) for key in keys}


def decode(value, hint, where: str):
    """A JSON value checked against a type annotation; JSON lists become
    the tuple or frozenset the annotation names, and a dataclass must be an
    object holding every one of its fields."""
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin is types.UnionType:  # every union here is X | None
        return None if value is None else decode(value, args[0], where)
    if _plain((value,), origin):
        return value
    if is_dataclass(origin) and isinstance(value, dict):
        return record(value, origin, [f.name for f in fields(origin)], where)
    if origin in (list, tuple, frozenset) and isinstance(value, list):
        if origin is tuple and Ellipsis not in args and len(value) != len(args):
            raise DecodeError(where, f"expected {len(args)} items, got {len(value)}")
        # Items are decoded one by one only when they are not all plain,
        # which keeps long term lists cheap.
        if not _plain(value, args[0]):
            value = [
                decode(item, args[0], f"{where}[{i}]") for i, item in enumerate(value)
            ]
        return origin(value)
    if origin is dict and isinstance(value, dict):
        if args and not _plain(value.values(), args[1]):
            value = {
                key: decode(item, args[1], f"{where}.{key}")
                for key, item in value.items()
            }
        return value
    expected = hint.__name__ if isinstance(hint, type) else str(hint)
    got = type(value).__name__ if isinstance(value, (list, dict)) else repr(value)
    raise DecodeError(where, f"expected {expected}, got {got}")
