"""Deterministic text output: 12-significant-digit numbers, stable JSON."""

from __future__ import annotations

import json
import math
from decimal import Decimal
from functools import cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter


def fmt12(x: float) -> str:
    """Positional decimal with exactly 12 significant digits (no exponent)."""
    return format(Decimal(f"{float(x) + 0.0:.11e}"), "f")  # + 0.0 folds -0.0 to 0.0


def round12(x: float) -> float:
    """Round to 12 significant digits, equal to ``float(fmt12(x))`` with no Decimal."""
    return float(f"{float(x):.11e}") + 0.0


# Exact types only: subclasses (numpy.float64, IntEnum, ...) take the stdlib
# route, which is the one that defines how they print.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))
_DICT = frozenset((dict,))
_LITERALS = {True: "true", False: "false", None: "null"}
_COLUMN = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii,
           bool: _LITERALS.__getitem__, type(None): _LITERALS.__getitem__}


@cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """C encoder whose item separator is the newline and indent of ``depth``."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))


def _records(items: list, pad: str) -> str | None:
    """A list of flat records printed column by column, or None for the generic route.

    Every record needs the first one's nonempty set of ``str`` keys and every
    column one exact scalar type, finite floats only; ``pad`` is the newline and
    indent of the list's items.
    """
    first = items[0]
    if not (_DICT.issuperset(map(type, items)) and first and _STR.issuperset(map(type, first))
            and set(map(len, items)) == {len(first)}):
        return None
    parts, sep = [], "{" + pad + "  "
    for key in sorted(first):
        try:  # equal lengths and no missing key: the same key set
            column = list(map(itemgetter(key), items))
        except KeyError:
            return None
        kinds = set(map(type, column))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind not in _COLUMN or kind is float and not all(map(math.isfinite, column)):
            return None
        parts += [repeat(f"{sep}{encode_basestring_ascii(key)}: "), map(_COLUMN[kind], column)]
        sep = "," + pad + "  "
    parts.append(repeat(pad + "}," + pad))
    return "".join(chain.from_iterable(zip(*parts)))[: -len(pad) - 1]


def _encode(obj, depth: int) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` as it prints ``depth`` levels deep.

    JSON string escaping never emits a raw newline, so every newline in the
    C encoder's output is one of its item separators.
    """
    kind = type(obj)
    if kind in _SCALARS:
        if kind is str:
            return encode_basestring_ascii(obj)
        return repr(obj) if kind is float and math.isfinite(obj) else json.dumps(obj)
    if kind is not list and not (kind is dict and _STR.issuperset(map(type, obj))):
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)
    brackets = "{}" if kind is dict else "[]"
    if not obj:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    if _SCALARS.issuperset(map(type, obj.values() if kind is dict else obj)):
        body = _flat_encoder(depth + 1).encode(obj)[1:-1]
    elif kind is dict:
        items = sorted(obj.items())
        body = ("," + pad).join(f"{encode_basestring_ascii(k)}: {_encode(v, depth + 1)}" for k, v in items)
    elif (body := _records(obj, pad)) is None:
        body = ("," + pad).join(_encode(v, depth + 1) for v in obj)
    return brackets[0] + pad + body + pad[:-2] + brackets[1]


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    Byte-identical to ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``;
    flat containers go through the C encoder in one call each, and lists of
    same-key flat records are printed one column at a time.
    """
    try:
        return _encode(obj, 0) + "\n"
    except RecursionError:  # a reference cycle or very deep nesting: the stdlib reports it
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
