"""Deterministic text output: 12-significant-digit numbers, stable JSON."""

from __future__ import annotations

import json
import math
from decimal import Decimal
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii


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


@cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """C encoder whose item separator is the newline and indent of ``depth``."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))


def _is_record_list(items: list) -> bool:
    """Whether every item is a nonempty dict with ``str`` keys and scalar values."""
    return (
        _DICT.issuperset(map(type, items))
        and all(items)
        and _STR.issuperset(map(type, chain.from_iterable(items)))
        and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, items))))
    )


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
    elif kind is list and _is_record_list(obj):
        # Records are one level deeper than the list's items, so the C
        # encoder's separator between two records is the token "},<inner>{".
        inner = pad + "  "
        records = _flat_encoder(depth + 2).encode(obj)[2:-2]
        records = records.replace("}," + inner + "{", pad + "}," + pad + "{" + inner)
        body = "{" + inner + records + pad + "}"
    elif kind is dict:
        items = sorted(obj.items())
        body = ("," + pad).join(f"{encode_basestring_ascii(k)}: {_encode(v, depth + 1)}" for k, v in items)
    else:
        body = ("," + pad).join(_encode(v, depth + 1) for v in obj)
    return brackets[0] + pad + body + pad[:-2] + brackets[1]


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    Byte-identical to ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``;
    flat containers and lists of flat records go through the C encoder in one
    call each.
    """
    try:
        return _encode(obj, 0) + "\n"
    except RecursionError:  # a reference cycle or very deep nesting: the stdlib reports it
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
