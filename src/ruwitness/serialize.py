"""Deterministic text output: 12-significant-digit numbers, and canonical JSON from the
standard library's encoder with a column path for lists of flat records and of scalars.

Standard library only.  The sweep writers' numpy column kernels, which print and round
whole columns as :func:`fmt12` and :func:`round12` do, live in :mod:`ruwitness.robustness`."""

from __future__ import annotations

import json
import math
from decimal import Decimal
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter, not_


def fmt12(x: float) -> str:
    """Positional decimal with exactly 12 significant digits (no exponent)."""
    return format(Decimal(f"{float(x) + 0.0:.11e}"), "f")  # + 0.0 folds -0.0 to 0.0


def round12(x: float) -> float:
    """Round to 12 significant digits, equal to ``float(fmt12(x))`` with no Decimal."""
    return float(f"{float(x):.11e}") + 0.0


_STR = frozenset((str,))
_DICT = frozenset((dict,))
_LITERALS = {True: "true", False: "false", None: "null"}


def _float_reprs(column: list[float]) -> list[str] | None:
    """``list(map(repr, column))``, each distinct value printed once; None if one is not
    finite.  Both checks read the distinct values: finite floats that are == have one bit
    pattern, except -0.0 and 0.0, which print apart, so a column with a zero is searched for
    both signs and, if it holds both, printed value by value."""
    distinct = dict.fromkeys(column)
    if not all(map(math.isfinite, distinct)):
        return None
    if 0.0 in distinct and len({math.copysign(1.0, z) for z in filter(not_, column)}) > 1:
        return list(map(float.__repr__, column))
    return list(map(dict(zip(distinct, map(float.__repr__, distinct))).__getitem__, column))


# exact type -> the text of one scalar, or of a column (None: the stdlib route, which alone prints subclasses)
_SCALAR = {int: int.__repr__, str: encode_basestring_ascii, bool: _LITERALS.get, type(None): _LITERALS.get}
_COLUMN = {float: _float_reprs, **{kind: partial(map, text) for kind, text in _SCALAR.items()}}
_STDLIB = json.JSONEncoder(indent=2, sort_keys=True).encode


def _column_texts(column: list):
    """The texts of a nonempty column of one exact ``_COLUMN`` type, or None for the stdlib route."""
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    return _COLUMN[kind](column) if kind in _COLUMN else None


def _records(items: list, pad: str) -> str | None:
    """A list of flat records printed column by column, or None for the stdlib route.

    Every record needs the first one's nonempty set of ``str`` keys and every
    column one exact scalar type, finite floats only; ``pad`` is the newline and
    indent of the list's items.  A float column prints each distinct value once.
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
        if (texts := _column_texts(column)) is None:
            return None
        parts += [repeat(f"{sep}{encode_basestring_ascii(key)}: "), texts]
        sep = "," + pad + "  "
    parts.append(repeat(pad + "}," + pad))
    return "".join(chain.from_iterable(zip(*parts)))[: -len(pad) - 1]


def _encode(obj, depth: int) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` as it prints ``depth`` levels deep; each
    newline in the stdlib's text is a line break of its layout, as no JSON string holds one."""
    kind = type(obj)
    if kind is float and math.isfinite(obj):  # as _float_reprs prints it, without its dicts
        return float.__repr__(obj)
    if kind in _SCALAR:
        return _SCALAR[kind](obj)
    pad = "\n" + "  " * (depth + 1)
    if kind is dict and obj and _STR.issuperset(map(type, obj)):
        body = ("," + pad).join(f"{encode_basestring_ascii(k)}: {_encode(v, depth + 1)}" for k, v in sorted(obj.items()))
        return "{" + pad + body + pad[:-2] + "}"
    if kind is list and obj:  # flat records column by column, else scalars of one type item by item
        if (body := _records(obj, pad)) is None and (texts := _column_texts(obj)) is not None:
            body = ("," + pad).join(texts)
        if body is not None:
            return "[" + pad + body + pad[:-2] + "]"
    return _STDLIB(obj).replace("\n", pad[:-2])


def dumps(obj) -> str:
    """Canonical JSON text, byte-identical to ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``:
    dicts with ``str`` keys print key by key, same-key flat records column by column
    (:func:`_records`), lists of one exact scalar type item by item, exact scalars directly
    and all else by the stdlib encoder."""
    try:
        return _encode(obj, 0) + "\n"
    except RecursionError:  # a reference cycle or very deep nesting: the stdlib reports it
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
