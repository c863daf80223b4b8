"""Deterministic text output: 12-significant-digit numbers, and canonical JSON from the
standard library's encoder with a column path for lists of flat records and of scalars."""

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


# 10^k for 0 <= k <= 22, each one a float exactly (5^22 < 2^53)
_POW10 = tuple(float(10**k) for k in range(23))


def _significands(x):
    """(e, m, p, ok) for a float array x: where ``ok``, m is the integer whose 12 digits
    ``fmt12(x)`` prints, e is the decimal exponent of x and p = 10^|11 - e|.

    y = |x| 10^(11 - e) is one multiply or divide by the exact p, so it lies within half
    an ulp of the exact product, at most 6.1e-5 below 1e12, and m = rint(y) is the
    correctly rounded significand unless y lies that near a half-integer (Clinger 1990;
    Ziv 1991).  ``ok`` keeps only x != 0 with |11 - e| <= 22, 1e11 <= y, m < 1e12 and
    |frac(y) - 1/2| > 1e-3; an e that log10 misjudged fails the two bounds on y and m,
    or gives y = 1e11 exactly, whose digits are right.  Any other value needs the
    scalar route.
    """
    import numpy as np

    with np.errstate(all="ignore"):  # log10(0) and non-finite values fail ``ok`` below
        a = np.abs(x)
        e = np.floor(np.log10(a))
        ok = np.abs(11 - e) <= 22
        p = np.array(_POW10)[np.where(ok, np.abs(11 - e), 0).astype(np.intp)]
        y = np.where(e <= 11, a * p, a / p)
        m = np.rint(y)
        ok &= (y >= 1e11) & (m < 1e12) & (np.abs(y - np.floor(y) - 0.5) > 1e-3)
    return e, m, p, ok


def _per_distinct(convert, values) -> list:
    """``convert`` applied once to the distinct values of a column, as a list, and its
    results spread back over the column; values that are == (-0.0 and 0.0) share one."""
    distinct = dict.fromkeys(values)
    return list(map(dict(zip(distinct, convert(list(distinct)))).__getitem__, values))


def _fmt12_column(values) -> list[str]:
    """``list(map(fmt12, values))``, which prints -0.0 as 0.0, each value formatted once."""
    return _per_distinct(_fmt12_distinct, values)


def _fmt12_distinct(values: list) -> list[str]:
    """``fmt12`` of each value: with decimal exponent -11 <= e < 0, sign, "0.", -e - 1
    zeros and m from ``_significands``; any other value by ``fmt12`` itself."""
    import numpy as np

    x = np.array(values, dtype=float)
    e, m, _, ok = _significands(x)
    ok &= e < 0
    # prefix row: 0-10 for the exponents -1 to -11 of positive values, 11-21 of negative ones
    prefixes = np.array([sign + "0." + "0" * z for sign in ("", "-") for z in range(11)], dtype=object)
    row = np.where(ok, -1 - e + 11 * np.signbit(x), 0).astype(np.intp)
    text = list(map(str.__add__, prefixes[row].tolist(), map(str, np.where(ok, m, 0).astype(np.int64).tolist())))
    for i in np.flatnonzero(~ok).tolist():
        text[i] = fmt12(values[i])
    return text


def _round12_column(values) -> list[float]:
    """``list(map(round12, values))``, which folds -0.0 into 0.0, each value rounded once,
    so that equal values share one float."""
    return _per_distinct(_round12_distinct, values)


def _round12_distinct(values: list) -> list[float]:
    """``round12`` of each value: m / 10^(11 - e) from ``_significands`` is one correctly
    rounded operation on exact operands, so it is the float nearest the 12-digit
    decimal, as ``round12`` parses it; any other value by ``round12`` itself."""
    import numpy as np

    x = np.array(values, dtype=float)
    e, m, p, ok = _significands(x)
    out = np.copysign(np.where(e <= 11, m / p, m * p), x).tolist()
    for i in np.flatnonzero(~ok).tolist():
        out[i] = round12(values[i])
    return out


_STR = frozenset((str,))
_DICT = frozenset((dict,))
_LITERALS = {True: "true", False: "false", None: "null"}


def _float_reprs(column: list[float]) -> list[str] | None:
    """``list(map(repr, column))``, each distinct value printed once; None if one is not
    finite.  Finite floats that are == have one bit pattern, except -0.0 and 0.0, which
    print apart, so a column that holds both is printed value by value."""
    if not all(map(math.isfinite, column)):
        return None
    if len({math.copysign(1.0, z) for z in filter(not_, column)}) > 1:
        return list(map(float.__repr__, column))
    return _per_distinct(partial(map, float.__repr__), column)


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
