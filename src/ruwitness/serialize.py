"""Deterministic text output: 12-significant-digit numbers, stable JSON."""

from __future__ import annotations

import json
from decimal import Decimal


def fmt12(x: float) -> str:
    """Positional decimal with exactly 12 significant digits (no exponent)."""
    return format(Decimal(f"{float(x) + 0.0:.11e}"), "f")  # + 0.0 folds -0.0 to 0.0


def round12(x: float) -> float:
    """Round to 12 significant digits, equal to ``float(fmt12(x))`` with no Decimal."""
    return float(f"{float(x):.11e}") + 0.0


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
