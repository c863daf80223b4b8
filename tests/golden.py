"""Frozen expected values for the unit tests."""

from fractions import Fraction

# Golden witness decompositions.  The sixteen strings and their signs follow
# each witness's standard local form; the magnitudes (7/16 identity,
# 1/16 elsewhere) are forced by W = Id/2 - C_U because the Choi state of a
# Clifford gate is the uniform mixture of its sixteen stabilizer strings.
CNOT_TERMS = {
    "IIII": Fraction(7, 16),
    "IXIX": Fraction(-1, 16),
    "XXXI": Fraction(-1, 16),
    "XIXX": Fraction(-1, 16),
    "ZZIZ": Fraction(-1, 16),
    "ZYIY": Fraction(1, 16),
    "YYXZ": Fraction(1, 16),
    "YZXY": Fraction(1, 16),
    "ZIZI": Fraction(-1, 16),
    "ZXZX": Fraction(-1, 16),
    "YXYI": Fraction(1, 16),
    "YIYX": Fraction(1, 16),
    "IZZZ": Fraction(-1, 16),
    "IYZY": Fraction(1, 16),
    "XYYZ": Fraction(1, 16),
    "XZYY": Fraction(1, 16),
}

CZ_TERMS = {
    "IIII": Fraction(7, 16),
    "IZIZ": Fraction(-1, 16),
    "ZIZI": Fraction(-1, 16),
    "ZZZZ": Fraction(-1, 16),
    "ZXIX": Fraction(-1, 16),
    "ZYIY": Fraction(1, 16),
    "IXZX": Fraction(-1, 16),
    "IYZY": Fraction(1, 16),
    "XZXI": Fraction(-1, 16),
    "XIXZ": Fraction(-1, 16),
    "YZYI": Fraction(1, 16),
    "YIYZ": Fraction(1, 16),
    "YYXX": Fraction(-1, 16),
    "YXXY": Fraction(-1, 16),
    "XYYX": Fraction(-1, 16),
    "XXYY": Fraction(-1, 16),
}

# One known-valid nine-setting cover for the CNOT witness.
KNOWN_CNOT_COVER = (
    "XXXX",
    "ZZZZ",
    "ZYZY",
    "ZXZX",
    "YXYX",
    "YYXZ",
    "YZXY",
    "XYYZ",
    "XZYY",
)

# The lexicographically smallest nine-setting cover of the CZ witness.
CZ_COVER = ("XXYY", "XYYX", "XZXZ", "YXXY", "YYXX", "YZYZ", "ZXZX", "ZYZY", "ZZZZ")
