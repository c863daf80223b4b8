"""Pauli decompositions, their minimal measurement-setting covers, and the
CNOT and CZ witnesses' exact terms, on the standard library alone.

A measurement setting is a 4-letter string over {X, Y, Z} assigning one
measured axis per qubit; it covers a Pauli string iff every non-identity
factor matches the assigned axis.  A packing, a set of strings whose
candidate settings are pairwise disjoint, needs one setting per string, so
its size bounds every cover from below.  One greedy packing is kept per
decomposition.  A cover of that size settles minimality with no further
search: :func:`minimal_settings` searches first with the packing size as
its bound, and :func:`cover_exists` answers False below it without a
search.  Only when the packing is smaller than the minimum cover does the
exhaustive branch-and-bound run with its full bound.  On the CNOT/CZ
witnesses and their local Clifford dressings the packing has 9 strings,
the minimum; on sqrt(SWAP) it has 21 against a minimum of 27, and there
the search finishes too, as it does on Haar-random unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import ceil

IDENTITY_STRING = "IIII"


@dataclass(frozen=True)
class PauliDecomposition:
    """Nonzero Pauli-string coefficients of a witness, in lexicographic order.

    Coefficients are exact ``Fraction`` values whenever they lie within
    round-off (1e-12) of a rational with denominator 64, floats otherwise.
    """

    terms: tuple[tuple[Fraction | float, str], ...]

    @cached_property
    def _problem(self) -> tuple[list[int], list[list[int]], int]:
        return _cover_problem(self)

    @cached_property
    def _ordered(self) -> tuple[str, ...]:
        """The non-identity strings in a stable sort by identity count, fewest candidates first."""
        return tuple(sorted((s for _, s in self.terms if s != IDENTITY_STRING), key=lambda s: s.count("I")))

    @cached_property
    def _packing(self) -> tuple[str, ...]:
        """A greedy packing: in the cover problem's bit order, each string whose
        candidate settings miss those of the strings taken before it."""
        taken, packing = 0, []
        for s in self._ordered:
            m = _candidate_mask(s)
            if not taken & m:
                taken |= m
                packing.append(s)
        return tuple(packing)

    @cached_property
    def _cover(self) -> tuple[str, ...]:
        masks, cand_for, max_gain = self._problem
        best = best_cover(masks, cand_for, max_gain, len(self._packing))
        if best is None:
            best = best_cover(masks, cand_for, max_gain, len(cand_for))
        return tuple(ALL_SETTINGS[j] for j in best)

    def coefficient(self, string: str) -> Fraction | float:
        for coeff, s in self.terms:
            if s == string:
                return coeff
        return Fraction(0)

    def strings(self) -> tuple[str, ...]:
        return tuple(s for _, s in self.terms)

    def to_matrix(self) -> np.ndarray:
        import numpy as np

        from .linalg import pauli_basis

        strings, stack = pauli_basis(4)
        index = {s: i for i, s in enumerate(strings)}
        out = np.zeros((16, 16), dtype=complex)
        for coeff, s in self.terms:
            out += float(coeff) * stack[index[s]]
        return out

    def to_json_obj(self) -> list[dict]:
        return [{"coeff": _coeff_str(c), "string": s} for c, s in self.terms]


def _coeff_str(coeff: Fraction | float) -> str:
    if isinstance(coeff, Fraction) and 64 % coeff.denominator == 0:
        return f"{coeff.numerator * (64 // coeff.denominator)}/64"
    return repr(float(coeff))


# The CNOT and CZ witnesses' certified beta and Pauli coefficients in 64ths, strings in lexicographic order
GATE_BETA = 0.5
GATE_TERMS = {
    "CNOT": ((28, "IIII"), (-4, "IXIX"), (4, "IYZY"), (-4, "IZZZ"), (-4, "XIXX"), (-4, "XXXI"),
             (4, "XYYZ"), (4, "XZYY"), (4, "YIYX"), (4, "YXYI"), (4, "YYXZ"), (4, "YZXY"),
             (-4, "ZIZI"), (-4, "ZXZX"), (4, "ZYIY"), (-4, "ZZIZ")),
    "CZ": ((28, "IIII"), (-4, "IXZX"), (4, "IYZY"), (-4, "IZIZ"), (-4, "XIXZ"), (-4, "XXYY"),
           (-4, "XYYX"), (-4, "XZXI"), (4, "YIYZ"), (-4, "YXXY"), (-4, "YYXX"), (4, "YZYI"),
           (-4, "ZIZI"), (-4, "ZXIX"), (4, "ZYIY"), (-4, "ZZZZ")),
}
GATE_DECOMPOSITIONS = {gate: PauliDecomposition(tuple((Fraction(k, 64), s) for k, s in terms))
                       for gate, terms in GATE_TERMS.items()}

ALL_SETTINGS = tuple("".join(axes) for axes in product("XYZ", repeat=4))


def setting_covers(setting: str, string: str) -> bool:
    """A setting covers a Pauli string iff non-identity factors match its axes."""
    return all(p == "I" or p == a for p, a in zip(string, setting))


_SETTING_INDEX = {s: j for j, s in enumerate(ALL_SETTINGS)}


def _cover_problem(decomp: PauliDecomposition) -> tuple[list[int], list[list[int]], int]:
    """Per-setting bitmasks of covered strings, each string's candidate settings
    and the most strings one setting covers.

    Bits follow ``decomp._ordered``; of settings with equal masks only the
    smallest index stays a candidate.  Only candidates carry bits, and two with
    equal masks are candidates of one string, whose tuple is in index order, so
    the last write of ``first`` over the reversed tuples keeps the smaller index.
    """
    strings = decomp._ordered
    candidates = [_candidates(s) for s in strings]
    masks = [0] * len(ALL_SETTINGS)
    for i, c in enumerate(candidates):
        for j in c:
            masks[j] |= 1 << i
    first = {masks[j]: j for c in reversed(candidates) for j in reversed(c)}
    max_gain = max((m.bit_count() for m in first), default=0)
    return masks, [[j for j in c if first[masks[j]] == j] for c in candidates], max_gain


@lru_cache(maxsize=None)
def _candidates(string: str) -> tuple[int, ...]:
    """Settings covering a string: an identity factor takes any axis, others fix their own."""
    if len(string) != 4 or not set(string) <= set("IXYZ"):
        raise ValueError(f"not a four-qubit Pauli string: {string!r}")
    axes = ("XYZ" if p == "I" else p for p in string)
    return tuple(_SETTING_INDEX["".join(a)] for a in product(*axes))


@lru_cache(maxsize=None)
def _candidate_mask(string: str) -> int:
    """:func:`_candidates` as the bits of a mask over :data:`ALL_SETTINGS`."""
    return sum(1 << j for j in _candidates(string))


def best_cover(
    masks: list[int], cand_for: list[list[int]], max_gain: int, bound: int
) -> tuple[int, ...] | None:
    """The smallest cover of at most ``bound`` settings, or None if there is none.

    Exhaustive branch-and-bound: branch on the lowest uncovered string,
    which has the fewest covering settings because :func:`_cover_problem`
    orders strings by identity count, and prune a branch only when even
    covering ``max_gain`` strings (the largest mask's bit count) per
    further setting would exceed ``bound``.  Ties survive the pruning, so
    among minimum covers the smallest sorted index tuple wins.  A setting
    whose mask repeats a smaller index's is dropped: a minimum cover holds
    at most one of the two, and swapping in the smaller index gives a
    smaller sorted tuple.  A negative ``bound`` admits no cover, not even the empty one.
    """
    if bound < 0:
        return None
    universe = (1 << len(cand_for)) - 1
    best: tuple[int, ...] | None = None

    def rec(covered: int, chosen: list[int]) -> None:
        nonlocal best, bound
        if covered == universe:
            cover = tuple(sorted(chosen))
            if best is None or (len(cover), cover) < (len(best), best):
                best, bound = cover, len(cover)
            return
        remaining = (universe & ~covered).bit_count()
        if len(chosen) + ceil(remaining / max_gain) > bound:
            return
        for j in cand_for[(~covered & (covered + 1)).bit_length() - 1]:
            chosen.append(j)
            rec(covered | masks[j], chosen)
            chosen.pop()

    rec(0, [])
    return best


def cover_exists(decomp: PauliDecomposition, size: int) -> bool:
    """Whether ``size`` measurement settings suffice to cover the decomposition.

    Below the size of the decomposition's packing the answer is False with no
    search; at or above it :func:`best_cover` searches with ``size`` as its bound.
    """
    if size < len(decomp._packing):
        return False
    return best_cover(*decomp._problem, size) is not None


def minimal_settings(decomp: PauliDecomposition) -> tuple[str, ...]:
    """An exactly minimal measurement-setting cover of all non-identity strings.

    Exhaustive branch-and-bound (:func:`best_cover`) over the 81 candidate
    settings, first with the decomposition's packing size as its bound: a
    cover found there is minimal by the packing, as on CNOT/CZ and their
    dressings.  Only if none is found does the search run again with the
    bound of one setting per string.  No path to a minimum cover is pruned
    at a bound equal to its size, so both routes return the same cover.
    Ties between equal-size covers break lexicographically on the sorted
    axis strings, so the output is reproducible.  The search finishes on
    generic witnesses too: 52 terms for sqrt(SWAP), 226 for a Haar-random
    unitary.  The cover is computed once per decomposition and cached on it.
    """
    return decomp._cover
