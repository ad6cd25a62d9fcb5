"""Canonical-order generators and exact counts for matching families.

The generator order for all matchings is: the smallest unmatched position is
paired with each larger free position in ascending order, then the rest is
filled the same way; that is lexicographic order of partner tables. It is
deterministic and replayable. Noncrossing matchings are generated through
their LR words (lexicographic, L before R) rather than by filtering, since
the Catalan numbers grow far slower than the double factorials.

Enumeration sizes are capped (default 8, overridable through the
MATCHBIJ_ENUM_CAP environment variable). Catalan-bounded generators accept
slightly larger sizes than the full double-factorial ones.
"""

import os
from math import comb, exp, inf, lgamma, log, log1p
from typing import Iterator

from .core import Matching, NCNTriple, _digits, _nested_pairs, _pair_by_stack, _quote

__all__ = [
    "EnumerationCapError",
    "DEFAULT_ENUM_CAP",
    "NONCROSSING_CAP_EXTRA",
    "enum_cap",
    "double_factorial",
    "catalan",
    "all_matchings",
    "noncrossing_matchings",
    "ncn_elements",
]

DEFAULT_ENUM_CAP = 8
# Catalan growth is ~4^n against (2n-1)!! for the full set, so Catalan-bounded
# streams stay cheap a few sizes past the full-enumeration cap.
NONCROSSING_CAP_EXTRA = 4


class EnumerationCapError(ValueError):
    """Raised when an enumeration request exceeds the configured cap."""


def enum_cap() -> int:
    """The enumeration cap for full double-factorial streams; O(1) plus one int parse.

    Reads MATCHBIJ_ENUM_CAP when it is set and nonempty; anything but a
    positive integer there is an ``EnumerationCapError`` naming the value.
    """
    raw = os.environ.get("MATCHBIJ_ENUM_CAP")
    if not raw:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise EnumerationCapError(
            f"MATCHBIJ_ENUM_CAP must be a positive integer, got {_quote(raw)}"
        )
    return cap


def double_factorial(m: int) -> int:
    """(m)!! for odd positive m; counts complete matchings when m = 2n - 1.
    O(m) small multiplications on a product of O(m log m) digits: O(m^2 log m)."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"double factorial defined here for odd positive m, got {_digits(m)}")
    out = 1
    for k in range(3, m + 1, 2):
        out *= k
    return out


def catalan(n: int) -> int:
    """The nth Catalan number, counting noncrossing matchings; O(n^2) at most."""
    if n < 0:
        raise ValueError(f"catalan defined for n >= 0, got {_digits(n)}")
    return comb(2 * n, n) // (n + 1)


def _size_digits(family: str, n: int) -> float:
    """The decimal digits, as a float, of the size of ``family`` at n:
    "matchings" (2n-1)!!, "noncrossing" Catalan(n) or "lp"
    2^(2n-1) - (3n-1)/(2n+2) C(2n, n), estimated through lgamma without
    computing the number; inf past float range. O(1)."""
    try:
        if family == "matchings":  # ln (2n)! - ln n! - n ln 2
            ln_count = lgamma(2 * n + 1) - lgamma(n + 1) - n * log(2)
        elif family == "noncrossing":  # ln (2n)! - 2 ln n! - ln (n + 1)
            ln_count = lgamma(2 * n + 1) - 2 * lgamma(n + 1) - log(n + 1)
        else:
            ln_central = lgamma(2 * n + 1) - 2 * lgamma(n + 1)  # ln C(2n, n)
            ln_top = (2 * n - 1) * log(2)
            ln_count = ln_top + log1p(-(3 * n - 1) / (2 * n + 2) * exp(ln_central - ln_top))
        return ln_count / log(10)
    except OverflowError:  # n is too large for a float
        return inf


# The streams behind each cap: how their size is written, its family, its
# exact value, what it counts, and how far past ``enum_cap()`` they go.
_CAPPED = {
    "full enumeration":
        ("(2n-1)!!", "matchings", lambda n: double_factorial(2 * n - 1), "matchings", 0),
    "noncrossing enumeration":
        ("Catalan(n)", "noncrossing", catalan, "noncrossing matchings",
         NONCROSSING_CAP_EXTRA),
}


def _check_cap(n: int, what: str) -> None:
    """Refuse n < 1 (before the cap is read), then n past ``what``'s cap."""
    if n < 1:
        raise ValueError(f"n must be positive, got {_digits(n)}")
    name, family, count, noun, extra = _CAPPED[what]
    cap = enum_cap() + extra
    if n > cap:
        digits = _size_digits(family, n)
        size = (f"= {count(n)} {noun}" if digits < 30
                else f"has about {int(digits) + 1} digits" if digits < inf
                else "is too large to estimate")
        raise EnumerationCapError(
            f"n={_digits(n)} exceeds the enumeration cap {_digits(cap)} for {what}: {name} "
            f"{size} at this size (set MATCHBIJ_ENUM_CAP to raise the cap)"
        )


def all_matchings(n: int) -> Iterator[Matching]:
    """Every complete matching with n edges in canonical order, which is
    lexicographic order of partner tables.

    One loop with an explicit stack of the pairs placed so far stands in for
    recursion, so each element passes through one generator frame. Amortized
    O(n) per element, most of it copying the table into the ``Matching``,
    which is built trusted (``Matching._trusted``): valid by construction.
    """
    _check_cap(n, "full enumeration")
    size = 2 * n
    partner = [-1] * size
    placed: list[tuple[int, int]] = []  # (lo, w) of each pair above this level
    lo = w = 0  # lo: the least free position; w: the partner of lo last tried
    while True:
        w += 1
        while w < size and partner[w] >= 0:
            w += 1
        if w < size:
            partner[lo] = w
            partner[w] = lo
            if len(placed) < n - 1:
                placed.append((lo, w))
                while partner[lo] >= 0:
                    lo += 1
                w = lo
                continue
            yield Matching._trusted(n, tuple(partner))
            partner[lo] = partner[w] = -1
        # Every partner of lo is tried (the last pair has only one): back up.
        if not placed:
            return
        lo, w = placed.pop()
        partner[lo] = partner[w] = -1


def _walk(n: int) -> Iterator[tuple[int, int]]:
    """The walk of ``all_matchings`` without the ``Matching``s, for the class
    census: ``(lefts, ne)`` per element in the same order, ``lefts`` having
    bit v set iff position v is a left end (the LR word) and ``ne`` the
    nesting count. The cap is checked at the call.

    Pairs are placed from the least free position up, so when (lo, w) is
    placed every arc already placed opened before lo, and it nests the new
    arc iff its right end lies past w. With the placed ends kept as two
    masks, finding the next free w and counting those arcs are a few
    operations on ints of 2n bits: amortized O(1) of them per element.
    """
    _check_cap(n, "full enumeration")

    def walk() -> Iterator[tuple[int, int]]:
        everything = (1 << 2 * n) - 1
        # (lo, w, lefts, rights, ne) before each pair above this level.
        stack: list[tuple[int, int, int, int, int]] = []
        lo = w = lefts = rights = ne = 0
        while True:
            later = (everything ^ lefts ^ rights) & -(2 << w)  # free past w
            if later:
                w = (later & -later).bit_length() - 1
                placed_ne = ne + (rights >> w).bit_count()
                if len(stack) < n - 1:
                    stack.append((lo, w, lefts, rights, ne))
                    lefts |= 1 << lo
                    rights |= 1 << w
                    ne = placed_ne
                    free = everything ^ lefts ^ rights
                    lo = w = (free & -free).bit_length() - 1
                    continue
                # The last pair has only the one w: yield, then back up.
                yield lefts | 1 << lo, placed_ne
            if not stack:
                return
            lo, w, lefts, rights, ne = stack.pop()

    return walk()


def _walk_word(lefts: int, n: int) -> str:
    """The LR word of a ``_walk`` left-end mask on 2n positions; O(n)."""
    return "".join("RL"[lefts >> v & 1] for v in range(2 * n))


def noncrossing_matchings(n: int) -> Iterator[Matching]:
    """Every noncrossing matching with n edges, by LR word in lexicographic
    order (L before R) from L^n R^n: the next word turns the last L with an arc
    open before it into R and moves the Ls after it left. Amortized O(n) each."""
    _check_cap(n, "noncrossing enumeration")
    size = 2 * n
    is_left = [True] * n + [False] * n
    while True:
        yield Matching._trusted(n, _pair_by_stack(is_left))
        later = 0  # the Ls after v
        for v in range(size - 1, -1, -1):
            if is_left[v] and 2 * (n - later - 1) > v:  # more Ls than Rs before v
                break
            later += is_left[v]
        else:  # (LR)^n was the last word
            return
        is_left[v:] = [False] + [True] * (later + 1) + [False] * (size - v - later - 2)


def ncn_elements(n: int):
    """Every noncrossing matching paired with each choice of nested pair.

    For each noncrossing matching M the stream yields (M, no pair) followed
    by (M, p) for every nested pair p of M, in ``nep`` order. The pairs are
    walked lazily (``_nested_pairs``), so the stream holds O(n) at a time
    and reaches its first items in O(n) memory at any size the cap admits.
    Each base costs O(n) and each triple O(1) after it: a triple is valid by
    construction, so it is built unchecked (``NCNTriple._trusted``).
    """
    for m in noncrossing_matchings(n):
        yield NCNTriple._trusted(m, None)
        for p in _nested_pairs(m):
            yield NCNTriple._trusted(m, p)
