"""Recognition and exact counting of L & P matchings.

An L & P matching is one whose crossings, if any, all live inside a single
"inflated hairpin": two edge sets A and B, each internally nested, with
every A-B pair crossing, and with every remaining edge confined to one gap
between consecutive hairpin endpoints. Noncrossing matchings are the empty-
hairpin case.

Lemma: a matching with crossings is L & P iff its crossing count is
|A| |B|, for A the labels crossing a larger label and B those crossing a
smaller one, and no arc is open where arc k = min A opens. Once the count
holds, every other edge crosses nothing, so it leaves its gap only by
enclosing a hairpin arc. It then encloses the arcs crossing that one too,
so some B arc, and so arc k, which crosses all of B. Conversely an arc open
at k's left end encloses k: were it to cross k, it would be in A below k.

Counting is exact integer arithmetic throughout; the closed form is
2 * 4^(n-1) - (3n-1)/(2n+2) * C(2n, n), computed as
2 * 4^(n-1) - (3n-1) * Catalan(n) / 2, whose one division is always exact.
"""

from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .core import Matching, _digits, _scan
from .enumeration import all_matchings, catalan

__all__ = [
    "HairpinDecomposition",
    "find_inflated_hairpin",
    "is_lp",
    "lp_count_formula",
    "enumerate_lp",
]


class HairpinDecomposition(NamedTuple):
    """The inflated hairpin (A, B) of a matching.

    ``a_side`` holds the smaller labels, ``b_side`` the larger; both are
    sorted, and both are empty (for a noncrossing matching) or nonempty.
    Built only by ``find_inflated_hairpin``, so construction checks nothing.
    """

    a_side: tuple[int, ...]
    b_side: tuple[int, ...]


def _labels(mask: int) -> tuple[int, ...]:
    # The set bits of mask in increasing order, read from one binary string
    # in O(bit length) instead of one shift per bit.
    return tuple(k for k, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


def find_inflated_hairpin(m: Matching) -> Optional[HairpinDecomposition]:
    """Decompose ``m`` into its inflated hairpin, or None if it has none.

    The candidate sides are forced: A must be the crossing-involved edges
    that cross some larger-labeled edge, B those that cross some smaller-
    labeled one. None means "not an L & P matching" (``_is_lp``); a
    decomposition records the two sides only.

    One pass over the partner table (``core._scan``) finds the sides as bit
    masks, in O(n) int operations on at most n + 1 bits, O(n^2 / 30) digit
    steps at worst; the test and the listing of the sides then take O(n).
    """
    scanned = _scan(m.partner)
    if not _is_lp(m.partner, scanned):
        return None
    return HairpinDecomposition(_labels(scanned[2]), _labels(scanned[3]))


def _is_lp(partner: tuple[int, ...], scanned: tuple[int, int, int, int]) -> bool:
    """The L & P test on a partner table and its ``_scan``, for callers that
    read the scan too; O(n), in C, after it."""
    _, cross_count, a_mask, b_mask = scanned
    if cross_count == 0:
        return True
    # Every crossing pair x < y has x in A and y in B, so the count reaches
    # |A| |B| iff max A < min B (so the sides are disjoint) and every A-B
    # pair crosses. Then each side is nested: two of its arcs cannot cross,
    # as the larger would be on both sides, and two aligned arcs cannot both
    # cross one arc of the other side.
    if cross_count != a_mask.bit_count() * b_mask.bit_count():
        return False
    # Gap confinement, by the module's lemma: arc k = min A opens at 2k - 2,
    # the k - 1 arcs before it matched among positions 0 .. 2k - 3.
    opens = 2 * ((a_mask & -a_mask).bit_length() - 2)
    return max(islice(partner, opens), default=-1) < opens


def is_lp(m: Matching) -> bool:
    """True iff ``m`` is an L & P matching: O(n) after the scan, which is
    O(n^2 / 30) digit steps at worst."""
    return _is_lp(m.partner, _scan(m.partner))


def lp_count_formula(n: int) -> int:
    """Exact count of L & P matchings with n edges by the closed form,
    2 * 4^(n-1) - (3n-1) * Catalan(n) / 2; O(n^2) at most.

    The halving is exact: Catalan(n) is odd only when n + 1 is a power of
    2, so an even n has an even Catalan(n), and an odd n has an even 3n - 1.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {_digits(n)}")
    return 2 * 4 ** (n - 1) - (3 * n - 1) * catalan(n) // 2


def enumerate_lp(n: int) -> Iterator[Matching]:
    """Every L & P matching with n edges in canonical order: the brute filter
    of ``all_matchings`` by ``is_lp``. Each matching costs its build (not
    validated: the stream's tables are valid by construction), one scan and
    one depth test: O(n) int operations at enumerable sizes."""
    for m in all_matchings(n):
        if is_lp(m):
            yield m
