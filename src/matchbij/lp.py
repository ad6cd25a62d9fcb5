"""Recognition and exact counting of L & P matchings.

An L & P matching is one whose crossings, if any, all live inside a single
"inflated hairpin": two edge sets A and B, each internally nested, with
every A-B pair crossing, and with every remaining edge confined to one gap
between consecutive hairpin endpoints. Noncrossing matchings are the empty-
hairpin case.

Counting is exact integer arithmetic throughout; the closed form is
2 * 4^(n-1) - (3n-1)/(2n+2) * C(2n, n), computed as
2 * 4^(n-1) - (3n-1) * Catalan(n) / 2, whose one division is always exact.
"""

from bisect import bisect_left
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
    labeled one. The candidate is then checked for disjointness, internal
    nestedness, completeness of the A-B crossings, and gap confinement of
    all remaining edges. None means "not an L & P matching"; a decomposition
    records the two sides only.

    One pass over the partner table (``core._scan``) finds the sides as bit
    masks and the crossing count, which settles the first three checks at
    once; listing the sides then takes O(n) and gap confinement
    O(n log n). In all O(n log n) plus the scan's O(n) int operations on at
    most n + 1 bits, O(n^2 / 30) digit steps at worst.
    """
    return _hairpin(m, _scan(m.partner))


def _hairpin(m: Matching, scanned: tuple[int, int, int, int]) -> Optional[HairpinDecomposition]:
    """``find_inflated_hairpin`` on the result of ``_scan(m.partner)``, for
    callers that read the scan too; O(n log n)."""
    _, cross_count, a_mask, b_mask = scanned
    if cross_count == 0:
        return HairpinDecomposition((), ())
    # Every crossing pair x < y has x in A and y in B, so the count reaches
    # |A| |B| iff max A < min B (so the sides are disjoint) and every A-B
    # pair crosses. Then each side is nested: two of its arcs cannot cross,
    # as the larger would be on both sides, and two aligned arcs cannot both
    # cross one arc of the other side.
    if cross_count != a_mask.bit_count() * b_mask.bit_count():
        return None

    a_side, b_side = _labels(a_mask), _labels(b_mask)
    pairs = m.pairs()
    hairpin_labels = set(a_side + b_side)
    hairpin_vertices = sorted(v for x in hairpin_labels for v in pairs[x - 1])
    # Every other edge lies in one gap between consecutive hairpin endpoints.
    for label, (left, right) in enumerate(pairs, 1):
        if label in hairpin_labels:
            continue
        if bisect_left(hairpin_vertices, left) != bisect_left(hairpin_vertices, right):
            return None
    return HairpinDecomposition(a_side, b_side)


def is_lp(m: Matching) -> bool:
    """True iff ``m`` is an L & P matching; at the cost of
    ``find_inflated_hairpin``, O(n log n) plus O(n^2 / 30) digit steps at
    worst for the scan."""
    return find_inflated_hairpin(m) is not None


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
    of ``all_matchings`` by ``is_lp``. Each matching costs its validation and
    one scan, O(n) int operations at enumerable sizes; an accepted one costs
    O(n log n) more for its decomposition."""
    for m in all_matchings(n):
        if is_lp(m):
            yield m
