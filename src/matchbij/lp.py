"""Recognition and exact counting of L & P matchings.

An L & P matching is one whose crossings, if any, all live inside a single
"inflated hairpin": two edge sets A and B, each internally nested, with
every A-B pair crossing, and with every remaining edge confined to one gap
between consecutive hairpin endpoints. Noncrossing matchings are the empty-
hairpin case.

Counting is exact integer arithmetic throughout; the closed form is
2 * 4^(n-1) - (3n-1)/(2n+2) * C(2n, n), and the division is checked to be
exact before it is performed.
"""

from bisect import bisect_left
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

from .core import Matching, crossings, edges, nestings
from .enumeration import all_matchings

__all__ = [
    "HairpinDecomposition",
    "find_inflated_hairpin",
    "is_lp",
    "lp_count_formula",
    "enumerate_lp",
]


@dataclass(frozen=True)
class HairpinDecomposition:
    """The inflated hairpin (A, B) of a matching plus its gap assignment.

    ``a_side`` holds the smaller labels, ``b_side`` the larger; both are
    sorted. ``gaps`` maps every non-hairpin edge label to the index of the
    gap (between consecutive hairpin endpoints, 0 = before the first) that
    contains both its endpoints. A noncrossing matching gets the empty
    decomposition: both sides empty, every edge in gap 0.
    """

    a_side: tuple[int, ...]
    b_side: tuple[int, ...]
    gaps: dict[int, int]

    def __post_init__(self):
        if bool(self.a_side) != bool(self.b_side):
            raise ValueError(
                f"hairpin sides must be both empty or both nonempty, got "
                f"A = {self.a_side}, B = {self.b_side}"
            )


def find_inflated_hairpin(m: Matching) -> Optional[HairpinDecomposition]:
    """Decompose ``m`` into its inflated hairpin, or None if it has none.

    The candidate sides are forced: A must be the crossing-involved edges
    that cross some larger-labeled edge, B those that cross some smaller-
    labeled one. The candidate is then checked for disjointness, internal
    nestedness, completeness of the A-B crossings, and gap confinement of
    all remaining edges. None means "not an L & P matching".
    """
    es = edges(m)
    cross_count, cross_pairs = crossings(m)
    if cross_count == 0:
        return HairpinDecomposition((), (), {e.label: 0 for e in es})

    crosses_larger: set[int] = set()
    crosses_smaller: set[int] = set()
    for a, b in cross_pairs:
        crosses_larger.add(a)
        crosses_smaller.add(b)
    if crosses_larger & crosses_smaller:
        return None
    a_side = tuple(sorted(crosses_larger))
    b_side = tuple(sorted(crosses_smaller))
    if a_side[-1] > b_side[0]:
        return None

    nested_set = set(nestings(m)[1])
    for side in (a_side, b_side):
        for i in range(len(side)):
            for j in range(i + 1, len(side)):
                if (side[i], side[j]) not in nested_set:
                    return None
    cross_set = set(cross_pairs)
    for a in a_side:
        for b in b_side:
            if (a, b) not in cross_set:
                return None
    # A and B now absorb every crossing-involved edge, so all crossings are
    # A x B pairs.
    if cross_count != len(a_side) * len(b_side):
        raise ValueError(
            f"{cross_count} crossings, but the hairpin sides of sizes "
            f"{len(a_side)} and {len(b_side)} account for "
            f"{len(a_side) * len(b_side)}"
        )

    hairpin_labels = crosses_larger | crosses_smaller
    hairpin_vertices = sorted(
        v for e in es if e.label in hairpin_labels for v in (e.left, e.right)
    )
    gaps: dict[int, int] = {}
    for e in es:
        if e.label in hairpin_labels:
            continue
        gl = bisect_left(hairpin_vertices, e.left)
        gr = bisect_left(hairpin_vertices, e.right)
        if gl != gr:
            return None
        gaps[e.label] = gl
    return HairpinDecomposition(a_side, b_side, gaps)


def is_lp(m: Matching) -> bool:
    """True iff ``m`` is an L & P matching."""
    return find_inflated_hairpin(m) is not None


def lp_count_formula(n: int) -> int:
    """Exact number of L & P matchings with n edges, by the closed form."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    numerator = (3 * n - 1) * comb(2 * n, n)
    denominator = 2 * n + 2
    if numerator % denominator:
        raise ValueError(
            f"(3n-1)*C(2n,n) = {numerator} is not divisible by 2n+2 = {denominator}"
        )
    return 2 * 4 ** (n - 1) - numerator // denominator


def enumerate_lp(n: int) -> Iterator[Matching]:
    """Every L & P matching with n edges, in canonical enumeration order."""
    for m in all_matchings(n):
        if is_lp(m):
            yield m
