"""Complete matchings on 2n points: representation, statistics, projections.

A complete matching pairs the positions 0..2n-1 into n arcs ("edges") drawn
above a horizontal baseline. Edges are labeled 1..n in increasing order of
left endpoint. Any two edges either nest (one arc inside the other), cross
(the arcs interleave), or are aligned (disjoint intervals).

Everything here is an immutable value and every operation is a pure
function, so all of it can be used from concurrent workers without
coordination.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

__all__ = [
    "InvalidMatchingError",
    "Matching",
    "Edge",
    "MatchingStats",
    "LabeledMatching",
    "NCNTriple",
    "from_pairs",
    "edges",
    "lr_sequence",
    "matching_from_lr",
    "stats",
    "nestings",
    "crossings",
    "alignments",
    "nc",
    "is_noncrossing",
    "rperm",
    "nep",
]


class InvalidMatchingError(ValueError):
    """Raised when a pairing does not describe a complete matching."""


# The most characters of an input line, or digits of a number, that a
# message quotes.
_QUOTE_LIMIT = 40


def _digits(v: int) -> str:
    """``str(v)`` for a message, cut to ``_QUOTE_LIMIT`` digits plus the full
    count, so that a message about a huge input number stays short."""
    sign, digits = ("-", str(-v)) if v < 0 else ("", str(v))
    if len(digits) <= _QUOTE_LIMIT:
        return sign + digits
    return f"{sign}{digits[:_QUOTE_LIMIT]}... ({len(digits)} digits)"


def _quote(fragment: str) -> str:
    """``repr`` of an input fragment or setting, cut to ``_QUOTE_LIMIT``
    characters plus the full length, so that its message stays short."""
    if len(fragment) <= _QUOTE_LIMIT:
        return repr(fragment)
    return f"{fragment[:_QUOTE_LIMIT]!r}... ({len(fragment)} characters)"


@dataclass(frozen=True)
class Matching:
    """A complete matching on 2n points, stored as a partner table.

    ``partner[v]`` is the position matched with position ``v``; the table is
    a fixed-point-free involution of {0, ..., 2n-1}, and the two fields are
    all an instance holds.

    A table is checked once, where it enters: the constructor, ``from_pairs``
    and every parser check it in O(n). ``_trusted`` skips the check, and is
    only for tables checked already or built valid by construction (the
    streams, the images of the maps, the pair-list reader, which checks
    each pair as it fills the table, and the dot-bracket decoder).
    """

    n: int
    partner: tuple[int, ...]

    @classmethod
    def _trusted(cls, n: int, partner: tuple[int, ...]) -> "Matching":
        """The matching on ``partner``, a table the library built valid by
        construction, without the ``__post_init__`` check; O(1)."""
        m = object.__new__(cls)
        fields = m.__dict__
        fields["n"] = n
        fields["partner"] = partner
        return m

    def __post_init__(self):
        if self.n < 1:
            raise InvalidMatchingError(f"edge count must be positive, got {_digits(self.n)}")
        size = 2 * self.n
        if len(self.partner) != size:
            raise InvalidMatchingError(
                f"partner table has {len(self.partner)} entries, expected {size}"
            )
        p = self.partner
        for v, w in enumerate(p):
            if not 0 <= w < size:
                raise InvalidMatchingError(
                    f"position {_digits(w)} out of range 0..{size - 1}"
                )
            if w == v:
                raise InvalidMatchingError(f"position {v} is matched to itself")
            if p[w] != v:
                raise InvalidMatchingError(
                    f"partner table is not an involution at position {v}"
                )

    def pairs(self) -> list[tuple[int, int]]:
        """Endpoint pairs (left, right), listed in increasing left order."""
        return [(v, w) for v, w in enumerate(self.partner) if v < w]

    def __repr__(self):
        body = ",".join(f"({l},{r})" for l, r in self.pairs())
        return f"Matching[{body}]"


class Edge(NamedTuple):
    """One arc: its label and the positions of its two endpoints."""

    label: int
    left: int
    right: int


class MatchingStats(NamedTuple):
    """Nesting and crossing pair counts of a matching."""

    ne: int
    cr: int


@dataclass(frozen=True)
class LabeledMatching:
    """A matching whose edges carry fixed labels, decoupled from left order.

    ``edges[k]`` is the edge labeled ``k + 1``. It is the state of the
    single-swap reference ``swap_left``: swapping left endpoints reorders
    positions but keeps each label attached to its edge. The statistics and
    projections take a plain ``Matching`` (see ``to_matching``).
    """

    edges: tuple[Edge, ...]

    def __post_init__(self):
        n = len(self.edges)
        if n < 1:
            raise InvalidMatchingError("labeled matching needs at least one edge")
        seen_positions = set()
        for k, e in enumerate(self.edges):
            if e.label != k + 1:
                raise InvalidMatchingError(
                    f"edge at index {k} carries label {e.label}, expected {k + 1}"
                )
            if not e.left < e.right:
                raise InvalidMatchingError(
                    f"edge {e.label} has left endpoint {e.left} >= right {e.right}"
                )
            seen_positions.update((e.left, e.right))
        if seen_positions != set(range(2 * n)):
            raise InvalidMatchingError(
                "edge endpoints do not cover the positions 0..%d exactly" % (2 * n - 1)
            )

    @classmethod
    def fresh(cls, m: "Matching") -> "LabeledMatching":
        """Label the edges of ``m`` by increasing left endpoint (1..n)."""
        return cls(tuple(edges(m)))

    @property
    def n(self) -> int:
        return len(self.edges)

    def to_matching(self) -> "Matching":
        """Forget the labels."""
        partner = [0] * (2 * self.n)
        for e in self.edges:
            partner[e.left] = e.right
            partner[e.right] = e.left
        return Matching(self.n, tuple(partner))


@dataclass(frozen=True)
class NCNTriple:
    """A noncrossing matching with an optional chosen nested edge pair.

    ``pair`` is (a, b) with a < b nested in ``base``, or None for "no pair
    chosen" (serialized as the sentinel pair 0 0).

    A triple is checked once, where it enters, in O(n). ``_trusted`` skips
    the check, for the triples the library builds valid by construction
    (``ncn_elements``, ``phi`` and ``tau_inv``).
    """

    base: Matching
    pair: Optional[tuple[int, int]] = None

    @classmethod
    def _trusted(cls, base: Matching, pair: Optional[tuple[int, int]]) -> "NCNTriple":
        """The triple, valid by construction, without the check; O(1)."""
        t = object.__new__(cls)
        fields = t.__dict__
        fields["base"] = base
        fields["pair"] = pair
        return t

    def __post_init__(self):
        if not is_noncrossing(self.base):
            raise ValueError("base matching has crossings")
        if self.pair is not None:
            a, b = self.pair
            if not 1 <= a < b <= self.base.n:
                raise ValueError(
                    f"pair ({_digits(a)}, {_digits(b)}) is not an increasing pair of edge labels"
                )
            # Labels follow left ends, so a opens first: nested iff b closes first.
            p = self.base.partner
            lefts = [v for v, w in enumerate(p) if v < w]
            if p[lefts[b - 1]] > p[lefts[a - 1]]:
                raise ValueError(f"edges {a} and {b} are not nested in the base")


def from_pairs(pairs: Iterable[tuple[int, int]], n: int) -> Matching:
    """Build a matching from n endpoint pairs covering {0, ..., 2n-1}.

    Rejects duplicate positions, self-pairs, out-of-range positions, and a
    wrong number of pairs, naming the offending value in each case. A
    duplicate is found in the partner table as it is filled, so the cost is
    O(n) time and the one table of 2n entries, plus the ``Matching``
    validation, O(n).
    """
    pair_list = list(pairs)
    if len(pair_list) != n:
        raise InvalidMatchingError(f"expected {_digits(n)} pairs, got {len(pair_list)}")
    partner = [-1] * (2 * n)
    for a, b in pair_list:
        for v, w in ((a, b), (b, a)):
            if not 0 <= v < 2 * n:
                raise InvalidMatchingError(
                    f"position {_digits(v)} out of range 0..{2 * n - 1}"
                )
            if partner[v] >= 0:  # a self-pair finds its own first write
                raise InvalidMatchingError(
                    f"position {v} is matched to itself" if partner[v] == v
                    else f"duplicate position {v}")
            partner[v] = w
    return Matching(n, tuple(partner))


def edges(m: Matching) -> list[Edge]:
    """The edges of ``m`` labeled 1..n in increasing left-endpoint order; O(n)."""
    return [Edge(k + 1, l, r) for k, (l, r) in enumerate(m.pairs())]


def lr_sequence(m: Matching) -> str:
    """The word recording, left to right, whether each position opens (L) or
    closes (R) an edge; O(n)."""
    return "".join(["L" if v < w else "R" for v, w in enumerate(m.partner)])


def _word_nestings(word: str) -> int:
    """ne(nc(w)) of an LR word w: the sum, over its closing steps, of the
    arcs still open around the one that closes. Raises ``ValueError`` unless
    w is a Dyck word over L and R (every prefix has at least as many L as R,
    and the totals agree); O(n). ``matching_from_lr`` is its one library caller."""
    depth = total = 0
    for i, c in enumerate(word):
        if c == "L":
            depth += 1
        elif c == "R":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unmatched R at index {i} of {word!r}")
            total += depth
        else:
            raise ValueError(f"invalid symbol {c!r} at index {i}; expected L or R")
    if depth != 0:
        raise ValueError(f"{depth} unmatched L symbols in {word!r}")
    return total


def _pair_by_stack(is_left: list[bool]) -> tuple[int, ...]:
    # Match each closer to the most recently opened position.
    partner = [0] * len(is_left)
    stack: list[int] = []
    for v, opening in enumerate(is_left):
        if opening:
            stack.append(v)
        else:
            l = stack.pop()
            partner[l] = v
            partner[v] = l
    return tuple(partner)


def matching_from_lr(word: str) -> Matching:
    """The unique noncrossing matching with the given LR word; O(n).

    Raises ``ValueError`` for a word that is not a Dyck word over L and R
    (see ``_word_nestings``), and ``InvalidMatchingError`` for the empty word.
    """
    _word_nestings(word)
    return Matching(len(word) // 2, _pair_by_stack([c == "L" for c in word]))


def nc(m: Matching) -> Matching:
    """The unique noncrossing matching with the same LR word as ``m``.

    Computed by matching each right endpoint to the most recent unmatched
    left endpoint (stack discipline), O(n).
    """
    partner = _pair_by_stack([v < w for v, w in enumerate(m.partner)])
    return Matching._trusted(m.n, partner)


def is_noncrossing(m: Matching) -> bool:
    """True iff ``m`` has no crossing pair: each right end closes the last open arc; O(n)."""
    stack: list[int] = []
    for v, w in enumerate(m.partner):
        if v < w:
            stack.append(v)
        elif stack.pop() != w:
            return False
    return True


def _scan(partner: tuple[int, ...]) -> tuple[int, int, int, int]:
    """One left-to-right pass over a partner table: ``(ne, cr, A, B)``, with
    A the mask of the labels that cross a larger label and B the mask of
    those that cross a smaller one (bit k set for label k).

    The open arcs are one int with bit a set while the arc labeled a is
    open, so each position costs a few operations on ints of at most n + 1
    bits: O(n) in all while n fits a machine word or two, and O(n^2 / 30)
    digit steps at worst."""
    label_at = [0] * len(partner)
    opened = 0
    total = cr = count = larger = smaller = 0
    for v, w in enumerate(partner):
        if v < w:
            count += 1
            label_at[v] = count
            opened |= 1 << count
            continue
        # Of the count - a arcs opened since a, those still open (the bits
        # of later) cross it and those already closed are nested inside it,
        # so the nestings are total - cr at the end.
        a = label_at[w]
        bit = 1 << a
        opened ^= bit
        total += count - a
        later = opened >> a
        if later:
            cr += later.bit_count()
            larger |= bit
            smaller |= later << a
    return total - cr, cr, larger, smaller


def stats(m: Matching) -> MatchingStats:
    """Nesting and crossing counts in one pass over the partner table, as
    ``_scan``: O(n) int operations on at most n + 1 bits, O(n^2 / 30) digit
    steps at worst."""
    ne, cr, _, _ = _scan(m.partner)
    return MatchingStats(ne, cr)


def _classified_pairs(m: Matching, kind: str) -> list[tuple[int, int]]:
    # Every pair of labels a < b, from the pair table: the quadratic path
    # that does not share the scan behind ``stats``.
    pairs = m.pairs()
    out = []
    for a, (_, ra) in enumerate(pairs, 1):
        for b, (lb, rb) in enumerate(pairs[a:], a + 1):
            if ("alignment" if lb > ra else "nested" if rb < ra else "crossing") == kind:
                out.append((a, b))
    return out


def nestings(m: Matching) -> list[tuple[int, int]]:
    """All nested label pairs, each as (min, max), O(n^2); ``stats`` counts them."""
    return _classified_pairs(m, "nested")


def crossings(m: Matching) -> list[tuple[int, int]]:
    """All crossing label pairs, each as (min, max), O(n^2); ``stats`` counts them."""
    return _classified_pairs(m, "crossing")


def alignments(m: Matching) -> list[tuple[int, int]]:
    """All aligned (disjoint) label pairs, each as (min, max), O(n^2)."""
    return _classified_pairs(m, "alignment")


def rperm(m: Matching) -> tuple[int, ...]:
    """Edge labels in the order their right endpoints appear; O(n log n)."""
    return tuple(e.label for e in sorted(edges(m), key=lambda e: e.right))


def _nested_pairs(m: Matching) -> Iterator[tuple[int, int]]:
    """The nested label pairs of ``m`` in ``nep`` order, one at a time.

    Labels follow left endpoints, so a < b nest iff arc a is still open at
    the left end of b and closes after b. A stack of (label, right end) of
    the open arcs, in opening order, is read at each left end and yields the
    pairs by second label, then first. The arcs read there nest b or cross
    it, and the arc closing at a right end is found from the top past the
    arcs that cross it: O(n + ne + cr) time, O(n) memory.
    """
    open_arcs: list[tuple[int, int]] = []
    b = 0
    for v, w in enumerate(m.partner):
        if v < w:
            b += 1
            for a, ra in open_arcs:
                if ra > w:
                    yield a, b
            open_arcs.append((b, w))
        elif open_arcs[-1][1] == v:
            open_arcs.pop()
        else:  # the arcs above it cross it
            i = -2
            while open_arcs[i][1] != v:
                i -= 1
            del open_arcs[i]


def nep(m: Matching) -> list[tuple[int, int]]:
    """Nested label pairs sorted by second coordinate, then first, as
    ``_nested_pairs``: O(n + ne + cr) time."""
    return list(_nested_pairs(m))
