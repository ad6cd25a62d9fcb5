"""The bijections between L & P matchings, noncrossing matchings with a
chosen nested pair, and nesting-class representatives.

Three maps, all invertible:

* ``phi``   sends an L & P matching to its noncrossing projection together
  with the nested pair (max of the A side, max of the B side) remembering
  where the inflated hairpin was. Its inverse re-crosses the hairpin by
  cyclically reassigning right endpoints.
* ``tau``   sends a noncrossing matching with chosen nested pair (a, b) to
  the matching reached by swapping left endpoints along the nested-pair list
  up to and including (a, b). Each swap destroys exactly one nesting, so the
  image is the representative with the prescribed nesting count.
* ``sigma`` is the composite ``tau . phi``.

A left-endpoint swap moves only left endpoints: every right endpoint stays
put and keeps its label, so the label of an edge is always the base's label
for its right endpoint. ``swap_sequence`` and the representative stream
therefore walk the swaps on a plain partner table, at O(1) per swap, and
read labels through the right endpoints when they need them. ``tau`` and
``tau_inv`` need only the last step, so they replay all of b's swaps at
once as one rotation of the open arcs' left ends (``_replay``): O(n) time
and memory, with no nested-pair list built; ``tau_inv`` reads the stop pair
off the representative itself. ``swap_left`` is the single-swap reference:
it carries the labels explicitly in a ``LabeledMatching`` and revalidates
it on every swap.
"""

from collections import deque
from typing import Iterator, NamedTuple, Optional

from .core import Edge, LabeledMatching, Matching, NCNTriple, _nested_pairs, _scan, is_noncrossing, nc
from .lp import _is_lp

__all__ = [
    "NotLPError",
    "NotRepresentativeError",
    "SwapStep",
    "swap_left",
    "swap_sequence",
    "phi",
    "phi_inv",
    "tau",
    "tau_inv",
    "sigma",
    "sigma_inv",
]


class NotLPError(ValueError):
    """Raised when a matching outside the L & P family is handed to phi."""


class NotRepresentativeError(ValueError):
    """Raised when tau_inv is given a matching that is not a class
    representative."""


def swap_left(m: "Matching | LabeledMatching", a: int, b: int) -> LabeledMatching:
    """Exchange the left endpoints of the edges labeled a and b.

    Right endpoints stay put and labels stay attached to their edges. A plain
    ``Matching`` is labeled by left endpoint first. The swap is refused if it
    would leave an edge with its endpoints inverted.

    O(n): it copies and revalidates the whole labeled matching. Walks of many
    swaps use ``_swap_walk`` instead.
    """
    lm = m if isinstance(m, LabeledMatching) else LabeledMatching.fresh(m)
    n = lm.n
    for label in (a, b):
        if not 1 <= label <= n:
            raise ValueError(f"label {label} out of range 1..{n}")
    if a == b:
        raise ValueError("cannot swap an edge with itself")
    ea, eb = lm.edges[a - 1], lm.edges[b - 1]
    new_ea = Edge(a, eb.left, ea.right)
    new_eb = Edge(b, ea.left, eb.right)
    for e in (new_ea, new_eb):
        if e.left >= e.right:
            raise ValueError(
                f"swapping left endpoints of {a} and {b} would invert edge {e.label}"
            )
    new_edges = list(lm.edges)
    new_edges[a - 1] = new_ea
    new_edges[b - 1] = new_eb
    return LabeledMatching(tuple(new_edges))


class SwapStep(NamedTuple):
    """One stage of a swap sequence: the pair just swapped (None at the
    start), the matching reached, and its lperm, the base's edge labels in
    the order their left endpoints now appear. Built only by ``swap_sequence``,
    so construction checks nothing."""

    swapped: Optional[tuple[int, int]]
    matching: Matching
    lperm: tuple[int, ...]


def _swap_walk(base: Matching) -> Iterator[tuple[tuple[int, int], list[int]]]:
    """Swap left endpoints of the noncrossing ``base`` (labeled by left
    endpoint) along its nested-pair list, yielding each pair with the
    partner table after its swap.

    The same list is yielded every time and mutated in place between steps.
    Each swap is O(1), and none can invert an edge, as in ``_replay``, so
    every table is valid and callers build a trusted ``Matching``
    (``Matching._trusted``) from what they keep. The pairs are walked
    lazily (``_nested_pairs``), in O(n) memory.
    """
    partner = list(base.partner)
    left = [v for v in range(2 * base.n) if v < partner[v]]  # by label - 1
    for pair in _nested_pairs(base):
        a, b = pair
        la, lb = left[a - 1], left[b - 1]
        ra, rb = partner[la], partner[lb]
        left[a - 1], left[b - 1] = lb, la
        partner[lb], partner[ra] = ra, lb
        partner[la], partner[rb] = rb, la
        yield pair, partner


def _replay(base: Matching, stop: tuple[int, int]) -> list[int]:
    """The partner table reached from the noncrossing ``base`` by swapping
    left endpoints along its nested-pair list up to and including ``stop``.

    The pairs (a_1, b) ... (a_j, b) are b's open enclosers in opening order,
    one after another in ``nep`` order. Swapping b with each in turn gives
    b's left end v to a_1, what a_i held to a_(i+1), and what a_j held to b:
    one rotation of the open arcs' left ends, so they form a queue that an
    opening arc enters at the front and a closing arc leaves at the back.
    The group cut at the stop moves one left end. A left end is final when
    its arc closes, and past the stop nothing moves. No swap can invert an
    edge: every held left end is a position already passed, and every open
    right end lies ahead.

    O(n) time and memory.
    """
    a, b = stop
    partner = list(base.partner)
    lefts: deque[int] = deque()  # the open arcs' current left ends, in opening order
    rights: list[int] = []  # their right ends
    label = 0
    for v, w in enumerate(base.partner):
        if w < v:
            left = lefts.pop()
            rights.pop()
            partner[left] = v
            partner[v] = left
            continue
        label += 1
        if label == a:
            s = len(lefts) + 1  # a's index among b's enclosers
        lefts.appendleft(v)
        rights.append(w)
        if label == b:
            break
    # lefts[s] is what a held: b takes it, and a_(s+1) ... a_j keep theirs.
    lefts.append(lefts[s])
    del lefts[s]
    for left, right in zip(lefts, rights):
        partner[left] = right
        partner[right] = left
    return partner


def swap_sequence(m: Matching) -> Iterator[SwapStep]:
    """Swap left endpoints along the nested-pair list of ``m``, yielding
    every intermediate matching with its lperm; steps 0..k for k nested
    pairs. Crossing input raises ValueError at the call.

    O(n) time and memory per step for n edges, so O(n^3) time on the n-edge
    ladder, whose nested-pair list has n(n-1)/2 pairs; a step is built only
    when it is reached.
    """
    if not is_noncrossing(m):
        raise ValueError("swap sequence is defined for noncrossing matchings only")
    return _swap_steps(m)


def _swap_steps(m: Matching) -> Iterator[SwapStep]:
    label_of = {right: k for k, (_, right) in enumerate(m.pairs(), 1)}
    yield SwapStep(None, m, tuple(range(1, m.n + 1)))
    for pair, partner in _swap_walk(m):
        lperm = tuple(label_of[w] for v, w in enumerate(partner) if v < w)
        yield SwapStep(pair, Matching._trusted(m.n, tuple(partner)), lperm)


def phi(m: Matching) -> NCNTriple:
    """Map an L & P matching to its noncrossing projection plus the nested
    pair recording the hairpin maxima; noncrossing input maps to itself with
    no pair chosen.

    O(n) for n edges after the one-pass scan, which is O(n^2 / 30) digit
    steps at worst; the pair is the top bits of the scan's two side masks,
    and a rejection reads the first crossing pair from the same scan.
    """
    _, cross_count, a_mask, b_mask = scanned = _scan(m.partner)
    if not _is_lp(m.partner, scanned):
        # The first crossing pair: the least label crossing a larger one (the
        # lowest bit of the A mask), and the least larger label it crosses.
        a = (a_mask & -a_mask).bit_length() - 1
        ends = m.pairs()
        ra = ends[a - 1][1]
        b = next(b for b in range(a + 1, m.n + 1) if ends[b - 1][0] < ra < ends[b - 1][1])
        raise NotLPError(
            f"matching is not L & P: crossing pair ({a},{b}) does not belong "
            f"to a single inflated hairpin"
        )
    if not cross_count:
        return NCNTriple._trusted(m, None)
    return NCNTriple._trusted(nc(m), (a_mask.bit_length() - 1, b_mask.bit_length() - 1))


def phi_inv(t: NCNTriple) -> Matching:
    """Rebuild the L & P matching whose hairpin maxima are the chosen pair.

    The hairpin sides are recovered as the edges nesting a (labels <= a) and
    the edges nesting b (labels in (a, b]); their right endpoints are then
    reassigned, in increasing position, to the side sequences read outermost
    last, which turns every A-B nesting into a crossing.

    O(n) for n edges, reading the base's left ends (by label) once.
    """
    if t.pair is None:
        return t.base
    a, b = t.pair
    p = t.base.partner
    lefts = [v for v, w in enumerate(p) if v < w]
    ra, rb = p[lefts[a - 1]], p[lefts[b - 1]]
    # Each side innermost first. Labels follow left endpoints, so an earlier
    # label encloses a later one iff its right endpoint lies further right.
    a_side = [a] + [x for x in range(a - 1, 0, -1) if p[lefts[x - 1]] > ra]
    b_side = [b] + [x for x in range(b - 1, a, -1) if p[lefts[x - 1]] > rb]
    # Every B arc opens inside arc a, so it also closes inside it: the B
    # side's right ends, then the A side's, are increasing.
    slots = [p[lefts[x - 1]] for x in b_side + a_side]
    partner = list(p)
    for x, right in zip(a_side + b_side, slots):
        left = lefts[x - 1]
        partner[left], partner[right] = right, left
    return Matching._trusted(t.base.n, tuple(partner))


def tau(t: NCNTriple) -> Matching:
    """Swap left endpoints along the nested-pair list of the base up to and
    including the chosen pair; no pair means no swaps.

    O(n) time and memory for n edges: one ``_replay`` of the base, whose
    image is valid by construction and so is not checked again.
    """
    if t.pair is None:
        return t.base
    return Matching._trusted(t.base.n, tuple(_replay(t.base, t.pair)))


def tau_inv(representative: Matching) -> NCNTriple:
    """Recover the noncrossing base and chosen pair from a representative.

    The base is the noncrossing projection, and the stop pair (a, b) is read
    off the representative: the arcs opened after b keep their base left
    ends, and b's base left end goes to its outermost encloser, so b opens
    at the last left end the two tables disagree on. Before b's swaps its
    enclosers a_1 ... a_j, in opening order, hold left ends from right to
    left. b takes the one a = a_s held, a_1 takes b's, and a_2 ... a_s each
    take their predecessor's, so a is the s-th encloser when s of them hold
    a left end right of b's. The swaps are replayed to verify the claim, and
    a mismatch rejects the input as not a representative, naming the first
    position where the replay differs.

    O(n) time and memory for n edges: one walk of the base to b, then one
    ``_replay``.
    """
    base = nc(representative)
    if representative == base:
        return NCNTriple._trusted(base, None)
    got = representative.partner
    stop = max(v for v, w in enumerate(base.partner) if v < w != got[v])
    k = b = 0  # nested pairs, and labels, that open before the stop
    opened: list[tuple[int, int]] = []  # (label, right end) of the open arcs
    for v, w in enumerate(base.partner[:stop]):
        if v < w:
            b += 1
            k += len(opened)
            opened.append((b, w))
        else:
            opened.pop()
    held = got[base.partner[stop]]  # b's left end in the representative
    s = sum(got[w] > held for _, w in opened)
    pair = (opened[s - 1][0], b + 1) if s else None
    replayed = _replay(base, pair) if pair else base.partner
    if tuple(replayed) != got:
        v = next(v for v, (x, y) in enumerate(zip(replayed, got)) if x != y)
        raise NotRepresentativeError(
            f"not a class representative: replaying {k + s if s else 0} swaps "
            f"from the noncrossing projection matches position {v} with "
            f"{replayed[v]}, not {got[v]}"
        )
    return NCNTriple._trusted(base, pair)


def sigma(m: Matching) -> Matching:
    """The composite bijection: L & P matching to class representative.

    O(n) time and memory for n edges after ``phi``'s one scan.
    """
    return tau(phi(m))


def sigma_inv(representative: Matching) -> Matching:
    """Inverse of the composite bijection.

    O(n) time and memory for n edges: ``tau_inv``, then ``phi_inv``.
    """
    return phi_inv(tau_inv(representative))
