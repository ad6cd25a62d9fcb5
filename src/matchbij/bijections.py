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
for its right endpoint. ``tau``, ``tau_inv``, ``swap_sequence`` and the
representative stream therefore walk the swaps on a plain partner table, at
O(1) per swap, and read labels through the right endpoints when they need
them. ``swap_left`` is the single-swap reference: it carries the labels
explicitly in a ``LabeledMatching`` and revalidates it on every swap.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import Edge, LabeledMatching, Matching, NCNTriple, _scan, is_noncrossing, nc, nep, stats
from .lp import _hairpin

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


@dataclass(frozen=True)
class SwapStep:
    """One stage of a swap sequence: the pair just swapped (None at the
    start), the matching reached, and its lperm, the base's edge labels in
    the order their left endpoints now appear."""

    swapped: Optional[tuple[int, int]]
    matching: Matching
    lperm: tuple[int, ...]


def _swap_walk(base: Matching, pairs: Iterable[tuple[int, int]]) -> Iterator[list[int]]:
    """Swap left endpoints of ``base`` (labeled by left endpoint) along
    ``pairs``, yielding the partner table after each swap.

    The same list is yielded every time and mutated in place between steps.
    Each swap is O(1) and keeps ``swap_left``'s inversion check; nothing else
    is validated, so callers build a ``Matching`` from what they keep.
    """
    partner = list(base.partner)
    left = [v for v in range(2 * base.n) if v < partner[v]]  # by label - 1
    for a, b in pairs:
        la, lb = left[a - 1], left[b - 1]
        ra, rb = partner[la], partner[lb]
        if lb >= ra or la >= rb:
            raise ValueError(
                f"swapping left endpoints of {a} and {b} would invert edge "
                f"{a if lb >= ra else b}"
            )
        left[a - 1], left[b - 1] = lb, la
        partner[lb], partner[ra] = ra, lb
        partner[la], partner[rb] = rb, la
        yield partner


def _apply_swaps(base: Matching, order: list[tuple[int, int]], count: int) -> Matching:
    partner = base.partner
    for partner in _swap_walk(base, order[:count]):
        pass
    return Matching(base.n, tuple(partner))


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
    order = nep(m)
    label_of = {right: k for k, (_, right) in enumerate(m._ends, 1)}
    yield SwapStep(None, m, tuple(range(1, m.n + 1)))
    for pair, partner in zip(order, _swap_walk(m, order)):
        lperm = tuple(label_of[w] for v, w in enumerate(partner) if v < w)
        yield SwapStep(pair, Matching(m.n, tuple(partner)), lperm)


def phi(m: Matching) -> NCNTriple:
    """Map an L & P matching to its noncrossing projection plus the nested
    pair recording the hairpin maxima; noncrossing input maps to itself with
    no pair chosen.

    O(n log n) for n edges plus the one-pass scan behind
    ``find_inflated_hairpin``, O(n^2 / 30) digit steps at worst; a rejection
    reads the first crossing pair from the same scan in O(n) more.
    """
    scanned = _scan(m.partner)
    decomposition = _hairpin(m, scanned)
    if decomposition is None:
        # The first crossing pair: the least label crossing a larger one (the
        # lowest bit of the scan's A mask), and the least larger label it
        # crosses.
        a_mask = scanned[2]
        a = (a_mask & -a_mask).bit_length() - 1
        ends = m._ends
        ra = ends[a - 1][1]
        b = next(b for b in range(a + 1, m.n + 1) if ends[b - 1][0] < ra < ends[b - 1][1])
        raise NotLPError(
            f"matching is not L & P: crossing pair ({a},{b}) does not belong "
            f"to a single inflated hairpin"
        )
    if not decomposition.a_side:
        return NCNTriple(m, None)
    return NCNTriple(nc(m), (decomposition.a_side[-1], decomposition.b_side[-1]))


def phi_inv(t: NCNTriple) -> Matching:
    """Rebuild the L & P matching whose hairpin maxima are the chosen pair.

    The hairpin sides are recovered as the edges nesting a (labels <= a) and
    the edges nesting b (labels in (a, b]); their right endpoints are then
    reassigned, in increasing position, to the side sequences read outermost
    last, which turns every A-B nesting into a crossing.

    O(n log n) for n edges, reading the pair table kept on the base.
    """
    if t.pair is None:
        return t.base
    a, b = t.pair
    ends = t.base._ends
    # Labels follow left endpoints, so an earlier label encloses a later one
    # iff its right endpoint lies further right.
    a_side = [x for x in range(1, a) if ends[x - 1][1] > ends[a - 1][1]] + [a]
    b_side = [x for x in range(a + 1, b) if ends[x - 1][1] > ends[b - 1][1]] + [b]
    slots = sorted(ends[x - 1][1] for x in a_side + b_side)
    partner = list(t.base.partner)
    for x, right in zip(a_side[::-1] + b_side[::-1], slots):
        left = ends[x - 1][0]
        partner[left], partner[right] = right, left
    return Matching(t.base.n, tuple(partner))


def tau(t: NCNTriple) -> Matching:
    """Swap left endpoints along the nested-pair list of the base up to and
    including the chosen pair; no pair means no swaps.

    O(n^2) for n edges: building the nested-pair list (``nep``) dominates,
    and the at most n(n-1)/2 swaps cost O(1) each.
    """
    if t.pair is None:
        return t.base
    order = nep(t.base)
    return _apply_swaps(t.base, order, order.index(t.pair) + 1)


def tau_inv(representative: Matching) -> NCNTriple:
    """Recover the noncrossing base and chosen pair from a representative.

    The base is the noncrossing projection; the swap count is the nesting
    deficit. The swaps are replayed to verify the claim, and a mismatch
    rejects the input as not a representative.

    O(n^2) for n edges: the nesting counts and ``nep`` dominate, and the
    replay costs O(1) per swap.
    """
    base = nc(representative)
    if representative == base:
        return NCNTriple(base, None)
    order = nep(base)
    k = len(order)
    deficit = k - stats(representative).ne
    if not 1 <= deficit <= k:
        raise NotRepresentativeError(
            f"nesting count {k - deficit} is impossible for this LR word "
            f"(noncrossing maximum is {k})"
        )
    replayed = _apply_swaps(base, order, deficit)
    if replayed != representative:
        raise NotRepresentativeError(
            f"not a class representative: replaying {deficit} swaps from the "
            f"noncrossing projection gives {replayed}, not {representative}"
        )
    return NCNTriple(base, order[deficit - 1])


def sigma(m: Matching) -> Matching:
    """The composite bijection: L & P matching to class representative.

    O(n^2) for n edges: ``phi`` and ``tau`` are O(n^2) each.
    """
    return tau(phi(m))


def sigma_inv(representative: Matching) -> Matching:
    """Inverse of the composite bijection.

    O(n^2) for n edges, dominated by ``tau_inv``.
    """
    return phi_inv(tau_inv(representative))
