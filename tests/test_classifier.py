"""Differential tests of the one-pass classifier behind ``stats``,
``find_inflated_hairpin`` and ``census`` against the references it replaced:
the list-based scan of the open arcs, one scan over every pair of edges
for the nested and crossing pair lists (which ``nestings`` and ``crossings``
must equal), the counts and the hairpin recognition read from those lists,
and a census that calls ``class_key`` on every matching.
"""

import random
from bisect import bisect_left

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from matchbij import (
    NCNTriple,
    all_matchings,
    census,
    class_key,
    crossings,
    edges,
    enumerate_lp,
    find_inflated_hairpin,
    from_pairs,
    is_lp,
    is_noncrossing,
    matching_from_lr,
    nep,
    nestings,
    noncrossing_matchings,
    phi_inv,
    stats,
    swap_sequence,
)
from matchbij.core import _scan
from test_swap_walk import dyck_word


def reference_scan(partner):
    """``core._scan`` with the open arcs as a list of labels and the sides as
    sets: O(n + cr + the summed depth of the open arcs)."""
    label_at = [0] * len(partner)
    opened = []  # labels of the open arcs, in opening order
    ne = cr = count = 0
    larger, smaller = set(), set()
    for v, w in enumerate(partner):
        if v < w:
            count += 1
            label_at[v] = count
            opened.append(count)
            continue
        a = label_at[w]
        i = opened.index(a)
        later = opened[i + 1:]
        del opened[i]
        ne += count - a - len(later)
        if later:
            cr += len(later)
            larger.add(a)
            smaller.update(later)
    return ne, cr, larger, smaller


def mask(labels):
    return sum(1 << k for k in labels)


def reference_pairs(m):
    """The nested and the crossing label pairs (a, b), a < b, of ``m``, from
    one test of every pair of edges: O(n^2). ``check`` classifies each
    example once and hands both lists to the references below."""
    es = edges(m)
    nested, crossing = [], []
    for i, ei in enumerate(es):
        for ej in es[i + 1:]:
            if ej.left > ei.right:
                continue
            if ej.right < ei.right:
                nested.append((ei.label, ej.label))
            else:
                crossing.append((ei.label, ej.label))
    return nested, crossing


def reference_stats(pairs):
    nested, crossing = pairs
    return len(nested), len(crossing)


def reference_hairpin(m, pairs):
    nested, cross_pairs = pairs
    if not cross_pairs:
        return (), ()

    crosses_larger = {a for a, _ in cross_pairs}
    crosses_smaller = {b for _, b in cross_pairs}
    if crosses_larger & crosses_smaller:
        return None
    a_side = tuple(sorted(crosses_larger))
    b_side = tuple(sorted(crosses_smaller))
    if a_side[-1] > b_side[0]:
        return None

    nested_set = set(nested)
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
    if len(cross_pairs) != len(a_side) * len(b_side):
        raise ValueError("crossings outside the hairpin sides")

    hairpin_labels = crosses_larger | crosses_smaller
    es = edges(m)
    hairpin_vertices = sorted(
        v for e in es if e.label in hairpin_labels for v in (e.left, e.right)
    )
    # Each other edge must have both ends in one gap between hairpin ends.
    for e in es:
        if e.label in hairpin_labels:
            continue
        if bisect_left(hairpin_vertices, e.left) != bisect_left(hairpin_vertices, e.right):
            return None
    return a_side, b_side


def reference_census(n):
    counts = {}
    for m in all_matchings(n):
        key = class_key(m)
        counts[key] = counts.get(key, 0) + 1
    return counts


def check_scan(m):
    ne, cr, larger, smaller = reference_scan(m.partner)
    assert _scan(m.partner) == (ne, cr, mask(larger), mask(smaller))


def check(m):
    check_scan(m)
    pairs = reference_pairs(m)
    assert (nestings(m), crossings(m)) == pairs
    assert tuple(stats(m)) == reference_stats(pairs)
    d = find_inflated_hairpin(m)
    expected = reference_hairpin(m, pairs)
    assert (None if d is None else (d.a_side, d.b_side)) == expected
    assert is_lp(m) == (expected is not None)


def with_arc(pairs, i, j):
    """The n endpoint pairs plus one new arc at positions i < j of the
    2n + 2, the old positions shifted past it; as a matching."""
    slots = [v for v in range(2 * len(pairs) + 2) if v not in (i, j)]
    return from_pairs([(slots[l], slots[r]) for l, r in pairs] + [(i, j)], len(pairs) + 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_matching_against_reference(n):
    for m in all_matchings(n):
        check(m)


@pytest.mark.slow
def test_every_matching_of_size_7_against_reference():
    for m in all_matchings(7):
        check(m)


@pytest.mark.parametrize("n", range(2, 6))
def test_one_arc_added_to_a_hairpin_against_reference(n):
    # The gap test's boundary: the new arc encloses the hairpin, sits in a
    # gap, or crosses hairpin arcs.
    for m in enumerate_lp(n):
        if not is_noncrossing(m):
            pairs = m.pairs()
            for i in range(2 * n + 2):
                for j in range(i + 1, 2 * n + 2):
                    check(with_arc(pairs, i, j))


@pytest.mark.parametrize("n", range(1, 7))
def test_labeled_swap_traces_against_reference(n):
    for base in noncrossing_matchings(n):
        for step in swap_sequence(base):
            assert tuple(stats(step.matching)) == reference_stats(reference_pairs(step.matching))


@pytest.mark.parametrize("n", range(1, 7))
def test_census_against_reference(n):
    assert list(census(n).items()) == list(reference_census(n).items())


@st.composite
def matchings(draw, max_edges):
    n = draw(st.integers(min_value=1, max_value=max_edges))
    order = draw(st.permutations(range(2 * n)))
    return from_pairs(zip(order[::2], order[1::2]), n)


@st.composite
def near_lp_matchings(draw, max_edges):
    """An L & P matching from a random Dyck word and nested pair, as it is
    or with one change: two arcs' right endpoints exchanged, the least
    block of whole arcs around one arc (the hairpin's arc a half of the
    time) wrapped in a new arc, or a short arc inserted.

    The word's 2n coins come from one drawn seed, not from 2n drawn
    booleans, so a failure shrinks over a handful of choices rather than
    hundreds, and reports in seconds rather than minutes."""
    n = draw(st.integers(min_value=1, max_value=max_edges))
    rng = draw(st.randoms(use_true_random=True))
    base = matching_from_lr(dyck_word(n, [rng.random() < 0.5 for _ in range(2 * n)]))
    order = nep(base)
    index = draw(st.integers(min_value=0, max_value=len(order)))
    pair = order[index - 1] if index else None
    pairs = phi_inv(NCNTriple(base, pair)).pairs()
    fault = draw(st.sampled_from(["none", "exchange", "wrap", "insert"]))
    if fault == "exchange":
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        (li, ri), (lj, rj) = pairs[i], pairs[j]
        pairs[i], pairs[j] = (li, rj), (lj, ri)
    elif fault == "wrap":
        partner = from_pairs(pairs, n).partner
        a = pair[0] if pair and draw(st.booleans()) else draw(st.integers(1, n))
        lo, hi = pairs[a - 1]
        # Widen the arc's span until it holds whole arcs, so the new arc
        # crosses none: it wraps a gap's arcs, or the hairpin.
        while (min(partner[lo:hi + 1]), max(partner[lo:hi + 1])) != (lo, hi):
            lo, hi = min(lo, *partner[lo:hi + 1]), max(hi, *partner[lo:hi + 1])
        return with_arc(pairs, lo, hi + 2)
    elif fault == "insert":
        i = draw(st.integers(min_value=0, max_value=2 * n))
        return with_arc(pairs, i, i + 1)
    return from_pairs(pairs, n)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(matchings(max_edges=300))
def test_random_matchings_against_reference(m):
    check(m)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(near_lp_matchings(max_edges=300))
def test_near_lp_matchings_against_reference(m):
    check(m)


HAIRPIN_1200 = [(k, 1799 - k) for k in range(600)] + [(600 + k, 2399 - k) for k in range(600)]


@pytest.mark.parametrize("m,lp", [
    (from_pairs([(k, 2399 - k) for k in range(1200)], 1200), True),  # nested ladder
    (from_pairs([(k, 1200 + k) for k in range(1200)], 1200), False),  # every pair crosses
    (from_pairs(HAIRPIN_1200, 1200), True),
    (with_arc(HAIRPIN_1200, 0, 2401), False),
    (with_arc(HAIRPIN_1200, 0, 1), True),
], ids=["ladder", "all-crossing", "hairpin", "wrapped-hairpin", "short-arc-then-hairpin"])
def test_1200_edges_against_reference(m, lp):
    check(m)
    assert is_lp(m) == lp


def test_random_matching_of_10_to_the_4_edges_against_reference_scan():
    n = 10 ** 4
    order = list(range(2 * n))
    random.Random(1).shuffle(order)
    check_scan(from_pairs(zip(order[::2], order[1::2]), n))
