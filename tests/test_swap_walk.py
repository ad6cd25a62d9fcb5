"""Differential tests of the O(1)-per-swap walk behind tau, tau_inv,
ns_stream and swap_sequence against a quadratic reference that calls
``swap_left`` once per swap, starting from ``LabeledMatching.fresh``.

The reference orders the nested pairs by sorting ``nestings`` itself, so it
checks ``nep`` as well.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from matchbij import (
    LabeledMatching,
    NCNTriple,
    NotRepresentativeError,
    all_matchings,
    from_pairs,
    matching_from_lr,
    ncn_elements,
    nestings,
    noncrossing_matchings,
    ns_stream,
    swap_left,
    swap_sequence,
    tau,
    tau_inv,
)


def reference_order(base):
    return sorted(nestings(base), key=lambda p: (p[1], p[0]))


def reference_labeled_walk(base, pairs):
    """The labeled matching after each swap of ``pairs``, one ``swap_left``
    each."""
    lm = LabeledMatching.fresh(base)
    for a, b in pairs:
        lm = swap_left(lm, a, b)
        yield lm


def reference_walk(base, pairs):
    for lm in reference_labeled_walk(base, pairs):
        yield lm.to_matching()


def reference_swap_sequence(base):
    """(swapped pair, matching, lperm) for every step of the swap sequence."""
    order = reference_order(base)
    labeled = [LabeledMatching.fresh(base), *reference_labeled_walk(base, order)]
    return [(pair, lm.to_matching(),
             tuple(e.label for e in sorted(lm.edges, key=lambda e: e.left)))
            for pair, lm in zip([None, *order], labeled)]


def check_swap_sequence(base):
    steps = [(s.swapped, s.matching, s.lperm) for s in swap_sequence(base)]
    assert steps == reference_swap_sequence(base)


def reference_tau(t):
    if t.pair is None:
        return t.base
    order = reference_order(t.base)
    *_, image = reference_walk(t.base, order[: order.index(t.pair) + 1])
    return image


def reference_stream(n):
    for m in noncrossing_matchings(n):
        yield m
        yield from reference_walk(m, reference_order(m))


def ladder(n):
    return from_pairs([(i, 2 * n - 1 - i) for i in range(n)], n)


def check_triple(t):
    image = reference_tau(t)
    assert tau(t) == image
    assert tau_inv(image) == t


@pytest.mark.parametrize("n", range(1, 8))
def test_exhaustive_against_reference(n):
    expected = list(reference_stream(n))
    assert list(ns_stream(n)) == expected
    triples = list(ncn_elements(n))
    assert len(triples) == len(expected)
    for t, image in zip(triples, expected):
        assert reference_tau(t) == image
        assert tau(t) == image
        assert tau_inv(image) == t
    for m in noncrossing_matchings(n):
        check_swap_sequence(m)


@pytest.mark.parametrize("n", range(1, 7))
def test_tau_inv_accepts_exactly_the_reference_representatives(n):
    representatives = set(reference_stream(n))
    for m in all_matchings(n):
        try:
            tau_inv(m)
        except NotRepresentativeError:
            assert m not in representatives
        else:
            assert m in representatives


def test_tau_inv_rejects_non_representative_with_valid_word_and_deficit():
    # LR word LLLRRR (at most 3 nestings) with 2 nestings, so the deficit 1 is
    # in range, but one swap from the ladder gives (0,4),(1,5),(2,3) instead.
    m = from_pairs([(0, 5), (1, 3), (2, 4)], 3)
    with pytest.raises(NotRepresentativeError, match="not a class representative"):
        tau_inv(m)


def dyck_word(n, coins):
    """The Dyck word with n pairs read off 2n coins: L on a true coin and R
    on a false one, except L where no arc is open and R once all n L are used."""
    opens = closes = 0
    word = []
    for coin in coins:
        if opens < n and (coin or closes == opens):
            word.append("L")
            opens += 1
        else:
            word.append("R")
            closes += 1
    return "".join(word)


@st.composite
def dyck_words(draw, max_edges):
    n = draw(st.integers(min_value=1, max_value=max_edges))
    return dyck_word(n, draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n)))


def with_random_pair(data, base):
    order = reference_order(base)
    index = data.draw(st.integers(min_value=0, max_value=len(order)))
    return NCNTriple(base, order[index - 1] if index else None)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(dyck_words(max_edges=300), st.data())
def test_random_dyck_words_against_reference(word, data):
    check_triple(with_random_pair(data, matching_from_lr(word)))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=1, max_value=200), st.data())
def test_ladders_against_reference(n, data):
    check_triple(with_random_pair(data, ladder(n)))


# check_swap_sequence keeps every step, O(n) memory each, so inputs stay small:
# the 60-edge ladder has 1771 steps.
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(dyck_words(max_edges=60))
def test_swap_sequence_on_random_dyck_words_against_reference(word):
    check_swap_sequence(matching_from_lr(word))


@pytest.mark.parametrize("n", [1, 2, 5, 20, 60])
def test_swap_sequence_on_ladders_against_reference(n):
    check_swap_sequence(ladder(n))
