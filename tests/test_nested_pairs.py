"""``nep`` and the lazy nested-pair walk behind it, against the quadratic
list comprehension they replaced, and the memory the triple and
representative streams need to reach their first items.
"""

import tracemalloc
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from matchbij import all_matchings, from_pairs, nc, ncn_elements, nep, ns_stream
from matchbij.core import _nested_pairs


def reference_nep(m):
    """The quadratic ``nep``: labels follow left endpoints, so a < b nest iff
    right(b) < right(a), and scanning b outside a lists the pairs sorted."""
    rights = [r for _, r in m.pairs()]
    return [(a, b) for b, rb in enumerate(rights, 1)
            for a, ra in enumerate(rights[:b - 1], 1) if ra > rb]


@pytest.mark.parametrize("n", range(1, 8))
def test_every_matching(n):
    for m in all_matchings(n):
        assert nep(m) == reference_nep(m)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.permutations(range(2 * n))))
def test_random_matchings(order):
    m = from_pairs(zip(order[::2], order[1::2]), len(order) // 2)
    assert nep(m) == reference_nep(m)
    base = nc(m)  # the noncrossing matching with the same LR word
    assert nep(base) == reference_nep(base)


def test_ladder_lists_every_pair():
    n = 1200
    ladder = from_pairs([(k, 2 * n - 1 - k) for k in range(n)], n)
    pairs = nep(ladder)
    assert len(pairs) == n * (n - 1) // 2
    assert pairs == reference_nep(ladder)


def test_walk_is_lazy():
    m = from_pairs([(k, 19 - k) for k in range(10)], 10)
    walk = _nested_pairs(m)
    assert list(islice(walk, 3)) == [(1, 2), (1, 3), (2, 3)]
    assert next(walk) == (1, 4)


@pytest.mark.parametrize("stream", [ns_stream, ncn_elements])
def test_first_items_in_linear_memory(monkeypatch, stream):
    # The first base is the 1000-edge ladder, with 499500 nested pairs.
    monkeypatch.setenv("MATCHBIJ_ENUM_CAP", "3000")
    tracemalloc.start()
    try:
        items = list(islice(stream(1000), 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(items) == 2
    assert peak < 2 ** 20
