"""Property tests for the core statistics on random matchings.

Random matchings reach sizes the exhaustive streams never touch, so these
complement the enumeration-based invariant suites.
"""

from hypothesis import given, strategies as st

from matchbij import (
    alignments,
    crossings,
    edges,
    from_pairs,
    is_noncrossing,
    lr_sequence,
    nc,
    nep,
    nestings,
    rperm,
    stats,
)


@st.composite
def matchings(draw, max_edges=10):
    n = draw(st.integers(min_value=1, max_value=max_edges))
    flat = draw(st.permutations(list(range(2 * n))))
    pairs = [(flat[2 * k], flat[2 * k + 1]) for k in range(n)]
    return from_pairs(pairs, n)


@given(matchings())
def test_pair_classification_partitions(m):
    st_ = stats(m)
    assert st_.ne + st_.cr + len(alignments(m)) == m.n * (m.n - 1) // 2


@given(matchings())
def test_projection_keeps_lr_word(m):
    assert lr_sequence(nc(m)) == lr_sequence(m)


@given(matchings())
def test_projection_idempotent(m):
    p = nc(m)
    assert nc(p) == p
    assert (p == m) == is_noncrossing(m)


@given(matchings())
def test_noncrossing_means_no_crossings(m):
    assert is_noncrossing(m) == (crossings(m) == [])


@given(matchings())
def test_edges_roundtrip(m):
    assert from_pairs([(e.left, e.right) for e in edges(m)], m.n) == m


@given(matchings())
def test_projection_maximizes_nestings_upper_bound(m):
    # nc has the most nestings for the word; any matching stays at or below.
    assert stats(m).ne <= stats(nc(m)).ne


@given(matchings())
def test_rperm_reversals_detect_nestings_on_noncrossing(m):
    p = nc(m)
    position = {label: i for i, label in enumerate(rperm(p))}
    nested = set(nestings(p))
    for a in range(1, p.n + 1):
        for b in range(a + 1, p.n + 1):
            assert ((a, b) in nested) == (position[b] < position[a])


@given(matchings())
def test_nep_is_sorted_by_second_then_first(m):
    pairs = nep(m)
    assert pairs == sorted(pairs, key=lambda p: (p[1], p[0]))
    assert len(pairs) == stats(m).ne
    assert set(pairs) == set(nestings(m))
