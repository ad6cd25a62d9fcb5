"""``tau`` and ``tau_inv`` replay the swaps one rotation per nested arc
(``bijections._replay``), and ``tau_inv`` reads the stop pair off its input.
They are checked against the list-based maps they replaced, kept here as the
reference: build the whole ``nep`` list, find the pair with ``order.index``
or as the nesting deficit, and walk it with ``_swap_walk``, one swap a step.
Results and exception types must agree, and every rejection message must be
true of the reference's replay.
"""

import random
import re
import tracemalloc
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from matchbij import (
    Matching,
    NCNTriple,
    NotRepresentativeError,
    all_matchings,
    from_pairs,
    is_representative,
    lr_sequence,
    matching_from_lr,
    nc,
    ncn_elements,
    nep,
    noncrossing_matchings,
    sigma_inv,
    stats,
    tau,
    tau_inv,
)
from matchbij import bijections, core
from matchbij.bijections import _swap_walk
from test_swap_walk import dyck_words, ladder, with_random_pair


def reference_replay(base, count):
    partner = base.partner
    for _, partner in islice(_swap_walk(base), count):
        pass
    return Matching(base.n, tuple(partner))


def reference_tau(t):
    if t.pair is None:
        return t.base
    return reference_replay(t.base, nep(t.base).index(t.pair) + 1)


def reference_tau_inv(representative):
    base = nc(representative)
    if representative == base:
        return NCNTriple(base, None)
    order = nep(base)
    # The deficit is cr(representative), in 1..len(order): see
    # test_crossings_are_the_nesting_deficit.
    deficit = len(order) - stats(representative).ne
    if reference_replay(base, deficit) != representative:
        raise NotRepresentativeError(f"replaying {deficit} swaps does not reach the input")
    return NCNTriple(base, order[deficit - 1])


def outcome(f, x):
    try:
        return "value", f(x)
    except ValueError as exc:
        return type(exc), str(exc)


REJECTION = re.compile(r"not a class representative: replaying (\d+) swaps from the "
                       r"noncrossing projection matches position (\d+) with (\d+), not (\d+)")


def check_rejection(m, message):
    """The message is true: k swaps along the nested-pair list of the
    projection put x at position v, where ``m`` holds y != x."""
    k, v, x, y = map(int, REJECTION.fullmatch(message).groups())
    base = nc(m)
    assert k <= len(nep(base))
    assert reference_replay(base, k).partner[v] == x != y == m.partner[v]


def check_inverse(m):
    got, expected = outcome(tau_inv, m), outcome(reference_tau_inv, m)
    if expected[0] == "value":
        assert got == expected
    else:
        assert got[0] is expected[0] is NotRepresentativeError
        check_rejection(m, got[1])


def check_triple(t):
    image = tau(t)
    assert image == reference_tau(t)
    assert tau_inv(image) == reference_tau_inv(image) == t


@pytest.mark.parametrize("n", range(1, 8))
def test_every_triple_and_representative(n):
    for t in ncn_elements(n):
        check_triple(t)


@pytest.mark.parametrize("n", range(1, 7))
def test_tau_inv_on_every_matching(n):
    for m in all_matchings(n):
        check_inverse(m)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(dyck_words(max_edges=300), st.data())
def test_random_dyck_bases(word, data):
    t = with_random_pair(data, matching_from_lr(word))
    check_triple(t)
    # Two arcs exchange right ends: mostly a rejected input.
    image = list(tau(t).partner)
    rights = [v for v, w in enumerate(image) if w < v]
    if len(rights) > 1:
        r, s = data.draw(st.lists(st.sampled_from(rights), min_size=2, max_size=2,
                                  unique=True))
        image[r], image[s] = image[s], image[r]
        image[image[r]], image[image[s]] = r, s
        check_inverse(Matching(t.base.n, tuple(image)))


@pytest.mark.parametrize("n", [60, 100, 150])
def test_benchmark_ladders(n):
    check_triple(NCNTriple(ladder(n), (n - 1, n)))


def nonnesting(word):
    """The matching of ``word`` with no nesting: each right end takes the
    earliest open left end."""
    partner = [0] * len(word)
    waiting = []
    for v, c in enumerate(word):
        if c == "L":
            waiting.append(v)
        else:
            left = waiting.pop(0)
            partner[left], partner[v] = v, left
    return Matching(len(word) // 2, tuple(partner))


def last_nested_pair(base):
    """The last pair in nested-pair order (by second label, then first): the
    last label opened inside another arc, with its innermost encloser."""
    last, opened, label = None, [], 0
    for v, w in enumerate(base.partner):
        if v < w:
            label += 1
            if opened:
                last = (opened[-1], label)
            opened.append(label)
        else:
            opened.pop()
    return last


def random_dyck_word(n, seed):
    """A uniform random Dyck word with n pairs, by the cycle lemma."""
    steps = ["L"] * n + ["R"] * (n + 1)
    random.Random(seed).shuffle(steps)
    height = low = start = 0
    for i, c in enumerate(steps, 1):
        height += 1 if c == "L" else -1
        if height < low:
            low, start = height, i
    return "".join(steps[start:] + steps[:start])[:-1]


@pytest.mark.parametrize("bases", [
    *(pytest.param(lambda n=n: noncrossing_matchings(n), id=str(n)) for n in range(1, 9)),
    pytest.param(lambda: [ladder(3000)], id="ladder-3000"),
    pytest.param(lambda: [matching_from_lr(random_dyck_word(10 ** 4, seed=1))],
                 id="dyck-10000"),
])
def test_last_pair_reaches_the_nonnesting_matching(bases):
    for base in bases():
        t = NCNTriple(base, last_nested_pair(base))
        image = tau(t)
        assert image == nonnesting(lr_sequence(base))
        assert stats(image).ne == 0
        assert tau_inv(image) == t


@pytest.mark.parametrize("f", [tau, tau_inv])
def test_memory_on_the_1000_edge_ladder(f):
    t = NCNTriple(ladder(1000), (999, 1000))  # the last of 499500 nested pairs
    x = t if f is tau else tau(t)
    tracemalloc.start()
    try:
        f(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_rejection_names_one_position():
    order = list(range(4000))
    random.Random(3).shuffle(order)
    m = from_pairs(zip(order[::2], order[1::2]), 2000)
    with pytest.raises(NotRepresentativeError) as caught:
        tau_inv(m)
    message = str(caught.value)
    assert message.startswith("not a class representative: replaying ")
    assert " swaps from the noncrossing projection " in message
    assert len(message) < 200
    assert outcome(reference_tau_inv, m)[0] is NotRepresentativeError
    check_rejection(m, message)


@pytest.mark.parametrize("n", range(1, 8))
def test_crossings_are_the_nesting_deficit(n):
    """ne + cr = ne(nc(m)) for every matching: each closing step of the LR
    word closes one of the h open arcs, nesting in those opened before it
    and crossing those opened after, and nc always closes the last opened,
    which nests in all the others (Flajolet's path weighting). A matching
    that is not its own projection crosses, so the reference's deficit lies
    in 1..ne(nc(m)) and needs no range check."""
    for m in all_matchings(n):
        ne, cr = stats(m)
        assert ne + cr == stats(nc(m)).ne


@pytest.mark.parametrize("n", range(1, 6))
def test_inverses_run_no_scan(monkeypatch, n):
    maps = (tau_inv, sigma_inv, is_representative)
    matchings = list(all_matchings(n))
    expected = [[outcome(f, m) for f in maps] for m in matchings]

    def refuse(partner):
        raise AssertionError("scanned")

    monkeypatch.setattr(core, "_scan", refuse)
    monkeypatch.setattr(bijections, "_scan", refuse)
    assert [[outcome(f, m) for f in maps] for m in matchings] == expected
