"""Differential tests for the NCN triple check and the facts it reads.

``NCNTriple`` checks a triple's base with ``is_noncrossing`` and its pair
against the base's left ends, both read from the partner table. The
references below recompute both another way for every triple: a stack scan
of the partner table and the base's ``Edge`` list. A ``_trusted`` build,
which skips the check, equals the checked build of the same value.
"""

import itertools
import pickle

import pytest

from matchbij.bijections import NCNTriple, phi_inv, swap_sequence
from matchbij.core import Matching, edges, is_noncrossing, nep
from matchbij.enumeration import all_matchings, noncrossing_matchings
from matchbij.formats import ParseError, emit_pairs, parse_ncn


def reference_is_noncrossing(m):
    stack = []
    for v, w in enumerate(m.partner):
        if v < w:
            stack.append(v)
        else:
            if stack[-1] != w:
                return False
            stack.pop()
    return True


def reference_check(base, pair):
    """The error message a triple earns, or None if it is accepted."""
    if not reference_is_noncrossing(base):
        return "base matching has crossings"
    if pair is not None:
        a, b = pair
        if not 1 <= a < b <= base.n:
            return f"pair {pair} is not an increasing pair of edge labels"
        es = edges(base)
        ea, eb = es[a - 1], es[b - 1]
        if not (ea.left < eb.left and eb.right < ea.right):
            return f"edges {a} and {b} are not nested in the base"
    return None


def check_message(base, pair):
    try:
        NCNTriple(base, pair)
    except ValueError as exc:
        return str(exc)
    return None


def candidate_pairs(n):
    return [None, *itertools.product(range(n + 2), repeat=2)]


@pytest.mark.parametrize("n", range(1, 7))
def test_triple_check_matches_reference_on_noncrossing_bases(n):
    for base in noncrossing_matchings(n):
        for pair in candidate_pairs(n):
            assert check_message(base, pair) == reference_check(base, pair), (base, pair)


@pytest.mark.parametrize("n", range(2, 6))
def test_crossing_bases_are_rejected(n):
    crossing = [m for m in all_matchings(n) if not reference_is_noncrossing(m)]
    assert crossing
    for m in crossing:
        for pair in (None, (1, 2), (0, 0), (n, 1)):
            assert check_message(m, pair) == "base matching has crossings"


@pytest.mark.parametrize("n", range(1, 5))
def test_parse_ncn_rejections_match_reference(n):
    for m in all_matchings(n):
        for a, b in itertools.product(range(n + 2), repeat=2):
            text = emit_pairs(m) + f"nesting {a} {b}\n"
            expected = reference_check(m, None if (a, b) == (0, 0) else (a, b))
            try:
                parse_ncn(text)
            except ParseError as exc:
                line = n + 2 if reference_is_noncrossing(m) else None
                assert str(exc) == str(ParseError(expected, line=line)), (m, a, b)
            else:
                assert expected is None, (m, a, b)


@pytest.mark.parametrize("n", range(1, 8))
def test_verdict_matches_stack_scan(n):
    for m in all_matchings(n):
        expected = reference_is_noncrossing(m)
        assert is_noncrossing(m) == expected, m
        assert is_noncrossing(m) == expected, m  # a second call agrees


@pytest.mark.parametrize("n", range(1, 6))
def test_verdict_on_labeled_matchings(n):
    # The matchings reached by swapping left endpoints under fixed labels.
    for m in noncrossing_matchings(n):
        for step in swap_sequence(m):
            assert is_noncrossing(step.matching) == reference_is_noncrossing(step.matching)


@pytest.mark.parametrize("partner", [(1, 0), (3, 2, 1, 0), (2, 3, 0, 1), (5, 2, 1, 4, 3, 0)])
def test_trusted_builds_equal_checked_builds(partner):
    n = len(partner) // 2
    trusted, checked = Matching._trusted(n, partner), Matching(n, partner)
    builds = [(trusted, checked)]
    if reference_is_noncrossing(checked):
        pair = (nep(checked) or [None])[-1]
        builds.append((NCNTriple._trusted(trusted, pair), NCNTriple(checked, pair)))
    for x, y in builds:
        assert x == y and y == x
        assert hash(x) == hash(y)
        assert repr(x) == repr(y)
        assert len({x, y}) == 1
        for copy in (pickle.loads(pickle.dumps(x)), pickle.loads(pickle.dumps(y))):
            assert copy == x and x == copy and copy == y and y == copy
            assert hash(copy) == hash(y)
            assert repr(copy) == repr(y)


@pytest.mark.parametrize("partner", [(1, 0), (3, 2, 1, 0), (2, 3, 0, 1), (5, 2, 1, 4, 3, 0)])
def test_a_matching_holds_its_two_fields_only(partner):
    n = len(partner) // 2
    m = Matching(n, partner)
    if is_noncrossing(m):
        pair = (nep(m) or [None])[-1]
        phi_inv(NCNTriple(m, pair))
        list(swap_sequence(m))
    assert vars(m).keys() == {"n", "partner"}
