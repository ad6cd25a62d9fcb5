from math import floor, log10

import pytest

from matchbij import (
    EnumerationCapError,
    Matching,
    all_matchings,
    catalan,
    census,
    double_factorial,
    from_pairs,
    is_noncrossing,
    lp_count_formula,
    lr_sequence,
    ncn_elements,
    nestings,
    noncrossing_matchings,
    ns_stream,
)
from matchbij.core import _scan, matching_from_lr
from matchbij.enumeration import _walk, _walk_word


def reference_all_matchings(n):
    """The recursive generator ``all_matchings`` replaced: pair the least
    free position with each larger free one in turn, then recurse."""
    size = 2 * n
    partner = [-1] * size

    def fill(lo):
        while lo < size and partner[lo] >= 0:
            lo += 1
        if lo == size:
            yield Matching(n, tuple(partner))
            return
        for w in range(lo + 1, size):
            if partner[w] < 0:
                partner[lo] = w
                partner[w] = lo
                yield from fill(lo + 1)
                partner[lo] = -1
                partner[w] = -1

    yield from fill(0)


@pytest.mark.parametrize("n", range(1, 8))
def test_all_matchings_against_recursive_reference(n):
    for got, want in zip(all_matchings(n), reference_all_matchings(n), strict=True):
        assert got.partner == want.partner


def check_one_trusted_build_each(stream, monkeypatch):
    """Drain ``stream`` and check that each element it yields is built by
    exactly one ``Matching._trusted`` call, which the oracle validates with
    the original ``__post_init__`` check, and that the ``__post_init__``
    hook of the public constructor runs zero times."""
    check = Matching.__post_init__
    trusted = Matching._trusted.__func__
    built, hooked = [], []

    def validated(cls, n, partner):
        m = trusted(cls, n, partner)
        check(m)
        built.append(partner)
        return m

    monkeypatch.setattr(Matching, "_trusted", classmethod(validated))
    monkeypatch.setattr(Matching, "__post_init__", lambda self: hooked.append(self.partner))
    yielded = [m.partner for m in stream]
    assert built == yielded
    assert hooked == []


@pytest.mark.parametrize("n", [1, 2, 5])
def test_one_validation_per_element(n, monkeypatch):
    check_one_trusted_build_each(all_matchings(n), monkeypatch)


def reference_noncrossing_matchings(n):
    """The recursive generator ``noncrossing_matchings`` replaced: spell
    each LR word, L before R, and pair it by the stack."""

    def words(opens, closes, prefix):
        if opens == n and closes == n:
            yield "".join(prefix)
            return
        if opens < n:
            prefix.append("L")
            yield from words(opens + 1, closes, prefix)
            prefix.pop()
        if closes < opens:
            prefix.append("R")
            yield from words(opens, closes + 1, prefix)
            prefix.pop()

    for word in words(0, 0, []):
        yield matching_from_lr(word)


def check_noncrossing(n):
    for got, want in zip(noncrossing_matchings(n), reference_noncrossing_matchings(n),
                         strict=True):
        assert got.partner == want.partner


@pytest.mark.parametrize("n", range(1, 12))
def test_noncrossing_matchings_against_recursive_reference(n):
    check_noncrossing(n)


@pytest.mark.slow
def test_noncrossing_matchings_against_recursive_reference_at_size_12():
    check_noncrossing(12)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_one_validation_per_noncrossing_element(n, monkeypatch):
    check_one_trusted_build_each(noncrossing_matchings(n), monkeypatch)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_one_validation_per_representative(n, monkeypatch):
    check_one_trusted_build_each(ns_stream(n), monkeypatch)


class TestLargeCatalanStreams:
    # Sizes past the interpreter's recursion limit, which a recursive stream cannot reach.
    @pytest.fixture(autouse=True)
    def high_cap(self, monkeypatch):
        monkeypatch.setenv("MATCHBIJ_ENUM_CAP", "3000")

    def test_first_noncrossing_matching_is_fully_nested(self):
        first = next(noncrossing_matchings(2000))
        assert first.partner == tuple(range(3999, -1, -1))

    def test_first_triple(self):
        first = next(ncn_elements(600))
        assert first.pair is None and first.base.partner[0] == 1199

    def test_first_two_representatives(self):
        stream = ns_stream(600)
        nested, swapped = next(stream), next(stream)
        assert nested.partner[0] == 1199
        assert swapped != nested and swapped.n == 600


def check_walk(n):
    # The recursive reference pins the order; the scan, tested against its
    # own reference in test_classifier.py, gives the nesting count.
    walked = 0
    for (lefts, ne), m in zip(_walk(n), reference_all_matchings(n), strict=True):
        assert _walk_word(lefts, n) == lr_sequence(m), m
        assert ne == _scan(m.partner)[0], m
        walked += 1
    assert walked == double_factorial(2 * n - 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_walk_against_partner_tables(n):
    check_walk(n)


@pytest.mark.slow
def test_walk_against_partner_tables_at_size_8():
    check_walk(8)


def test_walk_of_one_edge():
    # The only element: one left end at 0, so the LR word is "LR".
    assert list(_walk(1)) == [(0b01, 0)]
    assert [key.lr for key in census(1)] == ["LR"]


def test_walk_checks_its_size_at_the_call():
    with pytest.raises(EnumerationCapError) as walked:
        _walk(9)
    with pytest.raises(EnumerationCapError) as listed:
        next(all_matchings(9))
    assert str(walked.value) == str(listed.value)
    with pytest.raises(ValueError, match="n must be positive"):
        _walk(0)


class TestCounts:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 15), (4, 105)])
    def test_all_matchings_lengths(self, n, expected):
        assert sum(1 for _ in all_matchings(n)) == expected
        assert double_factorial(2 * n - 1) == expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (3, 5), (5, 42), (8, 1430)])
    def test_noncrossing_lengths(self, n, expected):
        assert sum(1 for _ in noncrossing_matchings(n)) == expected
        assert catalan(n) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_ncn_lengths_match_formula(self, n):
        assert sum(1 for _ in ncn_elements(n)) == lp_count_formula(n)


class TestClosedForms:
    def test_double_factorial_values(self):
        assert double_factorial(1) == 1
        assert double_factorial(13) == 135135

    def test_double_factorial_rejects_even(self):
        with pytest.raises(ValueError):
            double_factorial(4)

    def test_catalan_values(self):
        assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_catalan_rejects_negative(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestStreamProperties:
    def test_no_duplicates(self):
        seen = list(all_matchings(4))
        assert len(set(seen)) == len(seen)

    def test_noncrossing_stream_is_noncrossing_subset(self):
        everything = set(all_matchings(4))
        for m in noncrossing_matchings(4):
            assert is_noncrossing(m)
            assert m in everything

    def test_order_is_deterministic(self):
        assert list(all_matchings(3)) == list(all_matchings(3))
        assert list(noncrossing_matchings(4)) == list(noncrossing_matchings(4))

    def test_canonical_first_element(self):
        # Smallest position takes the smallest free partner first.
        first = next(all_matchings(3))
        assert first == from_pairs([(0, 1), (2, 3), (4, 5)], 3)

    def test_ncn_pairs_are_nested_pairs_of_base(self):
        for t in ncn_elements(3):
            if t.pair is not None:
                assert t.pair in set(nestings(t.base))


class TestCaps:
    def test_default_cap_blocks_full_enumeration(self):
        with pytest.raises(EnumerationCapError, match=r"\(2n-1\)!! = 34459425"):
            next(all_matchings(9))

    @pytest.mark.parametrize("n", [23, 24, 100, 2000])
    def test_long_count_is_given_in_digits(self, n):
        digits = floor(log10(double_factorial(2 * n - 1))) + 1
        with pytest.raises(EnumerationCapError) as info:
            next(all_matchings(n))
        expected = (f"= {double_factorial(2 * n - 1)} matchings" if digits <= 30
                    else f"has about {digits} digits")
        assert f"(2n-1)!! {expected} at this size" in str(info.value)

    @pytest.mark.parametrize("n", [13, 30, 2000])
    def test_noncrossing_cap_names_the_catalan_count(self, n):
        digits = floor(log10(catalan(n))) + 1
        with pytest.raises(EnumerationCapError) as info:
            next(noncrossing_matchings(n))
        expected = (f"= {catalan(n)} noncrossing matchings" if digits <= 30
                    else f"has about {digits} digits")
        assert f"for noncrossing enumeration: Catalan(n) {expected} at this size" in str(info.value)

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv("MATCHBIJ_ENUM_CAP", "2")
        with pytest.raises(EnumerationCapError):
            next(all_matchings(3))
        monkeypatch.setenv("MATCHBIJ_ENUM_CAP", "9")
        assert next(all_matchings(9)).n == 9

    def test_noncrossing_cap_is_higher(self):
        assert next(noncrossing_matchings(12)).n == 12
        with pytest.raises(EnumerationCapError):
            next(noncrossing_matchings(13))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next(all_matchings(0))
        with pytest.raises(ValueError, match="^n must be positive, got 0$"):
            next(noncrossing_matchings(0))

    @pytest.mark.parametrize("stream", [all_matchings, noncrossing_matchings, _walk])
    def test_nonpositive_n_is_refused_before_the_cap_is_read(self, monkeypatch, stream):
        monkeypatch.setenv("MATCHBIJ_ENUM_CAP", "x")
        with pytest.raises(ValueError, match="^n must be positive, got 0$") as info:
            next(iter(stream(0)))
        assert type(info.value) is ValueError
        with pytest.raises(EnumerationCapError, match="MATCHBIJ_ENUM_CAP must be"):
            next(iter(stream(1)))
