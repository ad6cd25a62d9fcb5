from math import comb

import pytest

from matchbij import (
    all_matchings,
    crossings,
    edges,
    enumerate_lp,
    find_inflated_hairpin,
    from_pairs,
    is_lp,
    is_noncrossing,
    lp_count_formula,
)
from matchbij.verify import mirror


class TestFindInflatedHairpin:
    def test_crossing_block(self, lp_example):
        d = find_inflated_hairpin(lp_example)
        assert d.a_side == (1, 2)
        assert d.b_side == (4, 5)
        # Arcs 3, 6 and 7 each lie in one gap between hairpin endpoints; an
        # arc over the whole matching straddles them all.
        wrapped = from_pairs([(0, 15)] + [(l + 1, r + 1) for l, r in lp_example.pairs()], 8)
        assert find_inflated_hairpin(wrapped) is None

    def test_noncrossing_gets_empty_decomposition(self, nc_example):
        d = find_inflated_hairpin(nc_example)
        assert d.a_side == () and d.b_side == ()

    def test_two_sided_example(self, similar_a):
        d = find_inflated_hairpin(similar_a)
        assert d.a_side == (1, 3)
        assert d.b_side == (4,)

    def test_scattered_crossers_rejected(self, similar_b):
        assert find_inflated_hairpin(similar_b) is None

    def test_four_edge_variant_rejected(self):
        assert find_inflated_hairpin(from_pairs([(0, 2), (1, 7), (3, 5), (4, 6)], 4)) is None

    def test_wrapping_edge_violates_gap_condition(self):
        # The outer edge straddles hairpin endpoints, so it cannot sit in one gap.
        assert find_inflated_hairpin(from_pairs([(0, 5), (1, 3), (2, 4)], 3)) is None

    def test_mutual_crossing_triple_rejected(self):
        assert find_inflated_hairpin(from_pairs([(0, 3), (1, 4), (2, 5)], 3)) is None

    def test_two_separate_hairpins_rejected(self):
        assert find_inflated_hairpin(from_pairs([(0, 2), (1, 3), (4, 6), (5, 7)], 4)) is None

    def test_sides_are_both_empty_or_both_nonempty(self):
        # The constructor checks nothing, so every decomposition the library
        # builds must have both sides empty exactly when m is noncrossing.
        for n in range(1, 7):
            for m in all_matchings(n):
                d = find_inflated_hairpin(m)
                if d is not None:
                    assert (bool(d.a_side), bool(d.b_side)) == (not is_noncrossing(m),) * 2, m


class TestIsLp:
    def test_examples(self, similar_a, similar_b, hairpin, nc_example):
        assert is_lp(similar_a)
        assert not is_lp(similar_b)
        assert is_lp(hairpin)
        assert is_lp(nc_example)

    def test_noncrossing_always_member(self):
        from matchbij import noncrossing_matchings

        assert all(is_lp(m) for m in noncrossing_matchings(5))


class TestCountFormula:
    def test_first_terms(self):
        assert [lp_count_formula(k) for k in range(1, 7)] == [1, 3, 12, 51, 218, 926]

    def test_term_after_926_differs_from_shifted_tail(self):
        # The widely quoted 16323 is the n = 8 value; n = 7 is 3902.
        assert lp_count_formula(7) == 3902
        assert lp_count_formula(8) == 16323

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lp_count_formula(0)

    @pytest.mark.parametrize("n", range(1, 30))
    def test_division_is_exact_for_small_n(self, n):
        assert lp_count_formula(n) > 0

    def test_halving_agrees_with_the_binomial_form(self):
        # The parity argument behind the exact halving (Catalan(n) is odd
        # iff n + 1 is a power of 2), and the closed form with its division
        # by 2n + 2, for every n up to 3000. C(2n, n) is carried along.
        central = 1
        for n in range(1, 3001):
            central = central * (2 * n - 1) * 2 // n
            assert (central // (n + 1)) % 2 == (n & (n + 1) == 0), n
            numerator = (3 * n - 1) * central
            assert numerator % (2 * n + 2) == 0, n
            assert lp_count_formula(n) == 2 * 4 ** (n - 1) - numerator // (2 * n + 2), n
        assert central == comb(6000, 3000)


class TestEnumerateLp:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_count_matches_formula(self, n):
        assert sum(1 for _ in enumerate_lp(n)) == lp_count_formula(n)

    def test_n3_exclusions(self):
        excluded = set(all_matchings(3)) - set(enumerate_lp(3))
        assert excluded == {
            from_pairs([(0, 2), (1, 4), (3, 5)], 3),
            from_pairs([(0, 3), (1, 4), (2, 5)], 3),
            from_pairs([(0, 5), (1, 3), (2, 4)], 3),
        }

    def test_n2_is_everything(self):
        assert list(enumerate_lp(2)) == list(all_matchings(2))


class TestStructuralInvariants:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hairpin_right_endpoints_in_side_order(self, n):
        for m in all_matchings(n):
            d = find_inflated_hairpin(m)
            if d is None or not d.a_side:
                continue
            es = edges(m)
            by_position = sorted(d.a_side + d.b_side, key=lambda lb: es[lb - 1].right)
            assert by_position == list(reversed(d.a_side)) + list(reversed(d.b_side))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_mirror_invariance(self, n):
        for m in all_matchings(n):
            assert is_lp(m) == is_lp(mirror(m))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_crossing_count_is_side_product(self, n):
        for m in all_matchings(n):
            d = find_inflated_hairpin(m)
            if d is not None:
                assert len(crossings(m)) == len(d.a_side) * len(d.b_side)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sides_bound_each_other(self, n):
        for m in all_matchings(n):
            d = find_inflated_hairpin(m)
            if d is not None and d.a_side:
                assert max(d.a_side) < min(d.b_side)
                assert not is_noncrossing(m)
