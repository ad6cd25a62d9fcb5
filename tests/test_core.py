import pytest

from matchbij import (
    Edge,
    InvalidMatchingError,
    LabeledMatching,
    Matching,
    alignments,
    all_matchings,
    crossings,
    edges,
    from_pairs,
    is_noncrossing,
    lr_sequence,
    matching_from_lr,
    nc,
    nep,
    nestings,
    noncrossing_matchings,
    rperm,
    stats,
)
from matchbij.core import _word_nestings


class TestFromPairs:
    def test_hairpin(self, hairpin):
        assert hairpin.partner == (2, 3, 0, 1)

    def test_single_edge(self):
        assert from_pairs([(0, 1)], 1).partner == (1, 0)

    def test_duplicate_position(self):
        with pytest.raises(InvalidMatchingError, match="duplicate position 2"):
            from_pairs([(0, 2), (1, 2)], 2)

    def test_out_of_range(self):
        with pytest.raises(InvalidMatchingError, match="position 4 out of range"):
            from_pairs([(0, 1), (2, 4)], 2)

    def test_wrong_pair_count(self):
        with pytest.raises(InvalidMatchingError, match="expected 3 pairs, got 2"):
            from_pairs([(0, 1), (2, 3)], 3)

    def test_pair_order_is_irrelevant(self):
        assert from_pairs([(2, 0), (3, 1)], 2) == from_pairs([(0, 2), (1, 3)], 2)


class TestMatchingValidation:
    def test_not_involution(self):
        with pytest.raises(InvalidMatchingError, match="involution"):
            Matching(2, (1, 2, 3, 0))

    def test_fixed_point(self):
        with pytest.raises(InvalidMatchingError, match="matched to itself"):
            Matching(2, (0, 1, 3, 2))

    def test_wrong_length(self):
        with pytest.raises(InvalidMatchingError, match="expected 4"):
            Matching(2, (1, 0))

    def test_nonpositive_n(self):
        with pytest.raises(InvalidMatchingError, match="positive"):
            Matching(0, ())


class TestEdges:
    def test_labels_follow_left_endpoints(self, lp_example):
        assert edges(lp_example) == [
            Edge(1, 0, 9), Edge(2, 1, 6), Edge(3, 2, 3), Edge(4, 4, 13),
            Edge(5, 5, 10), Edge(6, 7, 8), Edge(7, 11, 12),
        ]

    def test_single_edge(self):
        assert edges(from_pairs([(0, 1)], 1)) == [Edge(1, 0, 1)]

    def test_sorting(self):
        m = from_pairs([(2, 3), (0, 5), (1, 4)], 3)
        assert edges(m) == [Edge(1, 0, 5), Edge(2, 1, 4), Edge(3, 2, 3)]

    def test_roundtrip(self, lp_example):
        rebuilt = from_pairs([(e.left, e.right) for e in edges(lp_example)], 7)
        assert rebuilt == lp_example


class TestLRSequence:
    def test_example(self, similar_a):
        assert lr_sequence(similar_a) == "LLRLLRRRLR"
        assert type(lr_sequence(similar_a)) is str

    def test_hairpin(self, hairpin):
        assert lr_sequence(hairpin) == "LLRR"

    def test_seven_edges(self, nc_example):
        assert lr_sequence(nc_example) == "LLLRLLRLRRRLRR"

    # matching_from_lr checks a word from outside where it enters.
    def test_validation_rejects_unmatched_r(self):
        with pytest.raises(ValueError, match="unmatched R at index 0"):
            matching_from_lr("RL")

    def test_validation_rejects_leftover_l(self):
        with pytest.raises(ValueError, match="1 unmatched L symbols"):
            matching_from_lr("LLR")

    def test_validation_rejects_alphabet(self):
        with pytest.raises(ValueError, match="invalid symbol 'X' at index 1"):
            matching_from_lr("LX")

    def test_empty_word_rejected(self):
        with pytest.raises(InvalidMatchingError, match="edge count must be positive"):
            matching_from_lr("")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_word_nestings_is_the_noncrossing_nesting_count(self, n):
        for m in noncrossing_matchings(n):
            assert _word_nestings(lr_sequence(m)) == stats(m).ne == len(nestings(m)), m


class TestNestings:
    def test_similar_pair_both_have_two(self, similar_a, similar_b):
        assert len(nestings(similar_a)) == 2
        assert len(nestings(similar_b)) == 2

    def test_ladder_is_fully_nested(self, ladder4):
        pairs = nestings(ladder4)
        assert len(pairs) == 6
        assert set(pairs) == {(a, b) for a in range(1, 5) for b in range(a + 1, 5)}

    def test_sequential_has_none(self):
        assert nestings(from_pairs([(0, 1), (2, 3)], 2)) == []


class TestCrossings:
    def test_hairpin(self, hairpin):
        assert crossings(hairpin) == [(1, 2)]

    def test_crossing_block(self, lp_example):
        pairs = crossings(lp_example)
        assert len(pairs) == 4
        assert set(pairs) == {(a, b) for a in (1, 2) for b in (4, 5)}

    def test_noncrossing(self, nc_example):
        assert crossings(nc_example) == []


class TestPairPartition:
    def test_counts_sum(self, lp_example):
        st = stats(lp_example)
        assert st.ne + st.cr + len(alignments(lp_example)) == 7 * 6 // 2

    def test_stats_agree_with_lists(self, similar_b):
        st = stats(similar_b)
        assert st.ne == len(nestings(similar_b))
        assert st.cr == len(crossings(similar_b))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stats_count_every_list(self, n):
        # The lists carry no count of their own: stats is the one source.
        for m in all_matchings(n):
            ne, cr = stats(m)
            assert len(nestings(m)) == ne and len(crossings(m)) == cr, m
            assert len(alignments(m)) == n * (n - 1) // 2 - ne - cr, m


class TestNc:
    def test_projection(self, lp_example, nc_example):
        assert nc(lp_example) == nc_example

    def test_fixed_point(self, nc_example):
        assert nc(nc_example) == nc_example

    def test_hairpin(self, hairpin):
        assert nc(hairpin) == from_pairs([(0, 3), (1, 2)], 2)

    def test_from_lr_word(self):
        assert matching_from_lr("LLRR") == from_pairs([(0, 3), (1, 2)], 2)
        assert matching_from_lr("LRLR") == from_pairs([(0, 1), (2, 3)], 2)


class TestRperm:
    def test_seven_edges(self, nc_example):
        assert rperm(nc_example) == (3, 5, 6, 4, 2, 7, 1)

    def test_sequential(self):
        assert rperm(from_pairs([(0, 1), (2, 3)], 2)) == (1, 2)

    def test_ladder_reverses(self, ladder4):
        assert rperm(ladder4) == (4, 3, 2, 1)


class TestNep:
    def test_ordering_prioritizes_second_element(self, nc_example):
        assert nep(nc_example) == [
            (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5), (4, 5),
            (1, 6), (2, 6), (4, 6), (1, 7),
        ]

    def test_small_example(self, nested4):
        assert nep(nested4) == [(1, 2), (1, 3), (1, 4), (3, 4)]

    def test_empty(self):
        assert nep(from_pairs([(0, 1), (2, 3)], 2)) == []


class TestIsNoncrossing:
    def test_noncrossing(self, nc_example):
        assert is_noncrossing(nc_example)

    def test_hairpin(self, hairpin):
        assert not is_noncrossing(hairpin)

    def test_single_edge(self):
        assert is_noncrossing(from_pairs([(0, 1)], 1))


class TestLabeledMatching:
    def test_fresh_matches_edges(self, nested4):
        assert LabeledMatching.fresh(nested4).edges == tuple(edges(nested4))

    def test_to_matching_roundtrip(self, nested4):
        assert LabeledMatching.fresh(nested4).to_matching() == nested4

    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidMatchingError, match="label"):
            LabeledMatching((Edge(2, 0, 1),))

    def test_rejects_gaps_in_positions(self):
        with pytest.raises(InvalidMatchingError, match="positions"):
            LabeledMatching((Edge(1, 0, 3),))

    def test_rejects_no_edges(self):
        with pytest.raises(InvalidMatchingError, match="needs at least one edge"):
            LabeledMatching(())

    def test_rejects_inverted_edge(self):
        with pytest.raises(InvalidMatchingError, match="edge 1 has left endpoint 1 >= right 0"):
            LabeledMatching((Edge(1, 1, 0),))
