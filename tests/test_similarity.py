import pytest

from matchbij import (
    census,
    class_key,
    from_pairs,
    is_representative,
    lp_count_formula,
    noncrossing_matchings,
    ns_representatives,
    ns_stream,
    stats,
)
from matchbij.core import _word_nestings


class TestClassKey:
    def test_similar_matchings_share_keys(self, similar_a, similar_b):
        key = class_key(similar_a)
        assert key == class_key(similar_b)
        assert key.lr == "LLRLLRRRLR" and key.ne == 2

    def test_sequential(self):
        key = class_key(from_pairs([(0, 1), (2, 3)], 2))
        assert (key.lr, key.ne) == ("LRLR", 0)

    def test_representative_key(self, rep_example):
        key = class_key(rep_example)
        assert (key.lr, key.ne) == ("LLLRLLRLRRRLRR", 5)

    def test_library_keys_have_possible_nesting_counts(self):
        # The constructor checks nothing, so every key the library builds
        # must name a Dyck word and a count some matching with it has.
        for n in range(1, 7):
            for key in [*census(n), *map(class_key, ns_representatives(n))]:
                assert key.lr and 0 <= key.ne <= _word_nestings(key.lr), key


class TestCensus:
    @pytest.mark.parametrize("n,classes", [(1, 1), (2, 3), (3, 12)])
    def test_class_counts(self, n, classes):
        assert len(census(n)) == classes

    def test_member_counts_cover_everything(self):
        assert sum(census(3).values()) == 15

    def test_similar_pair_lands_in_one_class(self, similar_a, similar_b):
        assert census(5)[class_key(similar_a)] >= 2

    def test_counts_match_formula(self):
        for n in range(1, 6):
            assert len(census(n)) == lp_count_formula(n)


class TestRepresentatives:
    def test_n2_golden_set(self):
        assert ns_representatives(2) == {
            from_pairs([(0, 3), (1, 2)], 2),
            from_pairs([(0, 2), (1, 3)], 2),
            from_pairs([(0, 1), (2, 3)], 2),
        }

    def test_n1(self):
        assert ns_representatives(1) == {from_pairs([(0, 1)], 1)}

    def test_n3_breakdown(self):
        # Five noncrossing matchings with nesting totals 3, 2, 1, 1, 0.
        totals = sorted(stats(m).ne for m in noncrossing_matchings(3))
        assert totals == [0, 1, 1, 2, 3]
        reps = ns_representatives(3)
        assert len(reps) == 12 == lp_count_formula(3)

    def test_stream_has_no_duplicates(self):
        seen = list(ns_stream(4))
        assert len(seen) == len(set(seen)) == lp_count_formula(4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_keys_biject_onto_census(self, n):
        keys = [class_key(r) for r in ns_representatives(n)]
        assert len(set(keys)) == len(keys)
        assert set(keys) == set(census(n))


class TestIsRepresentative:
    def test_golden_representative(self, rep_example):
        assert is_representative(rep_example)

    def test_noncrossing_always(self, nc_example):
        assert is_representative(nc_example)

    def test_similar_b_shares_key_but_is_not_canonical(self, similar_a, similar_b):
        assert class_key(similar_a) == class_key(similar_b)
        assert not is_representative(similar_b)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_detects_exactly_the_representative_set(self, n):
        from matchbij import all_matchings

        reps = ns_representatives(n)
        for m in all_matchings(n):
            assert is_representative(m) == (m in reps)
