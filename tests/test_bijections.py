import pytest
from hypothesis import HealthCheck, given, settings

from matchbij import (
    LabeledMatching,
    NCNTriple,
    NotLPError,
    NotRepresentativeError,
    all_matchings,
    crossings,
    enumerate_lp,
    from_pairs,
    is_lp,
    is_noncrossing,
    lr_sequence,
    ncn_elements,
    nep,
    nestings,
    noncrossing_matchings,
    ns_representatives,
    phi,
    phi_inv,
    sigma,
    sigma_inv,
    swap_left,
    swap_sequence,
    tau,
    tau_inv,
)
from test_classifier import matchings
from test_swap_walk import ladder


def labeled_nep(step):
    """The nested pairs of a swap step under the base's labels, in nep order."""
    lp = step.lperm
    pairs = (tuple(sorted((lp[a - 1], lp[b - 1]))) for a, b in nestings(step.matching))
    return sorted(pairs, key=lambda p: (p[1], p[0]))


class TestNCNTriple:
    def test_rejects_crossing_base(self, hairpin):
        with pytest.raises(ValueError, match="crossings"):
            NCNTriple(hairpin, None)

    def test_rejects_non_nested_pair(self):
        m = from_pairs([(0, 1), (2, 3)], 2)
        with pytest.raises(ValueError, match="not nested"):
            NCNTriple(m, (1, 2))

    def test_rejects_bad_labels(self, nc_example):
        with pytest.raises(ValueError, match="increasing pair"):
            NCNTriple(nc_example, (5, 2))
        with pytest.raises(ValueError, match="increasing pair"):
            NCNTriple(nc_example, (0, 3))

    def test_accepts_nested_pair(self, nc_example):
        assert NCNTriple(nc_example, (2, 5)).pair == (2, 5)


class TestPhi:
    def test_crossing_block(self, lp_example, nc_example):
        t = phi(lp_example)
        assert t.base == nc_example
        assert t.pair == (2, 5)

    def test_noncrossing_maps_to_itself(self, nc_example):
        t = phi(nc_example)
        assert t.base == nc_example and t.pair is None

    def test_hairpin(self, hairpin):
        t = phi(hairpin)
        assert t.base == from_pairs([(0, 3), (1, 2)], 2)
        assert t.pair == (1, 2)

    def test_rejects_non_lp(self, similar_b):
        with pytest.raises(NotLPError, match=r"crossing pair \(\d+,\d+\)"):
            phi(similar_b)


def reference_rejection(m):
    """The message phi gave when it named the first pair of ``crossings``."""
    a, b = crossings(m)[0]
    return (f"matching is not L & P: crossing pair ({a},{b}) does not belong "
            f"to a single inflated hairpin")


def check_rejection(m):
    if is_lp(m):
        phi(m)
        return
    with pytest.raises(NotLPError) as raised:
        phi(m)
    assert str(raised.value) == reference_rejection(m)


@pytest.mark.parametrize("n", range(1, 7))
def test_phi_names_the_first_crossing_pair(n):
    for m in all_matchings(n):
        check_rejection(m)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(matchings(max_edges=300))
def test_phi_names_the_first_crossing_pair_on_random_matchings(m):
    check_rejection(m)


class TestPhiInv:
    def test_rebuilds_crossing_block(self, lp_example, nc_example):
        assert phi_inv(NCNTriple(nc_example, (2, 5))) == lp_example

    def test_identity_without_pair(self, nc_example):
        assert phi_inv(NCNTriple(nc_example, None)) == nc_example

    def test_hairpin(self, hairpin):
        assert phi_inv(NCNTriple(from_pairs([(0, 3), (1, 2)], 2), (1, 2))) == hairpin


class TestSwapLeft:
    def test_first_swap_of_walkthrough(self, nested4):
        lm = swap_left(nested4, 1, 2)
        assert [e.label for e in sorted(lm.edges, key=lambda e: e.left)] == [2, 1, 3, 4]
        assert lm.to_matching() == from_pairs([(1, 7), (0, 2), (3, 6), (4, 5)], 4)

    def test_involution(self, nested4):
        lm = swap_left(swap_left(nested4, 1, 3), 1, 3)
        assert lm == LabeledMatching.fresh(nested4)

    def test_label_out_of_range(self, nested4):
        with pytest.raises(ValueError, match="label 9 out of range"):
            swap_left(nested4, 1, 9)

    def test_same_label_rejected(self, nested4):
        with pytest.raises(ValueError, match="itself"):
            swap_left(nested4, 2, 2)

    def test_inverting_swap_rejected(self):
        # Swapping the lefts of two aligned edges would invert one of them.
        m = from_pairs([(0, 1), (2, 3)], 2)
        with pytest.raises(ValueError, match="invert"):
            swap_left(m, 1, 2)


class TestSwapSequence:
    def test_walkthrough_lperms_and_counts(self, nested4):
        trace = tuple(swap_sequence(nested4))
        assert [s.lperm for s in trace] == [
            (1, 2, 3, 4), (2, 1, 3, 4), (2, 3, 1, 4), (2, 3, 4, 1), (2, 4, 3, 1),
        ]
        assert [len(nestings(s.matching)) for s in trace] == [4, 3, 2, 1, 0]
        assert trace[-1].matching == from_pairs([(4, 7), (0, 2), (3, 6), (1, 5)], 4)
        assert [s.swapped for s in trace] == [
            None, (1, 2), (1, 3), (1, 4), (3, 4),
        ]

    def test_length_tracks_nesting_count(self, nc_example):
        assert len(tuple(swap_sequence(nc_example))) == 13

    def test_nesting_free_trace_is_trivial(self):
        m = from_pairs([(0, 1), (2, 3)], 2)
        assert len(tuple(swap_sequence(m))) == 1

    def test_rejects_crossings(self, hairpin):
        with pytest.raises(ValueError, match="noncrossing"):
            swap_sequence(hairpin)

    def test_steps_come_one_at_a_time(self):
        # The 150-edge ladder has 11176 steps of 300 positions each.
        trace = swap_sequence(ladder(150))
        assert iter(trace) is trace
        assert [next(trace).swapped for _ in range(3)] == [None, (1, 2), (1, 3)]


class TestTau:
    def test_golden_image(self, nc_example, rep_example):
        image = tau(NCNTriple(nc_example, (2, 5)))
        assert image == rep_example
        assert len(nestings(image)) == 5
        assert lr_sequence(image) == "LLLRLLRLRRRLRR"

    def test_no_pair_is_identity(self, nc_example):
        assert tau(NCNTriple(nc_example, None)) == nc_example

    def test_walkthrough_final_step(self, nested4):
        image = tau(NCNTriple(nested4, (3, 4)))
        assert nestings(image) == []
        assert image == from_pairs([(4, 7), (0, 2), (3, 6), (1, 5)], 4)


class TestTauInv:
    def test_golden(self, rep_example, nc_example):
        t = tau_inv(rep_example)
        assert t.base == nc_example and t.pair == (2, 5)

    def test_noncrossing(self, nc_example):
        assert tau_inv(nc_example) == NCNTriple(nc_example, None)

    def test_intermediate_step(self, nested4):
        m2 = from_pairs([(3, 7), (0, 2), (1, 6), (4, 5)], 4)
        assert tau_inv(m2) == NCNTriple(nested4, (1, 3))

    def test_rejects_non_representative(self, similar_b):
        with pytest.raises(NotRepresentativeError, match="replaying"):
            tau_inv(similar_b)


class TestSigma:
    def test_golden_composition(self, lp_example, rep_example):
        assert sigma(lp_example) == rep_example
        assert sigma_inv(rep_example) == lp_example

    def test_noncrossing_fixed(self, nc_example):
        assert sigma(nc_example) == nc_example
        assert sigma_inv(nc_example) == nc_example

    def test_hairpin_fixed(self, hairpin):
        assert sigma(hairpin) == hairpin

    def test_hairpin_from_inner_pair(self):
        # Recovering from the zero-nesting representative re-crosses the
        # hairpin picked out by the last nested pair (3, 4).
        m4 = from_pairs([(4, 7), (0, 2), (3, 6), (1, 5)], 4)
        assert sigma_inv(m4) == from_pairs([(0, 6), (1, 2), (3, 5), (4, 7)], 4)


class TestExhaustiveRoundTrips:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_phi_both_ways(self, n):
        for m in enumerate_lp(n):
            assert phi_inv(phi(m)) == m
        for t in ncn_elements(n):
            assert phi(phi_inv(t)) == t

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_tau_both_ways(self, n):
        for t in ncn_elements(n):
            assert tau_inv(tau(t)) == t

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sigma_roundtrip_and_image(self, n):
        images = [sigma(m) for m in enumerate_lp(n)]
        for m, image in zip(enumerate_lp(n), images):
            assert sigma_inv(image) == m
            assert lr_sequence(image) == lr_sequence(m)
            if is_noncrossing(m):
                assert image == m
        assert len(set(images)) == len(images)
        assert set(images) == ns_representatives(n)


class TestSwapLemmas:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_trace_nesting_structure(self, n):
        for m in noncrossing_matchings(n):
            order = nep(m)
            k = len(order)
            for i, step in enumerate(swap_sequence(m)):
                assert len(nestings(step.matching)) == k - i
                assert labeled_nep(step) == order[i:]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_next_pair_adjacent_in_order(self, n):
        for m in noncrossing_matchings(n):
            trace = tuple(swap_sequence(m))
            for i, pair in enumerate(nep(m)):
                current = trace[i].lperm
                a_at = current.index(pair[0])
                assert current[a_at + 1] == pair[1]
