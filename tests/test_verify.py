import pytest

from matchbij import (
    all_matchings,
    from_pairs,
    is_lp,
    is_noncrossing,
    lr_sequence,
    noncrossing_matchings,
)
from matchbij import verify
from matchbij.verify import SUITES, mirror, run_suite


def test_mirror_reflects_positions():
    m = from_pairs([(0, 2), (1, 3)], 2)
    assert mirror(m) == m  # hairpins are symmetric
    asym = from_pairs([(0, 1), (2, 5), (3, 4)], 3)
    assert mirror(asym) == from_pairs([(4, 5), (0, 3), (1, 2)], 3)
    assert mirror(mirror(asym)) == asym


@pytest.mark.parametrize("n", range(1, 7))
def test_mirror_matches_the_pair_list_reflection(n):
    for m in all_matchings(n):
        size = 2 * n
        expected = from_pairs([(size - 1 - r, size - 1 - l) for l, r in m.pairs()], n)
        assert mirror(m) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_suites_pass(n):
    results = run_suite(n, "all")
    assert results
    for name, ok, detail in results:
        assert ok, f"{name} failed: {detail}"


def test_suite_selection():
    results = run_suite(4, "core")
    assert {name.split("/")[0] for name, _, _ in results} == {"core"}
    assert len(results) == len(SUITES["core"])


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(3, "everything")


def _results(n, suite):
    return {name: (ok, detail) for name, ok, detail in run_suite(n, suite)}


def test_failing_check_names_the_first_bad_matching(monkeypatch):
    lp4 = [m for m in all_matchings(4) if is_lp(m)]
    target = lp4[10]
    real = verify.phi_inv

    def broken(t):
        m = real(t)
        return lp4[0] if m == target else m

    monkeypatch.setattr(verify, "phi_inv", broken)
    results = _results(4, "bijections")
    assert results["bijections/phi-roundtrip"] == (
        False, f"phi round trip fails on {target}")
    assert results["bijections/tau-roundtrip"][0]


def test_swap_checks_recount_a_wrong_step(monkeypatch):
    real = verify.swap_sequence

    def wrong_step_one(m):
        # Step 1 repeats the start: the first swap is claimed but not made.
        steps = tuple(real(m))
        if len(steps) < 3:
            return steps
        return (steps[0], steps[0]._replace(swapped=steps[1].swapped), *steps[2:])

    monkeypatch.setattr(verify, "swap_sequence", wrong_step_one)
    results = _results(4, "bijections")
    for check in ("swap-trace-nesting-counts", "swap-pair-adjacency"):
        ok, detail = results[f"bijections/{check}"]
        assert not ok
        assert "at step 1 of" in detail
    assert results["bijections/tau-roundtrip"][0]


def test_swap_checks_notice_a_short_trace(monkeypatch):
    real = verify.swap_sequence
    monkeypatch.setattr(verify, "swap_sequence", lambda m: tuple(real(m))[:2])
    ok, detail = _results(4, "bijections")["bijections/swap-trace-nesting-counts"]
    assert not ok
    assert "ends at step 1, not" in detail


def test_shared_representative_set_reaches_every_reader(monkeypatch):
    real = verify.ns_representatives

    def short(n):
        reps = real(n)
        reps.pop()
        return reps

    monkeypatch.setattr(verify, "ns_representatives", short)
    results = _results(4, "all")
    assert results["similarity/class-count-matches-formula"] == (
        False, "representative count 50 != formula 51")
    assert results["bijections/sigma-image-is-representative-set"] == (
        False, "sigma image set differs from the representative set")
    assert results["similarity/representative-keys-biject"] == (
        False, "representative keys do not cover the census")
    assert results["similarity/swap-steps-cover-all-classes"][0]


def _count_calls(monkeypatch, name, calls):
    real = getattr(verify, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(verify, name, counted)


def test_one_run_builds_each_family_once(monkeypatch):
    calls = {"_is_lp": 0, "census": 0, "ns_representatives": 0, "sigma": 0}
    for name in calls:
        _count_calls(monkeypatch, name, calls)
    results = run_suite(4, "all")
    assert all(ok for _, ok, _ in results)
    # _is_lp is the L & P test of the shared walk, once per matching.
    assert calls == {"_is_lp": 105, "census": 1, "ns_representatives": 1, "sigma": 51}


@pytest.mark.parametrize("suite,expected", [
    ("core", {"all_matchings": 1, "_scan": 105, "noncrossing_matchings": 1}),
    ("lp", {"all_matchings": 1, "_scan": 105, "_is_lp": 105}),
    ("bijections", {"all_matchings": 1, "_scan": 105, "_is_lp": 105, "sigma": 51,
                    "ns_representatives": 1, "noncrossing_matchings": 1, "ncn_elements": 1}),
    ("similarity", {"census": 1, "ns_representatives": 1, "noncrossing_matchings": 1}),
    ("enumeration", {"all_matchings": 1, "noncrossing_matchings": 1, "ncn_elements": 1}),
])
def test_each_suite_builds_only_what_it_reads(monkeypatch, suite, expected):
    calls = dict.fromkeys(["all_matchings", "_scan", "_is_lp", "sigma", "census",
                           "ns_representatives", "noncrossing_matchings", "ncn_elements"], 0)
    for name in calls:
        _count_calls(monkeypatch, name, calls)
    assert all(ok for _, ok, _ in run_suite(4, suite))
    # Core makes no L & P test; enumeration counts the stream without a scan.
    assert calls == {**dict.fromkeys(calls, 0), **expected}


def test_core_suite_builds_no_lp_list(monkeypatch):
    monkeypatch.setattr(verify, "_is_lp", None)  # calling it would raise
    assert all(ok for _, ok, _ in run_suite(4, "core"))


@pytest.mark.parametrize("n", range(1, 7))
def test_walked_lp_list_is_the_brute_filter(n):
    brute = [m for m in all_matchings(n) if is_lp(m)]
    for suites in (["lp"], ["bijections"], list(SUITES)):
        assert verify._Families(n, suites).lp == brute


def test_core_checks_share_one_walk_of_all_matchings(monkeypatch):
    calls = {"all_matchings": 0}
    _count_calls(monkeypatch, "all_matchings", calls)
    assert all(ok for _, ok, _ in run_suite(4, "core"))
    assert calls["all_matchings"] == 1
    calls["all_matchings"] = 0
    assert all(ok for _, ok, _ in run_suite(4, "all"))
    # The shared walk serves the core checks, the L & P filter and the stream
    # count; the mirror check reads the L & P list.
    assert calls["all_matchings"] == 1


def test_mirror_check_names_the_member_whose_mirror_is_missing(monkeypatch):
    lp4 = [m for m in all_matchings(4) if is_lp(m)]
    target = next(m for m in lp4[5:] if mirror(m) != m)
    missing = mirror(target)
    real = verify._Families.lp
    monkeypatch.setattr(verify._Families, "lp", property(
        lambda fam: [m for m in real.fget(fam) if m != missing]))
    assert _results(4, "lp")["lp/mirror-invariance"] == (
        False, f"mirror changes membership on {target}")


def test_each_walked_check_keeps_its_own_first_failure(monkeypatch):
    crossing = [m for m in all_matchings(4) if not is_noncrossing(m)]
    target = crossing[5]
    wrong = next(c for c in crossing if lr_sequence(c) != lr_sequence(target))
    real = verify.nc
    monkeypatch.setattr(verify, "nc", lambda m: wrong if m == target else real(m))
    results = _results(4, "core")
    assert results["core/lr-preserved-by-projection"] == (
        False, f"projection changes LR word on {target}")
    assert results["core/projection-idempotent"] == (
        False, f"projection not idempotent on {target}")
    for check in ("pair-partition", "edge-list-roundtrip"):
        assert results[f"core/{check}"] == (True, "checked 105 matchings")


def test_projection_fault_names_the_first_matching_projecting_there(monkeypatch):
    real = verify.nc
    p = from_pairs([(0, 7), (1, 4), (2, 3), (5, 6)], 4)
    # A crossing matching with the same LR word, so only idempotence breaks.
    wrong = from_pairs([(0, 4), (1, 7), (2, 3), (5, 6)], 4)
    assert lr_sequence(wrong) == lr_sequence(p) and not is_noncrossing(wrong)
    first = next(m for m in all_matchings(4) if real(m) == p)
    assert first != p
    monkeypatch.setattr(verify, "nc", lambda m: wrong if m == p else real(m))
    results = _results(4, "core")
    assert results["core/projection-idempotent"] == (
        False, f"projection not idempotent on {first}")
    for check in ("pair-partition", "lr-preserved-by-projection", "edge-list-roundtrip"):
        assert results[f"core/{check}"] == (True, "checked 105 matchings")
    assert results["core/projection-maximizes-nestings"][0]


def test_walked_checks_name_the_matching_they_fail_on(monkeypatch):
    target = next(m for m in list(all_matchings(4))[7:] if not is_noncrossing(m))
    align, pairs, noncrossing = verify.alignments, verify.from_pairs, verify.is_noncrossing
    monkeypatch.setattr(verify, "alignments", lambda m: align(m) + [(0, 0)] * (m == target))
    monkeypatch.setattr(verify, "is_noncrossing", lambda m: m == target or noncrossing(m))

    def lose_target(pair_list, n):
        m = pairs(pair_list, n)
        return None if m == target else m

    monkeypatch.setattr(verify, "from_pairs", lose_target)
    results = _results(4, "core")
    assert results["core/pair-partition"] == (False, f"partition fails on {target}")
    assert results["core/projection-idempotent"] == (False, f"fixed-point mismatch on {target}")
    assert results["core/edge-list-roundtrip"] == (
        False, f"edge-list round trip fails on {target}")
    assert results["core/lr-preserved-by-projection"] == (True, "checked 105 matchings")


def test_rperm_check_names_the_pair_out_of_order(monkeypatch):
    ladder = next(noncrossing_matchings(4))  # LLLLRRRR: every pair nests
    monkeypatch.setattr(verify, "rperm", lambda m: tuple(range(1, m.n + 1)))
    assert _results(4, "core")["core/rperm-detects-nestings"] == (
        False, f"rperm order test fails on {ladder} at (1,2)")


def test_swap_check_names_a_wrong_pair_list(monkeypatch):
    ladder = next(noncrossing_matchings(4))
    real = verify.nep
    monkeypatch.setattr(verify, "nep", lambda m: real(m)[::-1])
    assert _results(4, "bijections")["bijections/swap-trace-nesting-counts"] == (
        False, f"nested-pair list at step 0 of {ladder} is wrong")


def test_sigma_checks_fail_on_a_constant_map(monkeypatch):
    first = next(m for m in all_matchings(4) if is_lp(m))  # LRLRLRLR
    ladder = next(noncrossing_matchings(4))
    monkeypatch.setattr(verify, "sigma", lambda m: ladder)
    results = _results(4, "bijections")
    assert results["bijections/sigma-preserves-lr"] == (
        False, f"sigma changes the LR word of {first}")
    assert results["bijections/sigma-image-is-representative-set"] == (
        False, "sigma images collide")


def test_census_checks_fail_on_a_lost_class(monkeypatch):
    real = verify.census

    def lose_one(n):
        table = real(n)
        del table[next(iter(table))]
        return table

    monkeypatch.setattr(verify, "census", lose_one)
    assert _results(4, "similarity") == {
        "similarity/class-count-matches-formula": (False, "census count 50 != formula 51"),
        "similarity/representative-keys-biject": (
            False, "representative keys do not cover the census"),
        "similarity/swap-steps-cover-all-classes": (False, "constructive coverage misses a class"),
    }


def test_key_check_fails_on_a_shared_key(monkeypatch):
    monkeypatch.setattr(verify, "class_key", lambda m: ("LR", 0))
    assert _results(4, "similarity")["similarity/representative-keys-biject"] == (
        False, "two representatives share a class key")


@pytest.mark.parametrize("count,message", [
    ("double_factorial", "full stream yields 105"),
    ("catalan", "noncrossing stream yields 14"),
    ("lp_count_formula", "triple stream yields 51"),
])
def test_stream_count_check_names_the_stream_that_differs(monkeypatch, count, message):
    monkeypatch.setattr(verify, count, lambda n: 0)
    assert _results(4, "enumeration") == {
        "enumeration/stream-lengths-match-counts": (False, message)}
