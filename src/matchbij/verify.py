"""Executable invariant suites, exposed through the "verify" CLI command.

Each check exhaustively tests one property at a given size and reports
(name, passed, detail). The suites parallel the library layers: core
statistics, the L & P family, the bijections, and the similarity census.
A family that several checks read is built once per run, on first use.
"""

from functools import cached_property
from typing import Callable

from .core import (
    Matching,
    alignments,
    crossings,
    edges,
    from_pairs,
    is_noncrossing,
    lr_sequence,
    matching_from_lr,
    nc,
    nep,
    nestings,
    rperm,
    stats,
)
from .lp import find_inflated_hairpin, is_lp, lp_count_formula
from .bijections import phi, phi_inv, sigma, sigma_inv, swap_sequence, tau, tau_inv
from .similarity import ClassKey, census, class_key, ns_representatives
from .enumeration import all_matchings, catalan, double_factorial, ncn_elements, noncrossing_matchings

__all__ = ["SUITES", "run_suite", "mirror"]

CheckResult = tuple[str, bool, str]


def mirror(m: Matching) -> Matching:
    """Reflect a matching left to right."""
    size = 2 * m.n
    return Matching(m.n, tuple(size - 1 - w for w in reversed(m.partner)))


class _Families:
    """The families that the checks of one verify run share, built lazily."""

    def __init__(self, n: int):
        self.n = n

    @cached_property
    def lp(self) -> list[Matching]:
        # The brute filter: the oracle for the census and every phi and sigma check.
        return [m for m in all_matchings(self.n) if is_lp(m)]

    @cached_property
    def census(self) -> tuple[int, dict[ClassKey, int]]:
        return census(self.n)

    @cached_property
    def representatives(self) -> set[Matching]:
        return ns_representatives(self.n)

    @cached_property
    def noncrossing(self) -> list[Matching]:
        return list(noncrossing_matchings(self.n))


def _ok(count: int, what: str) -> tuple[bool, str]:
    return True, f"checked {count} {what}"


def _check_pair_partition(fam: _Families) -> tuple[bool, str]:
    total = fam.n * (fam.n - 1) // 2
    count = 0
    for m in all_matchings(fam.n):
        st = stats(m)
        al = alignments(m)[0]
        if st.ne + st.cr + al != total:
            return False, f"partition fails on {m}"
        count += 1
    return _ok(count, "matchings")


def _check_lr_projection(fam: _Families) -> tuple[bool, str]:
    count = 0
    for m in all_matchings(fam.n):
        if lr_sequence(nc(m)) != lr_sequence(m):
            return False, f"projection changes LR word on {m}"
        count += 1
    return _ok(count, "matchings")


def _check_projection_idempotent(fam: _Families) -> tuple[bool, str]:
    count = 0
    for m in all_matchings(fam.n):
        p = nc(m)
        if nc(p) != p:
            return False, f"projection not idempotent on {m}"
        if (p == m) != is_noncrossing(m):
            return False, f"fixed-point mismatch on {m}"
        count += 1
    return _ok(count, "matchings")


def _check_rperm_nesting(fam: _Families) -> tuple[bool, str]:
    for m in fam.noncrossing:
        order = rperm(m)
        position = {label: i for i, label in enumerate(order)}
        nested = set(nestings(m)[1])
        for a in range(1, m.n + 1):
            for b in range(a + 1, m.n + 1):
                if ((a, b) in nested) != (position[b] < position[a]):
                    return False, f"rperm order test fails on {m} at ({a},{b})"
    return _ok(len(fam.noncrossing), "noncrossing matchings")


def _check_projection_max_ne(fam: _Families) -> tuple[bool, str]:
    best: dict[str, int] = {}
    for m in all_matchings(fam.n):
        w = lr_sequence(m).word
        ne = stats(m).ne
        if best.get(w, -1) < ne:
            best[w] = ne
    for w, ne in best.items():
        if stats(matching_from_lr(w)).ne != ne:
            return False, f"projection does not maximize nestings for {w}"
    return _ok(len(best), "LR words")


def _check_edges_roundtrip(fam: _Families) -> tuple[bool, str]:
    count = 0
    for m in all_matchings(fam.n):
        rebuilt = from_pairs([(e.left, e.right) for e in edges(m)], m.n)
        if rebuilt != m:
            return False, f"edge-list round trip fails on {m}"
        count += 1
    return _ok(count, "matchings")


def _check_lp_census(fam: _Families) -> tuple[bool, str]:
    brute = len(fam.lp)
    expected = lp_count_formula(fam.n)
    if brute != expected:
        return False, f"filter count {brute} != formula {expected}"
    return True, f"{brute} L & P matchings, matching the formula"


def _check_hairpin_right_order(fam: _Families) -> tuple[bool, str]:
    crossing = [(m, d) for m in fam.lp if (d := find_inflated_hairpin(m)).a_side]
    for m, d in crossing:
        es = edges(m)
        hairpin = list(d.a_side) + list(d.b_side)
        by_position = sorted(hairpin, key=lambda label: es[label - 1].right)
        expected = list(reversed(d.a_side)) + list(reversed(d.b_side))
        if by_position != expected:
            return False, f"right-endpoint order fails on {m}"
    return _ok(len(crossing), "hairpin matchings")


def _check_lp_mirror(fam: _Families) -> tuple[bool, str]:
    # fam.lp holds every L & P matching of this size, mirror images included.
    members = set(fam.lp)
    count = 0
    for m in all_matchings(fam.n):
        if (m in members) != (mirror(m) in members):
            return False, f"mirror changes membership on {m}"
        count += 1
    return _ok(count, "matchings")


def _check_crossing_product(fam: _Families) -> tuple[bool, str]:
    for m in fam.lp:
        d = find_inflated_hairpin(m)
        if crossings(m)[0] != len(d.a_side) * len(d.b_side):
            return False, f"crossing count != |A|*|B| on {m}"
    return _ok(len(fam.lp), "L & P matchings")


def _check_phi_roundtrip(fam: _Families) -> tuple[bool, str]:
    for m in fam.lp:
        if phi_inv(phi(m)) != m:
            return False, f"phi round trip fails on {m}"
    return _ok(len(fam.lp), "L & P matchings")


def _check_phi_inv_roundtrip(fam: _Families) -> tuple[bool, str]:
    count = 0
    for t in ncn_elements(fam.n):
        if phi(phi_inv(t)) != t:
            return False, f"phi_inv round trip fails on {t}"
        count += 1
    return _ok(count, "triples")


def _check_tau_roundtrip(fam: _Families) -> tuple[bool, str]:
    count = 0
    for t in ncn_elements(fam.n):
        if tau_inv(tau(t)) != t:
            return False, f"tau round trip fails on {t}"
        count += 1
    return _ok(count, "triples")


def _check_sigma_roundtrip(fam: _Families) -> tuple[bool, str]:
    for m in fam.lp:
        if sigma_inv(sigma(m)) != m:
            return False, f"sigma round trip fails on {m}"
    return _ok(len(fam.lp), "L & P matchings")


def _check_sigma_properties(fam: _Families) -> tuple[bool, str]:
    for m in fam.lp:
        image = sigma(m)
        if lr_sequence(image) != lr_sequence(m):
            return False, f"sigma changes the LR word of {m}"
        if is_noncrossing(m) and image != m:
            return False, f"sigma moves the noncrossing matching {m}"
    return _ok(len(fam.lp), "L & P matchings")


def _check_swap_nestings(fam: _Families) -> tuple[bool, str]:
    # Recounted from each step's matching, so the walk's steps are not trusted.
    for m in fam.noncrossing:
        order = nep(m)
        k = len(order)
        i = -1
        for i, step in enumerate(swap_sequence(m)):
            ne, pairs = nestings(step.matching)
            if ne != k - i:
                return False, f"nesting count at step {i} of {m} is {ne}"
            # The step's labels follow its left endpoints; lperm gives the base's.
            labeled = sorted((tuple(sorted((step.lperm[a - 1], step.lperm[b - 1])))
                              for a, b in pairs), key=lambda p: (p[1], p[0]))
            if labeled != order[i:]:
                return False, f"nested-pair list at step {i} of {m} is wrong"
        if i != k:
            return False, f"the swap trace of {m} ends at step {i}, not {k}"
    return _ok(len(fam.noncrossing), "noncrossing matchings")


def _check_swap_adjacency(fam: _Families) -> tuple[bool, str]:
    for m in fam.noncrossing:
        for i, (pair, step) in enumerate(zip(nep(m), swap_sequence(m))):
            lp_now = step.lperm
            a_at = lp_now.index(pair[0])
            b_at = lp_now.index(pair[1])
            if b_at != a_at + 1:
                return False, (f"pair {pair} not adjacent in order at step {i} "
                               f"of {m}: lperm {lp_now}")
    return _ok(len(fam.noncrossing), "noncrossing matchings")


def _check_sigma_image(fam: _Families) -> tuple[bool, str]:
    images = [sigma(m) for m in fam.lp]
    if len(set(images)) != len(images):
        return False, "sigma images collide"
    if set(images) != fam.representatives:
        return False, "sigma image set differs from the representative set"
    return True, f"{len(images)} distinct images covering all representatives"


def _check_class_counts(fam: _Families) -> tuple[bool, str]:
    classes, _ = fam.census
    reps = fam.representatives
    expected = lp_count_formula(fam.n)
    if classes != expected:
        return False, f"census count {classes} != formula {expected}"
    if len(reps) != expected:
        return False, f"representative count {len(reps)} != formula {expected}"
    return True, f"{classes} classes, one representative each"


def _check_key_bijection(fam: _Families) -> tuple[bool, str]:
    _, table = fam.census
    keys = [class_key(r) for r in fam.representatives]
    if len(set(keys)) != len(keys):
        return False, "two representatives share a class key"
    if set(keys) != set(table):
        return False, "representative keys do not cover the census"
    return True, f"keys biject onto {len(keys)} census classes"


def _check_coverage(fam: _Families) -> tuple[bool, str]:
    _, table = fam.census
    seen = set()
    for m in fam.noncrossing:
        k = stats(m).ne
        word = lr_sequence(m)
        for i in range(k + 1):
            seen.add((word.word, k - i))
    if seen != {(key.lr.word, key.ne) for key in table}:
        return False, "constructive coverage misses a class"
    return True, f"all {len(seen)} (word, count) classes witnessed"


def _check_stream_counts(fam: _Families) -> tuple[bool, str]:
    total = sum(1 for _ in all_matchings(fam.n))
    if total != double_factorial(2 * fam.n - 1):
        return False, f"full stream yields {total}"
    nc_total = len(fam.noncrossing)
    if nc_total != catalan(fam.n):
        return False, f"noncrossing stream yields {nc_total}"
    ncn_total = sum(1 for _ in ncn_elements(fam.n))
    if ncn_total != lp_count_formula(fam.n):
        return False, f"triple stream yields {ncn_total}"
    return True, f"{total}, {nc_total}, {ncn_total} elements as counted"


SUITES: dict[str, list[tuple[str, Callable[[_Families], tuple[bool, str]]]]] = {
    "core": [
        ("pair-partition", _check_pair_partition),
        ("lr-preserved-by-projection", _check_lr_projection),
        ("projection-idempotent", _check_projection_idempotent),
        ("rperm-detects-nestings", _check_rperm_nesting),
        ("projection-maximizes-nestings", _check_projection_max_ne),
        ("edge-list-roundtrip", _check_edges_roundtrip),
    ],
    "lp": [
        ("census-matches-formula", _check_lp_census),
        ("hairpin-right-endpoint-order", _check_hairpin_right_order),
        ("mirror-invariance", _check_lp_mirror),
        ("crossings-are-hairpin-product", _check_crossing_product),
    ],
    "bijections": [
        ("phi-roundtrip", _check_phi_roundtrip),
        ("phi-inverse-roundtrip", _check_phi_inv_roundtrip),
        ("tau-roundtrip", _check_tau_roundtrip),
        ("sigma-roundtrip", _check_sigma_roundtrip),
        ("sigma-preserves-lr", _check_sigma_properties),
        ("swap-trace-nesting-counts", _check_swap_nestings),
        ("swap-pair-adjacency", _check_swap_adjacency),
        ("sigma-image-is-representative-set", _check_sigma_image),
    ],
    "similarity": [
        ("class-count-matches-formula", _check_class_counts),
        ("representative-keys-biject", _check_key_bijection),
        ("swap-steps-cover-all-classes", _check_coverage),
    ],
    "enumeration": [
        ("stream-lengths-match-counts", _check_stream_counts),
    ],
}


def run_suite(n: int, suite: str = "all") -> list[CheckResult]:
    """Run one named suite (or all of them) at size n."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {', '.join(SUITES)} or all")
    families = _Families(n)
    results = []
    for name in names:
        for check_name, fn in SUITES[name]:
            ok, detail = fn(families)
            results.append((f"{name}/{check_name}", ok, detail))
    return results
