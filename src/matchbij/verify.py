"""Executable invariant suites, exposed through the "verify" CLI command.

Each check exhaustively tests one property at a given size and reports
(name, passed, detail). The suites parallel the library layers: core
statistics, the L & P family, the bijections, and the similarity census.
A family that several checks read is built once per run, on first use (see
``_Families``), and most checks are a per-element fault test folded over a
family by ``_each``. A run of every suite walks the full stream of (2n-1)!!
matchings once, in the shared walk, and the census walks it once more
through ``enumeration._walk``. The shared walk scans each matching once and
tests each distinct projection once.
"""

from functools import cached_property
from typing import Callable, Collection, Iterable

from .core import (
    Matching,
    NCNTriple,
    _scan,
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
from .lp import _is_lp, find_inflated_hairpin, lp_count_formula
from .bijections import phi, phi_inv, sigma, sigma_inv, swap_sequence, tau, tau_inv
from .similarity import ClassKey, census, class_key, ns_representatives
from .enumeration import all_matchings, catalan, double_factorial, ncn_elements, noncrossing_matchings

__all__ = ["SUITES", "run_suite", "mirror"]

CheckResult = tuple[str, bool, str]
Verdict = tuple[bool, str]


def mirror(m: Matching) -> Matching:
    """Reflect a matching left to right; O(n)."""
    size = 2 * m.n
    return Matching._trusted(m.n, tuple(size - 1 - w for w in reversed(m.partner)))


def _ok(count: int, what: str) -> Verdict:
    return True, f"checked {count} {what}"


def _each(items: Iterable, what: str, fault: Callable[..., str | bool]) -> Verdict:
    """FAIL with the fault message of the first item that has one, else
    PASS naming how many items were checked."""
    count = 0
    for x in items:
        if message := fault(x):
            return False, message
        count += 1
    return _ok(count, what)


class _Families:
    """The families that the checks of one verify run share, built lazily
    and only for the suites the run reads.

    ``_walk`` goes through all matchings once for four readers: the walked
    core checks (``faults``, each one's first fault by check name, and
    ``most_nested``, the largest nesting count per LR word, for the core
    suite), the brute L & P filter (``lp``, for the lp and bijections
    suites) and the stream length (``count``). It scans each matching once
    (``core._scan``), and the scan serves both the pair counts and the L & P
    test; it tests each distinct projection once. ``sigma_images`` serves
    the three sigma checks, ``noncrossing`` the rperm, swap and coverage
    checks, ``ncn`` the phi_inv and tau round trips, and ``census`` and
    ``representatives`` the similarity checks and the sigma image."""

    def __init__(self, n: int, suites: Collection[str]):
        self.n = n
        self.suites = suites

    @cached_property
    def _walk(self) -> tuple[dict[str, str], dict[str, int], list[Matching], int]:
        want_core = "core" in self.suites
        want_lp = "lp" in self.suites or "bijections" in self.suites
        total = self.n * (self.n - 1) // 2
        # Each walked check keeps its own first failure and its own path.
        first: dict[str, str] = {}
        best: dict[str, int] = {}
        # Per distinct projection p: the LR word of p and whether nc moves p.
        projected: dict[Matching, tuple[str, bool]] = {}
        lp: list[Matching] = []
        count = 0
        for m in all_matchings(self.n):
            count += 1
            if not (want_core or want_lp):
                continue
            scanned = _scan(m.partner)
            if want_lp and _is_lp(m.partner, scanned):
                lp.append(m)
            if not want_core:
                continue
            ne, cr = scanned[:2]
            p, word = nc(m), lr_sequence(m)
            if (seen := projected.get(p)) is None:
                seen = projected[p] = lr_sequence(p), nc(p) != p
            if ne + cr + len(alignments(m)) != total:
                first.setdefault("pair-partition", f"partition fails on {m}")
            if seen[0] != word:
                first.setdefault("lr-preserved-by-projection",
                                 f"projection changes LR word on {m}")
            if seen[1] or (p == m) != is_noncrossing(m):
                fault = "projection not idempotent" if seen[1] else "fixed-point mismatch"
                first.setdefault("projection-idempotent", f"{fault} on {m}")
            if from_pairs([(e.left, e.right) for e in edges(m)], m.n) != m:
                first.setdefault("edge-list-roundtrip", f"edge-list round trip fails on {m}")
            if best.get(word, -1) < ne:
                best[word] = ne
        return first, best, lp, count

    faults = property(lambda self: self._walk[0])
    most_nested = property(lambda self: self._walk[1])
    # The brute filter: the oracle for the census and every phi and sigma check.
    lp = property(lambda self: self._walk[2])
    count = property(lambda self: self._walk[3])

    @cached_property
    def sigma_images(self) -> list[Matching]:
        return [sigma(m) for m in self.lp]

    @cached_property
    def census(self) -> dict[ClassKey, int]:
        return census(self.n)

    @cached_property
    def representatives(self) -> set[Matching]:
        return ns_representatives(self.n)

    @cached_property
    def noncrossing(self) -> list[Matching]:
        return list(noncrossing_matchings(self.n))

    @cached_property
    def ncn(self) -> list[NCNTriple]:
        return list(ncn_elements(self.n))


def _walked(check: str) -> tuple[str, Callable[[_Families], Verdict]]:
    """A core check whose verdict is its first fault in the shared walk of
    all matchings, read as ``_each`` reads a fault."""
    return check, lambda fam: ((False, fam.faults[check]) if check in fam.faults
                               else _ok(fam.count, "matchings"))


def _rperm_fault(m: Matching) -> str | bool:
    position = {label: i for i, label in enumerate(rperm(m))}
    nested = set(nestings(m))
    for a in range(1, m.n + 1):
        for b in range(a + 1, m.n + 1):
            if ((a, b) in nested) != (position[b] < position[a]):
                return f"rperm order test fails on {m} at ({a},{b})"
    return ""


def _check_lp_census(fam: _Families) -> Verdict:
    brute = len(fam.lp)
    expected = lp_count_formula(fam.n)
    if brute != expected:
        return False, f"filter count {brute} != formula {expected}"
    return True, f"{brute} L & P matchings, matching the formula"


def _hairpin_order_fault(hairpin: tuple) -> str | bool:
    m, d = hairpin
    es = edges(m)
    by_position = sorted(d.a_side + d.b_side, key=lambda label: es[label - 1].right)
    expected = list(reversed(d.a_side)) + list(reversed(d.b_side))
    return by_position != expected and f"right-endpoint order fails on {m}"


def _check_lp_mirror(fam: _Families) -> Verdict:
    # mirror is an involution, so it keeps membership on every matching iff
    # it maps every member into the family.
    members = set(fam.lp)
    for m in fam.lp:
        if mirror(m) not in members:
            return False, f"mirror changes membership on {m}"
    return _ok(fam.count, "matchings")


def _crossing_product_fault(m: Matching) -> str | bool:
    d = find_inflated_hairpin(m)
    return (len(crossings(m)) != len(d.a_side) * len(d.b_side)
            and f"crossing count != |A|*|B| on {m}")


def _sigma_lr_fault(item: tuple[Matching, Matching]) -> str | bool:
    m, image = item
    if lr_sequence(image) != lr_sequence(m):
        return f"sigma changes the LR word of {m}"
    return is_noncrossing(m) and image != m and f"sigma moves the noncrossing matching {m}"


def _swap_nestings_fault(m: Matching) -> str | bool:
    # Recounted from each step's matching, so the walk's steps are not trusted.
    order = nep(m)
    k = len(order)
    i = -1
    for i, step in enumerate(swap_sequence(m)):
        pairs = nestings(step.matching)
        if len(pairs) != k - i:
            return f"nesting count at step {i} of {m} is {len(pairs)}"
        # The step's labels follow its left endpoints; lperm gives the base's.
        labeled = sorted((tuple(sorted((step.lperm[a - 1], step.lperm[b - 1])))
                          for a, b in pairs), key=lambda p: (p[1], p[0]))
        if labeled != order[i:]:
            return f"nested-pair list at step {i} of {m} is wrong"
    return i != k and f"the swap trace of {m} ends at step {i}, not {k}"


def _swap_adjacency_fault(m: Matching) -> str | bool:
    for i, (pair, step) in enumerate(zip(nep(m), swap_sequence(m))):
        lp_now = step.lperm
        if lp_now.index(pair[1]) != lp_now.index(pair[0]) + 1:
            return f"pair {pair} not adjacent in order at step {i} of {m}: lperm {lp_now}"
    return ""


def _check_sigma_image(fam: _Families) -> Verdict:
    images = fam.sigma_images
    if len(set(images)) != len(images):
        return False, "sigma images collide"
    if set(images) != fam.representatives:
        return False, "sigma image set differs from the representative set"
    return True, f"{len(images)} distinct images covering all representatives"


def _check_class_counts(fam: _Families) -> Verdict:
    classes = len(fam.census)
    reps = fam.representatives
    expected = lp_count_formula(fam.n)
    if classes != expected:
        return False, f"census count {classes} != formula {expected}"
    if len(reps) != expected:
        return False, f"representative count {len(reps)} != formula {expected}"
    return True, f"{classes} classes, one representative each"


def _check_key_bijection(fam: _Families) -> Verdict:
    keys = [class_key(r) for r in fam.representatives]
    if len(set(keys)) != len(keys):
        return False, "two representatives share a class key"
    if set(keys) != set(fam.census):
        return False, "representative keys do not cover the census"
    return True, f"keys biject onto {len(keys)} census classes"


def _check_coverage(fam: _Families) -> Verdict:
    seen = set()
    for m in fam.noncrossing:
        word = lr_sequence(m)
        seen.update((word, ne) for ne in range(stats(m).ne + 1))
    if seen != set(fam.census):
        return False, "constructive coverage misses a class"
    return True, f"all {len(seen)} (word, count) classes witnessed"


def _check_stream_counts(fam: _Families) -> Verdict:
    total = fam.count
    if total != double_factorial(2 * fam.n - 1):
        return False, f"full stream yields {total}"
    nc_total = len(fam.noncrossing)
    if nc_total != catalan(fam.n):
        return False, f"noncrossing stream yields {nc_total}"
    ncn_total = len(fam.ncn)
    if ncn_total != lp_count_formula(fam.n):
        return False, f"triple stream yields {ncn_total}"
    return True, f"{total}, {nc_total}, {ncn_total} elements as counted"


SUITES: dict[str, list[tuple[str, Callable[[_Families], Verdict]]]] = {
    "core": [
        _walked("pair-partition"),
        _walked("lr-preserved-by-projection"),
        _walked("projection-idempotent"),
        ("rperm-detects-nestings",
         lambda fam: _each(fam.noncrossing, "noncrossing matchings", _rperm_fault)),
        ("projection-maximizes-nestings", lambda fam: _each(
            fam.most_nested.items(), "LR words",
            lambda item: stats(matching_from_lr(item[0])).ne != item[1]
            and f"projection does not maximize nestings for {item[0]}")),
        _walked("edge-list-roundtrip"),
    ],
    "lp": [
        ("census-matches-formula", _check_lp_census),
        ("hairpin-right-endpoint-order", lambda fam: _each(
            [(m, d) for m in fam.lp if (d := find_inflated_hairpin(m)).a_side],
            "hairpin matchings", _hairpin_order_fault)),
        ("mirror-invariance", _check_lp_mirror),
        ("crossings-are-hairpin-product",
         lambda fam: _each(fam.lp, "L & P matchings", _crossing_product_fault)),
    ],
    "bijections": [
        ("phi-roundtrip", lambda fam: _each(
            fam.lp, "L & P matchings",
            lambda m: phi_inv(phi(m)) != m and f"phi round trip fails on {m}")),
        ("phi-inverse-roundtrip", lambda fam: _each(
            fam.ncn, "triples",
            lambda t: phi(phi_inv(t)) != t and f"phi_inv round trip fails on {t}")),
        ("tau-roundtrip", lambda fam: _each(
            fam.ncn, "triples",
            lambda t: tau_inv(tau(t)) != t and f"tau round trip fails on {t}")),
        ("sigma-roundtrip", lambda fam: _each(
            zip(fam.lp, fam.sigma_images), "L & P matchings",
            lambda item: sigma_inv(item[1]) != item[0]
            and f"sigma round trip fails on {item[0]}")),
        ("sigma-preserves-lr", lambda fam: _each(
            zip(fam.lp, fam.sigma_images), "L & P matchings", _sigma_lr_fault)),
        ("swap-trace-nesting-counts",
         lambda fam: _each(fam.noncrossing, "noncrossing matchings", _swap_nestings_fault)),
        ("swap-pair-adjacency",
         lambda fam: _each(fam.noncrossing, "noncrossing matchings", _swap_adjacency_fault)),
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
    """Run one named suite (or all of them) at size n: O(n^2) per matching
    over all (2n-1)!! matchings, O(n^4 log n) per noncrossing one for the swap
    checks, and O(n) memory per member of the families held for the run."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {', '.join(SUITES)} or all")
    families = _Families(n, names)
    results = []
    for name in names:
        for check_name, fn in SUITES[name]:
            ok, detail = fn(families)
            results.append((f"{name}/{check_name}", ok, detail))
    return results
