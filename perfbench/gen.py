"""Seeded inputs and reference answers for the benchmark, in plain Python.

Nothing here imports matchbij: the inputs must not depend on the code under
measurement, and the expected outputs computed here are the oracle the
benchmark checks the CLI against.

A matching is a list of (left, right) position pairs in increasing left
order; edge k + 1 is ``pairs[k]``. A triple is such a noncrossing matching
plus a chosen nested pair (a, b) of edge labels, or None.
"""

import random
from typing import Optional


def random_dyck_word(rng: random.Random, n: int) -> str:
    """A uniformly random Dyck word with n L's and n R's (cycle lemma).

    Shuffle n up-steps and n + 1 down-steps. Exactly one rotation of the
    sequence keeps every proper prefix nonnegative: the one starting just
    after the first minimum of the prefix sums. Drop its final down-step.
    """
    steps = ["L"] * n + ["R"] * (n + 1)
    rng.shuffle(steps)
    depth, low, cut = 0, 1, 0
    for i, s in enumerate(steps):
        depth += 1 if s == "L" else -1
        if depth < low:
            low, cut = depth, i + 1
    rotated = steps[cut:] + steps[:cut]
    return "".join(rotated[:-1])


def pairs_from_word(word: str) -> list[tuple[int, int]]:
    """The noncrossing matching with this LR word, as left-ordered pairs."""
    right = {}
    stack = []
    for v, c in enumerate(word):
        if c == "L":
            stack.append(v)
        else:
            right[stack.pop()] = v
    return sorted(right.items())


def ladder(n: int) -> list[tuple[int, int]]:
    """n fully nested arcs: edge k encloses every edge with a larger label."""
    return [(i, 2 * n - 1 - i) for i in range(n)]


def nested_pairs(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Nested label pairs (a, b) of a noncrossing matching, sorted by b then a.

    In a noncrossing matching the edges enclosing b are exactly the edges
    still open when b opens, so a stack lists them in increasing label order.
    """
    label_at = {l: k + 1 for k, (l, _) in enumerate(pairs)}
    open_labels: list[int] = []
    out = []
    for v in range(2 * len(pairs)):
        if v in label_at:
            b = label_at[v]
            out.extend((a, b) for a in open_labels)
            open_labels.append(b)
        else:
            open_labels.pop()
    return out


def random_triple(rng: random.Random, n: int, swaps: Optional[int] = None):
    """A random noncrossing matching with a random nested pair (or None).

    With ``swaps``, the pair is instead the one that many steps into the
    nested-pair order (or the last), so that tau's work on the triple does
    not depend on the draw.
    """
    pairs = pairs_from_word(random_dyck_word(rng, n))
    nep = nested_pairs(pairs)
    if not nep:
        return pairs, None
    return pairs, (rng.choice(nep) if swaps is None else nep[min(swaps, len(nep)) - 1])


def recross(pairs: list[tuple[int, int]], chosen) -> list[tuple[int, int]]:
    """The L & P matching whose inflated hairpin has maxima ``chosen``.

    The A side is edge a with the edges enclosing it; the B side is edge b
    with the edges enclosing it that are labeled above a. Their right
    endpoints are reassigned in increasing position to the A side read
    innermost first, then the B side read innermost first, which turns every
    A-B nesting into a crossing.
    """
    if chosen is None:
        return list(pairs)
    a, b = chosen

    def encloses(x: int, y: int) -> bool:
        (lx, rx), (ly, ry) = pairs[x - 1], pairs[y - 1]
        return lx < ly and ry < rx

    a_side = [x for x in range(1, a) if encloses(x, a)] + [a]
    b_side = [x for x in range(a + 1, b) if encloses(x, b)] + [b]
    slots = sorted(pairs[x - 1][1] for x in a_side + b_side)
    new_right = dict(zip(a_side[::-1] + b_side[::-1], slots))
    return [(l, new_right.get(k + 1, r)) for k, (l, r) in enumerate(pairs)]


def swap_representative(pairs: list[tuple[int, int]], chosen) -> list[tuple[int, int]]:
    """Swap left endpoints along the nested-pair order up to ``chosen``.

    Labels stay with their right endpoints; the result is the nesting-class
    representative that the triple names.
    """
    if chosen is None:
        return list(pairs)
    left = [l for l, _ in pairs]
    for a, b in nested_pairs(pairs):
        left[a - 1], left[b - 1] = left[b - 1], left[a - 1]
        if (a, b) == chosen:
            break
    else:
        raise ValueError(f"{chosen} is not a nested pair")
    return sorted(zip(left, (r for _, r in pairs)))


def ne_cr(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """Nesting and crossing pair counts by the quadratic definition."""
    ne = cr = 0
    for i, (li, ri) in enumerate(pairs):
        for lj, rj in pairs[i + 1:]:
            if lj < ri:
                if rj < ri:
                    ne += 1
                else:
                    cr += 1
    return ne, cr


def lr_word(pairs: list[tuple[int, int]]) -> str:
    word = ["R"] * (2 * len(pairs))
    for l, _ in pairs:
        word[l] = "L"
    return "".join(word)


def arc_rows(pairs: list[tuple[int, int]]) -> int:
    """Rows of a text arc diagram: the baseline plus the tallest arc.

    An arc sits one row above every arc nested inside it and every arc that
    crosses it from the left; all of those close before it does, so visiting
    arcs by right endpoint sees each one after everything below it. Of the
    arcs closing earlier, exactly those closing after it opens are below it.
    """
    done: list[tuple[int, int]] = []  # (right, height) of arcs visited
    for l, r in sorted(pairs, key=lambda p: p[1]):
        done.append((r, 1 + max((h for fr, h in done if fr > l), default=0)))
    return 1 + max(h for _, h in done)


def pairs_text(pairs: list[tuple[int, int]]) -> str:
    """The CLI's pair-list format."""
    return f"{len(pairs)}\n" + "".join(f"{l} {r}\n" for l, r in pairs)


def ncn_text(pairs: list[tuple[int, int]], chosen) -> str:
    """The CLI's triple format: pair list plus a "nesting a b" line."""
    a, b = chosen if chosen is not None else (0, 0)
    return pairs_text(pairs) + f"nesting {a} {b}\n"


def classify_text(pairs: list[tuple[int, int]]) -> str:
    """What ``classify`` prints for an L & P matching."""
    ne, cr = ne_cr(pairs)
    return (f"noncrossing: {'true' if cr == 0 else 'false'}\nlp: true\n"
            f"ne: {ne}\ncr: {cr}\nlr: {lr_word(pairs)}\n")
