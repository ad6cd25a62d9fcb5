"""Nesting-similarity classes: keys, the brute-force census, and the
canonical representative set.

Two matchings are nesting-similar when they share an LR word and a nesting
count. Each class is keyed by that pair. The representatives are the
matchings reachable from a noncrossing matching by an initial segment of its
swap sequence; one per class.
"""

from collections import Counter
from typing import NamedTuple

from .core import Matching, lr_sequence, stats
from .bijections import NotRepresentativeError, _swap_walk, tau_inv
from .enumeration import _walk, _walk_word, noncrossing_matchings

__all__ = [
    "ClassKey",
    "class_key",
    "census",
    "ns_representatives",
    "ns_stream",
    "is_representative",
]


class ClassKey(NamedTuple):
    """The invariant pair (LR word, nesting count) naming a similarity class;
    built only by ``class_key`` and ``census``, so construction checks nothing."""

    lr: str
    ne: int


def class_key(m: Matching) -> ClassKey:
    """The similarity-class key of ``m``; O(n) plus the scan behind
    ``stats``, O(n^2 / 30) digit steps at worst."""
    return ClassKey(lr_sequence(m), stats(m).ne)


def census(n: int) -> dict[ClassKey, int]:
    """Group every matching with n edges by class key.

    Returns a map from key to member count, keys in first-seen order, so
    its ``len`` is the class count. Only counts are stored, so memory stays
    bounded by the number of classes rather than the double factorial. The
    walk carries each matching's LR word (as a mask) and nesting count,
    amortized O(1) int operations per matching at enumerable sizes; each
    class then costs O(n) to spell its word.
    """
    counts = Counter(_walk(n))  # keys in first-seen order
    return {ClassKey(_walk_word(lefts, n), ne): c for (lefts, ne), c in counts.items()}


def ns_stream(n: int):
    """Canonical representatives in deterministic generation order.

    Walks each noncrossing matching's swap sequence; every step is one
    representative, and no representative repeats across the stream.

    The nested pairs of each base are walked lazily (``_swap_walk``), so
    the stream holds O(n) at a time and reaches its first items in O(n)
    memory at any size the cap admits. O(n) per yielded representative,
    which is the cost of building it, plus O(n) per noncrossing matching.
    """
    for m in noncrossing_matchings(n):
        yield m
        for _, partner in _swap_walk(m):
            yield Matching._trusted(n, tuple(partner))


def ns_representatives(n: int) -> set[Matching]:
    """All canonical class representatives as a set, at the cost of ``ns_stream``."""
    return set(ns_stream(n))


def is_representative(m: Matching) -> bool:
    """True iff ``m`` is a canonical class representative, at the cost of
    ``tau_inv``: O(n) time and memory."""
    try:
        tau_inv(m)
    except NotRepresentativeError:
        return False
    return True
