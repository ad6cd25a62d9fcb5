"""Text formats for matchings and triples.

Three interchangeable matching encodings:

* pair-list (canonical): a line holding n, then n lines "left right" with
  0-based positions, in any order and either orientation.
* partner-array: one line of 2n space-separated integers forming a
  self-inverse permutation without fixed points.
* dot-bracket: one line over the bracket families "()", "[]", "{}", "<>",
  then the letter families "Aa".."Zz". Brackets balance within each family;
  families may interleave to encode crossings. No unpaired symbols.

A noncrossing matching with a chosen nested pair serializes as a pair-list
followed by one line "nesting a b", with "nesting 0 0" when no pair is
chosen; it is read back from a matching in any format plus that line.

In every format and in a triple, '#' starts a comment that ends with its
line, and blank lines are ignored: every reader takes the lines of ``_lines``.
"""

import re
from itertools import compress, count, repeat
from operator import contains
from typing import Optional

from .core import InvalidMatchingError, Matching, NCNTriple, _digits, _quote, is_noncrossing

__all__ = [
    "ParseError",
    "parse_input",
    "parse_ncn",
    "emit_pairs",
    "emit_partner",
    "emit_dotbracket",
    "emit_matching",
    "emit_ncn",
    "FORMATS",
]

_OPEN = "([{<ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_CLOSE = ")]}>abcdefghijklmnopqrstuvwxyz"
_FAMILY_LIMIT = len(_OPEN)

# The characters that end a line for ``str.splitlines``, where "\r\n" ends one.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# A comment: from its "#" up to the break that ends its line.
_COMMENT = f"#[^{_BREAKS}]*"


class ParseError(ValueError):
    """Input text that does not encode a matching, with location info."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
        self.line = line
        self.column = column


def _lines(text: str) -> list[str]:
    """The lines of ``text`` as ``str.splitlines`` cuts them, comments cut
    first, each up to the break that ends its line (one ``re.sub`` and one
    copy, only for a text holding a "#"). Every reader takes this one list,
    so a line's number is its index plus one. O(L) for L characters."""
    if "#" in text:
        text = re.sub(_COMMENT, "", text)
    return text.splitlines()


def _pairs(lines: list[str]) -> Matching:
    """The pair-list reader; a refusal names the line at fault. The content
    lines are counted first, so a wrong count is refused before any pair is
    read. Each pair line gets one split, two ``int``s and one test (both
    positions in 0..2n-1, unequal and free) before it fills the table; those
    checks are complete, so the table is not checked again. O(L) time for L
    characters, also on a fault; the table is held beside the lines."""
    found = sum(map(bool, map(str.strip, lines))) - 1  # content lines past the count
    if found < 0:
        raise ParseError("empty input")
    rows = enumerate(lines, start=1)
    for count_line, head in rows:
        head = head.strip()
        if head:
            break
    if len(head.split(None, 1)) != 1:
        raise ParseError("expected a single integer edge count", line=count_line)
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"invalid edge count {_quote(head)}", line=count_line) from None
    if found != n:
        raise ParseError(f"expected {_digits(n)} pair lines, found {found}", line=count_line)
    if n < 1:
        raise ParseError(f"edge count must be positive, got {n}", line=count_line)
    size = 2 * n
    partner = [-1] * size
    for lineno, line in rows:
        try:
            a, b = line.split()
            a = int(a)
            b = int(b)
            if -1 < a < size > b > -1 and a != b and partner[a] == partner[b] == -1:
                partner[a] = b
                partner[b] = a
                continue
        except ValueError:
            pass
        _read_pair_line(lines, count_line, lineno, partner)  # a blank line, or a fault
    return Matching._trusted(n, tuple(partner))


def _read_pair_line(lines: list[str], count_line: int, lineno: int,
                    partner: list[int]) -> None:
    """Read pair line ``lineno`` into ``partner`` one check at a time, in the
    order that names the first of several faults: two tokens, two integers,
    then each position's range and freedom, the first written before the
    second is checked. A blank line is skipped. A repeat's first use is
    looked up among the lines past ``count_line``: O(L) for L characters."""
    body = lines[lineno - 1].strip()
    if not body:
        return
    tokens = body.split()
    if len(tokens) != 2:
        raise ParseError(f"expected two positions, got {_quote(body)}", line=lineno)
    try:
        a, b = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(f"non-integer position in {_quote(body)}", line=lineno) from None
    for v, w in ((a, b), (b, a)):
        if not 0 <= v < len(partner):
            raise ParseError(f"position {_digits(v)} out of range 0..{len(partner) - 1}",
                             line=lineno)
        if partner[v] >= 0:
            first = next(no for no, line in enumerate(lines, start=1)
                         if no > count_line and v in map(int, line.split()))
            raise ParseError(
                f"position {v} is matched to itself" if first == lineno
                else f"duplicate position {v} (first used on line {first})",
                line=lineno)
        partner[v] = w


def _single_line(lines: list[str], name: str) -> tuple[int, str]:
    """The one content line of a single-line format, as (lineno, body); the
    lines past the second content line are not looked at."""
    found = ((no, body) for no, body in enumerate(map(str.strip, lines), start=1) if body)
    first, second = next(found, None), next(found, None)
    if first is None:
        raise ParseError("empty input")
    if second is not None:
        raise ParseError(f"{name} input must be a single line", line=second[0])
    return first


def _partner(lines: list[str]) -> Matching:
    lineno, line = _single_line(lines, "partner-array")
    tokens = line.split()
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise ParseError("partner-array entries must be integers", line=lineno) from None
    if len(values) % 2 != 0:
        raise ParseError(f"partner-array needs a positive even number of "
                         f"entries, got {len(values)}", line=lineno)
    try:
        return Matching(len(values) // 2, tuple(values))
    except InvalidMatchingError as exc:
        raise ParseError(str(exc), line=lineno) from None


def _dotbracket(lines: list[str]) -> Matching:
    lineno, body = _single_line(lines, "dot-bracket")
    stacks: dict[int, list[int]] = {}
    partner = [0] * len(body)
    for i, c in enumerate(body):
        fam = _OPEN.find(c)
        if fam >= 0:
            stacks.setdefault(fam, []).append(i)
            continue
        fam = _CLOSE.find(c)
        if fam < 0:
            raise ParseError(f"unexpected character {c!r}", line=lineno, column=i + 1)
        stack = stacks.get(fam)
        if not stack:
            raise ParseError(f"unbalanced {c!r} with no matching {_OPEN[fam]!r}",
                             line=lineno, column=i + 1)
        j = stack.pop()
        partner[i], partner[j] = j, i
    for fam, stack in stacks.items():
        if stack:
            raise ParseError(
                f"unclosed {_OPEN[fam]!r}", line=lineno, column=stack[-1] + 1)
    # A decode that succeeds pairs every character: the table is valid.
    return Matching._trusted(len(body) // 2, tuple(partner))


def parse_input(text: str) -> Matching:
    """Parse a matching in whichever format it is written: the text is cut
    into lines once (``_lines``) and read by ``_decode``. O(L) time for L
    characters."""
    return _decode(_lines(text))


def _decode(lines: list[str]) -> Matching:
    """The matching that ``lines`` write. The pair-list reader ``_pairs``
    reads them first; only lines it refuses go to partner-array and then
    dot-bracket, each of which looks at no more than two content lines. No
    text is valid in two formats, so the order changes no result. Lines all
    three refuse get one message naming each format's faulty line, in the
    order partner-array, pair-list, dot-bracket."""
    failures = {}
    for name, parse in (("pairs", _pairs), ("partner", _partner), ("dotbracket", _dotbracket)):
        try:
            return parse(lines)
        except ParseError as exc:
            failures[name] = f"{name}: {exc}"
    raise ParseError("input matches no known format ({partner}; {pairs}; {dotbracket})"
                     .format_map(failures))


def parse_ncn(text: str) -> NCNTriple:
    """Parse a matching plus its one "nesting a b" line, the line whose
    first token is "nesting". That line is emptied in the list of ``_lines``,
    so that every line keeps its number, and the list is read as
    ``parse_input`` reads it. O(L) time for L characters; the lines are freed
    before the triple is checked."""
    lines = _lines(text)
    hits = [i for i in compress(count(), map(contains, lines, repeat("nesting")))
            if lines[i].split(None, 1)[0] == "nesting"]
    if not hits:
        raise ParseError('missing "nesting a b" line')
    at = hits[0]
    if len(hits) > 1:
        raise ParseError(f'second "nesting" line (the first is line {at + 1})',
                         line=hits[1] + 1)
    try:
        pair = _nesting_pair(lines[at].strip())
    except ValueError as exc:
        raise ParseError(str(exc), line=at + 1) from None
    lines[at] = ""
    base = _decode(lines)  # a fault here names its own line
    del lines
    try:
        return NCNTriple(base, pair)
    except ValueError as exc:  # crossings are the base's, not the line's, fault
        line = at + 1 if is_noncrossing(base) else None
        raise ParseError(str(exc), line=line) from None


def _line_number(text: str, at: int) -> int:
    """The 1-based number of the line holding position ``at``, as
    ``str.splitlines`` numbers them; O(at), for messages only."""
    return (sum(text.count(c, 0, at) for c in _BREAKS)
            - text.count("\r\n", 0, at) + 1)


def _nesting_pair(body: str) -> Optional[tuple[int, int]]:
    """The labels of a "nesting a b" line, None for the sentinel "0 0"."""
    tokens = body.split()
    if len(tokens) != 3:
        raise ValueError(f'expected "nesting a b", got {_quote(body)}')
    try:
        a, b = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise ValueError(f"non-integer labels in {_quote(body)}") from None
    return None if (a, b) == (0, 0) else (a, b)


def emit_pairs(m: Matching) -> str:
    """Serialize in the canonical pair-list format; O(n)."""
    lines = [str(m.n)]
    lines += [f"{l} {r}" for l, r in m.pairs()]
    return "\n".join(lines) + "\n"


def emit_partner(m: Matching) -> str:
    """Serialize as a one-line partner array; O(n), one ``%``-format of the
    whole table rather than one ``str`` call per entry."""
    p = m.partner
    return ("%d " * len(p))[:-1] % p + "\n"


def emit_dotbracket(m: Matching) -> str:
    """Serialize as dot-bracket with greedy family assignment.

    Edges are taken by left endpoint; each takes the lowest-index family in
    which it crosses no previously assigned edge. A family's arcs never
    cross, so its arcs open at a left endpoint are nested, and the new edge
    crosses one of them iff it closes after the innermost. One stack of open
    right endpoints per family makes that one comparison per family tried:
    O(n * families) in all, with at most 30 families.
    """
    stacks: list[list[int]] = []  # per family, the right ends of its open arcs
    family = [0] * (2 * m.n)  # by position
    for v, w in enumerate(m.partner):
        if w < v:
            stacks[family[w]].pop()  # the innermost open arc of its family
            continue
        f = 0
        while f < len(stacks) and stacks[f] and stacks[f][-1] < w:
            f += 1
        if f >= _FAMILY_LIMIT:
            raise ValueError(
                f"matching needs more than {_FAMILY_LIMIT} bracket families")
        if f == len(stacks):
            stacks.append([])
        stacks[f].append(w)
        family[v] = f
    return "".join(_OPEN[family[v]] if v < w else _CLOSE[family[w]]
                   for v, w in enumerate(m.partner))


# Each matching format's name, in help order, with its emitter; ``parse_input``
# reads all three.
FORMATS = {
    "pairs": emit_pairs,
    "partner": emit_partner,
    "dotbracket": lambda m: emit_dotbracket(m) + "\n",
}


def emit_matching(m: Matching, fmt: str) -> str:
    """Serialize in the named format with one table lookup; O(n), dot-bracket
    O(n * families)."""
    try:
        emit = FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; expected one of "
                         f"{', '.join(FORMATS)}") from None
    return emit(m)


def emit_ncn(t: NCNTriple) -> str:
    """Serialize a triple: pair-list plus the sentinel-bearing nesting line; O(n)."""
    a, b = t.pair if t.pair is not None else (0, 0)
    return emit_pairs(t.base) + f"nesting {a} {b}\n"
