"""Text formats for matchings and triples.

Three interchangeable matching encodings:

* pair-list (canonical): line 1 is n, then n lines "left right" with
  0-based positions. '#' starts a comment; blank lines are ignored.
* partner-array: one line of 2n space-separated integers forming a
  self-inverse permutation without fixed points.
* dot-bracket: one line over the bracket families "()", "[]", "{}", "<>",
  then the letter families "Aa".."Zz". Brackets balance within each family;
  families may interleave to encode crossings. No unpaired symbols.

A noncrossing matching with a chosen nested pair serializes as a pair-list
followed by one line "nesting a b", with "nesting 0 0" when no pair is
chosen; it is read back from a matching in any format plus that line.
"""

import re
from itertools import islice, repeat
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


def _content_lines(text: str) -> list[tuple[int, str]]:
    """Non-blank lines with comments stripped, tagged with 1-based numbers."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def _pairs(lines: list[tuple[int, str]]) -> Matching:
    """The per-line pair-list walk over content lines: it names the line at
    fault. Each pair goes into one partner table as its line is read; the
    line of a repeated position's first use is looked up once one is found.
    That check is complete, so the table is not checked again. O(L) time for
    L characters, with the lines and the table held at once."""
    if not lines:
        raise ParseError("empty input")
    lineno, head = lines[0]
    if len(head.split()) != 1:
        raise ParseError("expected a single integer edge count", line=lineno)
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"invalid edge count {_quote(head)}", line=lineno) from None
    body = lines[1:]
    if len(body) != n:
        raise ParseError(f"expected {_digits(n)} pair lines, found {len(body)}",
                         line=lineno)
    if n < 1:
        raise ParseError(f"edge count must be positive, got {n}", line=lineno)
    partner = [-1] * (2 * n)
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected two positions, got {_quote(line)}", line=lineno)
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer position in {_quote(line)}", line=lineno) from None
        for v, w in ((a, b), (b, a)):
            if not 0 <= v < 2 * n:
                raise ParseError(f"position {_digits(v)} out of range 0..{2 * n - 1}",
                                 line=lineno)
            if partner[v] >= 0:
                first = next(no for no, text in body if v in map(int, text.split()))
                raise ParseError(
                    f"position {v} is matched to itself" if first == lineno
                    else f"duplicate position {v} (first used on line {first})",
                    line=lineno)
            partner[v] = w
    return Matching._trusted(n, tuple(partner))


def _read_pair_list(text: str) -> Optional[Matching]:
    """The matching of a text that is a well-formed pair list, or None.

    A text holding a "#" loses its comments first, each cut up to the break
    that ends its line as ``_content_lines`` cuts it (one ``re.sub``, one
    copy of the text). The text is read when it is one count line n, then
    blank lines or lines of two tokens, 2n + 1 tokens in all (one pass over
    its lines, split as the per-line walk splits them, counts at most three
    tokens a line, so a partner array's one long line is declined without
    being split whole): with one split and one ``int`` per token into a
    partner table, whose ``Matching`` validation is the only check on the
    positions. Any other text, and a pair list that does not encode a
    matching, gives None, so that the per-line walk reads it and names the
    line at fault; where this returns a matching, the walk returns the same
    one. O(L) time for L characters; the tokens and the partner table are
    held at once, about 100 bytes per token.
    """
    if "#" in text:  # a plain text is not copied
        text = re.sub(_COMMENT, "", text)
    sizes = filter(None, map(len, map(str.split, text.splitlines(), repeat(None), repeat(2))))
    if next(sizes, 0) != 1 or not set(sizes) <= {2}:
        return None
    tokens = text.split()
    try:
        n = int(tokens[0])
    except ValueError:  # past the interpreter's int-digit limit
        return None
    if len(tokens) != 2 * n + 1:
        return None
    partner = [-1] * (2 * n)
    ends = map(int, islice(tokens, 1, None))
    try:
        for a, b in zip(ends, ends):
            partner[a] = b
            partner[b] = a
    except (ValueError, IndexError):  # past the digit limit, or past 2n - 1
        return None
    del tokens, ends
    try:
        return Matching(n, tuple(partner))
    except InvalidMatchingError:  # n = 0, a repeated position or a self-pair
        return None


def _single_line(lines: list[tuple[int, str]], name: str) -> tuple[int, str]:
    """The one content line of a single-line format, as (lineno, body)."""
    if not lines:
        raise ParseError("empty input")
    if len(lines) != 1:
        raise ParseError(f"{name} input must be a single line", line=lines[1][0])
    return lines[0]


def _partner(lines: list[tuple[int, str]]) -> Matching:
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


def _dotbracket(lines: list[tuple[int, str]]) -> Matching:
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
    """Parse a matching in whichever format it is written.

    A well-formed pair list, comments and all, is read from its tokens
    (``_read_pair_list``), without the per-line walk. Any text that reader
    declines is split into content lines once, then partner-array, pair-list
    and dot-bracket are tried in that order: up to three O(L) attempts for L
    characters, and the failure names each format's faulty line.
    """
    m = _read_pair_list(text)
    return _read_lines(_content_lines(text)) if m is None else m


def _read_lines(lines: list[tuple[int, str]]) -> Matching:
    """The per-line walk behind ``parse_input``, over its content lines."""
    failures = []
    for name, parse in (("partner", _partner), ("pairs", _pairs),
                        ("dotbracket", _dotbracket)):
        try:
            return parse(lines)
        except ParseError as exc:
            failures.append(f"{name}: {exc}")
    raise ParseError("input matches no known format (" + "; ".join(failures) + ")")


def parse_ncn(text: str) -> NCNTriple:
    """Parse a matching plus its one "nesting a b" line.

    The nesting line (``_nesting_line``) is blanked in place, so that the
    text keeps its line numbers, and the rest is read by ``parse_input``.
    O(L) time for L characters; the blanked text is one more copy, held
    while ``parse_input`` reads it.
    """
    first = _nesting_line(text, 0)
    if first is None:
        raise ParseError('missing "nesting a b" line')
    start, end = first
    second = _nesting_line(text, end)
    if second is not None:
        raise ParseError(f'second "nesting" line (the first is line '
                         f'{_line_number(text, start)})', line=_line_number(text, second[0]))
    # The line is cut where only spaces follow it, as ``emit_ncn`` writes it
    # (one copy of the text), else blanked with a space: with nothing, a "\r"
    # before it and a "\n" after it would join into one line break.
    rest = f"{text[:start]} {text[end:]}" if text[end:].strip() else text[:start]
    try:
        pair = _nesting_pair(text[start:end].split("#", 1)[0].strip())
    except ValueError as exc:
        raise ParseError(str(exc), line=_line_number(text, start)) from None
    base = parse_input(rest)  # a fault here names its own line
    try:
        return NCNTriple(base, pair)
    except ValueError as exc:  # crossings are the base's, not the line's, fault
        line = _line_number(text, start) if is_noncrossing(base) else None
        raise ParseError(str(exc), line=line) from None


# A line whose first token, comments stripped, is "nesting" ("\s" is what
# ``str.isspace`` takes); led by a line break, its search jumps from break to
# break in C. Compiled on first use (1 ms) into ``re``'s cache, not at import.
_NESTING = f"[^\\S{_BREAKS}]*nesting(?![^\\s#])[^{_BREAKS}]*"
_NESTING_HERE = f"({_NESTING})"
_NESTING_AFTER = f"[{_BREAKS}]({_NESTING})"


def _nesting_line(text: str, at: int) -> Optional[tuple[int, int]]:
    """(start, end) of the first line from ``at`` on whose first token, with
    comments stripped, is "nesting"; None if there is none. ``at`` is 0 or a
    line's end. The line of the first "nesting" past ``at`` is checked first,
    its start found by one bounded ``rfind`` per break character, then the
    lines after it are searched: O(L) for L characters, all of it in C."""
    hit = text.find("nesting", at)
    if hit < 0:
        return None
    for c in _BREAKS:
        at = max(at, text.rfind(c, at, hit) + 1)
    found = (re.compile(_NESTING_HERE).match(text, at)
             or re.compile(_NESTING_AFTER).search(text, at))
    return None if found is None else found.span(1)


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
