import re
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from matchbij import (
    FORMATS,
    NCNTriple,
    ParseError,
    all_matchings,
    edges,
    emit_dotbracket,
    emit_matching,
    emit_ncn,
    emit_pairs,
    emit_partner,
    from_pairs,
    is_noncrossing,
    ncn_elements,
    parse_input,
    parse_ncn,
)
from matchbij.core import Matching, _digits, _quote
from matchbij.formats import (
    _CLOSE,
    _FAMILY_LIMIT,
    _OPEN,
    _dotbracket,
    _lines,
    _nesting_pair,
    _pairs,
    _partner,
)


def refusal(text):
    """Each format's own part of the message with which ``parse_input``
    refuses ``text``, by format name."""
    with pytest.raises(ParseError) as caught:
        parse_input(text)
    head, message = "input matches no known format (", str(caught.value)
    assert message.startswith(head) and message.endswith(")")
    parts = re.split(r"; (?=(?:pairs|dotbracket): )", message[len(head):-1])
    return dict(part.split(": ", 1) for part in parts)


class TestParsePairs:
    def test_hairpin(self, hairpin):
        assert parse_input("2\n0 2\n1 3\n") == hairpin

    def test_comments_and_blanks(self, hairpin):
        text = "# a hairpin\n\n2\n0 2   # first arc\n\n1 3\n"
        assert parse_input(text) == hairpin

    def test_wrong_pair_count(self):
        assert refusal("3\n0 1\n2 3\n")["pairs"] == "line 1: expected 3 pair lines, found 2"

    def test_duplicate_names_line(self):
        assert refusal("2\n0 2\n1 2\n")["pairs"].startswith("line 3: duplicate position 2")

    def test_non_integer(self):
        assert refusal("1\nzero 1\n")["pairs"] == "line 2: non-integer position in 'zero 1'"

    def test_out_of_range(self):
        assert refusal("2\n0 1\n2 7\n")["pairs"].startswith("line 3: position 7 out of range")

    @pytest.mark.parametrize("text,message", [
        ("2\n0 1\n1 9\n", "line 3: duplicate position 1 (first used on line 2)"),
        ("2\n0 1\n9 1\n", "line 3: position 9 out of range 0..3"),
        ("2\n0 1\n-1 9\n", "line 3: position -1 out of range 0..3"),
        ("2\n0 1\n0 0\n", "line 3: duplicate position 0 (first used on line 2)"),
        ("2\n0 1\n2 2\n", "line 3: position 2 is matched to itself"),
        ("2\n0 1\nx -1\n", "line 3: non-integer position in 'x -1'"),
    ])
    def test_first_fault_of_a_line_is_named(self, text, message):
        # The left position is checked, range first, before the right one.
        assert refusal(text)["pairs"] == message

    def test_missing_count(self):
        assert refusal("0 1\n2 3\n")["pairs"] == "line 1: expected a single integer edge count"

    def test_empty(self):
        assert refusal("   \n# nothing\n")["pairs"] == "empty input"


class TestParsePartner:
    def test_single_edge(self):
        assert parse_input("1 0\n") == from_pairs([(0, 1)], 1)

    def test_seven_edges(self, lp_example):
        assert parse_input(emit_partner(lp_example)) == lp_example

    def test_odd_entry_count(self):
        assert refusal("1 0 2\n")["partner"] == (
            "line 1: partner-array needs a positive even number of entries, got 3")

    def test_not_an_involution(self):
        assert refusal("1 2 3 0\n")["partner"] == (
            "line 1: partner table is not an involution at position 0")

    def test_multiline_rejected(self):
        assert refusal("1 0\n3 2\n")["partner"] == (
            "line 2: partner-array input must be a single line")


class TestParseDotBracket:
    def test_interleaved_families(self, hairpin):
        assert parse_input("([)]") == hairpin

    def test_nested(self):
        assert parse_input("(())") == from_pairs([(0, 3), (1, 2)], 2)

    def test_letter_families(self):
        m = parse_input("(A[)a]")
        assert m == from_pairs([(0, 3), (1, 4), (2, 5)], 3)

    def test_unbalanced_close(self):
        assert refusal("())(")["dotbracket"] == (
            "line 1, column 3: unbalanced ')' with no matching '('")

    def test_unclosed_open(self):
        assert refusal("([)")["dotbracket"] == "line 1, column 2: unclosed '['"

    def test_unpaired_dot_rejected(self):
        assert refusal("(.)")["dotbracket"] == "line 1, column 2: unexpected character '.'"


class TestAutoDetect:
    def test_partner_first(self, hairpin):
        assert parse_input("2 3 0 1\n") == hairpin

    def test_pairs(self, hairpin):
        assert parse_input("2\n0 2\n1 3\n") == hairpin

    def test_dotbracket(self, hairpin):
        assert parse_input("([)]\n") == hairpin

    def test_garbage_reports_all_attempts(self):
        with pytest.raises(ParseError, match="no known format"):
            parse_input("!!!")

    @pytest.mark.parametrize("text", [
        "3\n0 1\n2 3\n", "2\n0 2\n1 2\n", "1\nzero 1\n", "2\n0 1\n2 7\n",
        "0 1\n2 3\n", "   \n# nothing\n", "1 0 2\n", "1 2 3 0\n", "1 0\n3 2\n",
        "())(", "([)", "(.)", "!!!",
    ])
    def test_failure_joins_the_three_parsers_messages(self, text):
        failures = []
        for name, parse in (("partner", _partner), ("pairs", _pairs),
                            ("dotbracket", _dotbracket)):
            with pytest.raises(ParseError) as caught:
                parse(_lines(text))
            failures.append(f"{name}: {caught.value}")
        with pytest.raises(ParseError) as caught:
            parse_input(text)
        assert str(caught.value) == (
            "input matches no known format (" + "; ".join(failures) + ")")

    def test_failure_message(self):
        with pytest.raises(ParseError) as caught:
            parse_input("1 2 3 0\n")
        assert str(caught.value) == (
            "input matches no known format (partner: line 1: partner table is "
            "not an involution at position 0; pairs: line 1: expected a single "
            "integer edge count; dotbracket: line 1, column 1: unexpected "
            "character '1')")


class TestNCNSerialization:
    def test_emit_with_pair(self, nc_example):
        text = emit_ncn(NCNTriple(nc_example, (2, 5)))
        assert text.endswith("nesting 2 5\n")
        assert parse_ncn(text) == NCNTriple(nc_example, (2, 5))

    def test_sentinel_for_no_pair(self, nc_example):
        text = emit_ncn(NCNTriple(nc_example, None))
        assert text.endswith("nesting 0 0\n")
        assert parse_ncn(text).pair is None

    def test_missing_nesting_line(self, nc_example):
        with pytest.raises(ParseError, match='missing "nesting a b"'):
            parse_ncn(emit_pairs(nc_example))

    def test_pair_must_be_nested(self):
        with pytest.raises(ParseError, match="not nested"):
            parse_ncn("2\n0 1\n2 3\nnesting 1 2\n")

    def test_second_nesting_line_is_named(self):
        text = "# triple\n2\n0 3\n1 2\nnesting 1 2\nnesting 0 0\n"
        with pytest.raises(ParseError) as info:
            parse_ncn(text)
        assert str(info.value) == 'line 6: second "nesting" line (the first is line 5)'

    @pytest.mark.parametrize("text,message", [
        ("nesting 1 2\n2\n0 3\n1 x\n",
         "input matches no known format (partner: line 3: partner-array input must "
         "be a single line; pairs: line 4: non-integer position in '1 x'; "
         "dotbracket: line 3: dot-bracket input must be a single line)"),
        ("2\nnesting 1 2\n0 3\n1 x\n",
         "input matches no known format (partner: line 3: partner-array input must "
         "be a single line; pairs: line 4: non-integer position in '1 x'; "
         "dotbracket: line 3: dot-bracket input must be a single line)"),
        ("# triple\n2\nnesting 1 2\n\n0 3\n1 3\n",
         "input matches no known format (partner: line 5: partner-array input must "
         "be a single line; pairs: line 6: duplicate position 3 (first used on "
         "line 5); dotbracket: line 5: dot-bracket input must be a single line)"),
        ("0\nnesting 0 0\n",
         "input matches no known format (partner: line 1: partner-array needs a "
         "positive even number of entries, got 1; pairs: line 1: edge count must be "
         "positive, got 0; dotbracket: line 1, column 1: unexpected character '0')"),
        ("1\n0 0\nnesting 0 0\n",
         "input matches no known format (partner: line 2: partner-array input must "
         "be a single line; pairs: line 2: position 0 is matched to itself; "
         "dotbracket: line 2: dot-bracket input must be a single line)"),
        ("3\n0 1\n2 3\n4 1\nnesting 0 0\n",
         "input matches no known format (partner: line 2: partner-array input must "
         "be a single line; pairs: line 4: duplicate position 1 (first used on "
         "line 2); dotbracket: line 2: dot-bracket input must be a single line)"),
    ], ids=["nesting-first", "nesting-in-the-middle", "comment-and-blank", "zero-count",
            "self-pair", "duplicate-after-a-line"])
    def test_base_errors_keep_the_text_line_numbers(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_ncn(text)
        assert str(info.value) == message

    def test_roundtrip_all_small_triples(self):
        for t in ncn_elements(4):
            assert parse_ncn(emit_ncn(t)) == t


class TestEmitters:
    def test_pairs_golden(self, hairpin):
        assert emit_pairs(hairpin) == "2\n0 2\n1 3\n"

    def test_partner_golden(self, hairpin):
        assert emit_partner(hairpin) == "2 3 0 1\n"

    def test_dotbracket_goldens(self, hairpin, lp_example):
        assert emit_dotbracket(from_pairs([(0, 3), (1, 2)], 2)) == "(())"
        assert emit_dotbracket(hairpin) == "([)]"
        assert emit_dotbracket(lp_example) == "((()[[)())]()]"

    def test_emit_matching_dispatch(self, hairpin):
        assert emit_matching(hairpin, "pairs") == emit_pairs(hairpin)
        assert emit_matching(hairpin, "partner") == emit_partner(hairpin)
        assert emit_matching(hairpin, "dotbracket") == "([)]\n"
        with pytest.raises(ValueError, match="unknown format"):
            emit_matching(hairpin, "yaml")


def reference_emit_partner(m):
    """The emitter ``emit_partner`` replaced: one ``str`` call per entry."""
    return " ".join(map(str, m.partner)) + "\n"


class TestPartnerAgainstReference:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_matching(self, n):
        for m in all_matchings(n):
            assert emit_partner(m) == reference_emit_partner(m)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(st.integers(min_value=1, max_value=500).flatmap(
        lambda n: st.permutations(range(2 * n))))
    def test_random_matchings(self, order):
        m = from_pairs(zip(order[::2], order[1::2]), len(order) // 2)
        assert emit_partner(m) == reference_emit_partner(m)


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["pairs", "partner", "dotbracket"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_parse_inverts_emit(self, fmt, n):
        for m in all_matchings(n):
            assert parse_input(emit_matching(m, fmt)) == m

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_noncrossing_needs_one_family(self, n):
        from matchbij import noncrossing_matchings

        for m in noncrossing_matchings(n):
            text = emit_dotbracket(m)
            assert set(text) <= {"(", ")"}

    def test_crossing_needs_more(self):
        openers = "([{<" + "".join(chr(c) for c in range(ord("A"), ord("Z") + 1))
        for n in (2, 3):
            for m in all_matchings(n):
                families = {c for c in emit_dotbracket(m) if c in openers}
                assert (len(families) == 1) == is_noncrossing(m)


def reference_emit_dotbracket(m):
    """The quadratic emitter ``emit_dotbracket`` replaced: each edge, by left
    endpoint, checks every earlier edge for a crossing."""
    es = edges(m)
    family = {}
    for e in es:
        taken = set()
        for g in es:
            if g.left >= e.left:
                break
            # g starts earlier; they cross iff g closes inside e.
            if e.left < g.right < e.right:
                taken.add(family[g.label])
        f = 0
        while f in taken:
            f += 1
        if f >= _FAMILY_LIMIT:
            raise ValueError(
                f"matching needs more than {_FAMILY_LIMIT} bracket families")
        family[e.label] = f
    symbols = [""] * (2 * m.n)
    for e in es:
        symbols[e.left] = _OPEN[family[e.label]]
        symbols[e.right] = _CLOSE[family[e.label]]
    return "".join(symbols)


def emitted(emit, m):
    """The dot-bracket text, or the error message when ``m`` needs too many
    families."""
    try:
        return emit(m)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestDotBracketAgainstReference:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_matching(self, n):
        for m in all_matchings(n):
            assert emit_dotbracket(m) == reference_emit_dotbracket(m)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(st.integers(min_value=1, max_value=200).flatmap(
        lambda n: st.permutations(range(2 * n))))
    def test_random_matchings(self, order):
        m = from_pairs(zip(order[::2], order[1::2]), len(order) // 2)
        assert emitted(emit_dotbracket, m) == emitted(reference_emit_dotbracket, m)

    @pytest.mark.parametrize("pairs", [
        [(k, 9999 - k) for k in range(5000)],  # nested ladder
        [(k, 30 + k) for k in range(30)],  # all crossing: every family
        [(k, 31 + k) for k in range(31)],  # all crossing: one family too many
    ], ids=["ladder-5000", "all-crossing-30", "all-crossing-31"])
    def test_large_and_family_limit(self, pairs):
        m = from_pairs(pairs, len(pairs))
        text = emitted(emit_dotbracket, m)
        assert text == emitted(reference_emit_dotbracket, m)
        assert text.startswith("ValueError") or parse_input(text) == m


# Every malformed text above, plus 1- and 3-token lines with the right token
# count, repeated positions, self-pairs, positions past 2n - 1, counts of zero
# and past the digit limit, a count with too few or too many pair lines, and
# line breaks other than "\n" between the two positions of a line; nesting
# lines after every kind of line break, behind spaces other than " " and "\t",
# and next to texts that only look like one; and, since the pair-list reader
# builds its table unchecked, negative positions on the first, a middle and
# the last pair line (which must not index from the end of the table),
# self-pairs and repeats after blank lines, comments and breaks other than
# "\n", and lines with a fault in both positions.
MALFORMED = [
    "3\n0 1\n2 3\n", "2\n0 2\n1 2\n", "1\nzero 1\n", "2\n0 1\n2 7\n",
    "0 1\n2 3\n", "   \n# nothing\n", "1 0 2\n", "1 2 3 0\n", "1 0\n3 2\n",
    "())(", "([)", "(.)", "!!!", "", "\n\n",
    "2\n0 1\n2 3\nnesting 1 2\n", "2\n0 3\n1 2\n",
    "# triple\n2\n0 3\n1 2\nnesting 1 2\nnesting 0 0\n",
    "nesting 1 2\n2\n0 3\n1 x\n", "2\nnesting 1 2\n0 3\n1 x\n",
    "2\n0 1 2\n3\n", "2\n0\n1 2 3\n", "2 0\n1\n3\n", "1\n0 0\n", "2\n0 1\n1 3\n",
    "2\n0 1\n2 4\n", "0\n", "0\n\n", "2\n0 1\n", "1\n0 1\n2 3\n", "1\n\t0\t1\t\n\n",
    "1\n0 1\n0 1\n", "2\n0 3\n1 2\n1 2\n", "1\n0\x0b1\n", "1\n0\x0c1\n", "1\n0\r1\n",
    "1\n0\x1e1\n", "1\n0\x1f1\n", "1\n0\x851\n", "1\n0\u20281\n",
    "9" * 5000 + "\n0 1\n", "1\n0 " + "1" * 5000 + "\n", "2\n" + "0 1 " * 1000 + "\n2 3\n",
    "1\n0 1\nnesting 0\n", "1\n0 1\nnesting 0 x\n", "1\n0 1\nnesting 0 0 0\n",
    "1\n0 1\n5nesting 0 0\n", "1\n0 1\nnesting0 0\n", "1\n0 1\nnesting 0 0\r\n",
    "1\n0 1\n\x0bnesting 0 0\n", "1\n0 1\nnesting 0 0 # c\n", "1\n0 1\nnesting 1 2\n",
    "1\n0 1 # c\nnesting 0 0\n", "1\nnesting 0 0\nnesting 0 0\n0 1\n",
    "1\n0 1\nnesting " + "1 " * 1000 + "\n",
    "1\n0 1\x0cnesting 0 0\n", "1\n0 1\x1cnesting 0 0\n", "1\n0 1\x85nesting 0 0\n",
    "1\n0 1\u2028nesting 0 0\n", "1\r\n0 1\r\nnesting 0 0\r\n",
    "2\rnesting 1 2\n0 3\n1 x\n", "2\x0c0 3\x1cnesting 1 2\x851 2\u2028",
    "1\n0 1\n\x1fnesting 0 0\n", "1\n0 1\n\xa0nesting 0 0\n", "1\n0 1\n\u3000nesting 0 0\n",
    "1\n0 1\nnesting#c\n", "1\n0 1\nx nesting 0 0\n", "1\n# nesting 1 2\n0 1\nnesting 0 0\n",
    "1\n0 1\nnesting 0 0\n\xa0\n", "1\n# nesting\n0 1\n\n\x0b\nnesting 1 2\n",
    "3\n-1 5\n0 1\n2 3\n", "3\n0 1\n-2 3\n4 5\n", "3\n0 1\n2 3\n4 -1\n",
    "3\n0 1\n2 3\n-6 4\n", "3\n0 1\n2 3\n5 -2\n", "3\n-6 -5\n0 1\n2 3\n",
    "3\n0 1\n4 4\n2 3\n", "3\n0 1\n2 3\n5 5\n", "3\n5 5\n0 1\n2 3\n",
    "# head\n\n3\r\n\n# note\x0b0 5 # first\x1c\n2 3\u20284 0\n",
    "\x0c3\x85\x1d1 4 # x\u2029\r\n\x1e0 2\r\r3 4\n",
    "2\n0 1\n1 9\n", "2\n0 1\n9 1\n", "2\n0 1\n-1 0\n", "2\n0 1\n0 0\n",
    "2\n0 1\n2 1\n", "2\n0 1\n9 -9\n", "2\n0 1\nx 9\n", "2\n0 1\n9 x\n",
]


def commented(text, brk="\n"):
    """``text`` after a comment line and with a comment ending each of its
    lines, every line break written as ``brk``."""
    return ("# a comment\n" + text.replace("\n", "  # note\n")).replace("\n", brk)


# The reference that ``parse_input`` and ``parse_ncn`` are compared with: a
# per-line walk that cuts the text into (line number, body) content lines
# first, as a list, and tries partner-array, pair-list and dot-bracket in
# that order (``walk_input``). Its pair walk builds through the checking
# constructor.


def _reference_content_lines(text):
    """Non-blank lines with comments stripped, tagged with 1-based numbers."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def _reference_pairs(lines):
    """The per-line pair-list walk over content lines: it names the line at
    fault. Each pair goes into one partner table as its line is read; the
    line of a repeated position's first use is looked up once one is found."""
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
    return Matching(n, tuple(partner))


def walk_input(text):
    """The per-line walk over a text, its pair list read as content lines."""
    failures = []
    for name, parse in (("partner", lambda text: _partner(_lines(text))),
                        ("pairs", lambda text: _reference_pairs(_reference_content_lines(text))),
                        ("dotbracket", lambda text: _dotbracket(_lines(text)))):
        try:
            return parse(text)
        except ParseError as exc:
            failures.append(f"{name}: {exc}")
    raise ParseError("input matches no known format (" + "; ".join(failures) + ")")


def walk_ncn(text):
    """The per-line triple walk: one content-line pass finds the line whose
    first token is "nesting", and the text with that line emptied (its lines
    joined by "\\n", which keeps ``str.splitlines`` numbering) is read as
    ``walk_input`` reads it, so every message keeps the text's own line
    numbers."""
    lines = _reference_content_lines(text)
    nesting_at = None
    for i, (lineno, body) in enumerate(lines):
        if body.split()[0] == "nesting":
            if nesting_at is not None:
                raise ParseError(f'second "nesting" line (the first is line '
                                 f'{lines[nesting_at][0]})', line=lineno)
            nesting_at = i
    if nesting_at is None:
        raise ParseError('missing "nesting a b" line')
    lineno, body = lines[nesting_at]
    try:
        pair = _nesting_pair(body)
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from None
    rows = text.splitlines()
    rows[lineno - 1] = ""
    base = walk_input("\n".join(rows))
    if not is_noncrossing(base):  # the base's fault, not the nesting line's
        raise ParseError("base matching has crossings")
    try:
        return NCNTriple(base, pair)
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from None


# Each public parser, and the reference walk it must agree with.
WALKS = [(parse_input, walk_input), (parse_ncn, walk_ncn)]


def outcome(parse, text):
    """What ``parse`` makes of ``text``: its value, or its exception's type
    and message."""
    try:
        return parse(text)
    except Exception as exc:  # compared, not hidden
        return type(exc), str(exc)


def assert_same_as_walk(text):
    for parse, walk in WALKS:
        assert outcome(parse, text) == outcome(walk, text), (parse.__name__, text[:200])


class TestPlainReaderAgainstWalk:
    @pytest.mark.parametrize("text", MALFORMED, ids=[repr(t)[1:-1][:30] for t in MALFORMED])
    def test_malformed(self, text):
        assert_same_as_walk(text)
        assert_same_as_walk(text + "nesting 0 0\n")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_matching_in_every_format(self, n):
        for m in all_matchings(n):
            for fmt in FORMATS:
                text = emit_matching(m, fmt)
                assert outcome(parse_input, text) == outcome(walk_input, text) == m
                assert outcome(parse_ncn, text + "nesting 0 0\n") == outcome(
                    walk_ncn, text + "nesting 0 0\n")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_triple(self, n):
        for t in ncn_elements(n):
            text = emit_ncn(t)
            assert walk_ncn(text) == parse_ncn(text) == t

    @pytest.mark.parametrize("brk", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_commented_pair_list_and_triple(self, n, brk):
        for t in ncn_elements(n):
            text = commented(emit_ncn(t), brk)
            assert walk_ncn(text) == parse_ncn(text) == t
        for m in all_matchings(n):
            text = commented(emit_pairs(m), brk)
            assert walk_input(text) == parse_input(text) == m

    @pytest.mark.slow
    def test_every_commented_pair_list_to_seven(self):
        for n in range(1, 8):
            for m in all_matchings(n):
                text = emit_pairs(m)
                assert parse_input(commented(text)) == m
                assert parse_input(commented(text, "\r\n")) == m

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(st.data())
    def test_mixed_texts(self, data):
        text = data.draw(mixed_texts())
        assert_same_as_walk(text)


# Every character that ends a line for ``str.splitlines``, and spaces that
# ``str.split`` and ``str.strip`` take besides " " and "\t".
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
SPACES = [" ", "\t", "  ", " \t", "\x1f", "\xa0", "\u3000"]
# Ways to write a position other than plain ASCII digits.
SPELLINGS = [lambda t: t, lambda t: t, lambda t: t, lambda t: "+" + t,
             lambda t: t[:1] + "_" + t[1:] if len(t) > 1 else t,
             lambda t: t.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
             lambda t: "0" + t]


@st.composite
def mixed_texts(draw):
    """Pair lists near a matching's: about half written as ``emit_pairs``
    writes them, the rest with faults, spellings, spaces, line breaks,
    comments and nesting lines on which the parsers and the reference walk
    must agree."""
    def sometimes(odds=4):  # true once in ``odds`` draws
        return draw(st.integers(0, odds - 1)) == 0

    n = draw(st.integers(min_value=1, max_value=6))
    values = list(draw(st.permutations(range(2 * n))))
    if sometimes():
        fault = draw(st.sampled_from(["duplicate", "self", "range"]))
        i, j = draw(st.integers(0, 2 * n - 1)), draw(st.integers(0, 2 * n - 1))
        values[i] = {"duplicate": values[j], "self": values[i ^ 1],
                     "range": 2 * n + j}[fault]
    count = n + (draw(st.sampled_from([-1, 1])) if sometimes(8) else 0)
    tokens = [str(v) for v in values]
    if sometimes(6):
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.sampled_from(SPELLINGS))(tokens[i])
    # Group the tokens into lines: two each, or sometimes one or three.
    sizes = [2, 2, 1, 3] if sometimes() else [2]
    rows, i = [], 0
    while i < len(tokens):
        size = draw(st.sampled_from(sizes))
        rows.append(tokens[i:i + size])
        i += size
    spaces = SPACES + LINE_BREAKS if sometimes(6) else [" ", "\t", "  "]
    breaks = LINE_BREAKS if sometimes(6) else ["\n"]
    extras = ["", " ", "\t", "# note", "  # 1 2"] if sometimes() else ["", " ", "\t"]
    lines = []
    for row in [[str(count)]] + rows:
        line = draw(st.sampled_from(spaces)).join(row)
        if sometimes(10):
            line = draw(st.sampled_from(spaces)) + line + draw(st.sampled_from(spaces))
        if sometimes(20):
            line += " # comment"
        lines.append(line)
        if sometimes(8):
            lines.append(draw(st.sampled_from(extras)))
    if sometimes(3):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["nesting 0 0", "nesting 1 2", " nesting 1 2 "])))
    text = "".join(line + draw(st.sampled_from(breaks)) for line in lines)
    return text[:-1] if sometimes(5) else text  # sometimes no final line break


class TestLongLinesInMessages:
    @pytest.mark.parametrize("parse,text", [
        (parse_input, "2\n" + "0 1 " * 250000 + "\n2 3\n"),
        (parse_input, "9" * 5000 + "\n0 1\n"),
        (parse_ncn, "1\n0 1\nnesting " + "1 " * 100000 + "\n"),
        (parse_ncn, "1\n0 1\nnesting 1 " + "x" * 100000 + "\n"),
    ], ids=["pair-line", "count-line", "nesting-line", "nesting-labels"])
    def test_quotes_are_cut(self, parse, text):
        with pytest.raises(ParseError) as info:
            parse(text)
        message = str(info.value)
        assert len(message) < 300 and "characters)" in message

    @pytest.mark.parametrize("text,message", [
        ("1\n0 " + "7" * 40 + "\n", "position " + "7" * 40 + " out of range 0..1"),
        ("1\n0 " + "7" * 41 + "\n", "position " + "7" * 40 + "... (41 digits) out of range 0..1"),
        ("-" + "7" * 40 + "\n0 1\n", "expected -" + "7" * 40 + " pair lines, found 1"),
        ("3\n0 1\n", "expected 3 pair lines, found 1"),
    ])
    def test_numbers_are_cut_past_forty_digits(self, text, message):
        assert refusal(text)["pairs"].endswith(message)

    def test_short_lines_are_quoted_whole(self):
        text = "2\n0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15\n2 3\n"
        assert refusal(text)["pairs"].endswith("got '0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15'")


class TestTokenReaderTakesEveryLineBreak:
    # Round trips of every pair list and triple at n = 4 under each line
    # break, plain and commented.
    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[repr(b)[1:-1] for b in LINE_BREAKS])
    def test_never_reaches_the_walk(self, brk):
        for t in ncn_elements(4):
            pairs = emit_pairs(t.base).replace("\n", brk)
            assert parse_input(pairs) == t.base
            assert parse_ncn(emit_ncn(t).replace("\n", brk)) == t
            assert parse_input(commented(emit_pairs(t.base), brk)) == t.base
            assert parse_ncn(commented(emit_ncn(t), brk)) == t

    @pytest.mark.parametrize("where", ["first", "middle", "after-a-comment"])
    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[repr(b)[1:-1] for b in LINE_BREAKS])
    def test_nesting_line_anywhere(self, brk, where):
        # The nesting line first, between two pair lines, or after a pair
        # line's trailing comment. The last pair line (line 6) always
        # follows it; written as "0 0", a repeat of position 0, it must be
        # refused with the walk's message.
        for t in ncn_elements(4):
            rows = emit_pairs(t.base).splitlines()
            at = 0 if where == "first" else 1 + t.base.n // 2
            if where == "after-a-comment":
                rows[at - 1] += "  # a trailing comment"
            rows.insert(at, emit_ncn(t).splitlines()[-1])
            assert parse_ncn(brk.join(rows) + brk) == t
            rows[-1] = "0 0"
            text = brk.join(rows) + brk
            assert outcome(parse_ncn, text) == outcome(walk_ncn, text)
            assert "pairs: line 6: duplicate position 0 (first used on line" in str(
                outcome(parse_ncn, text)[1])


class TestNestingLineScan:
    # Texts that make a character-by-character look back or forward slow:
    # each is read in well under a second, so a bound of 10 s catches a
    # quadratic scan and not a slow machine.
    @pytest.mark.parametrize("text,expected", [
        ("1\n0 1\n" + " " * 5 * 10 ** 6 + "nesting 0 0\n", None),
        ("1\n0 1\n" + "nesting" * 5 * 10 ** 5 + "\nnesting 0 0\n", "no known format"),
        ("1\n" + "# nesting 1 2\n" * 5 * 10 ** 5 + "0 1\nnesting 0 0\n", None),
        ("1\n0 1\nnesting 0 0" + " 1" * 5 * 10 ** 5 + "\n", 'expected "nesting a b"'),
    ], ids=["spaces", "glued", "comments", "long-line"])
    def test_linear(self, text, expected):
        start = time.perf_counter()
        if expected is None:
            assert parse_ncn(text) == NCNTriple(from_pairs([(0, 1)], 1), None)
        else:
            with pytest.raises(ParseError, match=expected):
                parse_ncn(text)
        assert time.perf_counter() - start < 10
