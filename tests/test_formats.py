import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from matchbij import (
    FORMATS,
    DotBracketString,
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
    parse_dotbracket,
    parse_input,
    parse_ncn,
    parse_pairs,
    parse_partner,
)
from matchbij.formats import _CLOSE, _FAMILY_LIMIT, _OPEN


class TestParsePairs:
    def test_hairpin(self, hairpin):
        assert parse_pairs("2\n0 2\n1 3\n") == hairpin

    def test_comments_and_blanks(self, hairpin):
        text = "# a hairpin\n\n2\n0 2   # first arc\n\n1 3\n"
        assert parse_pairs(text) == hairpin

    def test_wrong_pair_count(self):
        with pytest.raises(ParseError, match="expected 3 pair lines, found 2"):
            parse_pairs("3\n0 1\n2 3\n")

    def test_duplicate_names_line(self):
        with pytest.raises(ParseError, match="line 3: duplicate position 2"):
            parse_pairs("2\n0 2\n1 2\n")

    def test_non_integer(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_pairs("1\nzero 1\n")

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="line 3: position 7 out of range"):
            parse_pairs("2\n0 1\n2 7\n")

    def test_missing_count(self):
        with pytest.raises(ParseError, match="single integer"):
            parse_pairs("0 1\n2 3\n")

    def test_empty(self):
        with pytest.raises(ParseError, match="empty input"):
            parse_pairs("   \n# nothing\n")


class TestParsePartner:
    def test_single_edge(self):
        assert parse_partner("1 0\n") == from_pairs([(0, 1)], 1)

    def test_seven_edges(self, lp_example):
        assert parse_partner(emit_partner(lp_example)) == lp_example

    def test_odd_entry_count(self):
        with pytest.raises(ParseError, match="even number"):
            parse_partner("1 0 2\n")

    def test_not_an_involution(self):
        with pytest.raises(ParseError, match="line 1.*involution"):
            parse_partner("1 2 3 0\n")

    def test_multiline_rejected(self):
        with pytest.raises(ParseError, match="single line"):
            parse_partner("1 0\n3 2\n")


class TestParseDotBracket:
    def test_interleaved_families(self, hairpin):
        assert parse_dotbracket("([)]") == hairpin

    def test_nested(self):
        assert parse_dotbracket("(())") == from_pairs([(0, 3), (1, 2)], 2)

    def test_letter_families(self):
        m = parse_dotbracket("(A[)a]")
        assert m == from_pairs([(0, 3), (1, 4), (2, 5)], 3)

    def test_unbalanced_close(self):
        with pytest.raises(ParseError, match=r"column 3: unbalanced '\)'"):
            parse_dotbracket("())(")

    def test_unclosed_open(self):
        with pytest.raises(ParseError, match=r"column 2: unclosed '\['"):
            parse_dotbracket("([)")

    def test_unpaired_dot_rejected(self):
        with pytest.raises(ParseError, match="unexpected character '.'"):
            parse_dotbracket("(.)")


class TestAutoDetect:
    def test_partner_first(self, hairpin):
        assert parse_input("2 3 0 1\n") == hairpin

    def test_pairs(self, hairpin):
        assert parse_input("2\n0 2\n1 3\n") == hairpin

    def test_dotbracket(self, hairpin):
        assert parse_input("([)]\n") == hairpin

    def test_explicit_format(self, hairpin):
        assert parse_dotbracket("([)]") == hairpin
        with pytest.raises(ParseError):
            parse_pairs("([)]")

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
        for name, parse in (("partner", parse_partner), ("pairs", parse_pairs),
                            ("dotbracket", parse_dotbracket)):
            with pytest.raises(ParseError) as caught:
                parse(text)
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

    def test_roundtrip_all_small_triples(self):
        for t in ncn_elements(4):
            assert parse_ncn(emit_ncn(t)) == t


class TestEmitters:
    def test_pairs_golden(self, hairpin):
        assert emit_pairs(hairpin) == "2\n0 2\n1 3\n"

    def test_partner_golden(self, hairpin):
        assert emit_partner(hairpin) == "2 3 0 1\n"

    def test_dotbracket_goldens(self, hairpin, lp_example):
        assert str(emit_dotbracket(from_pairs([(0, 3), (1, 2)], 2))) == "(())"
        assert str(emit_dotbracket(hairpin)) == "([)]"
        assert str(emit_dotbracket(lp_example)) == "((()[[)())]()]"

    def test_emit_matching_dispatch(self, hairpin):
        assert emit_matching(hairpin, "pairs") == emit_pairs(hairpin)
        assert emit_matching(hairpin, "partner") == emit_partner(hairpin)
        assert emit_matching(hairpin, "dotbracket") == "([)]\n"
        with pytest.raises(ValueError, match="unknown format"):
            emit_matching(hairpin, "yaml")

    def test_dotbracket_validates_on_construction(self):
        with pytest.raises(ParseError):
            DotBracketString("(()")


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
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_parse_inverts_emit(self, fmt, n):
        for m in all_matchings(n):
            assert FORMATS[fmt][0](emit_matching(m, fmt)) == m
            assert parse_input(emit_matching(m, fmt)) == m

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_noncrossing_needs_one_family(self, n):
        from matchbij import noncrossing_matchings

        for m in noncrossing_matchings(n):
            text = str(emit_dotbracket(m))
            assert set(text) <= {"(", ")"}

    def test_crossing_needs_more(self):
        openers = "([{<" + "".join(chr(c) for c in range(ord("A"), ord("Z") + 1))
        for n in (2, 3):
            for m in all_matchings(n):
                families = {c for c in str(emit_dotbracket(m)) if c in openers}
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
    return DotBracketString("".join(symbols))


def emitted(emit, m):
    """The dot-bracket text, or the error message when ``m`` needs too many
    families."""
    try:
        return str(emit(m))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestDotBracketAgainstReference:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_matching(self, n):
        for m in all_matchings(n):
            assert str(emit_dotbracket(m)) == str(reference_emit_dotbracket(m))

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
        assert emitted(emit_dotbracket, m) == emitted(reference_emit_dotbracket, m)
