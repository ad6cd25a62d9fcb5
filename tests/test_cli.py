import errno
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from matchbij import enumeration, verify
from matchbij import (
    FORMATS,
    all_matchings,
    catalan,
    double_factorial,
    emit_matching,
    emit_pairs,
    enumerate_lp,
    from_pairs,
    lp_count_formula,
    noncrossing_matchings,
    ns_stream,
)
from matchbij import cli as cli_module
from matchbij.cli import build_parser, run

LP_PAIRS = "7\n0 9\n1 6\n2 3\n4 13\n5 10\n7 8\n11 12\n"
NC_PAIRS = "7\n0 13\n1 10\n2 3\n4 9\n5 6\n7 8\n11 12\n"
REP_PAIRS = "7\n0 3\n1 9\n2 6\n4 10\n5 13\n7 8\n11 12\n"
COUNTED = ["matchings", "noncrossing", "lp", "classes", "ncn"]

# Inputs whose error message quotes a 4000-digit number or a long setting:
# (argv, stdin, exit code, MATCHBIJ_ENUM_CAP or None, the counts it names).
BIG = "9" * 4000
HUGE_NUMBER_CASES = [
    pytest.param(["classify"], "1\n0 " + BIG + "\n", 2, None, ["4000 digits"], id="position"),
    pytest.param(["classify"], BIG + "\n0 1\n", 2, None, ["4000 digits"], id="count"),
    pytest.param(["classify"], "-" + BIG + "\n0 1\n", 2, None, ["4000 digits"],
                 id="negative-count"),
    pytest.param(["classify"], BIG + " 0\n", 2, None, ["4000 digits"], id="partner"),
    pytest.param(["map", "tau"], "2\n0 3\n1 2\nnesting " + BIG + " 2\n", 2, None,
                 ["4000 digits"], id="label"),
    *[pytest.param(["count", what, "--n", sign + BIG, *brute], "", 1, None, ["4000 digits"],
                   id="-".join(["count", what, *["negative"][:len(sign)], *["brute"][:len(brute)]]))
      for what in COUNTED for sign in ("", "-") for brute in ([], ["--brute"])],
    *[pytest.param([command, *family, "--n", sign + BIG], "", 1, None, ["4000 digits"],
                   id="-".join([command, *family, *["negative"][:len(sign)]]))
      for command, family in [("enumerate", ["all"]), ("enumerate", ["noncrossing"]),
                              ("enumerate", ["lp"]), ("enumerate", ["ns"]), ("verify", [])]
      for sign in ("", "-")],
    *[pytest.param(["render", "--format", "svg", flag, "-" + BIG], LP_PAIRS, 1, None,
                   ["4000 digits"], id=f"render-{flag[2:]}") for flag in ("--width", "--height")],
    pytest.param(["count", "matchings", "--n", "2", "--brute"], "", 1, "x" * 10 ** 5,
                 ["100000 characters"], id="env-cap"),
    pytest.param(["enumerate", "all", "--n", BIG], "", 1, "9" * 1000,
                 ["4000 digits", "1000 digits"], id="n-past-a-long-cap"),
]


@pytest.fixture
def cli(monkeypatch, capsys):
    def invoke(args, stdin=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = run(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestCount:
    @pytest.mark.parametrize("n,expected", list(enumerate([1, 3, 12, 51, 218, 926], start=1)))
    def test_lp_formula_sequence(self, cli, n, expected):
        assert cli(["count", "lp", "--n", str(n)]) == (0, f"{expected}\n", "")

    def test_matchings(self, cli):
        assert cli(["count", "matchings", "--n", "7"])[1] == "135135\n"
        assert cli(["count", "matchings", "--n", "4", "--brute"])[1] == "105\n"

    def test_noncrossing(self, cli):
        assert cli(["count", "noncrossing", "--n", "8"])[1] == "1430\n"
        assert cli(["count", "noncrossing", "--n", "4", "--brute"])[1] == "14\n"

    def test_brute_paths_agree_with_formula(self, cli):
        for n in (1, 2, 3, 4):
            expected = f"{lp_count_formula(n)}\n"
            assert cli(["count", "lp", "--n", str(n), "--brute"])[1] == expected
            assert cli(["count", "classes", "--n", str(n), "--brute"])[1] == expected
            assert cli(["count", "ncn", "--n", str(n)])[1] == expected

    def test_classes_formula_path(self, cli):
        assert cli(["count", "classes", "--n", "6"])[1] == "926\n"

    def test_cap_exceeded_is_domain_error(self, cli):
        code, out, err = cli(["count", "matchings", "--n", "9", "--brute"])
        assert code == 1 and "cap" in err

    @pytest.mark.parametrize("brute", [[], ["--brute"]])
    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("what", COUNTED)
    def test_nonpositive_n_is_domain_error(self, cli, what, n, brute):
        assert cli(["count", what, "--n", n, *brute]) == (
            1, "", f"error: n must be positive, got {n}\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no digit limit for printing integers")
    @pytest.mark.parametrize("brute", [[], ["--brute"]])
    @pytest.mark.parametrize("what", COUNTED)
    def test_unprintable_count_is_refused_up_front(self, cli, what, brute):
        start = time.perf_counter()
        code, out, err = cli(["count", what, "--n", "200000", *brute])
        assert time.perf_counter() - start < 5
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (1, "")
        assert err.startswith(f"error: count {what} --n 200000 has more than {limit} digits")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no digit limit for printing integers")
    def test_printable_counts_are_judged_exactly(self, cli, monkeypatch):
        # Every closed-form count that fits the limit prints; the first one
        # past it is refused.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
        families = {"matchings": lambda n: double_factorial(2 * n - 1),
                    "noncrossing": catalan, "lp": lp_count_formula}
        for what, count in families.items():
            n = 1
            while count(n) < 10 ** 640:
                n += 1
            code, out, _ = cli(["count", what, "--n", str(n - 1)])
            assert (code, out) == (0, f"{count(n - 1)}\n")
            assert cli(["count", what, "--n", str(n)])[0] == 1

    @pytest.mark.parametrize("what,n", [(what, 10 ** 31) for what in COUNTED] + [
        (what, 10 ** 19) for what in ("noncrossing", "lp", "classes")])
    def test_count_too_long_without_a_digit_limit(self, cli, monkeypatch, what, n):
        # Both sizes are refused from the lgamma estimate, before (2n-1)!! is
        # multiplied out or math.comb is called, which takes no k = 10^19.
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        start = time.perf_counter()
        assert cli(["count", what, "--n", str(n)]) == (
            1, "", f"error: count {what} --n {n} has too many digits to compute\n")
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("what,n", [(what, 2 * 10 ** 6) for what in COUNTED] + [
        ("matchings", 200000), ("ncn", 1000000000)])
    def test_count_past_a_million_digits_without_a_digit_limit(self, cli, monkeypatch,
                                                               what, n):
        # Every family has more than 10^6 digits at n = 2 * 10^6; (2n-1)!! has
        # 1.03 * 10^6 at n = 200000, which took 49 s to compute and print.
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        start = time.perf_counter()
        assert cli(["count", what, "--n", str(n)]) == (
            1, "", f"error: count {what} --n {n} has too many digits to compute\n")
        assert time.perf_counter() - start < 5

    def test_digit_ceiling_is_judged_exactly(self, cli, monkeypatch):
        # With no digit limit, every closed-form count within the ceiling
        # prints; the first one past it is refused.
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.setattr(cli_module, "_MAX_COUNT_DIGITS", 640)
        families = {"matchings": lambda n: double_factorial(2 * n - 1),
                    "noncrossing": catalan, "lp": lp_count_formula}
        for what, count in families.items():
            n = 1
            while count(n) < 10 ** 640:
                n += 1
            code, out, _ = cli(["count", what, "--n", str(n - 1)])
            assert (code, out) == (0, f"{count(n - 1)}\n")
            assert cli(["count", what, "--n", str(n)])[0] == 1

    def test_large_printable_count(self, cli):
        code, out, _ = cli(["count", "lp", "--n", "3000"])
        assert (code, out) == (0, f"{lp_count_formula(3000)}\n")


class TestMap:
    def test_sigma_pipeline(self, cli):
        assert cli(["map", "sigma"], LP_PAIRS) == (0, REP_PAIRS, "")

    def test_sigma_inv(self, cli):
        assert cli(["map", "sigma-inv"], REP_PAIRS) == (0, LP_PAIRS, "")

    def test_phi_emits_triple(self, cli):
        code, out, err = cli(["map", "phi"], LP_PAIRS)
        assert code == 0
        assert out == NC_PAIRS + "nesting 2 5\n"

    def test_phi_inv_consumes_triple(self, cli):
        code, out, _ = cli(["map", "phi-inv"], NC_PAIRS + "nesting 2 5\n")
        assert code == 0 and out == LP_PAIRS

    def test_tau_and_inverse(self, cli):
        code, out, _ = cli(["map", "tau"], NC_PAIRS + "nesting 2 5\n")
        assert code == 0 and out == REP_PAIRS
        code, out, _ = cli(["map", "tau-inv"], REP_PAIRS)
        assert code == 0 and out == NC_PAIRS + "nesting 2 5\n"

    def test_output_format_flag(self, cli):
        code, out, _ = cli(["map", "sigma", "--format", "partner"], "2\n0 2\n1 3\n")
        assert code == 0 and out == "2 3 0 1\n"

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("which,stdin", [("phi", LP_PAIRS), ("tau-inv", REP_PAIRS)])
    def test_format_on_a_triple_writer_is_a_usage_error(self, cli, which, stdin, fmt):
        code, out, err = cli(["map", which, "--format", fmt], stdin)
        assert (code, out) == (2, "")
        assert f"error: map {which} writes a triple in pair-list format; --format" in err

    def test_plain_matchings_default_to_pairs(self, cli):
        assert cli(["map", "phi-inv"], NC_PAIRS + "nesting 2 5\n") == (0, LP_PAIRS, "")
        assert cli(["map", "tau"], NC_PAIRS + "nesting 2 5\n") == (0, REP_PAIRS, "")

    def test_non_lp_input_is_domain_error(self, cli):
        code, out, err = cli(["map", "phi"], "3\n0 3\n1 4\n2 5\n")
        assert code == 1 and "not L & P" in err

    def test_non_representative_is_domain_error(self, cli):
        code, _, err = cli(["map", "tau-inv"], "5\n0 2\n1 7\n3 5\n4 6\n8 9\n")
        assert code == 1 and "representative" in err

    @pytest.mark.parametrize("stdin", ["2\n0 2\n1 3\nnesting 0 0\n",
                                       "nesting 0 0\n2\n0 2\n1 3\n"])
    def test_crossing_base_names_no_nesting_line(self, cli, stdin):
        # The crossings are the base's fault, wherever the nesting line is.
        assert cli(["map", "tau"], stdin) == (2, "", "error: base matching has crossings\n")

    def test_garbage_input_is_parse_error(self, cli):
        code, _, err = cli(["map", "sigma"], "not a matching")
        assert code == 2 and "error:" in err

    def test_in_file(self, cli, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(LP_PAIRS)
        assert cli(["map", "sigma", "--in", str(path)]) == (0, REP_PAIRS, "")

    def test_in_file_is_read_as_written(self, cli, tmp_path):
        # No newline translation: a file reaches the parser as stdin's bytes do.
        text = "# a triple\r\n2\r0 3\r\n1 2\nnesting 1 2\r\n"
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode())
        assert cli_module._read_input(str(path)) == text
        assert cli(["map", "tau", "--in", str(path)]) == cli(["map", "tau"], text)


class TestClassify:
    def test_nested_golden(self, cli):
        code, out, _ = cli(["classify"], "(())")
        assert code == 0
        assert out == "noncrossing: true\nlp: true\nne: 1\ncr: 0\nlr: LLRR\n"

    def test_hairpin(self, cli):
        code, out, _ = cli(["classify"], "([)]")
        assert out == "noncrossing: false\nlp: true\nne: 0\ncr: 1\nlr: LLRR\n"

    def test_non_lp(self, cli):
        code, out, _ = cli(["classify"], "5\n0 2\n1 7\n3 5\n4 6\n8 9\n")
        assert "lp: false" in out


class TestEnumerate:
    def test_partner_stream(self, cli):
        code, out, _ = cli(["enumerate", "all", "--n", "2"])
        assert code == 0
        assert out == "1 0 3 2\n2 3 0 1\n3 2 1 0\n"

    def test_pairs_records_blank_separated(self, cli):
        code, out, _ = cli(["enumerate", "noncrossing", "--n", "2", "--format", "pairs"])
        assert out == "2\n0 3\n1 2\n\n2\n0 1\n2 3\n"

    def test_lp_and_ns_lengths(self, cli):
        for family in ("lp", "ns"):
            code, out, _ = cli(["enumerate", family, "--n", "3"])
            assert code == 0
            assert len(out.splitlines()) == 12

    def test_ns_matches_representatives(self, cli):
        code, out, _ = cli(["enumerate", "ns", "--n", "2"])
        got = {tuple(map(int, line.split())) for line in out.splitlines()}
        assert got == {(3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2)}

    def test_dotbracket_stream(self, cli):
        code, out, _ = cli(["enumerate", "noncrossing", "--n", "2", "--format", "dotbracket"])
        assert out == "(())\n()()\n"


STREAMS = {"all": all_matchings, "noncrossing": noncrossing_matchings,
           "lp": enumerate_lp, "ns": ns_stream}


def reference_enumerate(family, n, fmt, write):
    """The per-element writer that ``enumerate`` replaced by blocks: one write
    per matching, with a blank line before every pair-list record but the
    first."""
    first = True
    for m in STREAMS[family](n):
        if fmt == "pairs" and not first:
            write("\n")
        write(emit_matching(m, fmt))
        first = False


class Recorder:
    """Stands in for stdout and keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


class TestBlockWriter:
    @pytest.mark.parametrize("block", [1, 2, 7, cli_module._BLOCK])
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("family", STREAMS)
    def test_same_output_as_the_per_element_writer(self, monkeypatch, family, fmt, block):
        monkeypatch.setattr(cli_module, "_BLOCK", block)
        for n in range(1, 6):
            expected = []
            reference_enumerate(family, n, fmt, expected.append)
            sink = Recorder()
            monkeypatch.setattr("sys.stdout", sink)
            assert run(["enumerate", family, "--n", str(n), "--format", fmt]) == 0
            assert "".join(sink.writes) == "".join(expected)
            # One write per started block, and none for an empty last block.
            elements = sum(1 for _ in STREAMS[family](n))
            assert len(sink.writes) == -(-elements // block)

    @pytest.mark.parametrize("family,n,block", [
        ("all", 4, 7),  # 105 matchings
        ("all", 4, 35),
        ("noncrossing", 5, 2),  # 42 matchings
        ("ns", 5, 2),  # 218 representatives
    ])
    def test_pair_records_at_block_edges(self, monkeypatch, family, n, block):
        monkeypatch.setattr(cli_module, "_BLOCK", block)
        sink = Recorder()
        monkeypatch.setattr("sys.stdout", sink)
        assert run(["enumerate", family, "--n", str(n), "--format", "pairs"]) == 0
        elements = sum(1 for _ in STREAMS[family](n))
        assert elements % block == 0 and len(sink.writes) == elements // block
        # Each block holds whole records; a blank line opens every block but
        # the first and separates the records inside each.
        assert sink.writes[0].startswith(f"{n}\n")
        for text in sink.writes[1:]:
            assert text.startswith(f"\n{n}\n")
        for text in sink.writes:
            assert text.endswith("\n") and not text.endswith("\n\n")
            assert text.count("\n\n") == block - 1

    def test_writes_per_block_by_default(self, monkeypatch):
        sink = Recorder()
        monkeypatch.setattr("sys.stdout", sink)
        assert run(["enumerate", "all", "--n", "6"]) == 0
        assert sum(text.count("\n") for text in sink.writes) == 10395
        assert len(sink.writes) <= -(-10395 // 256)

    def test_broken_pipe_exits_zero(self, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert run(["enumerate", "ns", "--n", "4"]) == 0


class TestVerify:
    def test_all_suites_pass(self, cli):
        code, out, err = cli(["verify", "--n", "3"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)

    def test_single_suite(self, cli):
        code, out, _ = cli(["verify", "--n", "4", "--suite", "lp"])
        assert code == 0
        assert all(line.startswith("PASS lp/") for line in out.splitlines())

    def test_failing_check_prints_fail_and_exits_one(self, cli, monkeypatch):
        first = next(all_matchings(3))
        monkeypatch.setattr(verify, "alignments", lambda m: [])
        code, out, err = cli(["verify", "--n", "3", "--suite", "core"])
        assert (code, err) == (1, "")
        assert f"FAIL core/pair-partition: partition fails on {first}\n" in out


class TestRender:
    def test_text(self, cli):
        code, out, _ = cli(["render"], "2\n0 2\n1 3\n")
        assert code == 0
        assert out == "  .---.\n.-|-. |\n* * * *\n"

    def test_svg(self, cli):
        code, out, _ = cli(["render", "--format", "svg"], LP_PAIRS)
        assert code == 0
        assert out.count("<circle") == 14 and out.count("<path") == 7

    @pytest.mark.parametrize("flag,value", [
        ("--width", "-50"), ("--width", "0"), ("--height", "0")])
    def test_svg_size_below_one(self, cli, flag, value):
        assert cli(["render", "--format", "svg", flag, value], LP_PAIRS) == (
            1, "", f"error: {flag[2:]} must be a positive integer, got {value}\n")

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_svg_size_past_float_range(self, cli, flag):
        assert cli(["render", "--format", "svg", flag, "1" + "0" * 400], LP_PAIRS) == (
            1, "", f"error: {flag[2:]} is too large to draw: the largest is 1.79769e+308\n")

    def test_svg_label_coordinate_past_float_range(self, cli):
        # 1.7e308 is below the largest float, but the centre of label 2 adds
        # two x coordinates near it. Without labels, or as a height, it draws.
        huge = "17" + "0" * 307
        assert cli(["render", "--format", "svg", "--labels", "--width", huge], "2 3 0 1") == (
            1, "", "error: width is too large to draw with labels: "
            "a label's x coordinate is not finite\n")
        for args in (["--width", huge], ["--labels", "--height", huge]):
            code, out, err = cli(["render", "--format", "svg", *args], "2 3 0 1")
            assert (code, err) == (0, "")
            assert "inf" not in out and "nan" not in out

    @pytest.mark.parametrize("args,flag", [
        (["--width", "500", "--height", "9"], "--width"),
        (["--height", "9"], "--height"),
        (["--format", "text", "--width", "500"], "--width"),
    ])
    def test_svg_size_on_text_is_a_usage_error(self, cli, args, flag):
        code, out, err = cli(["render", *args], LP_PAIRS)
        assert (code, out) == (2, "")
        assert f"error: render {flag} applies to --format svg only" in err

    def test_labels(self, cli):
        code, out, _ = cli(["render", "--labels"], "2\n0 2\n1 3\n")
        assert "1" in out and "2" in out

    def test_labels_wider_than_the_last_columns(self, cli):
        # The arc of label 1000 joins the last two positions.
        pairs = "1000\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(1000))
        code, out, err = cli(["render", "--labels"], pairs)
        assert (code, err) == (0, "")
        assert out.splitlines()[0].endswith(" 999 1000")

    def test_deep_ladder_written_line_by_line(self, monkeypatch):
        class WriteOnly:
            def __init__(self):
                self.writes = self.lines = 0

            def write(self, text):
                self.writes += 1
                self.lines += text.count("\n")
                return len(text)

            def flush(self):
                pass

        n = 1200
        sink = WriteOnly()
        ladder = f"{n}\n" + "".join(f"{i} {2 * n - 1 - i}\n" for i in range(n))
        monkeypatch.setattr("sys.stdin", io.StringIO(ladder))
        monkeypatch.setattr("sys.stdout", sink)
        assert run(["render"]) == 0
        assert sink.lines == n + 1 and sink.writes > 1


class TestExitCodes:
    def test_unknown_subcommand(self, cli):
        code, _, err = cli(["frobnicate"])
        assert code == 2 and "usage" in err

    def test_unknown_flag(self, cli):
        code, _, err = cli(["count", "lp", "--n", "3", "--fast"])
        assert code == 2

    def test_help_exits_zero(self, cli):
        code, out, _ = cli(["--help"])
        assert code == 0 and "matchbij" in out

    def test_byte_determinism(self, cli):
        first = cli(["count", "lp", "--n", "6"])
        second = cli(["count", "lp", "--n", "6"])
        assert first == second
        a = cli(["classify"], emit_pairs(from_pairs([(0, 2), (1, 3)], 2)))
        b = cli(["classify"], emit_pairs(from_pairs([(0, 2), (1, 3)], 2)))
        assert a == b

    @pytest.mark.parametrize("command,name,reason", [
        ("classify", "missing.txt", "No such file or directory"),
        ("render", "", "Is a directory"),
    ])
    def test_unreadable_input_file(self, cli, tmp_path, command, name, reason):
        path = tmp_path / name
        code, out, err = cli([command, "--in", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {path}: {reason}\n"

    def test_input_file_not_utf8(self, cli, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"2\n0 2\n1 \xff3\n")
        assert cli(["classify", "--in", str(path)]) == (
            2, "", f"error: cannot read {path}: byte 0xff on line 3 is not UTF-8\n")

    def test_stdin_not_utf8(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"2\n0 2\n1 \xff3\n")))
        assert run(["classify"]) == 2
        assert capsys.readouterr() == (
            "", "error: cannot read stdin: byte 0xff on line 3 is not UTF-8\n")

    # The bad byte is on line 4 as ``str.splitlines`` numbers lines, whatever
    # the breaks before it.
    @pytest.mark.parametrize("data", [
        b"2\n0 2\n1 3\n\xff\n", b"2\r\n0 2\r\n1 3\r\n\xff\r\n", b"2\r0 2\r1 3\r\xff\r",
        "2\u20280 2\x851 3\u2028".encode() + b"\xff\n",
    ], ids=["LF", "CRLF", "CR", "U+2028-U+0085"])
    def test_not_utf8_is_numbered_as_the_parser_numbers_lines(self, cli, monkeypatch, capsys,
                                                              tmp_path, data):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        assert cli(["classify", "--in", str(path)]) == (
            2, "", f"error: cannot read {path}: byte 0xff on line 4 is not UTF-8\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run(["classify"]) == 2
        assert capsys.readouterr() == (
            "", "error: cannot read stdin: byte 0xff on line 4 is not UTF-8\n")

    @pytest.mark.parametrize("encoding", [None, "utf-8:strict"])
    def test_stdin_not_utf8_in_a_process(self, encoding):
        # Whatever errors handler the interpreter gives sys.stdin.
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        env["PYTHONPATH"] = str(src)
        if encoding:
            env["PYTHONIOENCODING"] = encoding
        done = subprocess.run([sys.executable, "-m", "matchbij", "classify"], input=b"\xff",
                              capture_output=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, b"", b"error: cannot read stdin: byte 0xff on line 1 is not UTF-8\n")

    @pytest.mark.parametrize("value,quoted", [
        ("12x", "'12x'"), (BIG + "x", f"'{BIG[:40]}'... (4001 characters)")],
        ids=["short", "long"])
    @pytest.mark.parametrize("argv", [["count", "lp", "--n"],
                                      ["render", "--format", "svg", "--width"]])
    def test_int_values_are_quoted_as_input_is(self, cli, argv, value, quoted):
        # argparse's usage lines, then one error line that quotes at most 40
        # characters of the value.
        code, out, err = cli([*argv, value], LP_PAIRS)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {argv[-1]}: invalid int value: {quoted}\n")
        assert len(err) < 300

    def test_broken_pipe_exits_zero(self, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert run(["count", "lp", "--n", "3"]) == 0

    def test_closed_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", None)
        assert run(["classify"]) == 2
        assert capsys.readouterr() == ("", "error: cannot read stdin: stdin is closed\n")

    def test_closed_stdout(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdout", None)
        assert run(["count", "lp", "--n", "3"]) == 2
        assert capsys.readouterr().err == "error: cannot write stdout: stdout is closed\n"

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_full_stdout(self, monkeypatch, capsys, failing):
        class Full(io.StringIO):
            def fail(self, *args):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        sink = Full()
        setattr(sink, failing, sink.fail)
        monkeypatch.setattr("sys.stdout", sink)
        assert run(["count", "lp", "--n", "3"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["count", "lp", "--n", "3"], ["enumerate", "all", "--n", "5"]],
                             ids=["count", "enumerate"])
    @pytest.mark.parametrize("stdout", ["closed", "full", "broken-pipe"])
    def test_stdout_failures_in_a_process(self, argv, stdout, buffered):
        # One line on stderr and exit 2, also when only the flush at exit
        # would fail; a reader that has gone away is no error.
        if stdout == "full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(src)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        command = [sys.executable, "-m", "matchbij", *argv]
        if stdout == "closed":
            done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command],
                                  capture_output=True, env=env, timeout=60)
            expected = (2, b"error: cannot write stdout: stdout is closed\n")
        elif stdout == "full":
            with open("/dev/full", "wb") as full:
                done = subprocess.run(command, stdout=full, stderr=subprocess.PIPE,
                                      env=env, timeout=60)
            expected = (2, f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n".encode())
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                done = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE,
                                      env=env, timeout=60)
            finally:
                os.close(write_end)
            expected = (0, b"")
        assert (done.returncode, done.stderr) == expected

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("argv", [["--help"], ["map", "--help"]], ids=["main", "map"])
    def test_help_into_a_full_stdout(self, monkeypatch, capsys, argv, failing):
        class Full(io.StringIO):
            def fail(self, *args):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        sink = Full()
        setattr(sink, failing, sink.fail)
        monkeypatch.setattr("sys.stdout", sink)
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_help_into_dev_full_in_a_process(self, buffered):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(src)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            done = subprocess.run([sys.executable, "-m", "matchbij", "--help"], stdout=full,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (
            2, f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n".encode())

    def test_help_on_a_closed_stdout_goes_to_stderr(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdout", None)
        assert run(["--help"]) == 0
        assert capsys.readouterr().err.startswith("usage: matchbij")

    def test_closed_stdin_in_a_process(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(["sh", "-c", 'exec "$@" <&-', "sh", sys.executable, "-m",
                               "matchbij", "classify"], capture_output=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, b"", b"error: cannot read stdin: stdin is closed\n")

    @pytest.mark.parametrize("argv,stdin,exit_code,cap,cut", HUGE_NUMBER_CASES)
    def test_huge_numbers_are_cut_in_messages(self, cli, monkeypatch, argv, stdin, exit_code,
                                              cap, cut):
        if cap is not None:
            monkeypatch.setenv("MATCHBIJ_ENUM_CAP", cap)
        code, out, err = cli(argv, stdin)
        assert (code, out) == (exit_code, "")
        assert err.count("\n") == 1 and len(err) < 300
        assert all(f"... ({count})" in err for count in cut)

    def test_env_cap_override(self, cli, monkeypatch):
        monkeypatch.setenv("MATCHBIJ_ENUM_CAP", "3")
        code, _, err = cli(["count", "matchings", "--n", "4", "--brute"])
        assert code == 1 and "cap 3" in err

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["count", "matchings", "--n", "2", "--brute"],
        ["enumerate", "noncrossing", "--n", "2"],
    ])
    def test_bad_env_cap(self, cli, monkeypatch, value, argv):
        monkeypatch.setenv("MATCHBIJ_ENUM_CAP", value)
        code, out, err = cli(argv)
        assert code == 1 and out == ""
        assert err == (
            f"error: MATCHBIJ_ENUM_CAP must be a positive integer, got {value!r}\n"
        )

    @pytest.mark.parametrize("argv", [
        ["enumerate", "ns", "--n", "13"],
        ["enumerate", "noncrossing", "--n", "13"],
        ["count", "ncn", "--n", "13"],
    ])
    def test_catalan_cap_names_the_noncrossing_count(self, cli, argv):
        assert cli(argv) == (1, "", (
            "error: n=13 exceeds the enumeration cap 12 for noncrossing enumeration: "
            "Catalan(n) = 742900 noncrossing matchings at this size "
            "(set MATCHBIJ_ENUM_CAP to raise the cap)\n"))

    @pytest.mark.parametrize("argv", [
        ["count", "ncn", "--n", "2000"],
        ["enumerate", "all", "--n", "200000"],
        ["enumerate", "ns", "--n", "2000"],
        ["enumerate", "all", "--n", "1" + "0" * 400],
        ["enumerate", "noncrossing", "--n", "1" + "0" * 400],
    ])
    def test_cap_message_at_large_n_never_computes_the_count(self, cli, monkeypatch, argv):
        def refuse(m):
            raise AssertionError(f"computed ({m})!!")

        monkeypatch.setattr(enumeration, "double_factorial", refuse)
        start = time.perf_counter()
        code, out, err = cli(argv)
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        n = argv[-1] if len(argv[-1]) <= 40 else f"{argv[-1][:40]}... ({len(argv[-1])} digits)"
        assert err.startswith(f"error: n={n} exceeds the enumeration cap")
        assert "MATCHBIJ_ENUM_CAP" in err and err.count("\n") == 1


@pytest.fixture
def fresh_parser():
    """Empty ``run``'s parser cache before and after the test."""
    cli_module._parser.cache_clear()
    yield cli_module._parser.cache_clear
    cli_module._parser.cache_clear()


# A usage error, --help, a refused option, a bad input and good jobs.
MIXED_JOBS = [
    (["count", "lp", "--n", "x"], ""),
    (["--help"], ""),
    (["map", "--help"], ""),
    (["map", "tau-inv", "--format", "partner"], REP_PAIRS),
    (["classify"], "!!!\n"),
    (["classify"], LP_PAIRS),
    (["map", "tau"], NC_PAIRS + "nesting 2 5\n"),
    (["frobnicate"], ""),
    (["render", "--width", "3"], LP_PAIRS),
    (["count", "lp", "--n", "5"], ""),
]


class TestParserReuse:
    def test_built_once_across_runs(self, cli, monkeypatch, fresh_parser):
        built = []

        def counted_build_parser():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli_module, "build_parser", counted_build_parser)
        for argv, stdin in MIXED_JOBS * 3:
            cli(argv, stdin)
        assert len(built) == 1

    def test_same_output_as_fresh_parsers(self, cli, fresh_parser):
        fresh = []
        for argv, stdin in MIXED_JOBS:
            fresh_parser()
            fresh.append(cli(argv, stdin))
        fresh_parser()
        reused = [cli(argv, stdin) for argv, stdin in MIXED_JOBS * 2]
        assert reused == fresh * 2
        assert [code for code, _, _ in fresh] == [2, 0, 0, 2, 2, 0, 0, 2, 2, 0]


@pytest.mark.parametrize("module", ["matchbij", "matchbij.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", module, "count", "lp", "--n", "4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        0, f"{lp_count_formula(4)}\n", "")
