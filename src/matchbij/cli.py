"""Command-line interface.

Subcommands: count, map, classify, enumerate, verify, render. Matchings are
read from stdin (or --in FILE) in any of the supported formats; counts print
as bare decimal integers. Exit codes: 0 success, 1 domain errors (not L & P,
not a representative, enumeration cap), 2 usage, input-parse and stdin or
stdout errors, and running out of memory ("error: out of memory").
"""

import argparse
import os
import sys
from functools import cache
from itertools import islice
from typing import Optional

from .core import NCNTriple, _digits, _quote, _scan, lr_sequence
from .lp import _is_lp, enumerate_lp, lp_count_formula
from .bijections import phi, phi_inv, sigma, sigma_inv, tau, tau_inv
from .similarity import census, ns_stream
from .enumeration import (
    _size_digits,
    all_matchings,
    catalan,
    double_factorial,
    ncn_elements,
    noncrossing_matchings,
)
from .formats import (
    FORMATS,
    ParseError,
    _line_number,
    emit_matching,
    emit_ncn,
    parse_input,
    parse_ncn,
)
from .render import render
from .verify import SUITES, run_suite

__all__ = ["build_parser", "run", "main"]


def _int(text: str) -> int:
    """An integer option's value; a refusal quotes at most ``_quote``'s
    limit of it, where argparse's own ``type=int`` echoes it whole."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}") from None


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        """As argparse's, but a failed write raises for ``run`` to report."""
        (file or sys.stdout or sys.stderr).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matchbij",
        description="Complete matchings: statistics, L & P recognition, and "
        "the bijections to nesting-class representatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print an exact count")
    p.add_argument("what", choices=["matchings", "noncrossing", "lp", "classes", "ncn"])
    p.add_argument("--n", type=_int, required=True, metavar="N")
    p.add_argument("--brute", action="store_true",
                   help="count by exhaustive enumeration instead of the closed form")

    p = sub.add_parser("map", help="apply a bijection to stdin")
    p.add_argument("which", choices=["phi", "phi-inv", "tau", "tau-inv",
                                     "sigma", "sigma-inv"])
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--format", choices=FORMATS,
                   help="output format for plain matchings (default pairs); "
                   "phi and tau-inv write a triple and take none")

    p = sub.add_parser("classify", help="report the statistics of a matching")
    p.add_argument("--in", dest="infile", metavar="FILE")

    p = sub.add_parser("enumerate", help="stream a whole family")
    p.add_argument("family", choices=["all", "noncrossing", "lp", "ns"])
    p.add_argument("--n", type=_int, required=True, metavar="N")
    p.add_argument("--format", choices=FORMATS, default="partner")

    p = sub.add_parser("verify", help="run exhaustive invariant suites")
    p.add_argument("--n", type=_int, required=True, metavar="N")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")

    p = sub.add_parser("render", help="draw an arc diagram")
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--format", choices=["text", "svg"], default="text")
    p.add_argument("--labels", action="store_true", help="draw edge labels")
    p.add_argument("--width", type=_int, help="SVG width (svg format only)")
    p.add_argument("--height", type=_int, help="SVG height (svg format only)")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``run`` of the process and kept,
    so that callers running many jobs in one interpreter build it once."""
    return build_parser()


def _check_options(parser: argparse.ArgumentParser, args) -> None:
    """Refuse, as a usage error, an option the chosen command would ignore."""
    if args.command == "map" and args.which in ("phi", "tau-inv") and args.format:
        parser.error(f"map {args.which} writes a triple in pair-list format; "
                     f"--format does not apply")
    if args.command == "render" and args.format == "text":
        for name in ("width", "height"):
            if getattr(args, name) is not None:
                parser.error(f"render --{name} applies to --format svg only")


def _read_input(infile: Optional[str]) -> str:
    """The text of ``infile``, or of stdin, both strictly decoded and without
    newline translation, so that each reaches the parser as written. A text
    stream without a byte ``buffer`` (a ``StringIO``) is read as it is."""
    source = infile or "stdin"
    try:
        if infile:
            with open(infile, "r", encoding="utf-8", newline="") as handle:
                return handle.read()
        if sys.stdin is None:  # the interpreter's stand-in for a closed stdin
            raise ParseError("cannot read stdin: stdin is closed")
        buffer = getattr(sys.stdin, "buffer", None)
        return sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
    except OSError as exc:  # missing, a directory, unreadable
        raise ParseError(f"cannot read {source}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:  # numbered as the parser numbers lines
        prefix = exc.object[:exc.start].decode("utf-8")
        line = _line_number(prefix, len(prefix))
        raise ParseError(f"cannot read {source}: byte 0x{exc.object[exc.start]:02x} "
                         f"on line {line} is not UTF-8") from None


# The most digits ``count`` computes, whatever the interpreter's digit limit.
# (2n-1)!! is a sequential product and printing an int is quadratic in its
# digits, so a count of 10^6 digits already takes most of a minute.
_MAX_COUNT_DIGITS = 10 ** 6


def _check_count_prints(what: str, n: int) -> None:
    """Refuse a count too long to print, judged from n through
    ``_size_digits`` before the count is computed: a ValueError past the
    interpreter's digit limit or past _MAX_COUNT_DIGITS."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    # lp, classes and ncn all count the L & P matchings.
    digits = _size_digits(what if what in ("matchings", "noncrossing") else "lp", n)
    if limit and digits >= limit:
        raise ValueError(
            f"count {what} --n {_digits(n)} has more than {limit} digits, the interpreter's "
            f"limit for printing an integer (PYTHONINTMAXSTRDIGITS)")
    if digits >= _MAX_COUNT_DIGITS:
        raise ValueError(f"count {what} --n {_digits(n)} has too many digits to compute")


def _count(what: str, n: int, brute: bool) -> int:
    if what == "matchings":
        return sum(1 for _ in all_matchings(n)) if brute else double_factorial(2 * n - 1)
    if what == "noncrossing":
        return sum(1 for _ in noncrossing_matchings(n)) if brute else catalan(n)
    if what == "lp":
        return sum(1 for _ in enumerate_lp(n)) if brute else lp_count_formula(n)
    if what == "classes":
        return len(census(n)) if brute else lp_count_formula(n)
    return sum(1 for _ in ncn_elements(n))  # ncn has no separate closed form


def _cmd_count(args) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"n must be positive, got {_digits(n)}")
    _check_count_prints(args.what, n)
    sys.stdout.write(f"{_count(args.what, n, args.brute)}\n")
    return 0


def _cmd_map(args) -> int:
    text = _read_input(args.infile)
    bijection = {"phi": phi, "phi-inv": phi_inv, "tau": tau, "tau-inv": tau_inv,
                 "sigma": sigma, "sigma-inv": sigma_inv}[args.which]
    # phi-inv and tau read a triple; phi and tau-inv write one.
    reads_triple = args.which in ("phi-inv", "tau")
    image = bijection(parse_ncn(text) if reads_triple else parse_input(text))
    sys.stdout.write(emit_ncn(image) if isinstance(image, NCNTriple)
                     else emit_matching(image, args.format or "pairs"))
    return 0


def _cmd_classify(args) -> int:
    m = parse_input(_read_input(args.infile))
    scanned = _scan(m.partner)  # one scan for the counts and the L & P test
    ne, cr = scanned[:2]
    lines = [
        f"noncrossing: {str(cr == 0).lower()}",
        f"lp: {str(_is_lp(m.partner, scanned)).lower()}",
        f"ne: {ne}",
        f"cr: {cr}",
        f"lr: {lr_sequence(m)}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# Elements per write in ``enumerate``.
_BLOCK = 256


def _cmd_enumerate(args) -> int:
    """Stream a family in blocks of ``_BLOCK`` elements: each element is
    formatted with ``emit_matching``, and a block is joined and written with
    one write, pair-list records separated by blank lines within and between
    blocks. At most one block is held at once: 256 lines in partner or
    dot-bracket format, 256 records of n + 1 lines in pair-list format. A cap
    error or n < 1 surfaces on the first pull, before anything is written."""
    streams = {
        "all": all_matchings,
        "noncrossing": noncrossing_matchings,
        "lp": enumerate_lp,
        "ns": ns_stream,
    }
    stream = streams[args.family](args.n)
    fmt = args.format
    separator = "\n" if fmt == "pairs" else ""
    lead = ""  # the separator before every block but the first
    while True:
        block = [emit_matching(m, fmt) for m in islice(stream, _BLOCK)]
        if not block:
            return 0
        sys.stdout.write(lead + separator.join(block))
        lead = separator


def _cmd_verify(args) -> int:
    results = run_suite(args.n, args.suite)
    for name, ok, detail in results:
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
    return 0 if all(ok for _, ok, _ in results) else 1


def _cmd_render(args) -> int:
    m = parse_input(_read_input(args.infile))
    # Line by line: a deep diagram is megabytes.
    for piece in render(m, args.format, args.labels, args.width, args.height):
        sys.stdout.write(piece)
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "map": _cmd_map,
    "classify": _cmd_classify,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def run(argv: Optional[list[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _parser()
    try:
        try:
            args = parser.parse_args(argv)
            _check_options(parser, args)
        except SystemExit as exc:  # argparse handles usage errors and --help
            code = int(exc.code or 0)
        else:
            if sys.stdout is None:  # the interpreter's stand-in for a closed stdout
                sys.stderr.write("error: cannot write stdout: stdout is closed\n")
                return 2
            code = _COMMANDS[args.command](args)
        if sys.stdout is not None:  # --help goes to stderr if it is None
            sys.stdout.flush()  # a full disk may show only here, for --help too
        return code
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        return 0
    except OSError as exc:  # writing stdout: an input's own OSError is a ParseError
        sys.stderr.write(f"error: cannot write stdout: {exc.strerror}\n")
        return 2
    except MemoryError:  # an input too large for the memory the process may use
        sys.stderr.write("error: out of memory\n")
        return 2
    except ValueError as exc:  # not L & P, not a representative, a cap, ...
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    code = run()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:  # reported by ``run``; the interpreter's flush at exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
