"""SHA-256 pins of the CLI's stdout, so a change meant to keep output
byte-identical shows it inside the suite."""

import hashlib
import io

import pytest

from matchbij.cli import run

LP_PAIRS = "7\n0 9\n1 6\n2 3\n4 13\n5 10\n7 8\n11 12\n"  # the README's L & P example

GOLDEN = [
    (["enumerate", "all", "--n", "7"], "",
     "259bf8822f85e9a6585451ad10d6f60324dd8c9645ab8bd137e4e8f1bb63d213"),
    (["enumerate", "lp", "--n", "6", "--format", "pairs"], "",
     "c02ac6be359003ce9a9bee44260f0023746a2edc199ae31df518716c32f3783a"),
    (["enumerate", "lp", "--n", "6", "--format", "partner"], "",
     "f7bd98071bd9d03c73f33d44da37cbd5103a94888e4109292f096e1f8e653ff7"),
    (["enumerate", "lp", "--n", "6", "--format", "dotbracket"], "",
     "cf9b34780a93d6ddbd2a25c10152ac9d79c1843b8c1c2279d2a1cd0caa038b53"),
    (["enumerate", "noncrossing", "--n", "7", "--format", "pairs"], "",
     "36da707ce7d0818f504e0508c1e802d90da59d2f98e8d93d1d8c009a01ddf6f0"),
    (["enumerate", "noncrossing", "--n", "7", "--format", "partner"], "",
     "7c0dbbdaa8bdb296e078f58605ac890cf96a0cd194c2d7ba17dd4301a40b5fff"),
    (["enumerate", "noncrossing", "--n", "7", "--format", "dotbracket"], "",
     "85bbd4bdade7ebc8a38750db9072ba0db7071cd1f310f4e06720e0a54792ee35"),
    (["verify", "--n", "5"], "",
     "ef2d7c3584f67eea9381fd0b5773032669a351512810bdf76279d2730bba9f88"),
    (["render", "--labels"], LP_PAIRS,
     "02f6591afd05334328d953e25854b964d1e384a58a55e0c525dff792be62aa71"),
    (["render", "--format", "svg", "--labels"], LP_PAIRS,
     "55088b5233d31e55ac685735f7bfb7ef25584882c20b329812d27421e87a2a17"),
]


@pytest.mark.parametrize("argv,stdin,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_digest(monkeypatch, argv, stdin, digest):
    out = io.StringIO()
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    monkeypatch.setattr("sys.stdout", out)
    assert run(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
