"""Every matching and triple the library builds without the check is valid.

Streams, map images and the two complete decoders (pair-list walk and
dot-bracket) build by ``Matching._trusted``, and ``ncn_elements``, ``phi``
and ``tau_inv`` build by ``NCNTriple._trusted``; both skip the
``__post_init__`` check because the library made the value valid by
construction. Here each ``_trusted`` is patched to run that check (the
oracle) on every instance it builds, and every stream, map and decoder is
run over small n and over the large triples of ``tests/dyck_triple.py``:
none may raise.
"""

import io
from contextlib import redirect_stdout

import pytest

import dyck_triple
from matchbij import (
    InvalidMatchingError,
    Matching,
    NCNTriple,
    all_matchings,
    enumerate_lp,
    nc,
    ncn_elements,
    noncrossing_matchings,
    ns_stream,
    phi,
    phi_inv,
    sigma,
    sigma_inv,
    swap_sequence,
    tau,
    tau_inv,
)
from matchbij.formats import emit_dotbracket, emit_pairs, parse_input, parse_ncn
from matchbij.verify import mirror


@pytest.fixture(autouse=True)
def validated_builds(monkeypatch):
    """Make ``Matching._trusted`` validate what it builds; the number of
    builds is returned."""
    check = Matching.__post_init__
    trusted = Matching._trusted.__func__
    builds = [0]

    def validated(cls, n, partner):
        assert type(n) is int and type(partner) is tuple
        m = trusted(cls, n, partner)
        check(m)
        builds[0] += 1
        return m

    monkeypatch.setattr(Matching, "_trusted", classmethod(validated))
    return builds


@pytest.fixture(autouse=True)
def validated_triples(monkeypatch):
    """Make ``NCNTriple._trusted`` validate what it builds; the number of
    builds is returned."""
    check = NCNTriple.__post_init__
    trusted = NCNTriple._trusted.__func__
    builds = [0]

    def validated(cls, base, pair):
        assert type(base) is Matching and (pair is None or type(pair) is tuple)
        t = trusted(cls, base, pair)
        check(t)
        builds[0] += 1
        return t

    monkeypatch.setattr(NCNTriple, "_trusted", classmethod(validated))
    return builds


def test_the_oracle_rejects_an_invalid_table(validated_builds):
    with pytest.raises(InvalidMatchingError, match="not an involution at position 0"):
        Matching._trusted(2, (1, 2, 3, 0))
    with pytest.raises(AssertionError):
        Matching._trusted(1, [1, 0])
    assert Matching._trusted(1, (1, 0)) == Matching(1, (1, 0))
    assert validated_builds[0] == 1


def test_the_triple_oracle_rejects_an_invalid_triple(validated_triples):
    ladder = Matching(2, (3, 2, 1, 0))
    with pytest.raises(ValueError, match="not an increasing pair"):
        NCNTriple._trusted(ladder, (2, 1))
    with pytest.raises(ValueError, match="base matching has crossings"):
        NCNTriple._trusted(Matching(2, (2, 3, 0, 1)), None)
    with pytest.raises(AssertionError):
        NCNTriple._trusted(ladder, [1, 2])
    assert NCNTriple._trusted(ladder, (1, 2)) == NCNTriple(ladder, (1, 2))
    assert validated_triples[0] == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_library_built_triples(n, validated_triples):
    count = len(list(ncn_elements(n)))
    assert validated_triples[0] == count
    if n <= 7:
        count += len([phi(m) for m in enumerate_lp(n)])
        assert validated_triples[0] == count
    count += len([tau_inv(r) for r in ns_stream(n)])
    assert validated_triples[0] == count


@pytest.mark.parametrize("n", range(1, 7))
def test_complete_decoders(n, validated_builds):
    count = 0
    for m in all_matchings(n):
        assert parse_input(emit_dotbracket(m)) == m
        assert parse_input(emit_pairs(m)) == m
        count += 1
    assert validated_builds[0] == 3 * count  # the element and both decodes


@pytest.mark.parametrize("n", range(1, 8))
def test_all_matchings_and_their_images(n, validated_builds):
    count = 0
    for m in all_matchings(n):
        nc(m)
        assert mirror(mirror(m)) == m
        count += 1
    assert validated_builds[0] == 4 * count  # the element, nc and two mirrors
    for m in enumerate_lp(n):
        t = phi(m)
        assert phi_inv(t) == m
        assert sigma_inv(sigma(m)) == m


@pytest.mark.parametrize("n", range(1, 9))
def test_catalan_streams_and_their_images(n, validated_builds):
    for m in noncrossing_matchings(n):
        assert nc(m) == m
        mirror(m)
        for step in swap_sequence(m):
            assert tau_inv(step.matching).base == m
    for t in ncn_elements(n):
        assert tau_inv(tau(t)) == t
        assert phi(phi_inv(t)) == t
    for r in ns_stream(n):
        sigma(sigma_inv(r))
        mirror(r)
    assert validated_builds[0] > 0


@pytest.mark.parametrize("size,index", [(1000, 1), (1000, 10 ** 4), (10 ** 4, 10 ** 5)])
def test_dyck_triples(size, index, validated_builds, validated_triples):
    text = io.StringIO()
    with redirect_stdout(text):
        dyck_triple.main(size, index)
    t = parse_ncn(text.getvalue())
    rep = tau(t)
    assert tau_inv(rep) == t
    lp = phi_inv(t)
    assert phi(lp) == t
    assert sigma(lp) == rep
    assert sigma_inv(rep) == lp
    assert mirror(mirror(rep)) == rep
    assert validated_builds[0] >= 4
    assert validated_triples[0] == 4  # tau_inv and phi, each alone and in sigma or sigma_inv
