"""Every matching the library builds without the check is a valid one.

Streams and map images are built by ``Matching._trusted``, which skips the
``__post_init__`` check because the library made the table valid by
construction. Here ``_trusted`` is patched to run that check (the oracle)
on every instance it builds, and every stream and map is run over small n
and over the large triples of ``tests/dyck_triple.py``: none may raise
``InvalidMatchingError``.
"""

import io
from contextlib import redirect_stdout

import pytest

import dyck_triple
from matchbij import (
    InvalidMatchingError,
    Matching,
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
from matchbij.formats import parse_ncn
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


def test_the_oracle_rejects_an_invalid_table(validated_builds):
    with pytest.raises(InvalidMatchingError, match="not an involution at position 0"):
        Matching._trusted(2, (1, 2, 3, 0))
    with pytest.raises(AssertionError):
        Matching._trusted(1, [1, 0])
    assert Matching._trusted(1, (1, 0)) == Matching(1, (1, 0))
    assert validated_builds[0] == 1


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
def test_dyck_triples(size, index, validated_builds):
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
