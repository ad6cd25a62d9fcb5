import importlib

import matchbij
from matchbij import (
    ClassKey,
    HairpinDecomposition,
    SwapStep,
    class_key,
    find_inflated_hairpin,
    from_pairs,
    swap_sequence,
)

MODULES = ["core", "lp", "bijections", "similarity", "enumeration", "formats", "render"]


def test_public_names_are_the_module_lists():
    expected = [name for module in MODULES
                for name in importlib.import_module(f"matchbij.{module}").__all__]
    assert matchbij.__all__ == expected
    assert len(set(matchbij.__all__)) == len(matchbij.__all__)


def test_every_public_name_resolves():
    for module in MODULES:
        source = importlib.import_module(f"matchbij.{module}")
        for name in source.__all__:
            assert getattr(matchbij, name) is getattr(source, name), name
    assert callable(matchbij.render)


def test_returned_values_are_named_tuples():
    # Equal to the plain tuple of their fields, with the field-naming repr.
    assert all(issubclass(t, tuple) for t in (ClassKey, HairpinDecomposition, SwapStep))
    key = class_key(from_pairs([(0, 1), (2, 3)], 2))
    assert key == ClassKey("LRLR", 0) == ("LRLR", 0)
    assert repr(key) == "ClassKey(lr='LRLR', ne=0)"
    d = find_inflated_hairpin(from_pairs([(0, 2), (1, 3)], 2))
    assert d == HairpinDecomposition((1,), (2,)) == ((1,), (2,))
    assert repr(d) == "HairpinDecomposition(a_side=(1,), b_side=(2,))"
    base = from_pairs([(0, 3), (1, 2)], 2)
    start, step = swap_sequence(base)
    assert start == SwapStep(None, base, (1, 2)) == (None, base, (1, 2))
    assert repr(step) == f"SwapStep(swapped=(1, 2), matching={step.matching!r}, lperm=(2, 1))"
    assert step._replace(swapped=None) == (None, step.matching, (2, 1))
