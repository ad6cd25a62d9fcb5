import importlib

import matchbij

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
