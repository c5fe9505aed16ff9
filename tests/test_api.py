"""The public API is ``casimirgrav.__all__``: the ``__all__`` of the library
modules, each listing only names that module defines, re-exported once."""

import inspect

import pytest

import casimirgrav
from casimirgrav import cavity, errors, numerics, regularization, weakfield

MODULES = (cavity, errors, numerics, regularization, weakfield)

# defined in their module and importable from it, but not re-exported
HELPERS = [
    (cavity, "METRIC_DIAGONAL"), (cavity, "check_geometry"),
    (errors, "check_integer"), (errors, "check_finite"), (errors, "check_normal"),
    (errors, "FrozenValue"), (numerics, "relative_discrepancy"),
]


def test_all_is_every_public_top_level_name():
    names = casimirgrav.__all__
    assert len(names) == len(set(names)) == 38
    public = {name for name in dir(casimirgrav)
              if not name.startswith("_") and not inspect.ismodule(getattr(casimirgrav, name))}
    assert set(names) == public
    namespace = {}
    exec("from casimirgrav import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(names)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_module_lists_only_what_it_defines(module):
    for name in module.__all__:
        value = getattr(module, name)
        assert value.__module__ == module.__name__, name
        assert getattr(casimirgrav, name) is value


@pytest.mark.parametrize("module, name", HELPERS, ids=[name for _, name in HELPERS])
def test_helpers_are_importable_from_their_module_only(module, name):
    assert hasattr(module, name) and name not in module.__all__
    assert not hasattr(casimirgrav, name)
