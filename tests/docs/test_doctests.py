"""Tier-1 wiring for the package's doctests.

Every ``repro`` module whose docstrings carry examples is discovered with
:func:`pkgutil.walk_packages` and run here, so plain ``pytest -x -q`` covers
exactly what the CI docs job (``pytest --doctest-modules src/repro``) runs,
with no hand-kept module list to drift.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro

_FINDER = doctest.DocTestFinder()


def _has_examples(module) -> bool:
    return any(test.examples for test in _FINDER.find(module))


DOCUMENTED_MODULES = [
    module
    for module in [repro]
    + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    if _has_examples(module)
]


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    # ELLIPSIS is pytest's default ``doctest_optionflags``, so both runners
    # judge an example the same way.
    results = doctest.testmod(module, optionflags=doctest.ELLIPSIS, verbose=False)
    assert results.failed == 0, (
        f"{module.__name__} has {results.failed} failing doctest(s)"
    )


def test_documented_modules_actually_have_examples():
    """Guard against the doctest gate silently going vacuous."""
    total = sum(
        len([t for t in _FINDER.find(module) if t.examples])
        for module in DOCUMENTED_MODULES
    )
    assert total >= 15
