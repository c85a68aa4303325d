"""Every name a ``repro`` module exports must resolve.

A deletion that leaves a stale entry in some ``__all__`` breaks
``from repro.x import *`` for every user; walking the package with
:func:`pkgutil.walk_packages` (as the doctest wiring does) catches it here.
"""

import importlib
import pkgutil

import repro

MODULES = [repro] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
]


def test_every_exported_name_resolves():
    checked = 0
    missing = []
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, name):
                missing.append(f"{module.__name__}.{name}")
    assert missing == []
    # Guard against the check silently going vacuous.
    assert checked >= 500


def test_no_module_exports_a_name_twice():
    repeated = []
    for module in MODULES:
        names = list(getattr(module, "__all__", ()))
        repeated.extend(
            f"{module.__name__}.{name}" for name in set(names) if names.count(name) > 1
        )
    assert sorted(repeated) == []


def test_star_import_of_every_package_succeeds():
    for module in MODULES:
        if hasattr(module, "__all__"):
            namespace = {}
            exec(f"from {module.__name__} import *", namespace)
            assert set(module.__all__) <= set(namespace)

