"""Every name a ``repro`` module exports must resolve.

A deletion that leaves a stale entry in some ``__all__`` breaks
``from repro.x import *`` for every user; walking the package with
:func:`pkgutil.walk_packages` (as the doctest wiring does) catches it here.
"""

import functools
import importlib
import json
import pkgutil

import pytest

import repro

from ..conftest import run_python

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


# ----------------------------------------------------------------------
# lazy packages: each checked in a fresh interpreter
# ----------------------------------------------------------------------
PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.") if info.ispkg
)
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(repro.__path__))

#: Runs in a fresh interpreter with ``package`` bound; prints what it saw.
PROBE = """
import json, pickle, sys

def loaded():
    return {name for name in sys.modules if name.startswith("repro")}

pkg = __import__(package, fromlist=["_"])
facts = {"loaded_by_init": sorted(loaded())}
facts["eager"] = sorted(name for name in pkg.__all__ if name in vars(pkg))
facts["dir"] = dir(pkg)
before = loaded()
try:
    getattr(pkg, "no_such_name")
except AttributeError:
    facts["missing"] = "AttributeError"
facts["hasattr"] = hasattr(pkg, "no_such_name")
facts["loaded_by_missing"] = sorted(loaded() - before)
values = {name: getattr(pkg, name) for name in pkg.__all__}
facts["classes_pickled"] = sorted(
    name for name, value in values.items()
    if isinstance(value, type) and pickle.loads(pickle.dumps(value)) is value
)
facts["classes"] = sorted(name for name, value in values.items() if isinstance(value, type))
if package == "repro":
    facts["submodules"] = sorted(
        name for name in submodules if getattr(pkg, name) is sys.modules["repro." + name]
    )
    spec = pickle.loads(pickle.dumps(pkg.BatterySpec(beta=0.273)))
    facts["instance"] = spec == pkg.BatterySpec(beta=0.273)
print(json.dumps(facts))
"""


@functools.lru_cache(maxsize=None)
def probe(package):
    out = run_python(f"package = {package!r}\nsubmodules = {SUBMODULES!r}\n{PROBE}")
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("package", PACKAGES)
def test_a_lazy_package_exports_exactly_its_all(package):
    module = importlib.import_module(package)
    facts = probe(package)
    # The init loads no submodule, and only the eagerly defined version
    # string is in the namespace before first use.
    assert facts["loaded_by_init"] == sorted({"repro", package})
    assert facts["eager"] == (["__version__"] if package == "repro" else [])
    # dir() lists every exported name, and no public name beyond them
    # (and, for the top-level package, its submodules).
    assert set(module.__all__) <= set(facts["dir"])
    public = {name for name in facts["dir"] if not name.startswith("_")}
    extra = set(SUBMODULES) if package == "repro" else set()
    assert public == {name for name in module.__all__ if not name.startswith("_")} | extra


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_raises_and_imports_nothing(package):
    facts = probe(package)
    assert facts["missing"] == "AttributeError"
    assert facts["hasattr"] is False
    assert facts["loaded_by_missing"] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_exported_classes_pickle_by_reference(package):
    facts = probe(package)
    assert facts["classes_pickled"] == facts["classes"]
    if package == "repro":
        assert facts["instance"] is True


def test_every_submodule_resolves_as_an_attribute_of_repro():
    facts = probe("repro")
    assert facts["submodules"] == SUBMODULES
    assert len(SUBMODULES) >= 14
