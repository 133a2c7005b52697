import importlib
import pkgutil

import pytest

import ncgeo

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(ncgeo.__path__))


def test_package_imports():
    assert importlib.reload(ncgeo).__version__


@pytest.mark.parametrize("name", SUBMODULES)
def test_export_list_resolves(name):
    mod = importlib.import_module(f"ncgeo.{name}")
    missing = [entry for entry in getattr(mod, "__all__", []) if not hasattr(mod, entry)]
    assert missing == []
