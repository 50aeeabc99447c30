import importlib
import pkgutil

import pytest

import detnum

MODULES = ["detnum"] + [f"detnum.{m.name}" for m in pkgutil.iter_modules(detnum.__path__)
                        if not m.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert mod.__all__, name
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == [], f"{name}.__all__ lists missing names {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
