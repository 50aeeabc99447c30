import importlib
import pkgutil
from pathlib import Path

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


def test_benchmark_trace_hooks_resolve(monkeypatch):
    # `perfbench/run.py --trace 1` patches these attributes; a renamed or
    # deleted one would only break a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert sorted(workloads.WORKLOADS) == ["eval", "features", "match", "sweep"]
    missing = [f"{name}: {module.__name__}.{attr}"
               for name, cls in workloads.WORKLOADS.items()
               for module, attr, *_ in cls().patches()
               if not callable(getattr(module, attr, None))]
    assert missing == []
