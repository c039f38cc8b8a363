"""The benchmark harness still finds every layer it times in dynsub."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
_TARGETS = sorted({(module, attr) for module, attr, _ in _tracer.LAYER_TARGETS + _tracer.PHASE_TARGETS})


@pytest.mark.parametrize("module, attr", _TARGETS, ids=[f"{m}:{a}" for m, a in _TARGETS])
def test_traced_target_resolves(module, attr):
    # Tracer.install looks the leaf up in its owner's own __dict__, so a
    # renamed function, method or import fails here instead of in a traced run
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert leaf in vars(owner), f"{module}.{attr} is gone"
    assert callable(vars(owner)[leaf])
