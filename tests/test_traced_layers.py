"""The benchmark's per-layer groups name functions that exist."""
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    # compiled from the source text, so that no bytecode is written beside it
    module = types.ModuleType("perfbench_spans")
    sys.modules[module.__name__] = module  # the dataclasses look their module up
    try:
        exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("metric", sorted(SPANS.GROUPS))
def test_every_traced_group_names_public_functions_of_its_layer(metric):
    # the tracer wraps only public module-level functions defined in a layer;
    # a name it cannot find would leave the metric at zero without an error
    layer = metric.split(".")[0]
    assert layer in SPANS.LAYERS
    module = importlib.import_module(f"polariton.{layer}")
    for name in sorted(SPANS.GROUPS[metric]):
        fn = getattr(module, name, None)
        assert not name.startswith("_"), name
        assert inspect.isfunction(fn), f"polariton.{layer}.{name} is not a function"
        assert fn.__module__ == module.__name__, f"{name} is not defined in polariton.{layer}"
