"""The functions the benchmark's traced run wraps still exist under their names.

``perfbench/traced.py`` wraps ``pcubed.<layer>.<name>`` for every entry of its
``LAYERS`` table and reads some of their arguments by name in ``COUNTERS``.
The file is parsed, not imported, so nothing of it runs here.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _assigned(name: str) -> ast.expr:
    tree = ast.parse(TRACED.read_text())
    [value] = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    return value


def _wrapped(dotted: str):
    layer, name = dotted.split(".")
    return getattr(importlib.import_module(f"pcubed.{layer}"), name, None)


def test_every_traced_layer_function_exists():
    layers = ast.literal_eval(_assigned("LAYERS"))
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not callable(_wrapped(f"{layer}.{name}"))]
    assert not missing, missing


def test_every_counter_argument_is_a_parameter():
    counters = _assigned("COUNTERS")
    for key, fn in zip(counters.keys, counters.values):
        args = {
            node.slice.value for node in ast.walk(fn.body)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "a"
        }
        params = inspect.signature(_wrapped(key.value)).parameters
        assert args <= set(params), (key.value, args - set(params))
