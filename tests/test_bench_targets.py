"""The benchmark's tracer (``perfbench/tracer.py``) patches qlax functions
by module and attribute name.  A rename that drops one of them would crash
every traced benchmark run, so it fails here instead.  The tracer file is
only read, never imported."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    for module, attribute, span in targets:
        assert module.startswith("qlax."), span
        obj = importlib.import_module(module)
        for part in attribute.split("."):
            assert hasattr(obj, part), f"{module}.{attribute} ({span}) does not resolve"
            obj = getattr(obj, part)
        assert callable(obj), span
