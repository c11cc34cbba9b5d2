"""The names the traced benchmark binds in hdt, read from bench/spans.py.

bench/spans.py wraps functions by name and reads some private names of
hdt.integral; a rename or a dropped argument in hdt breaks the traced run.
These tests read the tables from spans.py itself, so they follow it.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists():
    for layer, fnames in _spans().TARGETS.items():
        module = importlib.import_module(f"hdt.{layer}")
        for fname in fnames:
            assert callable(getattr(module, fname, None)), f"hdt.{layer}.{fname}"


def test_sample_count_arguments_have_int_defaults():
    spans = _spans()
    mm = importlib.import_module("hdt.matrixmodel")
    assert set(spans._MC_ARG) <= set(spans.TARGETS["matrixmodel"])
    for fname, arg in spans._MC_ARG.items():
        params = inspect.signature(getattr(mm, fname)).parameters
        assert arg in params, f"{fname} has no argument {arg!r}"
        default = params[arg].default
        assert type(default) is int, f"{fname}({arg}=...) default {default!r}"


def test_private_integral_names_exist():
    # every `integral.<name>` that spans.py reads
    tree = ast.parse(SPANS_PATH.read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "integral"}
    assert names
    integral = importlib.import_module("hdt.integral")
    for name in names:
        assert hasattr(integral, name), f"hdt.integral.{name}"
