"""The names the traced benchmark binds in hdt, read from bench/spans.py.

bench/spans.py wraps functions by name and reads some private names of
hdt.integral; a rename or a dropped argument in hdt breaks the traced run.
These tests read the tables from spans.py itself, so they follow it.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / "bench" / "spans.py"


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


def test_traced_run_counts_the_integrand():
    # the counters read the objects hdt returns: run the traced CLI call and
    # the traced bisection the benchmark runs, in a fresh interpreter
    code = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {str(SPANS_PATH.parent)!r})\n"
        "import hdt.cli, hdt.integral, spans\n"
        "from hdt.hermitian import pair_by_label\n"
        "from hdt.weights import extend_compact_coords\n"
        "rec = spans.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = hdt.cli.main(['integrate', 'sp3', '--lambda', '-7', '--output', 'json'])\n"
        "su11 = pair_by_label('su11')\n"
        "hdt.integral.empirical_threshold(su11, extend_compact_coords(su11, []))\n"
        "m = rec.summary()['metrics']\n"
        "print(json.dumps([code, m['integral.rows'], m['integral.monomials'],"
        " m['integral.probes']]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=600)
    assert res.returncode == 0, res.stderr
    code, rows, monomials, probes = json.loads(res.stdout)
    assert code == 0
    assert rows > 0 and monomials > 0 and probes > 0
