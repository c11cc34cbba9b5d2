"""The whole CLI surface against its golden sweep.

`tools/cli_sweep.py` runs 735 CLI calls in process; the golden file holds
their exit codes and outputs for the current code.  A change that alters an
output regenerates it with

    python tools/cli_sweep.py tests/golden/cli_sweep.json.gz

and names the changed calls.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _cli_sweep():
    spec = importlib.util.spec_from_file_location("cli_sweep", ROOT / "tools" / "cli_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_sweep_matches_golden():
    from hdt.cli import main

    cli_sweep = _cli_sweep()
    golden = cli_sweep.read(ROOT / "tests" / "golden" / "cli_sweep.json.gz")
    records = json.loads(json.dumps(cli_sweep.sweep(main)))  # as the golden file holds them
    if records != golden:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli_sweep.diff(golden, records, "golden", "this checkout")
        pytest.fail(out.getvalue())
