"""CLI contract: golden files, JSON schema, exit codes, decimal parsing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hdt.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )


@pytest.mark.parametrize(
    "args,golden",
    [
        (("catalog",), "catalog.txt"),
        (("analyze", "su11"), "analyze_su11.txt"),
        (("analyze", "sp3"), "analyze_sp3.txt"),
        (("analyze", "e7vii"), "analyze_e7vii.txt"),
    ],
)
def test_golden_files(args, golden):
    res = run_cli(*args)
    assert res.returncode == 0
    assert res.stdout == (GOLDEN / golden).read_text()


def test_catalog_json_schema():
    res = run_cli("catalog", "--output", "json")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    assert len(rows) >= 20
    for row in rows:
        assert set(row) == {
            "pair", "name", "cartan", "node", "r", "a", "b", "p", "dim", "restricted",
        }
    by_label = {r["pair"]: r for r in rows}
    assert by_label["su11"] == {
        "pair": "su11", "name": "su(1,1)", "cartan": "A1", "node": 1,
        "r": 1, "a": None, "b": 0, "p": 2, "dim": 1, "restricted": "A_1-degenerate",
    }
    assert by_label["sp3"]["r"] == 3 and by_label["sp3"]["p"] == 4


def test_criterion_json_schema():
    res = run_cli("criterion", "su23", "--lambda", "-6", "--lambda0", "1,0,0",
                  "--output", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    for field in ("pair", "r", "a", "b", "p", "threshold", "exists", "checks"):
        assert field in data
    assert data["exists"] is True
    assert all(c["passed"] for c in data["checks"])


def test_exit_codes_matrix():
    # 0: success / exists
    assert run_cli("catalog").returncode == 0
    assert run_cli("criterion", "su11", "--lambda", "-2").returncode == 0
    res = run_cli("integrate", "su11", "--lambda", "-1.5", "--eps", "1e-10,1e-11,1e-12")
    assert res.returncode == 0
    # 3: criterion negative (boundary is strict, parsed as an exact decimal)
    assert run_cli("criterion", "sp2", "--lambda", "-2.0").returncode == 3
    assert run_cli("criterion", "su11", "--lambda", "-1").returncode == 3
    # 2: usage errors
    res = run_cli("analyze", "bogus")
    assert (res.returncode, res.stderr) == (2, "error: unknown pair label 'bogus'\n")
    assert run_cli("criterion", "bogus", "--lambda", "-2").returncode == 2
    assert run_cli("criterion", "su11", "--lambda", "1e-3").returncode == 2
    assert run_cli("criterion", "su22", "--lambda", "-9", "--lambda0", "1").returncode == 2
    assert run_cli("criterion", "su22", "--lambda", "-9", "--lambda0", "-1,0").returncode == 2
    assert run_cli("nonsense").returncode == 2
    # below eps = 1e-12 the scalar's tail truncations round 1 - x^2 to 0
    for bad in (("--eps", "1e-2,1e-3"), ("--eps", "1e-2,1e-2,1e-2"), ("--order", "0"),
                ("--eps", "1e-14,1e-15,1e-16"), ("--eps", "1e-12,1e-13,1e-14")):
        res = run_cli("integrate", "su11", "--lambda", "-3", *bad)
        assert res.returncode == 2, bad
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
    # 1: verification failure (tolerances scaled to impossible)
    res = run_cli("verify", "numeric", "--fast", "--seed", "1", "--tol-scale", "1e-18")
    assert res.returncode == 1
    assert "FAIL" in res.stdout


def test_cli_imports_only_numpy_and_the_standard_library():
    # start-up cost: `hdt` and `hdt verify numeric` load no other package;
    # cython_runtime and _cython_* are bookkeeping that numpy's compiled
    # extensions register
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "def loaded():\n"
        "    tops = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "    tops -= set(sys.stdlib_module_names) | {'hdt', 'numpy', 'cython_runtime'}\n"
        "    return sorted(t for t in tops if not t.startswith('_cython_'))\n"
        "import hdt.cli\n"
        "after_import = loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = hdt.cli.main(['verify', 'numeric', '--fast'])\n"
        "print(json.dumps([after_import, loaded(), code]))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=600)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [[], [], 0]


def test_verify_exact_ignores_tol_scale():
    # exact checks are true or false; the scale applies to numeric tolerances
    res = run_cli("verify", "exact", "--tol-scale", "0.5")
    assert res.returncode == 0
    assert "FAIL" not in res.stdout


def test_verify_numeric_passes_and_is_deterministic():
    a = run_cli("verify", "numeric", "--fast", "--seed", "7")
    b = run_cli("verify", "numeric", "--fast", "--seed", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert "checks passed" in a.stdout


def test_hdt_seed_env_fallback():
    a = run_cli("verify", "numeric", "--fast", env_extra={"HDT_SEED": "99"})
    b = run_cli("verify", "numeric", "--fast", "--seed", "99")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_integrate_su11_value():
    res = run_cli("integrate", "su11", "--lambda", "-3", "--output", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["classification"] == "convergent"
    # closed form: the full integral is 1/(2(-lambda-1)) = 0.25
    assert data["ladder"][-1]["estimate"] == pytest.approx(0.25, abs=1e-4)
    assert "disc normalization" in data["scalar_note"]


def test_integrate_divergent_exit_zero():
    res = run_cli("integrate", "su11", "--lambda", "0")
    assert res.returncode == 0  # a divergent verdict is a result, not an error
    assert "divergent" in res.stdout


def test_integrate_lost_precision_reports_analytic_verdict():
    # the su(3,3) ladder cancels at lambda = 0; the exponents still decide
    res = run_cli("integrate", "su33", "--lambda", "0", "--output", "json")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert data["classification"] == "divergent"
    assert data["empirical"] == "not-run"
    assert data["ladder"] == []
    assert "lost precision" in data["scalar_note"]


def test_integrate_json():
    res = run_cli("integrate", "sp2", "--lambda", "-4", "--output", "json")
    data = json.loads(res.stdout)
    assert data["classification"] == "convergent"
    assert len(data["ladder"]) == 4
    assert data["formal_dimension_scalar"] is not None


def test_integrate_e7vii_rank_three():
    # threshold is -17, so -20 converges; rank 3 is inside the quadrature cap
    res = run_cli("integrate", "e7vii", "--lambda", "-20", "--output", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["classification"] == "convergent"
    assert data["min_exponent"] == pytest.approx(2.0)
    assert len(data["ladder"]) == 4
    assert "up to normalization" in data["scalar_note"]


def test_analyze_json_fields():
    res = run_cli("analyze", "sostar10", "--output", "json")
    data = json.loads(res.stdout)
    assert data["pair"] == "sostar10"
    assert data["gammas"] and all(isinstance(g, list) for g in data["gammas"])
    assert data["p"] == 8


def test_alias_label_accepted():
    res = run_cli("analyze", "e6iii")
    assert res.returncode == 0
    assert "e3iii" in res.stdout


def test_verify_json_schema():
    res = run_cli("verify", "numeric", "--fast", "--seed", "2", "--output", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["seed"] == 2
    assert data["failed"] == 0
    for check in data["checks"]:
        assert set(check) == {"name", "passed", "residual", "tolerance", "detail"}
