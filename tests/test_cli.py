"""CLI contract: golden files, JSON schema, exit codes, decimal parsing."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hdt.criterion import hc_threshold
from hdt.hermitian import pair_by_label
from hdt.weights import extend_compact_coords

GOLDEN = Path(__file__).parent / "golden"


def _reject_constant(constant):
    raise ValueError(f"non-JSON constant {constant}")


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


def run_cli_into_closed_pipe(*args):
    """Run the CLI with a stdout whose reader has already gone."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "hdt.cli", *args], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=600)
    finally:
        os.close(write_end)


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
    # argparse takes a spaced negative Lambda0 for an option; the message names the "=" form
    res = run_cli("criterion", "su22", "--lambda", "-9", "--lambda0", "-1,0")
    assert (res.returncode, res.stderr) == (2, "error: argument --lambda0: expected one "
                                               "argument (write a negative value as "
                                               "--lambda0=-1,0)\n")
    # argparse's own errors (bad command, missing option, bad type) are one line too
    for bad in (("nonsense",), ("criterion", "su11"), ("verify", "numeric", "--seed", "abc")):
        res = run_cli(*bad)
        assert res.returncode == 2, bad
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
    # eps = 1e-12 is the documented floor of the --eps range; the ladder has
    # no quadrature order, so --order is an unknown option
    for bad in (("--eps", "1e-2,1e-3"), ("--eps", "1e-2,1e-2,1e-2"), ("--order", "0"),
                ("--order", "129"), ("--order", "1000000"),
                ("--eps", "1e-14,1e-15,1e-16"), ("--eps", "1e-12,1e-13,1e-14")):
        res = run_cli("integrate", "su11", "--lambda", "-3", *bad)
        assert res.returncode == 2, bad
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
    # a lambda or lambda0 that puts the margin threshold - lambda beyond the double range
    big = "1" + "0" * 399
    for cmd in ("criterion", "integrate"):
        for bad in ((f"--lambda={big}",), (f"--lambda=-{big}",), ("--lambda=-5", f"--lambda0={big},0")):
            res = run_cli(cmd, "su22", *bad)
            assert res.returncode == 2, (cmd, bad)
            assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
    # 0: a Lambda0 whose formal dimension scalar (or dim tau's digits) leaves the
    # double range, one below the threshold: strict JSON, the scalar null when
    # it lies beyond the range, and the same inputs as tables
    for label, lam0, in_range in (("su14", "10^300,0,0", False),
                                  ("e3iii", "0,0,10^300,0,0", True),
                                  ("su12", "10^400", False)):
        coords = [10 ** int(c[3:]) if c.startswith("10^") else int(c) for c in lam0.split(",")]
        pr = pair_by_label(label)
        lam = hc_threshold(pr, extend_compact_coords(pr, coords)) - 1
        argv = ("integrate", label, f"--lambda={lam}", "--lambda0=" + ",".join(map(str, coords)))
        res = run_cli(*argv, "--output", "json")
        assert (res.returncode, res.stderr) == (0, ""), (label, res.stderr)
        data = json.loads(res.stdout, parse_constant=_reject_constant)
        assert data["classification"] == "convergent" and data["min_exponent"] == 0.0
        scalar = data["formal_dimension_scalar"]
        assert (scalar is not None) == in_range, (label, scalar)
        assert scalar is None or 0.0 < scalar < math.inf
        assert ("formal dimension scalar beyond the double range" in data["scalar_note"]) != in_range
        res = run_cli(*argv)
        assert (res.returncode, res.stderr) == (0, ""), (label, res.stderr)
    # a bad --tol-scale, or a bad seed in any scope, is refused before any check runs
    bad_verify = [(("numeric", "--fast", "--tol-scale", v), None) for v in ("nan", "inf", "0", "-1")]
    bad_verify += [(("numeric", "--fast", "--seed", "-1"), None),
                   (("exact", "--seed", "-1"), None),
                   (("numeric", "--fast"), {"HDT_SEED": "abc"})]
    for bad, env in bad_verify:
        res = run_cli("verify", *bad, env_extra=env)
        assert res.returncode == 2, (bad, env)
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
    # 1: verification failure (tolerances scaled to impossible)
    res = run_cli("verify", "numeric", "--fast", "--seed", "1", "--tol-scale", "1e-18")
    assert res.returncode == 1
    assert "FAIL" in res.stdout
    # 0: the disc checks are deterministic, so no seed misses their tolerance
    assert run_cli("verify", "numeric", "--fast", "--seed", "584098").returncode == 0
    # 141: stdout closed by its reader, reported by the exit code alone
    for args in (("catalog",), ("verify", "exact")):
        res = run_cli_into_closed_pipe(*args)
        assert (res.returncode, res.stderr) == (141, ""), args


@pytest.mark.parametrize("coords,message,cli_arg", [
    ((Fraction(1, 2), 0), "lambda0 must be integral, got 1/2 at node 1", None),
    ((-1, 0), "lambda0 must be dominant, got -1 at node 1", "-1,0"),
    ((1,), "su22 needs 2 lambda0 coordinates (compact nodes [1, 3]), got 1", "1"),
], ids=["half", "negative", "length"])
def test_lambda0_rules_give_one_message_on_every_path(capsys, coords, message, cli_arg):
    import hdt.cli
    from hdt.criterion import HighestWeightInput
    from hdt.weights import extend_compact_coords, weight_system

    pr = hdt.cli.pair_by_label("su22")
    paths = [lambda: extend_compact_coords(pr, coords)]
    if len(coords) == 2:
        full = (coords[0], 0, coords[1])  # su22's distinguished node is node 2
        paths += [lambda: HighestWeightInput(pr, full, -9), lambda: weight_system(pr, full)]
    for path in paths:
        with pytest.raises(ValueError) as exc:
            path()
        assert str(exc.value) == message
    if cli_arg:
        # written with "=": argparse reads "--lambda0 -1,0" as a missing value
        assert hdt.cli.main(["criterion", "su22", "--lambda", "-9", f"--lambda0={cli_arg}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("cmd", ["criterion", "integrate"])
def test_a_number_longer_than_python_prints_is_refused_in_one_line(capsys, cmd):
    # past sys.get_int_max_str_digits() (4 300) Python's own error named
    # sys.set_int_max_str_digits(); with 4 299 or 4 300 decimal places the
    # value parsed and then failed to print (exit 4)
    import hdt.cli

    limit = sys.get_int_max_str_digits()
    for places in (limit - 4, limit - 3, limit - 1, limit, limit + 700):
        lam = "-13." + "7" * places
        code = hdt.cli.main([cmd, "su22", f"--lambda={lam}", "--output", "json"])
        out, err = capsys.readouterr()
        if len(lam) <= limit:
            assert code == 0 and json.loads(out)["lambda"].startswith("-"), err
        else:
            assert (code, out) == (2, "")
            assert err == f"error: lambda is {len(lam)} characters long; at most {limit} are accepted\n"
    entry = "1" * (limit + 1)
    assert hdt.cli.main([cmd, "su22", "--lambda=-20", f"--lambda0={entry},0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: a lambda0 entry is {limit + 1} characters long; "
                   f"at most {limit} are accepted\n")


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


def test_exact_commands_load_neither_numpy_nor_the_matrix_model():
    # the structure commands, the eps ladder and the threshold search compute
    # in exact and decimal arithmetic; only the numeric suite pays for numpy
    code = (
        "import contextlib, io, json, sys\n"
        "def heavy():\n"
        "    return [m for m in ('numpy', 'hdt.matrixmodel') if m in sys.modules]\n"
        "import hdt\n"
        "steps = [['import hdt', 0, heavy()]]\n"
        "import hdt.cli\n"
        "steps.append(['import hdt.cli', 0, heavy()])\n"
        "for argv in (['catalog'], ['analyze', 'e7vii'],\n"
        "             ['criterion', 'su44', '--lambda', '-10', '--lambda0', '1,0,0,0,0,1'],\n"
        "             ['verify', 'exact'],\n"
        "             ['integrate', 'su11', '--lambda', '-3'],\n"
        "             ['verify', 'numeric', '--fast']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = hdt.cli.main(argv)\n"
        "    steps.append([argv[0], code, heavy()])\n"
        "    if argv[0] == 'integrate':\n"
        "        from hdt.integral import empirical_threshold\n"
        "        su22 = hdt.cli.pair_by_label('su22')\n"
        "        found = empirical_threshold(su22, hdt.cli.extend_compact_coords(su22, [0, 0]))\n"
        "        steps.append(['threshold', round(found), heavy()])\n"
        "print(json.dumps(steps))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=600)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [
        ["import hdt", 0, []],
        ["import hdt.cli", 0, []],
        ["catalog", 0, []],
        ["analyze", 0, []],
        ["criterion", 0, []],
        ["verify", 0, []],
        ["integrate", 0, []],
        ["threshold", -3, []],
        ["verify", 0, ["numpy", "hdt.matrixmodel"]],
    ]


@pytest.mark.parametrize("module,absent", [
    ("hdt.cli", ("dataclasses", "traceback", "numpy")),
    ("hdt.matrixmodel", ("dataclasses", "traceback")),
], ids=["hdt.cli", "hdt.matrixmodel"])
def test_start_up_imports_neither_dataclasses_nor_traceback(module, absent):
    # start-up cost: dataclasses imports inspect, ast and dis, and generates
    # the code of each record; traceback serves HDT_DEBUG alone
    code = f"import sys, {module}; print([m for m in {absent!r} if m in sys.modules])"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=600)
    assert (res.returncode, res.stdout) == (0, "[]\n"), res.stderr


@pytest.mark.parametrize("debug", [False, True], ids=["plain", "HDT_DEBUG"])
def test_unexpected_exception_exits_4(monkeypatch, capsys, debug):
    import hdt.cli

    def crash(args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(hdt.cli, "cmd_catalog", crash)
    if debug:
        monkeypatch.setenv("HDT_DEBUG", "1")
    else:
        monkeypatch.delenv("HDT_DEBUG", raising=False)
    assert hdt.cli.main(["catalog"]) == 4
    err = capsys.readouterr().err
    assert err.endswith("error: internal: ZeroDivisionError: boom\n")
    if debug:
        assert err.startswith("Traceback (most recent call last):")
    else:
        assert err.count("\n") == 1


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
    # the su(3,3) ladder at lambda = 0 cancelled in the quadrature sweep; the
    # exact ladder runs, and its verdict agrees with the exponents'
    res = run_cli("integrate", "su33", "--lambda", "0", "--output", "json")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert data["classification"] == "divergent"
    assert data["empirical"] == "divergent"
    values = [rung["estimate"] for rung in data["ladder"]]
    assert len(values) == 4 and all(0 < a < b for a, b in zip(values, values[1:]))
    assert data["scalar_note"] is None and data["formal_dimension_scalar"] is None


def test_integrate_rank_one_json_keeps_the_not_run_reason(capsys):
    # su(1,2) with dim tau 10 002 is above the trace budget; the JSON note
    # carries that reason and the disc normalization both
    import hdt.cli

    argv = ["integrate", "su12", "--lambda", "-10010", "--lambda0", "10001", "--output", "json"]
    assert hdt.cli.main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["empirical"] == "not-run"
    assert "above the trace budget" in data["scalar_note"]
    assert "disc normalization" in data["scalar_note"]


def test_integrate_json():
    res = run_cli("integrate", "sp2", "--lambda", "-4", "--output", "json")
    data = json.loads(res.stdout)
    assert data["classification"] == "convergent"
    assert len(data["ladder"]) == 4
    assert data["formal_dimension_scalar"] is not None


def test_integrate_json_without_ladder_is_strict_json():
    # above the rank cap (sp5) and above the trace budget (su22 with dim tau
    # 10 001) the ladder does not run: its leading term is null
    for args in (("sp5", "--lambda", "-20"), ("su22", "--lambda", "-20", "--lambda0", "10000,0")):
        res = run_cli("integrate", *args, "--output", "json")
        assert res.returncode == 0
        data = json.loads(res.stdout, parse_constant=_reject_constant)
        assert data["empirical"] == "not-run"
        assert data["leading_exponent"] is None and data["leading_log_power"] is None


def test_integrate_reports_the_exact_leading_term(capsys):
    # sp(3) at Lambda0 = (1, 0): lambda_c = -4, so 3/8 below it the integral
    # approaches its limit like delta^(3/8), and at lambda_c it diverges like ln delta
    import hdt.cli

    for lam, exponent, log_power, verdict in (("-4.375", "3/8", 0, "convergent"),
                                              ("-4", "0", 1, "divergent")):
        argv = ["integrate", "sp3", f"--lambda={lam}", "--lambda0=1,0"]
        assert hdt.cli.main([*argv, "--output", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["leading_exponent"], data["leading_log_power"]) == (exponent, log_power)
        assert data["empirical"] == data["classification"] == verdict
        assert hdt.cli.main(argv) == 0
        out = capsys.readouterr().out
        assert (f"leading term: delta^({exponent}) (ln delta)^{log_power}, "
                "delta = 1 - (1-eps)^2\n") in out


@pytest.mark.parametrize("lam,verdict", [("-1000010", "convergent"), ("-10", "divergent")])
def test_integrate_above_the_trace_budget_enumerates_nothing(monkeypatch, capsys, lam, verdict):
    # dim tau = 1 000 001: the verdict, the smallest exponent and the value
    # come from the criterion and the closed form, and the ladder is not run
    import hdt.cli
    import hdt.integral
    from hdt.integral import MAX_TRACE_DIM, closed_form_integral

    def refuse(*args, **kwargs):
        raise AssertionError("weights enumerated")

    monkeypatch.setattr(hdt.cli, "weight_multiplicities", refuse)
    monkeypatch.setattr(hdt.integral, "weight_multiplicities", refuse)
    argv = ["integrate", "su22", "--lambda", lam, "--lambda0", "1000000,0"]
    assert hdt.cli.main([*argv, "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    note = (f"dim tau 1000001 above the trace budget ({MAX_TRACE_DIM}); "
            "analytic classification only")
    assert data["classification"] == verdict
    assert data["empirical"] == "not-run" and data["ladder"] == []
    assert data["min_exponent"] == -1000003 - int(lam) - 1
    assert data["scalar_note"] == note
    if verdict == "convergent":
        pr = hdt.cli.pair_by_label("su22")
        lam0 = hdt.cli.extend_compact_coords(pr, [1000000, 0])
        assert data["formal_dimension_scalar"] == closed_form_integral(pr, lam0, int(lam))
    else:
        assert data["formal_dimension_scalar"] is None
    assert hdt.cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "dim tau: 1000001  min exponent:" in out and "weights in trace" not in out
    assert note in out and f"classification: {verdict}" in out


def test_integrate_above_the_rank_cap_enumerates_nothing(monkeypatch, capsys):
    # sp5 has r = 5: the rank cap is checked before the weights, as the budget is
    import hdt.cli
    import hdt.integral

    def refuse(*args, **kwargs):
        raise AssertionError("weights enumerated")

    monkeypatch.setattr(hdt.cli, "weight_multiplicities", refuse)
    monkeypatch.setattr(hdt.integral, "weight_multiplicities", refuse)
    argv = ["integrate", "sp5", "--lambda", "-20", "--lambda0", "1,0,0,0"]
    note = "rank above quadrature cap (4); analytic classification only"
    assert hdt.cli.main([*argv, "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification"] == "convergent" and data["empirical"] == "not-run"
    assert data["scalar_note"] == note and data["formal_dimension_scalar"] > 0
    assert hdt.cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "dim tau: 5  min exponent:" in out and "weights in trace" not in out
    assert note in out


def test_integrate_e7vii_rank_three():
    # threshold is -17, so -20 converges; rank 3 is inside the quadrature cap
    res = run_cli("integrate", "e7vii", "--lambda", "-20", "--output", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["classification"] == "convergent"
    assert data["min_exponent"] == pytest.approx(2.0)
    assert len(data["ladder"]) == 4
    # Selberg's S_3(1, 3, 4) / (3! 2^3): every Gamma argument is an integer
    assert data["formal_dimension_scalar"] == pytest.approx(1 / 1797624148320, rel=1e-14)
    assert data["scalar_note"] is None


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
