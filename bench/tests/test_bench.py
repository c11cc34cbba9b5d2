"""Tests of the benchmark's own checks, counters and spans.

Run from the repository root:  python -m pytest bench/tests -q

Each kind of output check gets one genuine output, which must pass, and one
deliberately corrupted copy, which must be counted as a failed op.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402


def cli_output(argv) -> tuple[int, bytes]:
    from hdt import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


def op_named(workload: str, name: str) -> ops.Op:
    return next(op for op in ops.cli_ops(workload, seed=7) if op.name == name)


def fake_pass(monkeypatch, op_list, outputs):
    """Run run.cli_pass with each op's process replaced by a canned output."""
    queue = list(outputs)

    def fake_child(argv, timeout=run.OP_TIMEOUT_S):
        code, out = queue.pop(0)
        return run.Proc(code, 0.5, 50.0, out, b"", False)

    monkeypatch.setattr(run, "run_child", fake_child)
    return run.cli_pass(op_list, trace=False)


def corrupt_json(out: bytes, **changes) -> bytes:
    data = json.loads(out)
    data.update(changes)
    return json.dumps(data).encode()


# -- one genuine and one corrupted output of each kind ---------------------------


def _golden_case():
    op = op_named("structure", "catalog")
    code, out = cli_output(op.argv)
    return op, (code, out), (code, out.replace(b"40 pairs", b"41 pairs"))


def _analyze_case():
    op = op_named("structure", "analyze so2_13 json")
    code, out = cli_output(op.argv)
    return op, (code, out), (code, corrupt_json(out, p=14))


def _criterion_case():
    op = op_named("structure", "criterion e7vii above")
    code, out = cli_output(op.argv)
    return op, (code, out), (0, out)  # exit code disagrees with lambda > threshold


def _selberg_case():
    op = op_named("quadrature", "integrate sp3 lambda0=0")
    code, out = cli_output(op.argv)
    value = json.loads(out)["formal_dimension_scalar"]
    return op, (code, out), (code, corrupt_json(out, formal_dimension_scalar=value * (1 + 1e-6)))


def _verify_case():
    op = ops._verify("numeric", 3, fast=True)
    code, out = cli_output(op.argv)
    data = json.loads(out)
    data["checks"][5]["passed"] = False
    return op, (code, out), (code, json.dumps(data).encode())


CASES = {"golden": _golden_case, "analyze": _analyze_case, "criterion": _criterion_case,
         "selberg": _selberg_case, "verify": _verify_case}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_corrupted_output_counts_as_failed(monkeypatch, kind):
    op, good, bad = CASES[kind]()
    result = fake_pass(monkeypatch, [op, op], [good, bad])
    assert [r.ok for r in result.ops] == [True, False], [r.detail for r in result.ops]


def test_criterion_wrong_threshold_fails():
    op = op_named("structure", "criterion sp7 below")
    code, out = cli_output(op.argv)
    assert checks.check_criterion(op, code, out)[0]
    assert not checks.check_criterion(op, code, corrupt_json(out, threshold="-8"))[0]


def test_corrupted_threshold_counts_as_failed(monkeypatch, tmp_path):
    exact = [ops.THRESHOLDS[case] for case in ops.THRESHOLD_CASES]
    values = [t - 0.015625 for t in exact]
    values[3] += 0.1  # one empirical threshold outside the bisection tol

    def fake_child(argv, timeout=run.OP_TIMEOUT_S):
        cases = [{"label": label, "lambda0": list(lam0), "empirical": v, "seconds": 0.1}
                 for (label, lam0), v in zip(ops.THRESHOLD_CASES, values)]
        Path(argv[3]).write_text(json.dumps({"cases": cases}))
        return run.Proc(0, 1.0, 30.0, b"", b"", False)

    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "run_child", fake_child)
    result = run.threshold_pass(trace=False)
    assert [op.ok for op in result.ops].count(False) == 1
    assert not result.ops[3].ok


def test_fail_ratio_reports_failed_over_attempted(monkeypatch, tmp_path):
    op, good, bad = _golden_case()
    outputs = [good, bad, good, good]

    def fake_child(argv, timeout=run.OP_TIMEOUT_S):
        code, out = outputs.pop(0)
        return run.Proc(code, 0.5, 50.0, out, b"", False)

    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "cli_ops", lambda workload, seed: [op] * 4)
    monkeypatch.setattr(run, "setup_seconds", lambda workload: 0.4)
    monkeypatch.setattr(run, "defect_probes", lambda workload: [])
    monkeypatch.setattr(run, "run_child", fake_child)
    rep = run.end_to_end("structure", seed=1, seconds=0.0)
    assert (rep["passes"], rep["attempted"], rep["failed"]) == (1, 4, 1)
    assert rep["extra"]["fail_ratio"] == (0.25, "1")


# -- references -----------------------------------------------------------------


def test_selberg_rank_one_closed_form():
    # rank 1: the integral of x (1 - x^2)^E over [0, 1] is 1 / (2 (E + 1))
    for lam in (-3.0, -4.5, -10.0):
        e = -lam - 2
        assert math.isclose(checks.selberg_integral(1, 0, 0, 2, lam), 1 / (2 * (e + 1)),
                            rel_tol=1e-14)


def test_threshold_table_matches_program():
    from hdt.criterion import hc_threshold
    from hdt.hermitian import pair_by_label
    from hdt.weights import extend_compact_coords

    for (label, lam0), thr in ops.THRESHOLDS.items():
        pair = pair_by_label(label)
        assert hc_threshold(pair, extend_compact_coords(pair, list(lam0))) == thr, label


def test_seed_picks_inputs_and_keeps_sides():
    a, b = ops.cli_ops("structure", 1), ops.cli_ops("structure", 2)
    assert [op.name for op in a] == [op.name for op in b]
    assert a == ops.cli_ops("structure", 1) and a != b
    for op in a:
        if op.kind == "criterion":
            below = op.expect["lambda"] < op.expect["threshold"]
            assert below == op.name.endswith("below")
    for op in ops.cli_ops("quadrature", 3):
        assert op.expect["threshold"] - op.expect["lambda"] >= 3
        assert Fraction(op.argv[op.argv.index("--lambda") + 1]) == op.expect["lambda"]


def test_cli_probe_failure_rule():
    documented = (0, 1, 2, 3)
    assert checks.cli_probe_failed(1, b"Traceback (most recent call last):\n", False, documented)
    assert checks.cli_probe_failed(0, b"", True, documented)
    assert not checks.cli_probe_failed(2, b"error: bad eps ladder\n", False, documented)
    assert checks.cli_probe_failed(1, b"", False, (0,))


# -- spans ----------------------------------------------------------------------


def test_spans_wrap_rebound_names_and_count_self_time(monkeypatch):
    import hdt.cli
    import hdt.integral
    import hdt.weights
    import spans

    saved = {m: dict(vars(m)) for m in list(sys.modules.values())
             if m is not None and m.__name__.startswith("hdt")}
    try:
        rec = spans.install()
        assert hdt.cli.weight_system is hdt.weights.weight_system
        assert hdt.integral.weight_system is hdt.weights.weight_system
        assert hdt.weights.weight_system.__wrapped__ is saved[hdt.weights]["weight_system"]
        with contextlib.redirect_stdout(io.StringIO()):
            hdt.cli.main(["integrate", "sp3", "--lambda", "-7"])
        summary = rec.summary()
    finally:
        for module, attrs in saved.items():
            vars(module).update(attrs)
    m = summary["metrics"]
    assert m["cli.main.calls"] == 1 and m["integral.build_integrand.calls"] == 1
    assert m["integral.integrate.calls"] == 6  # four ladder points, two tail points
    assert m["integral.rows"] == 1 and m["integral.distinct_rows"] == 1
    total_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert math.isclose(total_self, summary["root_s"], rel_tol=1e-9)
