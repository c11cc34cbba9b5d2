"""The aggregated verification suites behind `hdt verify`."""

from hdt.suite import run_exact_suite, run_numeric_suite, run_suite


def test_exact_suite_all_pass():
    results = run_exact_suite()
    failed = [r.name for r in results if not r.passed]
    assert not failed, failed
    names = " ".join(r.name for r in results)
    assert "rho identities" in names
    assert "weight bound" in names
    assert "criterion forms agree" in names


def test_numeric_suite_all_pass_and_deterministic():
    a = run_numeric_suite(seed=11, triples=50)
    b = run_numeric_suite(seed=11, triples=50)
    assert all(r.passed for r in a), [r.name for r in a if not r.passed]
    assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]


def test_tolerance_scale_forces_failures():
    results = run_numeric_suite(seed=11, tol_scale=1e-18, triples=20)
    assert any(not r.passed for r in results)


def test_scope_selection():
    exact_only = run_suite("exact")
    assert all("su" in r.name or ":" in r.name for r in exact_only)
    numeric_only = run_suite("numeric", seed=1, fast=True)
    assert any("cocycle" in r.name for r in numeric_only)
