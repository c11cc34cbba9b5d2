"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and runtime budget is pinned here; the exact-arithmetic
criteria run at zero tolerance.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from hdt import matrixmodel as mm
from hdt.cascade import restricted_root_data, verify_rho_identities
from hdt.criterion import HighestWeightInput, hc_condition, hc_threshold, reduction_trace
from hdt.hermitian import catalog, pair_by_label, partition_roots
from hdt.integral import IntegralSpec, empirical_threshold, integrate
from hdt.weights import (
    compact_fundamental_weights,
    extend_compact_coords,
    verify_weight_bound,
    weight_system,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} {detail}")
    assert ok, f"acceptance criterion {n} failed: {detail}"


def _zero(pair):
    return extend_compact_coords(pair, [0] * (pair.root_system.rank - 1))


def test_acceptance_1_exact_identity_suite():
    t0 = time.monotonic()
    pairs = catalog()
    assert len(pairs) >= 20
    for pr in pairs:
        rd = restricted_root_data(pr)
        rep = verify_rho_identities(pr)  # raises unless exact
        assert rd.p == (rd.r - 1) * rd.a + rd.b + 2
        assert rep.rho_on_h_r == rd.p - 1
        assert all(v == rd.p for v in rep.two_rho_n_on_h)
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 30.0,
            f"- genus and rho identities exact on {len(pairs)} pairs in {elapsed:.2f}s")


def test_acceptance_2_closed_forms_vs_bookkeeping_oracle():
    checked = 0
    for pr in catalog():
        rd = restricted_root_data(pr)  # exhaustive root classification
        part = partition_roots(pr)
        # dimension bookkeeping must hold exactly for every pair
        assert len(part.noncompact_pos) == rd.r + rd.a * rd.r * (rd.r - 1) // 2 + rd.b * rd.r
        label = pr.label
        if label.startswith("su"):
            p, q = int(label[2]), int(label[3])
            assert (rd.r, rd.b, rd.p) == (min(p, q), abs(p - q), p + q)
            if rd.a_defined:
                assert rd.a == 2
            checked += 1
        elif label.startswith("sp"):
            n = int(label[2:])
            assert (rd.r, rd.a, rd.b, rd.p) == (n, 1, 0, n + 1)
            checked += 1
    evii = restricted_root_data(pair_by_label("e7vii"))
    assert 27 == evii.r + evii.a * evii.r * (evii.r - 1) // 2 + evii.b * evii.r == 3 + 24 + 0
    _report(2, True, f"- closed forms on {checked} su/sp pairs, bookkeeping on all")


def test_acceptance_3_criterion_equivalence_grid():
    offsets = (Fraction(-3), Fraction(-1), Fraction(-1, 4), Fraction(0),
               Fraction(1, 4), Fraction(1), Fraction(3))
    samples = 0
    for pr in catalog():
        lam0s = [_zero(pr)]
        fws = compact_fundamental_weights(pr)
        if fws:
            lam0s.append(fws[0])
        for lam0 in lam0s:
            thr = hc_threshold(pr, lam0)
            for off in offsets:
                v = hc_condition(HighestWeightInput(pr, lam0, thr + off))
                assert v.exists == v.original_form_exists  # also asserted internally
                assert v.exists == (off < 0)
                samples += 1
        for entry in reduction_trace(HighestWeightInput(pr, _zero(pr), 0)):
            assert all(m >= 0 for m in entry.expansion)
    _report(3, samples >= 500, f"- {samples} grid samples, 100% agreement, traces non-negative")


def test_acceptance_4_weight_bound_exhaustive():
    t0 = time.monotonic()
    n_pairs = 0
    n_weights = 0
    for pr in catalog():
        if pr.root_system.rank > 6:
            continue
        n_pairs += 1
        lam0s = [_zero(pr)] + list(compact_fundamental_weights(pr)[:3])
        for lam0 in lam0s:
            ws = weight_system(pr, lam0)
            verify_weight_bound(pr, ws)  # raises on any violation (exact)
            n_weights += len(ws.weights)
    elapsed = time.monotonic() - t0
    _report(4, n_pairs > 0,
            f"- {n_pairs} pairs, {n_weights} weights checked exactly in {elapsed:.2f}s")


def test_acceptance_5_quadrature_closed_form():
    t0 = time.monotonic()
    worst = 0.0
    for lam in (-1.5, -2.0, -3.0, -5.0):
        spec = IntegralSpec(r=1, a=0, b=0, exponents=((-lam - 2.0,),), multiplicities=(1,))
        val = integrate(spec, 1e-14)
        exact = 1.0 / (2.0 * (-lam - 1.0))
        worst = max(worst, abs(val - exact) / exact)
    elapsed = time.monotonic() - t0
    _report(5, worst <= 1e-6 and elapsed < 5.0,
            f"- worst relative error {worst:.2e} in {elapsed:.2f}s")


def test_acceptance_6_empirical_threshold_recovery():
    t0 = time.monotonic()
    worst = 0.0
    cases = []
    for label in ("su11", "su22", "sp2", "sp3", "so2_5"):
        pr = pair_by_label(label)
        lam0s = [_zero(pr)]
        fws = compact_fundamental_weights(pr)
        if fws:
            lam0s.append(fws[0])
        for lam0 in lam0s:
            emp = empirical_threshold(pr, lam0, tol=0.05)
            exact = float(hc_threshold(pr, lam0))
            err = abs(emp - exact)
            worst = max(worst, err)
            cases.append(f"{label}:{err:.3f}")
            assert err <= 0.05, (label, lam0, emp, exact)
    elapsed = time.monotonic() - t0
    _report(6, elapsed < 300.0,
            f"- worst deviation {worst:.3f} over {len(cases)} cases in {elapsed:.1f}s")


def test_acceptance_7_matrix_model_residuals():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)

    sl2 = max(mm.verify_sl2_identity(t) for t in np.linspace(-5, 5, 101))
    assert sl2 < 1e-12, sl2

    worst_cocycle = 0.0
    for (p, q) in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        for _ in range(1000):
            g1, g2 = mm.random_su(rng, p, q), mm.random_su(rng, p, q)
            z = mm.random_domain_point(rng, p, q)
            f12 = mm.hc_factorize(g1 @ g2, z)
            f2 = mm.hc_factorize(g2, z)
            f1 = mm.hc_factorize(g1, f2.w)
            scale = max(1.0, float(np.max(np.abs(f12.k_plus))),
                        float(np.max(np.abs(f12.k_minus))))
            worst_cocycle = max(
                worst_cocycle,
                float(np.max(np.abs(f1.k_plus @ f2.k_plus - f12.k_plus))) / scale,
                float(np.max(np.abs(f1.k_minus @ f2.k_minus - f12.k_minus))) / scale,
            )
    assert worst_cocycle < 1e-10, worst_cocycle

    _, _, jac_rel = mm.jacobian_at_origin(2, 2, rng.uniform(-1.5, 1.5, 2))
    assert jac_rel < 1e-6
    _, _, jac_rel11 = mm.jacobian_at_origin(1, 1, [1.0])
    assert jac_rel11 < 1e-6

    worst_kernel = 0.0
    for power in (2, 3, 5):
        g = mm.random_su(rng, 1, 1)
        z = mm.random_domain_point(rng, 1, 1)
        w = mm.random_domain_point(rng, 1, 1)
        res = mm.verify_kernel_transformation(g, z, w, power)
        worst_kernel = max(worst_kernel, res["transform"])
    assert worst_kernel < 1e-10, worst_kernel

    cay = max(mm.cayley_verify(1, 1, 1), mm.cayley_verify(2, 2, 2))
    assert cay < 1e-10, cay

    elapsed = time.monotonic() - t0
    _report(7, elapsed < 120.0,
            f"- sl2 {sl2:.1e}, cocycle {worst_cocycle:.1e}, jacobian {jac_rel:.1e}, "
            f"kernel {worst_kernel:.1e}, cayley {cay:.1e} in {elapsed:.1f}s")


def test_acceptance_8_reproducing_property():
    t0 = time.monotonic()
    worst = 0.0
    for k in (2, 3, 5):
        for m in range(7):
            coeffs = [0] * m + [1]
            for w in (0.0, 0.3, 0.6j):
                est, exact, err = mm.verify_reproducing_kernel_disc(k, coeffs, w)
                assert err <= 1e-12, (k, m, w, err)
                worst = max(worst, err)
    elapsed = time.monotonic() - t0
    _report(8, elapsed < 120.0,
            f"- 63 cases on the disc rule, worst error {worst:.1e} in {elapsed:.1f}s")


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hdt.cli", *args],
        capture_output=True, text=True, env=dict(os.environ), timeout=600,
    )


def test_acceptance_9_cli_contract():
    for args, golden in [
        (("catalog",), "catalog.txt"),
        (("analyze", "su11"), "analyze_su11.txt"),
        (("analyze", "sp3"), "analyze_sp3.txt"),
        (("analyze", "e7vii"), "analyze_e7vii.txt"),
    ]:
        res = _run_cli(*args)
        assert res.returncode == 0
        assert res.stdout == (GOLDEN / golden).read_text(), f"golden mismatch: {golden}"

    matrix = {
        0: ("criterion", "su11", "--lambda", "-2"),
        3: ("criterion", "sp2", "--lambda", "-2.0"),
        2: ("analyze", "bogus"),
        1: ("verify", "numeric", "--fast", "--seed", "3", "--tol-scale", "1e-18"),
    }
    for expect, args in matrix.items():
        assert _run_cli(*args).returncode == expect, args
    _report(9, True, "- golden files byte-equal, exit codes 0/1/2/3 verified")
