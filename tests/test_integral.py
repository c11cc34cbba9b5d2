"""Quadrature correctness against closed forms and convergence classification."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdt import cli
from hdt.cascade import restricted_root_data
from hdt.criterion import HighestWeightInput, hc_condition, hc_threshold
from hdt.hermitian import catalog, pair_by_label
from hdt.integral import (
    DEFAULT_LADDER,
    DEFAULT_ORDER,
    MAX_QUADRATURE_RANK,
    MAX_TRACE_DIM,
    PROBE_ORDER,
    ConfigurationError,
    ConvergenceReport,
    IntegralOverflowError,
    IntegralSpec,
    _cumulative_matrix,
    _gauss,
    _p_monomials,
    _panels,
    _truncations,
    build_integrand,
    classify_convergence,
    closed_form_integral,
    empirical_threshold,
    integrate,
)
from hdt.weights import (
    compact_fundamental_weights,
    extend_compact_coords,
    weight_multiplicities,
    weight_system,
)


def _zero(pair):
    return extend_compact_coords(pair, [0] * (pair.root_system.rank - 1))


def _spec_r1(exponent, b=0):
    return IntegralSpec(r=1, a=0, b=b, exponents=((float(exponent),),), multiplicities=(1,))


def beta_fn(x, y):
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


@pytest.mark.parametrize("e", [0.0, 0.5, 2.0, 5.0])
@pytest.mark.parametrize("b", [0, 1, 2])
def test_beta_family_closed_form(e, b):
    # independent oracle: int_0^1 (1-x^2)^e x^(2b+1) dx = B(b+1, e+1) / 2
    val = integrate(_spec_r1(e, b=b), 1e-14)
    exact = beta_fn(b + 1, e + 1) / 2.0
    assert abs(val - exact) / exact < 1e-6


def test_su11_closed_forms():
    # int x dx = 1/2 and int (1-x^2) x dx = 1/4
    val = integrate(_spec_r1(0.0), 1e-14)
    assert val == pytest.approx(0.5, rel=1e-10)
    val = integrate(_spec_r1(1.0), 1e-14)
    assert val == pytest.approx(0.25, rel=1e-10)


def test_truncated_log_divergence():
    # exponent -1 has the closed form -log(2 eps - eps^2)/2: log growth
    vals = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        v = integrate(_spec_r1(-1.0), eps)
        assert v == pytest.approx(-0.5 * math.log(2 * eps - eps * eps), rel=1e-10)
        vals.append(v)
    increments = np.diff(vals)
    assert np.allclose(increments, math.log(10.0) / 2.0, rtol=3e-3)


def test_build_integrand_su11():
    pr = pair_by_label("su11")
    ws = weight_system(pr, _zero(pr))
    spec = build_integrand(pr, ws, -2)
    assert spec.exponents == ((0.0,),)
    assert spec.exponents == ((Fraction(0),),)
    spec = build_integrand(pr, ws, 0)
    assert spec.exponents == ((-2.0,),)


def test_scalar_case_exponents_uniform():
    for label in ("sp2", "sostar8", "e7vii"):
        pr = pair_by_label(label)
        rd = restricted_root_data(pr)
        ws = weight_system(pr, _zero(pr))
        lam = Fraction(-7, 2)
        spec = build_integrand(pr, ws, lam)
        expected = float(-lam - rd.p)
        assert all(e == expected for row in spec.exponents for e in row)


def _exists(pr, lam0, lam) -> bool:
    return hc_condition(HighestWeightInput(pr, lam0, lam)).exists


def test_classification_matches_criterion():
    # the exponent rule (finite iff every E > -1) is the criterion, and the
    # smallest exponent is lambda_c - lambda - 1 exactly: the weight bound
    # with equality at the highest weight, which `integrate` relies on
    cases = 0
    for pr in catalog():
        for lam0 in dict.fromkeys((_zero(pr), *compact_fundamental_weights(pr)[:1])):
            ws = weight_system(pr, lam0)
            thr = hc_threshold(pr, lam0)
            for off in (-1, Fraction(-1, 4), 0, Fraction(1, 4), 1):
                spec = build_integrand(pr, ws, thr + off)
                finite = all(e > -1 for row in spec.exponents for e in row)
                assert finite == _exists(pr, lam0, thr + off), (pr.label, lam0, off)
                min_e = min(min(row) for row in spec.exponents)
                assert type(min_e) is Fraction and min_e == -off - 1, (pr.label, lam0, off)
                cases += 1
    assert cases == 395
    # empirical corroboration away from the boundary
    for label in ("su11", "sp2", "su22"):
        pr = pair_by_label(label)
        ws = weight_system(pr, _zero(pr))
        thr = hc_threshold(pr, _zero(pr))
        below = classify_convergence(build_integrand(pr, ws, thr - 1))
        above = classify_convergence(build_integrand(pr, ws, thr + 1))
        assert below.empirical_classification == "convergent"
        assert above.empirical_classification == "divergent"
        assert above.fitted_slope > 0.5


def test_boundary_flagged_indeterminate():
    pr = pair_by_label("su11")
    ws = weight_system(pr, _zero(pr))
    spec = build_integrand(pr, ws, -1)
    rep = classify_convergence(spec)
    assert rep.empirical_classification == "boundary-indeterminate"
    # at the exact boundary E = -1, and the verdict is divergent (strict inequality)
    assert spec.exponents == ((-1,),)
    assert not _exists(pr, _zero(pr), -1)


def test_multiplicity_irrelevance():
    # positive integer multiplicities cannot change finiteness: the weighted
    # trace has the same exponent rows, and the ladders read the same verdict
    pr = pair_by_label("su13")
    lam0 = extend_compact_coords(pr, [1, 1])  # adjoint: has a multiplicity-2 weight
    ws = weight_system(pr, lam0)
    thr = hc_threshold(pr, lam0)
    for lam in (thr - 1, thr + 1):
        plain = build_integrand(pr, ws, lam)
        weighted = build_integrand(pr, ws, lam, with_multiplicities=True)
        assert weighted.exponents == plain.exponents
        assert sum(weighted.multiplicities) == 8 > sum(plain.multiplicities) == 7
        assert all(w >= u >= 1 for w, u in zip(weighted.multiplicities, plain.multiplicities))
        assert (classify_convergence(plain).empirical_classification
                == classify_convergence(weighted).empirical_classification
                == ("convergent" if _exists(pr, lam0, lam) else "divergent"))


@pytest.mark.parametrize("label,lam0,rows,dim", [
    ("so2_8", (1, 1, 1, 1), 7, 4096),
    ("su33", (2, 2, 2, 2), 61, 729),
], ids=["so2_8", "su33"])
def test_build_integrand_groups_rows(label, lam0, rows, dim):
    # one row per distinct exponent row, carrying the summed multiplicities
    pr = pair_by_label(label)
    ws = weight_system(pr, extend_compact_coords(pr, lam0))
    spec = build_integrand(pr, ws, -20, with_multiplicities=True)
    assert len(spec.exponents) == len(set(spec.exponents)) == rows
    assert sum(spec.multiplicities) == dim
    plain = build_integrand(pr, ws, -20)
    assert plain.exponents == spec.exponents
    assert sum(plain.multiplicities) == len(ws.weights)


def test_grouped_integral_is_the_weighted_trace():
    # the grouped spec against the trace taken one weight at a time
    pr = pair_by_label("e7vii")
    ws = weight_system(pr, extend_compact_coords(pr, (1, 0, 0, 0, 0, 1)))
    grouped = build_integrand(pr, ws, -24, with_multiplicities=True)
    assert len(grouped.exponents) < len(ws.weights)
    mults = weight_multiplicities(ws)
    trace = 0.0
    for mu in ws.weights:
        one = build_integrand(pr, ws._replace(weights=(mu,)), -24)
        assert one.multiplicities == (1,)
        trace += mults[mu] * integrate(one, 1e-3, 16)
    assert integrate(grouped, 1e-3, 16) == pytest.approx(trace, rel=1e-12)


@pytest.mark.parametrize("label,lam,value", [
    ("su11", -3, Fraction(1, 4)),
    ("sp2", Fraction(-5, 2), Fraction(1, 6)),
    ("su22", Fraction(-7, 2), Fraction(4, 45)),
], ids=["su11", "sp2", "su22"])
def test_closed_form_exact_values(label, lam, value):
    # Lambda0 = 0: su11 is 1/(2(-lambda-1)); sp2 and su22 are Selberg at E = -1/2
    pr = pair_by_label(label)
    assert closed_form_integral(pr, _zero(pr), lam) == pytest.approx(float(value), rel=1e-15)
    with pytest.raises(ValueError):
        closed_form_integral(pr, _zero(pr), hc_threshold(pr, _zero(pr)))


def test_closed_form_matches_the_finest_rung():
    # every rank <= 4 pair at Lambda0 = 0 and its first and last compact
    # fundamental weights, at 4 and 9/2 below the threshold; the finest rung
    # misses the full integral by about (1e-5)^4, far below the tolerance
    cases = 0
    for pr in catalog():
        if restricted_root_data(pr).r > MAX_QUADRATURE_RANK:
            continue
        fundamentals = compact_fundamental_weights(pr)
        for lam0 in dict.fromkeys((_zero(pr), *fundamentals[:1], *fundamentals[-1:])):
            ws = weight_system(pr, lam0)
            for lam in (hc_threshold(pr, lam0) - 4, hc_threshold(pr, lam0) - Fraction(9, 2)):
                spec = build_integrand(pr, ws, lam, with_multiplicities=True)
                quad = integrate(spec, min(DEFAULT_LADDER))
                exact = closed_form_integral(pr, lam0, lam)
                assert abs(quad - exact) <= 1e-8 * exact, (pr.label, lam0, lam, quad, exact)
                cases += 1
    assert cases == 212


def test_integrate_reports_the_closed_form_far_below_the_threshold(capsys):
    # at lambda = -10^6 the su11 ladder reads 8.73e-7 where the integral is
    # 5.0e-7; the reported value, with the disc factor, is 1/(2 pi) at any lambda
    from hdt.cli import main

    assert main(["integrate", "su11", "--lambda", "-1000000", "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["formal_dimension_scalar"] == pytest.approx(1 / (2 * math.pi), rel=1e-12)


def test_a_rung_above_the_full_integral_is_lost_precision(capsys):
    # the su11 rungs at lambda = -10^6 all read 8.73e-7, above the full
    # integral 1/(2 (10^6 - 1)), which no truncation of a positive integrand
    # can exceed
    from hdt.cli import main

    assert main(["integrate", "su11", "--lambda", "-1000000", "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["empirical"] == "not-run" and data["ladder"] == []
    assert data["increment_exponent"] is None and data["classification"] == "convergent"
    assert main(["integrate", "su11", "--lambda", "-1000000"]) == 0
    out = capsys.readouterr().out
    assert ("quadrature lost precision: truncated values 8.73e-07, 8.73e-07, 8.73e-07, "
            "8.73e-07 exceed the full integral 5e-07; analytic classification only") in out


def _cube_integral_oracle(exponents, a, b, eps, order=24):
    """Full-cube tensor quadrature of the symmetrized integrand divided by r!.

    Independent of the production path: no cumulative matrices, no simplex;
    it uses |P| and plain tensor Gauss-Legendre on the same graded panels.
    """
    r = len(exponents)
    ref_x, ref_w = _gauss(order)
    halves = [(hi - lo) / 2.0 for lo, hi in _panels(eps)]
    x = np.concatenate([lo + h * (ref_x + 1.0) for (lo, _), h in zip(_panels(eps), halves)])
    wts = np.concatenate([h * ref_w for h in halves])
    mesh = np.meshgrid(*([x] * r), indexing="ij")
    wmesh = np.meshgrid(*([wts] * r), indexing="ij")
    integrand = np.ones_like(mesh[0])
    weight_total = np.ones_like(mesh[0])
    for j in range(r):
        integrand = integrand * (1.0 - mesh[j] ** 2) ** exponents[j] * mesh[j] ** (2 * b + 1)
        weight_total = weight_total * wmesh[j]
    pabs = np.ones_like(mesh[0])
    for j in range(r):
        for k in range(j + 1, r):
            pabs = pabs * np.abs(mesh[k] ** 2 - mesh[j] ** 2) ** a
    return float(np.sum(integrand * pabs * weight_total)) / math.factorial(r)


def test_simplex_equals_symmetrized_cube():
    # Weyl symmetry: ordered-simplex integral = cube integral of |P| / r!
    # (su(2,2) has even multiplicity a = 2, so |P| stays smooth and the
    # independent tensor oracle converges at full order)
    pr = pair_by_label("su22")
    rd = restricted_root_data(pr)
    ws = weight_system(pr, _zero(pr))
    for lam in (-5, -4.5):
        spec = build_integrand(pr, ws, lam)
        val = integrate(spec, 1e-4)
        oracle = _cube_integral_oracle(spec.exponents[0], rd.a, rd.b, 1e-4)
        assert val == pytest.approx(oracle, rel=1e-8)


def weyl_polynomial(rd, x) -> float:
    """The restricted-root product P(x) = prod x_j^(2b+1) prod_(j<k) (x_k^2 - x_j^2)^a,
    evaluated as a product: the oracle for _p_monomials' expansion."""
    xs = list(x)
    if len(xs) != rd.r:
        raise ValueError(f"expected {rd.r} coordinates")
    val = 1.0
    for xj in xs:
        val *= float(xj) ** (2 * rd.b + 1)
    for j in range(rd.r):
        for k in range(j + 1, rd.r):
            val *= (float(xs[k]) ** 2 - float(xs[j]) ** 2) ** rd.a
    return val


def test_weyl_polynomial():
    rd1 = restricted_root_data(pair_by_label("su11"))  # r=1, b=0
    assert weyl_polynomial(rd1, [0.37]) == pytest.approx(0.37)
    rd2 = restricted_root_data(pair_by_label("sp2"))  # r=2, a=1, b=0
    assert weyl_polynomial(rd2, [0.5, 1.0]) == pytest.approx(3.0 / 8.0)
    assert weyl_polynomial(rd2, [0.4, 0.4]) == 0.0
    with pytest.raises(ValueError):
        weyl_polynomial(rd2, [0.1])


def test_monomial_expansion_matches_weyl_polynomial():
    # sum of c * prod x^p against the closed-form product, for every
    # restricted-root type (r, a, b) of the catalog inside the quadrature cap
    types = {}
    for pr in catalog():
        rd = restricted_root_data(pr)
        if rd.r <= MAX_QUADRATURE_RANK:
            types.setdefault((rd.r, rd.a, rd.b), rd)
    assert len(types) == 33
    rng = np.random.default_rng(0)
    for (r, a, b), rd in types.items():
        coeffs, powers = _p_monomials(r, a, b)
        for x in rng.uniform(0.05, 1.0, size=(5, r)):
            terms = coeffs * np.prod(x ** powers, axis=1)
            scale = np.sum(np.abs(terms))
            assert abs(np.sum(terms) - weyl_polynomial(rd, x)) <= 1e-12 * scale, (r, a, b)


def test_monomial_expansion_small_cases():
    coeffs, powers = _p_monomials(1, 0, 0)
    assert list(coeffs) == [1.0] and powers.tolist() == [[1]]
    coeffs, powers = _p_monomials(2, 1, 0)
    # x1 x2 (x2^2 - x1^2) = x1 x2^3 - x1^3 x2
    got = sorted(zip(powers.tolist(), coeffs.tolist()))
    assert got == [([1, 3], 1.0), ([3, 1], -1.0)]


def _cumulative_matrix_by_rows(order):
    """Reference: one sub-rule on [-1, x_i] per row, one basis polynomial
    at a time."""
    x, w = _gauss(order)
    c = np.zeros((order, order))
    for i in range(order):
        half = (x[i] + 1.0) / 2.0
        t = -1.0 + half * (x + 1.0)
        for j in range(order):
            lj = np.ones_like(t)
            for k in range(order):
                if k != j:
                    lj *= (t - x[k]) / (x[j] - x[k])
            c[i, j] = half * np.dot(w, lj)
    return c


def test_cumulative_matrix_integrates_polynomials():
    # (C @ p(x))_i is the integral of p from -1 to node i, exact for degree < order
    for order in range(1, 33):
        x, _ = _gauss(order)
        c = _cumulative_matrix(order)
        for k in range(order):
            exact = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            assert np.max(np.abs(c @ x ** k - exact)) <= 1e-12, (order, k)


def test_cumulative_matrix_rounds_as_the_row_by_row_reference():
    # the cancelling probe ladders are sensitive to the last ulp of C
    for order in (8, 12, 16, 20, 24, 32):
        assert np.array_equal(_cumulative_matrix(order), _cumulative_matrix_by_rows(order)), order


def test_overflow_signalled():
    with pytest.raises(IntegralOverflowError):
        integrate(_spec_r1(-40.0), 1e-10)
    # nodes that round to x = 1 give 0**negative: typed, with no RuntimeWarning
    with pytest.raises(IntegralOverflowError):
        integrate(_spec_r1(-1.5), 1e-18)


def test_lost_precision_falls_back_to_analytic():
    # the same cancelling ladder: the criterion still decides the verdict
    pr = pair_by_label("su33")
    ws = weight_system(pr, _zero(pr))
    rep = classify_convergence(build_integrand(pr, ws, 0), DEFAULT_LADDER, PROBE_ORDER)
    assert not _exists(pr, _zero(pr), 0)
    assert rep.empirical_classification == "not-run"
    assert rep.truncated_values == ()
    assert "lost precision" in rep.note


def test_falling_ladder_is_lost_precision():
    # e7vii at lambda = -16.5 diverges (min E = -3/2), but at the probe order
    # its ladder falls at the last rung (1.08e-05 -> 8.59e-06) and its last
    # increment is negative, which once read as converged to full precision
    pr = pair_by_label("e7vii")
    spec = build_integrand(pr, weight_system(pr, _zero(pr)), Fraction(-33, 2))
    rep = classify_convergence(spec, DEFAULT_LADDER, PROBE_ORDER)
    assert min(min(row) for row in spec.exponents) == Fraction(-3, 2)
    assert not _exists(pr, _zero(pr), Fraction(-33, 2))
    assert rep.empirical_classification == "not-run"
    assert "lost precision" in rep.note and "fall as eps shrinks" in rep.note


def test_lost_precision_is_a_typed_failure():
    # at lambda = 0 the su(3,3) ladder cancels to a negative truncated value
    pr = pair_by_label("su33")
    with pytest.raises(ConfigurationError, match="lost precision"):
        empirical_threshold(pr, _zero(pr))


def test_ladder_evaluates_each_eps_at_one_order(monkeypatch):
    # the ladder keeps only the value integrate() reports, so it costs that
    # one quadrature order, and all four eps share one sweep over the panels
    import hdt.integral as integral

    sweeps = []
    sweep = integral._truncations

    def counted(spec, eps_values, order):
        sweeps.append((tuple(eps_values), order))
        return sweep(spec, eps_values, order)

    monkeypatch.setattr(integral, "_truncations", counted)
    pr = pair_by_label("su11")
    spec = build_integrand(pr, weight_system(pr, _zero(pr)), -3)
    rep = classify_convergence(spec)
    assert sweeps == [((1e-2, 1e-3, 1e-4, 1e-5), DEFAULT_ORDER)]
    assert rep.truncated_values == tuple(
        (e, integrate(spec, e)) for e in (1e-2, 1e-3, 1e-4, 1e-5)
    )


@pytest.mark.parametrize("label,lam0,lam", [
    ("e7vii", (1, 0, 0, 0, 0, 1), -24),
    ("sp4", (2, 2, 2), -13),
    ("sostar14", (0, 0, 0, 0, 0, 0), -14),
], ids=["e7vii", "sp4", "sostar14"])
def test_shared_sweep_matches_one_sweep_per_eps(label, lam0, lam):
    # each rung's prefix panels come from the finest grid and its tail panel
    # from its own start; alone, an eps sweeps only its own partition
    pr = pair_by_label(label)
    ws = weight_system(pr, extend_compact_coords(pr, lam0))
    spec = build_integrand(pr, ws, lam, with_multiplicities=True)
    ladder = (1e-2, 1e-3, 1e-4, 1e-5)
    shared = _truncations(spec, ladder, DEFAULT_ORDER)
    for e, value in zip(ladder, shared):
        alone = _truncations(spec, (e,), DEFAULT_ORDER)[0]
        assert abs(value - alone) <= 1e-13 * abs(alone), (e, value, alone)


def test_cancelling_sp4_ladder_still_reads_divergent():
    # at lambda = 0 the sp(4) (1,1,1) ladder cancels in its monomial sum and
    # stays positive only while each rung rounds as it always has; the
    # threshold search no longer probes lambda = 0, so only this test reads it
    pr = pair_by_label("sp4")
    lam0 = extend_compact_coords(pr, (1, 1, 1))
    ws = weight_system(pr, lam0)
    rep = classify_convergence(build_integrand(pr, ws, 0), DEFAULT_LADDER, PROBE_ORDER)
    assert rep.empirical_classification == "divergent"
    assert abs(empirical_threshold(pr, lam0) - (-7.0)) <= 0.05


def test_empirical_threshold_su11():
    thr = empirical_threshold(pair_by_label("su11"), (Fraction(0),))
    assert abs(thr - (-1.0)) <= 0.05


def test_empirical_threshold_su23():
    pr = pair_by_label("su23")
    thr = empirical_threshold(pr, _zero(pr))
    assert abs(thr - (-4.0)) <= 0.05  # genus 5, scalar threshold 1 - p


def test_lambda_zero_divergent_for_every_pair():
    # at lambda = 0 the min exponent is -p <= -2, so nothing ever converges
    from hdt.hermitian import catalog

    for pr in catalog():
        rd = restricted_root_data(pr)
        ws = weight_system(pr, _zero(pr))
        spec = build_integrand(pr, ws, 0)
        assert min(min(row) for row in spec.exponents) == -rd.p
        assert rd.p >= 2


def test_rank_four_quadrature():
    # the largest rank the tensor grids allow; su(4,4) has 729 monomials
    pr = pair_by_label("su44")
    ws = weight_system(pr, extend_compact_coords(pr, [0] * 6))
    rep = classify_convergence(build_integrand(pr, ws, -7.5))
    assert rep.empirical_classification == "convergent"
    # the increment exponent estimates the distance to the threshold (-7)
    assert rep.increment_exponent == pytest.approx(0.5, abs=0.02)


def test_rank_cap_analytic_only():
    pr = pair_by_label("sp5")  # r = 5 > quadrature cap
    ws = weight_system(pr, _zero(pr))
    rep = classify_convergence(build_integrand(pr, ws, -20))
    assert _exists(pr, _zero(pr), -20)
    assert rep.truncated_values == ()
    assert rep.empirical_classification == "not-run"
    assert rep.note == (f"rank above quadrature cap ({MAX_QUADRATURE_RANK}); "
                        "analytic classification only")


def test_rank_cap_stops_the_bisection_before_any_probe(monkeypatch):
    # the ladder never runs above the cap, so no weight is built and no probe runs
    import hdt.integral as integral

    def refuse(*args, **kwargs):
        raise AssertionError("weights enumerated or a probe run")

    monkeypatch.setattr(integral, "weight_system", refuse)
    monkeypatch.setattr(integral, "classify_convergence", refuse)
    pr = pair_by_label("sp5")
    refusal = rf"^eps ladder not run: rank above quadrature cap \({MAX_QUADRATURE_RANK}\)$"
    with pytest.raises(ConfigurationError, match=refusal):
        empirical_threshold(pr, _zero(pr))


def test_threshold_above_the_trace_budget_is_refused(monkeypatch):
    # the budget is checked on the Weyl dimension, before any weight is built
    import hdt.integral as integral

    def refuse(*args, **kwargs):
        raise AssertionError("weights enumerated")

    monkeypatch.setattr(integral, "weight_system", refuse)
    pr = pair_by_label("su22")
    over = rf"dim tau 10001 above the trace budget \({MAX_TRACE_DIM}\)"
    with pytest.raises(ConfigurationError, match=over):
        empirical_threshold(pr, extend_compact_coords(pr, [10000, 0]))


def _counting_probes(monkeypatch, report=None):
    """Count the ladder probes of empirical_threshold; report(spec), when
    given, replaces the real classification."""
    import hdt.integral as integral

    probes = []
    classify = integral.classify_convergence

    def counted(spec, eps_ladder, order):
        probes.append(spec)
        return report(spec) if report else classify(spec, eps_ladder, order)

    monkeypatch.setattr(integral, "classify_convergence", counted)
    return probes


@pytest.mark.parametrize("tol", [0.0, -0.05, math.nan, math.inf])
def test_threshold_tol_must_be_finite_and_positive(monkeypatch, tol):
    # tol = 0 once bisected forever; nan and inf returned the first bracket
    probes = _counting_probes(monkeypatch)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        empirical_threshold(pair_by_label("su11"), (Fraction(0),), tol=tol)
    assert probes == []


def test_threshold_tol_below_the_spacing_of_doubles_is_refused():
    # the bracket stops narrowing at one ulp, which is far wider than 1e-300
    with pytest.raises(ValueError, match="spacing of doubles"):
        empirical_threshold(pair_by_label("su11"), (Fraction(0),), tol=1e-300)


# the ten cases of the benchmark's threshold workload; a bisection takes 108
# ladder probes on them, 12 of those on sp(4) (1,1,1)
_BENCH_THRESHOLD_CASES = (
    ("su11", ()), ("su22", (0, 0)), ("su22", (1, 0)), ("sp2", (0,)), ("sp2", (1,)),
    ("sp3", (0, 0)), ("sp3", (1, 0)), ("so2_5", (0, 0)), ("so2_5", (1, 0)), ("sp4", (1, 1, 1)),
)


def test_threshold_probe_budget(monkeypatch):
    probes = _counting_probes(monkeypatch)
    pr = pair_by_label("sp4")
    lam0 = extend_compact_coords(pr, (1, 1, 1))
    assert abs(empirical_threshold(pr, lam0) - (-7.0)) <= 0.05
    assert len(probes) <= 6
    probes.clear()
    for label, coords in _BENCH_THRESHOLD_CASES:
        pr = pair_by_label(label)
        lam0 = extend_compact_coords(pr, coords)
        assert abs(empirical_threshold(pr, lam0) - float(hc_threshold(pr, lam0))) <= 0.05
    assert len(probes) <= 55


def _bisection_probes(convergent, tol: float) -> int:
    """Probes of the plain bisection: brackets from 0 up and -2 down, then halves."""
    n, hi = 1, 0.0
    while convergent(hi):
        n, hi = n + 1, hi + 4.0
    n, lo = n + 1, -2.0
    while not convergent(lo):
        n, lo = n + 1, 2.0 * lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        n += 1
        lo, hi = (mid, hi) if convergent(mid) else (lo, mid)
    return n


@pytest.mark.parametrize("misread", [
    lambda x: 10.0 * x ** 3,
    lambda x: 1e-3 if x > 0.0 else -1e-3,
], ids=["cubed", "tiny"])
@pytest.mark.parametrize("change", [-2.37, -13.3, 3.1])
def test_threshold_search_ends_with_a_misread_distance(monkeypatch, misread, change):
    # the increment exponent keeps its sign but misreads the distance
    # change - lambda to the sign change; min E + 1 = -2 - lambda on sp(2)
    def report(spec):
        min_e = float(min(min(row) for row in spec.exponents))
        d = misread(min_e + 3.0 + change)
        return ConvergenceReport((), math.nan, d, "convergent" if d > 0.0 else "divergent", None)

    probes = _counting_probes(monkeypatch, report)
    pr = pair_by_label("sp2")
    thr = empirical_threshold(pr, _zero(pr))
    assert abs(thr - change) <= 0.025
    assert len(probes) <= 2 * _bisection_probes(lambda lam: lam < change, 0.05)


@pytest.mark.parametrize("label,fundamental", [
    ("sostar10", None), ("sp4", None), ("sostar8", 0), ("so2_6", 0),
])
def test_thresholds_whose_lambda_zero_ladder_cancels(label, fundamental):
    # the search starts at lambda = -2, so a ladder that cancels at lambda = 0
    # no longer ends it
    pr = pair_by_label(label)
    lam0 = _zero(pr) if fundamental is None else compact_fundamental_weights(pr)[fundamental]
    assert abs(empirical_threshold(pr, lam0) - float(hc_threshold(pr, lam0))) <= 0.05


def test_agreement_sign_with_criterion():
    # sign of (empirical threshold - lambda) matches the exact verdict
    pr = pair_by_label("sp2")
    lam0 = _zero(pr)
    emp = empirical_threshold(pr, lam0)
    thr = float(hc_threshold(pr, lam0))
    for off in (-3, -1, -0.25, 0.25, 1, 3):
        lam = thr + off
        exact_exists = lam < thr
        empirical_exists = lam < emp
        assert exact_exists == empirical_exists


# -- property: the integrate command under arbitrary flags ---------------------

# restricted rank 1 and 2 on small Lie ranks, so that every example is cheap;
# each with its threshold at Lambda0 = 0
FUZZ_PAIRS = st.sampled_from([(pr, int(hc_threshold(pr, _zero(pr)))) for pr in
                              map(pair_by_label, ("su11", "su12", "su22", "sp2", "so2_3"))])
FUZZ_LAMBDA0 = {n: st.lists(st.sampled_from((0, 0, 1, 1, 2, 2, -1)), min_size=n, max_size=n)
                for n in range(4)}
GOOD_EPS = ("0.5", "0.1", "1e-2", "1e-3", "1e-5", "1e-12")
BAD_EPS = ("0", "1", "-1e-3", "1e-13", "x", "")
# three draws in four are a valid ladder
FUZZ_EPS = st.sampled_from(
    [st.lists(st.sampled_from(GOOD_EPS), min_size=3, max_size=5, unique=True)] * 3
    + [st.lists(st.sampled_from(GOOD_EPS + BAD_EPS), min_size=1, max_size=5)])


@st.composite
def integrate_argv(draw):
    """`integrate` with --eps, --order, --lambda and --lambda0 each valid most
    of the time: Lambda0 entries in [-1, 2], now and then a coordinate short
    or long; lambda within 4 of the Lambda0 = 0 threshold, or not a plain
    decimal; eps ladders of distinct values in [MIN_EPS, 1), or any list;
    orders in [1, MAX_ORDER] and just outside it."""
    pr, threshold = draw(FUZZ_PAIRS)
    n = max(pr.root_system.rank - 1 + draw(st.sampled_from((0,) * 6 + (-1, 1))), 0)
    lam0 = draw(FUZZ_LAMBDA0[n])
    near = f"{threshold + draw(st.integers(-400, 400)) / 100:.2f}"
    lam = draw(st.sampled_from((near,) * 6 + ("1e-3", "abc")))
    eps = draw(draw(FUZZ_EPS))
    order = draw(st.sampled_from((1, 2, 8, 16, 24, 24, 24, 0, 129)))
    return ["integrate", pr.label, f"--lambda={lam}", f"--lambda0={','.join(map(str, lam0))}",
            f"--eps={','.join(eps)}", f"--order={order}", "--output", "json"]


@settings(max_examples=500, deadline=None)
@given(integrate_argv())
def test_integrate_command_property(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["classification"] in ("convergent", "divergent")
    else:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
