"""The exact eps ladder against closed forms, and convergence classification."""

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdt import cli
from hdt.cascade import restricted_root_data, strongly_orthogonal_cascade
from hdt.criterion import HighestWeightInput, hc_condition, hc_threshold
from hdt.hermitian import catalog, pair_by_label
from hdt.integral import (
    DEFAULT_LADDER,
    MAX_QUADRATURE_RANK,
    MAX_TRACE_DIM,
    ConfigurationError,
    ConvergenceReport,
    IntegralOverflowError,
    IntegralSpec,
    _ladder_table,
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
    lambda_one,
    weight_multiplicities,
    weight_on_coroot,
    weight_system,
    weyl_dimension,
)


def _zero(pair):
    return extend_compact_coords(pair, [0] * (pair.root_system.rank - 1))


def _unit_weight_spec(pair, weights, lam):
    """The integrand over the given weights, each counted once: the oracle
    for a trace without multiplicities, E_{s,j} = -(Lambda^s + lambda
    Lambda_1)(h_j) - p from the saturated support."""
    rs, rd = pair.root_system, restricted_root_data(pair)
    gammas = strongly_orthogonal_cascade(pair).gammas
    shift = [-Fraction(lam) * weight_on_coroot(rs, lambda_one(pair), g) - rd.p for g in gammas]
    rows: dict[tuple, int] = {}
    for mu in weights:
        key = tuple(s - weight_on_coroot(rs, mu, g) for s, g in zip(shift, gammas))
        rows[key] = rows.get(key, 0) + 1
    return IntegralSpec(rd.r, rd.a, rd.b, tuple(rows), tuple(rows.values()))


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
    spec = build_integrand(pr, _zero(pr), -2)
    assert spec.exponents == ((0.0,),)
    assert spec.exponents == ((Fraction(0),),)
    spec = build_integrand(pr, _zero(pr), 0)
    assert spec.exponents == ((-2.0,),)


def test_scalar_case_exponents_uniform():
    for label in ("sp2", "sostar8", "e7vii"):
        pr = pair_by_label(label)
        rd = restricted_root_data(pr)
        lam = Fraction(-7, 2)
        spec = build_integrand(pr, _zero(pr), lam)
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
            thr = hc_threshold(pr, lam0)
            for off in (-1, Fraction(-1, 4), 0, Fraction(1, 4), 1):
                spec = build_integrand(pr, lam0, thr + off)
                finite = all(e > -1 for row in spec.exponents for e in row)
                assert finite == _exists(pr, lam0, thr + off), (pr.label, lam0, off)
                min_e = min(min(row) for row in spec.exponents)
                assert type(min_e) is Fraction and min_e == -off - 1, (pr.label, lam0, off)
                cases += 1
    assert cases == 395
    # the same verdict from the ladder's table, one unit from the boundary:
    # delta^1 below it, and a negative power above it
    for label in ("su11", "sp2", "su22"):
        pr = pair_by_label(label)
        thr = hc_threshold(pr, _zero(pr))
        below = classify_convergence(build_integrand(pr, _zero(pr), thr - 1))
        above = classify_convergence(build_integrand(pr, _zero(pr), thr + 1))
        assert below.empirical_classification == "convergent"
        assert (below.leading_exponent, below.leading_log_power) == (1, 0)
        assert above.empirical_classification == "divergent"
        assert above.leading_exponent <= -1


@pytest.mark.parametrize("label,coords", [
    ("su11", ()), ("su22", (0, 0)), ("sp3", (1, 0)), ("sp4", (1, 1, 1)),
], ids=["su11", "su22", "sp3", "sp4"])
def test_boundary_is_a_logarithmic_divergence(label, coords):
    # at the exact boundary min E = -1 and the criterion says divergent (a
    # strict inequality); the table leads with delta^0 ln delta, a divergence
    # that the decimal rungs alone could not tell from a slow convergence
    pr = pair_by_label(label)
    lam0 = extend_compact_coords(pr, coords)
    thr = hc_threshold(pr, lam0)
    spec = build_integrand(pr, lam0, thr)
    assert min(min(row) for row in spec.exponents) == -1
    assert not _exists(pr, lam0, thr)
    rep = classify_convergence(spec)
    assert rep.empirical_classification == "divergent"
    assert (rep.leading_exponent, rep.leading_log_power) == (0, 1)
    # a hundredth below it the integral converges, approaching its limit like delta^(1/100)
    rep = classify_convergence(build_integrand(pr, lam0, thr - Fraction(1, 100)))
    assert rep.empirical_classification == "convergent"
    assert (rep.leading_exponent, rep.leading_log_power) == (Fraction(1, 100), 0)


def test_multiplicity_irrelevance():
    # positive integer multiplicities cannot change finiteness: the weighted
    # trace has the same exponent rows as the unit-weight one, and the
    # ladders read the same verdict and the same leading term
    pr = pair_by_label("su13")
    lam0 = extend_compact_coords(pr, [1, 1])  # adjoint: has a multiplicity-2 weight
    ws = weight_system(pr, lam0)
    thr = hc_threshold(pr, lam0)
    for lam in (thr - 1, thr, thr + 1):
        plain = _unit_weight_spec(pr, ws.weights, lam)
        weighted = build_integrand(pr, lam0, lam)
        unit = dict(zip(plain.exponents, plain.multiplicities))
        mult = dict(zip(weighted.exponents, weighted.multiplicities))
        assert mult.keys() == unit.keys() and len(weighted.exponents) == len(plain.exponents)
        assert sum(mult.values()) == 8 > sum(unit.values()) == 7
        assert all(mult[e] >= unit[e] >= 1 for e in mult)
        rep_plain, rep_weighted = classify_convergence(plain), classify_convergence(weighted)
        assert (rep_plain.empirical_classification == rep_weighted.empirical_classification
                == ("convergent" if _exists(pr, lam0, lam) else "divergent"))
        assert ((rep_plain.leading_exponent, rep_plain.leading_log_power)
                == (rep_weighted.leading_exponent, rep_weighted.leading_log_power)), lam


@pytest.mark.parametrize("label,lam0,rows,dim", [
    ("so2_8", (1, 1, 1, 1), 7, 4096),
    ("su33", (2, 2, 2, 2), 61, 729),
], ids=["so2_8", "su33"])
def test_build_integrand_groups_rows(label, lam0, rows, dim):
    # one row per distinct exponent row, carrying the summed multiplicities
    pr = pair_by_label(label)
    ws = weight_system(pr, extend_compact_coords(pr, lam0))
    spec = build_integrand(pr, ws.highest, -20)
    assert len(spec.exponents) == len(set(spec.exponents)) == rows
    assert sum(spec.multiplicities) == dim
    plain = _unit_weight_spec(pr, ws.weights, -20)
    assert len(plain.exponents) == rows and set(plain.exponents) == set(spec.exponents)
    assert sum(plain.multiplicities) == len(ws.weights)


def test_grouped_integral_is_the_weighted_trace():
    # the grouped spec against the trace taken one weight at a time
    pr = pair_by_label("e7vii")
    ws = weight_system(pr, extend_compact_coords(pr, (1, 0, 0, 0, 0, 1)))
    grouped = build_integrand(pr, ws.highest, -24)
    assert len(grouped.exponents) < len(ws.weights)
    mults = weight_multiplicities(pr, ws.highest)
    trace = 0.0
    for mu in ws.weights:
        one = _unit_weight_spec(pr, (mu,), -24)
        assert one.multiplicities == (1,)
        trace += mults[mu] * integrate(one, 1e-3)
    assert integrate(grouped, 1e-3) == pytest.approx(trace, rel=1e-12)


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
            for lam in (hc_threshold(pr, lam0) - 4, hc_threshold(pr, lam0) - Fraction(9, 2)):
                spec = build_integrand(pr, lam0, lam)
                quad = integrate(spec, min(DEFAULT_LADDER))
                exact = closed_form_integral(pr, lam0, lam)
                assert abs(quad - exact) <= 1e-8 * exact, (pr.label, lam0, lam, quad, exact)
                cases += 1
    assert cases == 212


def test_limit_is_the_closed_form():
    # as eps -> 0 the ladder's table tends to its constant n(0, 0) / q, which
    # must be Harish-Chandra's product: every rank <= 4 pair at lambda_c - 3,
    # at Lambda0 = 0 and the first compact fundamental weight
    cases = 0
    for pr in catalog():
        if restricted_root_data(pr).r > MAX_QUADRATURE_RANK:
            continue
        for lam0 in dict.fromkeys((_zero(pr), *compact_fundamental_weights(pr)[:1])):
            lam = hc_threshold(pr, lam0) - 3
            spec = build_integrand(pr, lam0, lam)
            table, q, _ = _ladder_table(spec)
            exact = closed_form_integral(pr, lam0, lam)
            assert abs(table[0, 0] / q - exact) <= 1e-13 * exact, (pr.label, lam0)
            cases += 1
    assert cases == 73


def test_limit_of_su44_twos_is_the_closed_form():
    # dim tau = 3^12, past the trace budget of the command line, with 1 289
    # exponent rows: the factor-by-factor product keeps its table small
    pr = pair_by_label("su44")
    lam0 = extend_compact_coords(pr, [2] * 6)
    assert weyl_dimension(pr, lam0) > MAX_TRACE_DIM
    spec = build_integrand(pr, lam0, -22)
    assert len(spec.exponents) == 1289
    table, q, _ = _ladder_table(spec)
    exact = closed_form_integral(pr, lam0, -22)
    assert abs(table[0, 0] / q - exact) <= 1e-13 * exact


def test_rungs_do_not_move_with_twenty_more_digits(monkeypatch):
    # each rung keeps 20 significant digits after its cancellation; at 40 it
    # rounds to the same double (or, at a rounding tie, its neighbour)
    import hdt.integral as integral

    cases = [("su33", (0, 0, 0, 0), 0), ("sp4", (1, 1, 1), 0), ("sp4", (2, 2, 2), -13),
             ("e7vii", (1, 0, 0, 0, 0, 1), -24), ("su44", (0,) * 6, Fraction(-15, 2)),
             ("sp3", (1, 0), -4.0123456789), ("e7vii", (0,) * 6, Fraction(-33, 2))]
    specs = []
    for label, coords, lam in cases:
        pr = pair_by_label(label)
        specs.append(build_integrand(pr, extend_compact_coords(pr, coords), lam))
    before = [_truncations(spec, DEFAULT_LADDER) for spec in specs]
    monkeypatch.setattr(integral, "_RUNG_DIGITS", integral._RUNG_DIGITS + 20)
    for case, spec, values in zip(cases, specs, before):
        for old, new in zip(values, _truncations(spec, DEFAULT_LADDER)):
            assert abs(new - old) <= math.ulp(old), (case, old, new)


def test_log_branch_su11():
    # su11 at lambda = -1 has E = -1, so d = 0 at the one step: every rung is
    # (1/2) int_delta^1 dv / v = -ln(delta) / 2
    pr = pair_by_label("su11")
    spec = build_integrand(pr, _zero(pr), -1)
    assert _ladder_table(spec) == ({(0, 1): -1}, 2, 1)
    for eps, value in zip(DEFAULT_LADDER, _truncations(spec, DEFAULT_LADDER)):
        assert value == pytest.approx(-0.5 * math.log(eps * (2.0 - eps)), rel=1e-15)


def test_closed_form_beyond_the_double_range():
    # one below the threshold with a Lambda0 of 10^300: the exact ratio alone
    # overflows a double; the product in logs is finite for e3iii and above
    # the range (inf) for su14
    for label, coords, finite in (("e3iii", (0, 0, 10 ** 300, 0, 0), True),
                                  ("su14", (10 ** 300, 0, 0), False)):
        pr = pair_by_label(label)
        lam0 = extend_compact_coords(pr, coords)
        value = closed_form_integral(pr, lam0, hc_threshold(pr, lam0) - 1)
        assert (0.0 < value < math.inf) if finite else value == math.inf, (label, value)


def test_long_decimal_lambda():
    # a lambda with a 300-digit fraction scales every exponent by D = 10^300;
    # its rungs are those of lambda cut to 40 digits, to the last double
    pr = pair_by_label("su33")
    lam0 = extend_compact_coords(pr, (1, 0, 0, 0))
    values = []
    for digits in (300, 40):
        spec = build_integrand(pr, lam0, Fraction("-10." + "7" * digits))
        values.append(_truncations(spec, DEFAULT_LADDER))
    for long, short in zip(*values):
        assert abs(long - short) <= math.ulp(short), (long, short)


@pytest.mark.parametrize("digits", [300, 1000])
def test_a_lambda_past_the_digit_budget_skips_the_ladder(digits, capsys):
    # D = 10^digits: the ladder took 0.66 s at 300 digits and 5.4 s at 1 000;
    # the verdict and the value come from closed forms and do not change
    pr = pair_by_label("su44")
    lam0 = extend_compact_coords(pr, [1] * 6)
    lam = "-13." + "7" * digits
    start = time.perf_counter()
    code = cli.main(["integrate", "su44", "--lambda", lam, "--lambda0=1,1,1,1,1,1",
                     "--output", "json"])
    assert time.perf_counter() - start < 0.5
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["empirical"] == "not-run" and data["ladder"] == []
    assert data["scalar_note"].startswith(
        f"exponent denominator D of {digits + 1} digits above the ladder's budget (10^100)")
    assert data["classification"] == "convergent"
    assert data["formal_dimension_scalar"] == closed_form_integral(pr, lam0, Fraction(lam))


def test_a_lambda_of_a_hundred_places_runs_its_ladder():
    pr = pair_by_label("su33")
    spec = build_integrand(pr, extend_compact_coords(pr, (1, 0, 0, 0)), Fraction("-10." + "7" * 100))
    rep = classify_convergence(spec)
    assert rep.note is None and len(rep.truncated_values) == len(DEFAULT_LADDER)
    assert rep.empirical_classification == "convergent"


def test_integrate_reports_the_closed_form_far_below_the_threshold(capsys):
    # at lambda = -10^6 the su11 ladder reads 8.73e-7 where the integral is
    # 5.0e-7; the reported value, with the disc factor, is 1/(2 pi) at any lambda
    from hdt.cli import main

    assert main(["integrate", "su11", "--lambda", "-1000000", "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["formal_dimension_scalar"] == pytest.approx(1 / (2 * math.pi), rel=1e-12)


def test_a_rung_above_the_full_integral_is_lost_precision(capsys):
    # the Gauss-Legendre sweep read 8.73e-07 on every su11 rung at
    # lambda = -10^6, above the full integral 1/(2 (10^6 - 1)); the exact
    # rungs (1 - delta^(10^6 - 1)) / (2 (10^6 - 1)) run and lie at or below it
    from hdt.cli import main

    full = Fraction(1, 2 * (10 ** 6 - 1))
    assert main(["integrate", "su11", "--lambda", "-1000000", "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["empirical"] == "convergent" and data["classification"] == "convergent"
    assert [rung["eps"] for rung in data["ladder"]] == list(DEFAULT_LADDER)
    for rung in data["ladder"]:
        assert rung["estimate"] <= float(full)
        assert rung["estimate"] == pytest.approx(float(full), rel=1e-15)
    assert main(["integrate", "su11", "--lambda", "-1000000"]) == 0
    out = capsys.readouterr().out
    assert "empirical classification: convergent" in out and "not-run" not in out
    # the guard itself: a full integral below the rungs refuses the ladder
    pr = pair_by_label("su11")
    spec = build_integrand(pr, _zero(pr), -1000000)
    rep = classify_convergence(spec, full=0.5 * float(full))
    assert rep.empirical_classification == "not-run"
    assert rep.note.startswith("inconsistent eps ladder: truncated values 5e-07, 5e-07, "
                               "5e-07, 5e-07 exceed the full integral 2.5e-07")


def _cube_integral_oracle(exponents, a, b, eps, order=24):
    """Full-cube tensor quadrature of the symmetrized integrand divided by r!.

    Independent of the production path: no closed forms, no simplex; it
    uses |P| and plain tensor Gauss-Legendre on graded panels.
    """
    r = len(exponents)
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
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
    # (even multiplicity a, so |P| stays smooth and the independent tensor
    # oracle converges at full order), at every rung of the default ladder
    for label, lam in (("su22", -5), ("su22", -4.5), ("su23", -6), ("sostar8", -8)):
        pr = pair_by_label(label)
        rd = restricted_root_data(pr)
        spec = build_integrand(pr, _zero(pr), lam)
        for eps, val in zip(DEFAULT_LADDER, _truncations(spec, DEFAULT_LADDER)):
            oracle = _cube_integral_oracle(spec.exponents[0], rd.a, rd.b, eps)
            assert val == pytest.approx(oracle, rel=1e-8), (label, lam, eps)


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
    # sum of c * prod v^p against the closed-form product, for every
    # restricted-root type (r, a, b) of the catalog inside the quadrature cap:
    # with x_j = sqrt(1 - v_j), P(x) = prod_j x_j (1-v_j)^b prod_(j<k) (v_j-v_k)^a
    types = {}
    for pr in catalog():
        rd = restricted_root_data(pr)
        if rd.r <= MAX_QUADRATURE_RANK:
            types.setdefault((rd.r, rd.a, rd.b), rd)
    assert len(types) == 33
    rng = np.random.default_rng(0)
    for (r, a, b), rd in types.items():
        coeffs, powers = _p_monomials(r, a, b)
        assert all(type(c) is int for c in coeffs)
        coeffs, powers = np.array(coeffs, dtype=float), np.array(powers)
        for v in rng.uniform(0.05, 0.95, size=(5, r)):
            terms = coeffs * np.prod(v ** powers, axis=1)
            scale = np.sum(np.abs(terms))
            x = np.sqrt(1.0 - v)
            want = weyl_polynomial(rd, x) / np.prod(x)
            assert abs(np.sum(terms) - want) <= 1e-12 * scale, (r, a, b)


def test_monomial_expansion_small_cases():
    assert _p_monomials(1, 0, 0) == ((1,), ((0,),))
    # v1 - v2, which is x2^2 - x1^2
    assert _p_monomials(2, 1, 0) == ((-1, 1), ((0, 1), (1, 0)))
    # (1 - v)^2
    assert _p_monomials(1, 0, 2) == ((1, -2, 1), ((0,), (1,), (2,)))


def _expanded_first_level(spec, expand):
    """The ladder's first level the direct way, as the oracle for the
    factor-by-factor product: every row times every monomial of the expanded
    restricted-root polynomial, summed per exponent tuple (scaled by D, the
    lcm of the denominators).  It is returned as a spec with a = b = 0, whose
    ladder table integrates exactly these terms."""
    coeffs, powers = expand(spec.r, spec.a, spec.b)
    rows = [[e.as_integer_ratio() for e in row] for row in spec.exponents]
    big_d = math.lcm(*(den for row in rows for _, den in row))
    level: dict[tuple, int] = {}
    for mult, row in zip(spec.multiplicities, rows):
        shift = [num * (big_d // den) for num, den in row]
        for c, p in zip(coeffs, powers):
            key = tuple(s + big_d * m for s, m in zip(shift, p))
            level[key] = level.get(key, 0) + mult * c
    terms = {key: n for key, n in level.items() if n}
    exponents = tuple(tuple(Fraction(e, big_d) for e in key) for key in terms)
    return IntegralSpec(spec.r, 0, 0, exponents, tuple(terms.values()))


def test_factor_by_factor_product_is_the_expanded_one(monkeypatch):
    # 318 specs on the rank <= 4 cases and one lambda of 7 decimal places;
    # the ladder must not expand the polynomial at all
    import hdt.integral as integral

    expand = integral._p_monomials

    def refused(*args):
        raise AssertionError("the ladder expanded the restricted-root polynomial")

    monkeypatch.setattr(integral, "_p_monomials", refused)
    specs = [build_integrand(pr, lam0, hc_threshold(pr, lam0) - off)
             for pr, lam0 in _rank_four_cases() for off in (3, Fraction(7, 3), 0)]
    pr = pair_by_label("e7vii")
    specs.append(build_integrand(pr, extend_compact_coords(pr, (1, 0, 0, 0, 0, 1)),
                                 Fraction("-12.3456789")))
    assert len(specs) == 319
    for spec in specs:
        assert _ladder_table(spec) == _ladder_table(_expanded_first_level(spec, expand)), spec


def test_overflow_signalled():
    # (delta^-39 - 1) / 78 at delta = 2e-10 is about 2e376
    with pytest.raises(IntegralOverflowError, match="beyond the double range"):
        integrate(_spec_r1(-40.0), 1e-10)
    # 1 - 1e-18 rounds to 1 in doubles, where the sweep's nodes met 0**negative;
    # delta = 2e-18 - 1e-36 is exact in decimal and the integral
    # (1/2) int_delta^1 v^-1.5 dv = delta^-1/2 - 1 runs
    delta = 2 * Fraction(1e-18) - Fraction(1e-18) ** 2
    assert integrate(_spec_r1(-1.5), 1e-18) == pytest.approx(float(delta) ** -0.5 - 1.0, rel=1e-15)


def test_lost_precision_falls_back_to_analytic():
    # su(3,3) at lambda = 0 once cancelled to a negative rung in the sweep;
    # the exact ladder runs, grows and reads what the criterion says
    pr = pair_by_label("su33")
    rep = classify_convergence(build_integrand(pr, _zero(pr), 0))
    assert not _exists(pr, _zero(pr), 0)
    assert rep.empirical_classification == "divergent" and rep.note is None
    values = [v for _, v in rep.truncated_values]
    assert len(values) == 4 and all(0 < a < b for a, b in zip(values, values[1:]))


def test_falling_ladder_is_lost_precision():
    # e7vii at lambda = -16.5 diverges (min E = -3/2); at the probe order the
    # sweep's ladder fell at the last rung (1.08e-05 -> 8.59e-06), and its last
    # increment was negative.  The exact rungs grow like eps^(-1/2)
    pr = pair_by_label("e7vii")
    spec = build_integrand(pr, _zero(pr), Fraction(-33, 2))
    rep = classify_convergence(spec)
    assert min(min(row) for row in spec.exponents) == Fraction(-3, 2)
    assert not _exists(pr, _zero(pr), Fraction(-33, 2))
    assert rep.empirical_classification == "divergent"
    values = [v for _, v in rep.truncated_values]
    assert all(0 < a < b for a, b in zip(values, values[1:]))
    assert (rep.leading_exponent, rep.leading_log_power) == (Fraction(-1, 2), 0)


def test_lost_precision_is_a_typed_failure():
    # the sweep's su(3,3) ladder at lambda = 0 cancelled to a negative rung,
    # which stopped the search; the exact ladder lets it find 1 - p = -5
    pr = pair_by_label("su33")
    assert empirical_threshold(pr, _zero(pr)) == -5.0


@pytest.mark.parametrize("label,lam0,lam", [
    ("e7vii", (1, 0, 0, 0, 0, 1), -24),
    ("sp4", (2, 2, 2), -13),
    ("sostar14", (0, 0, 0, 0, 0, 0), -14),
], ids=["e7vii", "sp4", "sostar14"])
def test_shared_sweep_matches_one_sweep_per_eps(label, lam0, lam):
    # a ladder evaluates one table at every eps, each at the precision its
    # own cancellation asks for: a rung does not depend on its companions
    pr = pair_by_label(label)
    spec = build_integrand(pr, extend_compact_coords(pr, lam0), lam)
    ladder = (1e-2, 1e-3, 1e-4, 1e-5)
    shared = _truncations(spec, ladder)
    for e, value in zip(ladder, shared):
        alone = _truncations(spec, (e,))[0]
        assert abs(value - alone) <= 1e-13 * abs(alone), (e, value, alone)


def test_cancelling_sp4_ladder_still_reads_divergent():
    # at lambda = 0 the sp(4) (1,1,1) ladder cancelled in the sweep's monomial
    # sum and stayed positive only while each rung rounded as it always had;
    # the exact rungs grow without cancelling
    pr = pair_by_label("sp4")
    lam0 = extend_compact_coords(pr, (1, 1, 1))
    rep = classify_convergence(build_integrand(pr, lam0, 0), DEFAULT_LADDER)
    assert rep.empirical_classification == "divergent" and rep.note is None
    values = [v for _, v in rep.truncated_values]
    assert all(0 < a < b for a, b in zip(values, values[1:]))
    assert empirical_threshold(pr, lam0) == -7.0


def test_empirical_threshold_su11():
    thr = empirical_threshold(pair_by_label("su11"), (Fraction(0),))
    assert type(thr) is float and thr == -1.0


def test_empirical_threshold_su23():
    pr = pair_by_label("su23")
    thr = empirical_threshold(pr, _zero(pr))
    assert thr == -4.0  # genus 5, scalar threshold 1 - p


def test_lambda_zero_divergent_for_every_pair():
    # at lambda = 0 the min exponent is -p <= -2, so nothing ever converges
    from hdt.hermitian import catalog

    for pr in catalog():
        rd = restricted_root_data(pr)
        spec = build_integrand(pr, _zero(pr), 0)
        assert min(min(row) for row in spec.exponents) == -rd.p
        assert rd.p >= 2


def test_rank_four_quadrature():
    # the largest rank the tensor grids allow; su(4,4) has 729 monomials
    pr = pair_by_label("su44")
    rep = classify_convergence(build_integrand(pr, extend_compact_coords(pr, [0] * 6), -7.5))
    assert rep.empirical_classification == "convergent"
    # the leading exponent is the distance to the threshold (-7)
    assert (rep.leading_exponent, rep.leading_log_power) == (Fraction(1, 2), 0)


def test_rank_cap_analytic_only():
    pr = pair_by_label("sp5")  # r = 5 > quadrature cap
    rep = classify_convergence(build_integrand(pr, _zero(pr), -20))
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

    monkeypatch.setattr(integral, "weight_multiplicities", refuse)
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

    monkeypatch.setattr(integral, "weight_multiplicities", refuse)
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

    def counted(spec, eps_ladder):
        probes.append(spec)
        return report(spec) if report else classify(spec, eps_ladder)

    monkeypatch.setattr(integral, "classify_convergence", counted)
    return probes


@pytest.mark.parametrize("tol", [0.0, -0.05, math.nan, math.inf])
def test_threshold_tol_must_be_finite_and_positive(monkeypatch, tol):
    # tol = 0 once bisected forever; nan and inf returned the first bracket
    probes = _counting_probes(monkeypatch)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        empirical_threshold(pair_by_label("su11"), (Fraction(0),), tol=tol)
    assert probes == []


def test_threshold_tol_below_the_spacing_of_doubles_is_met_exactly(monkeypatch):
    # a bisection in doubles stops narrowing at one ulp, far wider than
    # 1e-300; the exact search returns the threshold itself, in two probes
    probes = _counting_probes(monkeypatch)
    assert empirical_threshold(pair_by_label("su11"), (Fraction(0),), tol=1e-300) == -1.0
    pr = pair_by_label("sp4")
    lam0 = extend_compact_coords(pr, (1, 1, 1))
    assert empirical_threshold(pr, lam0, tol=1e-300) == -7.0
    assert len(probes) == 2 + 3


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
    assert empirical_threshold(pr, lam0) == -7.0
    assert len(probes) <= 3
    probes.clear()
    for label, coords in _BENCH_THRESHOLD_CASES:
        pr = pair_by_label(label)
        lam0 = extend_compact_coords(pr, coords)
        assert empirical_threshold(pr, lam0) == float(hc_threshold(pr, lam0))
    assert len(probes) <= 20


def test_threshold_pairs_the_weights_with_the_coroots_once(monkeypatch):
    # lambda only shifts every column of the exponent table, so the search's
    # probes share one pairing of the weights with the cascade coroots
    import hdt.integral as integral

    probes = _counting_probes(monkeypatch)
    integral._coroot_rows.cache_clear()
    pr = pair_by_label("sp4")
    assert empirical_threshold(pr, extend_compact_coords(pr, (1, 1, 1))) == -7.0
    info = integral._coroot_rows.cache_info()
    assert (info.misses, info.hits) == (1, len(probes) - 1)
    assert len(probes) == 3


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
    lambda x: 10 * x ** 3,
    lambda x: Fraction(1 if x > 0 else -1, 1000) if x else 0,
    lambda x: 2 * x,
], ids=["cubed", "tiny", "doubled"])
@pytest.mark.parametrize("change", [-2.37, -13.3, 3.1])
def test_threshold_search_ends_with_a_misread_distance(monkeypatch, misread, change):
    # the leading exponent keeps its sign but misreads the distance
    # change - lambda to the sign change (min E + 1 = -2 - lambda on sp(2)),
    # and is a logarithm exactly at the change: the search returns it or
    # gives up, within the probes of a bisection to 0.05
    exact = Fraction(str(change))

    def report(spec):
        x = misread(min(min(row) for row in spec.exponents) + 3 + exact)
        return ConvergenceReport((), x, 0 if x else 1, "convergent" if x > 0 else "divergent", None)

    probes = _counting_probes(monkeypatch, report)
    pr = pair_by_label("sp2")
    try:
        assert empirical_threshold(pr, _zero(pr)) == change
    except ConfigurationError as exc:
        assert str(exc).startswith("no logarithmic term in 10 probes")
    assert len(probes) <= _bisection_probes(lambda lam: lam < change, 0.05)


@pytest.mark.parametrize("label,fundamental", [
    ("sostar10", None), ("sp4", None), ("sostar8", 0), ("so2_6", 0),
])
def test_thresholds_whose_lambda_zero_ladder_cancels(label, fundamental):
    # the search starts at lambda = -2, so a ladder that cancels at lambda = 0
    # no longer ends it
    pr = pair_by_label(label)
    lam0 = _zero(pr) if fundamental is None else compact_fundamental_weights(pr)[fundamental]
    assert empirical_threshold(pr, lam0) == float(hc_threshold(pr, lam0))


def _rank_four_cases():
    """Every pair inside the rank cap, at Lambda0 = 0 and its first two
    compact fundamental weights: 106 cases."""
    for pr in catalog():
        if restricted_root_data(pr).r > MAX_QUADRATURE_RANK:
            continue
        for lam0 in dict.fromkeys((_zero(pr), *compact_fundamental_weights(pr)[:2])):
            yield pr, lam0


def test_empirical_threshold_every_rank_four_pair():
    # no probe ladder cancels: the search finds 1 - p - Lambda0(h_r) exactly
    # on every case inside the rank cap, never consulting the criterion
    cases = 0
    for pr, lam0 in _rank_four_cases():
        assert empirical_threshold(pr, lam0) == float(hc_threshold(pr, lam0)), (pr.label, lam0)
        cases += 1
    assert cases == 106


def test_leading_term_is_the_distance_to_the_threshold():
    # below the threshold the table leads with delta^(lambda_c - lambda), and
    # at it with delta^0 ln delta: 318 exact equalities
    cases = 0
    for pr, lam0 in _rank_four_cases():
        thr = hc_threshold(pr, lam0)
        for off, term in ((Fraction(1, 100), (Fraction(1, 100), 0)),
                          (Fraction(7, 3), (Fraction(7, 3), 0)), (0, (0, 1))):
            rep = classify_convergence(build_integrand(pr, lam0, thr - off))
            assert (rep.leading_exponent, rep.leading_log_power) == term, (pr.label, lam0, off)
            assert type(rep.leading_exponent) is Fraction
            cases += 1
    assert cases == 318


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
    """`integrate` with --eps, --lambda and --lambda0 each valid most of the
    time: Lambda0 entries in [-1, 2], now and then a coordinate short or
    long; lambda within 4 of the Lambda0 = 0 threshold, or not a plain
    decimal; eps ladders of distinct values in [MIN_EPS, 1), or any list."""
    pr, threshold = draw(FUZZ_PAIRS)
    n = max(pr.root_system.rank - 1 + draw(st.sampled_from((0,) * 6 + (-1, 1))), 0)
    lam0 = draw(FUZZ_LAMBDA0[n])
    near = f"{threshold + draw(st.integers(-400, 400)) / 100:.2f}"
    lam = draw(st.sampled_from((near,) * 6 + ("1e-3", "abc")))
    eps = draw(draw(FUZZ_EPS))
    return ["integrate", pr.label, f"--lambda={lam}", f"--lambda0={','.join(map(str, lam0))}",
            f"--eps={','.join(eps)}", "--output", "json"]


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
