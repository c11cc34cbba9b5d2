"""Quadrature correctness against closed forms and convergence classification."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hdt.cascade import restricted_root_data, weyl_polynomial
from hdt.criterion import hc_threshold
from hdt.hermitian import catalog, pair_by_label
from hdt.integral import (
    MAX_QUADRATURE_RANK,
    ConfigurationError,
    IntegralOverflowError,
    IntegralSpec,
    _Grid,
    _p_monomials,
    build_integrand,
    classify_convergence,
    empirical_threshold,
    integrate,
)
from hdt.weights import extend_compact_coords, weight_multiplicities, weight_system


def _zero(pair):
    return extend_compact_coords(pair, [0] * (pair.root_system.rank - 1))


def _spec_r1(exponent, b=0, eps=1e-14, order=16):
    return IntegralSpec(
        r=1, a=0, b=b, exponents=((float(exponent),),),
        multiplicities=(1,), eps=eps, order=order,
    )


def beta_fn(x, y):
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


@pytest.mark.parametrize("e", [0.0, 0.5, 2.0, 5.0])
@pytest.mark.parametrize("b", [0, 1, 2])
def test_beta_family_closed_form(e, b):
    # independent oracle: int_0^1 (1-x^2)^e x^(2b+1) dx = B(b+1, e+1) / 2
    val, bound = integrate(_spec_r1(e, b=b))
    exact = beta_fn(b + 1, e + 1) / 2.0
    assert abs(val - exact) / exact < 1e-6
    assert bound < 1e-8


def test_su11_closed_forms():
    # int x dx = 1/2 and int (1-x^2) x dx = 1/4
    val, _ = integrate(_spec_r1(0.0))
    assert val == pytest.approx(0.5, rel=1e-10)
    val, _ = integrate(_spec_r1(1.0))
    assert val == pytest.approx(0.25, rel=1e-10)


def test_truncated_log_divergence():
    # exponent -1 has the closed form -log(2 eps - eps^2)/2: log growth
    vals = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        v, _ = integrate(_spec_r1(-1.0, eps=eps))
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


def test_classification_matches_criterion():
    for label in ("su11", "sp2", "su22"):
        pr = pair_by_label(label)
        lam0 = _zero(pr)
        ws = weight_system(pr, lam0)
        thr = hc_threshold(pr, lam0)
        below = classify_convergence(build_integrand(pr, ws, thr - 1))
        above = classify_convergence(build_integrand(pr, ws, thr + 1))
        assert below.classification == "convergent"
        assert below.min_exponent == pytest.approx(0.0)
        assert above.classification == "divergent"
        # empirical corroboration away from the boundary
        assert below.empirical_classification == "convergent"
        assert above.empirical_classification == "divergent"
        assert above.fitted_slope > 0.5


def test_boundary_flagged_indeterminate():
    pr = pair_by_label("su11")
    ws = weight_system(pr, _zero(pr))
    rep = classify_convergence(build_integrand(pr, ws, -1))
    assert rep.empirical_classification == "boundary-indeterminate"
    # the analytic verdict is divergent at the exact boundary (strict inequality)
    assert rep.classification == "divergent"


def test_multiplicity_irrelevance():
    # positive integer multiplicities cannot change finiteness
    pr = pair_by_label("su13")
    lam0 = extend_compact_coords(pr, [1, 1])  # adjoint: has a multiplicity-2 weight
    ws = weight_system(pr, lam0)
    thr = hc_threshold(pr, lam0)
    for lam in (thr - 1, thr + 1):
        plain = classify_convergence(build_integrand(pr, ws, lam))
        weighted = classify_convergence(build_integrand(pr, ws, lam, with_multiplicities=True))
        assert plain.classification == weighted.classification


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
    grouped = build_integrand(pr, ws, -24, eps=1e-3, order=8, with_multiplicities=True)
    assert len(grouped.exponents) < len(ws.weights)
    mults = weight_multiplicities(ws)
    trace = 0.0
    for mu in ws.weights:
        one = build_integrand(pr, replace(ws, weights=(mu,)), -24, eps=1e-3, order=8)
        assert one.multiplicities == (1,)
        trace += mults[mu] * integrate(one)[0]
    assert integrate(grouped)[0] == pytest.approx(trace, rel=1e-12)


def _cube_integral_oracle(exponents, a, b, eps, order=24):
    """Full-cube tensor quadrature of the symmetrized integrand divided by r!.

    Independent of the production path: no cumulative matrices, no simplex;
    it uses |P| and plain tensor Gauss-Legendre on the same graded panels.
    """
    r = len(exponents)
    grid = _Grid(eps, order)
    x = grid.x
    wts = np.concatenate(
        [h * grid.ref_w for h in grid.halves]
    )
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
        spec = build_integrand(pr, ws, lam, eps=1e-4, order=16)
        val, _ = integrate(spec)
        oracle = _cube_integral_oracle(spec.exponents[0], rd.a, rd.b, 1e-4)
        assert val == pytest.approx(oracle, rel=1e-8)


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


def test_overflow_signalled():
    spec = _spec_r1(-40.0, eps=1e-10)
    with pytest.raises(IntegralOverflowError):
        integrate(spec)
    # nodes that round to x = 1 give 0**negative: typed, with no RuntimeWarning
    with pytest.raises(IntegralOverflowError):
        integrate(_spec_r1(-1.5, eps=1e-18))


def test_lost_precision_falls_back_to_analytic():
    # the same cancelling ladder: the exponents still decide the verdict
    pr = pair_by_label("su33")
    ws = weight_system(pr, _zero(pr))
    rep = classify_convergence(build_integrand(pr, ws, 0, order=12))
    assert rep.classification == "divergent"
    assert rep.empirical_classification == "not-run"
    assert rep.truncated_values == ()
    assert "lost precision" in rep.note


def test_lost_precision_is_a_typed_failure():
    # at lambda = 0 the su(3,3) ladder cancels to a negative truncated value
    pr = pair_by_label("su33")
    with pytest.raises(ConfigurationError, match="lost precision"):
        empirical_threshold(pr, _zero(pr))


def test_ladder_evaluates_each_eps_at_one_order(monkeypatch):
    # the ladder keeps only the value integrate() reports, so each eps costs
    # that one quadrature order, not the two its error bound needs
    import hdt.integral as integral

    orders = []
    evaluate = integral._integrate_at_order

    def counted(spec, order):
        orders.append(order)
        return evaluate(spec, order)

    monkeypatch.setattr(integral, "_integrate_at_order", counted)
    pr = pair_by_label("su11")
    spec = build_integrand(pr, weight_system(pr, _zero(pr)), -3)
    rep = classify_convergence(spec)
    assert orders == [24] * 4
    assert rep.truncated_values == tuple(
        (e, integrate(replace(spec, eps=e))[0]) for e in (1e-2, 1e-3, 1e-4, 1e-5)
    )


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
    assert rep.classification == "convergent"
    # the increment exponent estimates the distance to the threshold (-7)
    assert rep.increment_exponent == pytest.approx(0.5, abs=0.02)


def test_rank_cap_analytic_only():
    pr = pair_by_label("sp5")  # r = 5 > quadrature cap
    ws = weight_system(pr, _zero(pr))
    rep = classify_convergence(build_integrand(pr, ws, -20))
    assert rep.classification == "convergent"
    assert rep.truncated_values == ()
    assert rep.empirical_classification == "not-run"
    assert rep.note == (f"rank above quadrature cap ({MAX_QUADRATURE_RANK}); "
                        "analytic classification only")


def test_rank_cap_stops_the_bisection_at_its_first_probe(monkeypatch):
    # the ladder never runs above the cap, so no probe can bracket the threshold
    import hdt.integral as integral

    probes = []
    classify = integral.classify_convergence

    def counted(spec, eps_ladder):
        probes.append(spec)
        return classify(spec, eps_ladder)

    monkeypatch.setattr(integral, "classify_convergence", counted)
    pr = pair_by_label("sp5")
    with pytest.raises(ConfigurationError, match="quadrature cap"):
        empirical_threshold(pr, _zero(pr))
    assert len(probes) == 1


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
