"""Truncated convergence integrals over the ordered chamber in the unit cube.

The integrand is a sum over compact-part weights of products
(1-x_j^2)^E_{s,j} times the restricted-root polynomial P(x), integrated over
0 <= x_1 <= ... <= x_r <= 1-eps.  It converges iff every E_{s,j} > -1, which
by the weight bound is the criterion `hc_condition`.  An eps-ladder of
truncations, run while dim tau is within MAX_TRACE_DIM, the rank within
MAX_QUADRATURE_RANK and lambda's denominator within 10^MAX_LADDER_DIGITS,
decides it again from the integral alone: the ladder's table is the truncated
integral's whole expansion, and its leading singular term is the exact
verdict and the exact step of the threshold search.  A convergent integral's
value is Harish-Chandra's formal-degree product, in closed form.
The ladder is exact: in v = 1 - x^2 the integrand is a sum of monomials
times powers v_j^E_j, and the nested one-variable integrals of
v^P (ln v)^k have closed forms, so a whole ladder is one table of integer
coefficients of delta^P (ln delta)^k, delta = 1 - (1-eps)^2, built once and
evaluated at each rung in `decimal` to 20 significant digits, however much
the sum cancels.  The module uses the standard library alone.
"""

from __future__ import annotations

import math
import sys
from decimal import Context, Decimal, DivisionByZero, InvalidOperation, Overflow, localcontext
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .cascade import restricted_root_data, strongly_orthogonal_cascade
from .criterion import HighestWeightInput, as_exact, hc_condition_original
from .hermitian import HermitianPair
from .weights import Weight, lambda_one, weight_multiplicities, weight_on_coroot, weyl_dimension


class IntegralOverflowError(ArithmeticError):
    """A truncated value left the double range; exponents too extreme for
    the chosen truncation."""


class ConfigurationError(RuntimeError):
    """The threshold search could not bracket the threshold, or a probe's
    eps ladder did not run."""


DEFAULT_LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
MAX_QUADRATURE_RANK = 4
_RANK_CAP = f"rank above quadrature cap ({MAX_QUADRATURE_RANK})"
# the largest trace (dim tau_Lambda0, by the Weyl formula) whose weights are
# enumerated for the eps ladder; the benchmark's largest is 4 096
MAX_TRACE_DIM = 10_000
# the ladder runs while D, the exponents' common denominator (lambda's), is at
# most 10^MAX_LADDER_DIGITS, so lambda has at most 100 decimal places: the
# table's integers, and its cost, grow with D's length
MAX_LADDER_DIGITS = 100
# probes of empirical_threshold before it gives up; it needs at most three
_MAX_PROBES = 10
# significant digits every rung keeps after its cancellation
_RUNG_DIGITS = 20
# the working precision at which a rung stops rising: far above what any
# cancellation of a positive integral asks for
_MAX_PREC = 10_000


class IntegralSpec(NamedTuple):
    r: int
    a: int
    b: int
    exponents: tuple[tuple[Fraction | float, ...], ...]  # distinct rows E_{s,j}
    multiplicities: tuple[int, ...]  # per row, summed over the weights sharing it


class ConvergenceReport(NamedTuple):
    truncated_values: tuple[tuple[float, float], ...]  # (eps, estimate)
    # the leading singular term delta^x (ln delta)^k of the truncated integral
    # as eps -> 0, x exact; None when the ladder did not run
    leading_exponent: Fraction | None
    leading_log_power: int | None
    empirical_classification: str  # convergent | divergent | not-run
    note: str | None  # why the empirical part did not run


# -- the eps ladder in closed form ---------------------------------------------


def _panels(eps: float) -> list[tuple[float, float]]:
    """Partition of [0, 1-eps] halving geometrically toward the singular face.

    Every panel but the last is [1 - 2^-(i-1), 1 - 2^-i] (from 0 for i = 1).
    The ladder needs no panels; bench/spans.py counts them as a size.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    points = [0.0]
    h = 0.5
    while h > 2 * eps and 1.0 - h > points[-1]:
        points.append(1.0 - h)
        h /= 2.0
    points.append(1.0 - eps)
    return list(zip(points[:-1], points[1:]))


@lru_cache(maxsize=None)
def _p_monomials(r: int, a: int, b: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """prod_j (1-v_j)^b prod_{j<k} (v_j-v_k)^a, the restricted-root
    polynomial in v = 1 - x^2, as monomials: coefficients and per-coordinate
    powers."""
    if (a + 1) ** (r * (r - 1) // 2) > 200_000:
        raise ValueError("restricted-root polynomial expansion too large")
    factors = [{(j,) * t: comb(b, t) * (-1) ** t for t in range(b + 1)} for j in range(r)]
    factors += [{(j,) * t + (k,) * (a - t): comb(a, t) * (-1) ** (a - t) for t in range(a + 1)}
                for j in range(r) for k in range(j + 1, r)]
    poly = {(0,) * r: 1}
    for factor in factors:
        product: dict[tuple[int, ...], int] = {}
        for powers, c in poly.items():
            for coords, f in factor.items():
                key = list(powers)
                for j in coords:
                    key[j] += 1
                key = tuple(key)
                product[key] = product.get(key, 0) + c * f
        poly = {p: c for p, c in product.items() if c}
    items = sorted(poly.items())
    return tuple(c for _, c in items), tuple(p for p, _ in items)


def _ladder_table(spec: IntegralSpec) -> tuple[dict[tuple[int, int], int], int, int]:
    """The truncated integral as a function of delta = 1 - (1-eps)^2: the
    sum of (n / q) delta^(P/D) (ln delta)^k over the table {(P, k): n}.

    In v = 1 - x^2 the chamber is delta <= v_r <= ... <= v_1 <= 1 and the
    integrand is 2^-r sum_rows mult prod_j v_j^E_j times _p_monomials.
    Each v_j is integrated over [v_(j+1), 1] in turn, with the closed forms,
    for d = P + beta + 1,
        int_x^1 u^(d-1) (ln u)^k du
            = (-1)^k k!/d^(k+1) (1 - x^d sum_(i<=k) (-d ln x)^i / i!)   (d != 0)
            = -(ln x)^(k+1) / (k+1)                                     (d = 0).
    The map is linear, so the terms of all rows and monomials that share
    the exponents still to integrate are merged after every step.  Every
    exponent is scaled by D, the lcm of their denominators, so that P is an
    int; the numerators are ints over the one denominator q, with 2^r.  As
    eps -> 0 a convergent integral tends to n(0, 0) / q.
    """
    r = spec.r
    coeffs, powers = _p_monomials(r, spec.a, spec.b)
    rows = [[e.as_integer_ratio() for e in row] for row in spec.exponents]  # exact for floats too
    big_d = math.lcm(*(den for row in rows for _, den in row))
    # terms still to integrate: scaled beta + 1 per remaining coordinate ->
    # {(P, k): numerator} of the part already integrated
    level: dict[tuple[int, ...], int] = {}
    for mult, row in zip(spec.multiplicities, rows):
        shift = [num * (big_d // den) + big_d for num, den in row]
        for c, p in zip(coeffs, powers):
            key = tuple(s + big_d * m for s, m in zip(shift, p))
            level[key] = level.get(key, 0) + mult * c
    states = {key: {(0, 0): n} for key, n in level.items() if n}
    q = 1
    for _ in range(r):
        den = math.lcm(*{(P + key[0]) ** (k + 1) if P + key[0] else k + 1
                         for key, terms in states.items() for P, k in terms})
        merged: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
        for key, terms in states.items():
            beta1, out = key[0], merged.setdefault(key[1:], {})
            for (P, k), n in terms.items():
                d = P + beta1
                if d == 0:
                    out[0, k + 1] = out.get((0, k + 1), 0) - n * (den // (k + 1))
                    continue
                # n (-1)^k k! (D/d)^(k+1) over den, then the x^d terms
                base = n * (-1) ** k * math.factorial(k) * big_d ** (k + 1) * (den // d ** (k + 1))
                out[0, 0] = out.get((0, 0), 0) + base
                term = -base
                for i in range(k + 1):
                    out[d, i] = out.get((d, i), 0) + term
                    term = -term * d // (big_d * (i + 1))
        q *= den
        g = q
        for terms in merged.values():
            for n in terms.values():
                g = math.gcd(g, n)
        states = {key: {pk: n // g for pk, n in terms.items() if n}
                  for key, terms in merged.items()}
        q //= g
    return states.get((), {}), q << r, big_d


@lru_cache(maxsize=64)
def _delta_and_log(eps: float, prec: int) -> tuple[Decimal, Decimal]:
    """delta = 1 - (1-eps)^2 and ln delta, to prec digits."""
    with localcontext(_context(prec)):
        e = Decimal(eps)  # the double's exact value
        delta = 2 * e - e * e
        return delta, delta.ln()


@lru_cache(maxsize=256)
def _fractional_power(eps: float, s: int, big_d: int, prec: int) -> Decimal:
    """delta^(s/D) for 0 < s < D, to prec digits."""
    log = _delta_and_log(eps, prec)[1]
    with localcontext(_context(prec)):
        return (log * s / big_d).exp()


@lru_cache(maxsize=64)
def _context(prec: int) -> Context:
    # an overflow is trapped; an underflow rounds to zero
    return Context(prec=prec, traps=[Overflow, InvalidOperation, DivisionByZero])


def _rung(table: dict[tuple[int, int], int], q: int, big_d: int, eps: float) -> float:
    """The table at one eps, to _RUNG_DIGITS significant digits.

    delta^(P/D) is delta^m delta^(s/D) with P = mD + s, 0 <= s < D: an
    integer power, and one exp per residue s (every exponent of a built
    integrand has lambda's fractional part, so its table has at most r + 1
    residues).  The working precision is _RUNG_DIGITS plus the digits the
    sum cancels, estimated in doubles, plus guard digits for the integer
    powers; it rises until the sum shows that it sufficed.
    """
    beyond = IntegralOverflowError(f"truncated value at eps = {eps} beyond the double range")
    ln_f = math.log(eps * (2.0 - eps))
    log_ln = math.log(-ln_f)
    scaled, signs = [], []
    for (p, k), n in table.items():
        try:
            scaled.append(math.log(abs(n)) + p / big_d * ln_f + k * log_ln)
        except OverflowError:  # |P/D| beyond the double range
            scaled.append(-math.inf if p > 0 else math.inf)
        signs.append(-1.0 if (n < 0) != (k % 2 == 1) else 1.0)
    top = max(scaled, default=0.0)
    if top == math.inf:
        raise beyond
    size = sum(math.exp(s - top) for s in scaled)
    total = abs(sum(g * math.exp(s - top) for g, s in zip(signs, scaled)))
    # a sum of doubles resolves a cancellation of up to about 15 digits
    lost = math.ceil(math.log10(size / total)) if total > 1e-15 * size else 17
    top_m = max((abs(p // big_d) for p, _ in table), default=1)
    guard = math.ceil(top_m.bit_length() * math.log10(2)) + 3
    max_k = max((k for _, k in table), default=0)
    while True:
        # in steps of ten digits, so that probes share the cached logarithms
        prec = -(-(_RUNG_DIGITS + guard + lost) // 10) * 10
        delta, log = _delta_and_log(eps, prec)
        try:
            with localcontext(_context(prec)):
                log_powers = [Decimal(1)]
                for _ in range(max_k):
                    log_powers.append(log_powers[-1] * log)
                powers: dict[int, Decimal] = {}
                value = size = Decimal(0)
                for (p, k), n in table.items():
                    power = powers.get(p)
                    if power is None:
                        m, s = divmod(p, big_d)
                        power = delta ** m
                        if s:
                            power *= _fractional_power(eps, s, big_d, prec)
                        powers[p] = power
                    term = n * power * log_powers[k]
                    value += term
                    size += abs(term)
        except Overflow:
            raise beyond from None
        # digits lost to cancellation, rounded up
        cancelled = size.adjusted() - value.adjusted() + 1 if value else 2 * prec
        if cancelled <= prec - guard - _RUNG_DIGITS or prec > _MAX_PREC:
            break
        lost = cancelled
    with localcontext(_context(prec)):
        result = float(value / q)
    if not 0.0 < abs(result) < math.inf:
        raise beyond
    return result


def _truncations(spec: IntegralSpec, eps_values: tuple[float, ...]) -> list[float]:
    """Truncated integral at every eps in eps_values, from one table."""
    table, q, big_d = _ladder_table(spec)
    return [_rung(table, q, big_d, e) for e in eps_values]


def integrate(spec: IntegralSpec, eps: float) -> float:
    """The integral truncated at 1 - eps."""
    return _truncations(spec, (eps,))[0]
# -- integrand construction --------------------------------------------------


def build_integrand(pair: HermitianPair, lambda0: Weight, lam) -> IntegralSpec:
    """Exponent table E_{s,j} = -(Lambda^s + lambda Lambda_1)(h_j) - p over
    the weights Lambda^s of tau_lambda0, from `weight_multiplicities`.

    One exact row per distinct E_{s,j}; its multiplicity sums the weight
    multiplicities over the weights that share it.  Rows keep the order of
    first occurrence.
    """
    rs = pair.root_system
    rd = restricted_root_data(pair)
    gammas = strongly_orthogonal_cascade(pair).gammas
    lam1 = lambda_one(pair)
    lam_exact = as_exact(lam)

    # E_{s,j} = shift_j - Lambda^s(h_j); integer pairings from the coroot table
    shift = [-lam_exact * weight_on_coroot(rs, lam1, g) - rd.p for g in gammas]
    rows: dict[tuple[int, ...], int] = {}
    for mu, mult in weight_multiplicities(pair, lambda0).items():
        key = tuple(weight_on_coroot(rs, mu, g) for g in gammas)
        rows[key] = rows.get(key, 0) + mult
    exponents = tuple(tuple(s - m for s, m in zip(shift, k)) for k in rows)
    return IntegralSpec(rd.r, rd.a, rd.b, exponents, tuple(rows.values()))


# -- classification -----------------------------------------------------------


# truncations of a positive integrand never decrease as eps shrinks, and none
# exceeds the full integral; each rung is exact to its last double, and the
# full integral (from lgamma) to a few ulps (4.1e-15 relative at worst on the
# rank <= 4 catalog), so a larger step against either order is a fault
_MAX_FALL = 1e-12


def not_run(reason: str) -> ConvergenceReport:
    """The report of an eps ladder that did not run, and why."""
    return ConvergenceReport((), None, None, "not-run", f"{reason}; analytic classification only")


def int_text(n: int) -> str:
    """n in digits, or in scientific notation past Python's int-to-str limit."""
    try:
        return str(n)
    except ValueError:
        return f"{Decimal(n):.6e}"


def ladder_precheck(pair: HermitianPair, lambda0: Weight) -> str | None:
    """Why the eps ladder of tau_lambda0 will not run (trace budget, then rank
    cap), or None; decided before any weight is enumerated."""
    dim = weyl_dimension(pair, lambda0)
    if dim > MAX_TRACE_DIM:
        return f"dim tau {int_text(dim)} above the trace budget ({MAX_TRACE_DIM})"
    if restricted_root_data(pair).r > MAX_QUADRATURE_RANK:
        return _RANK_CAP
    return None


def classify_convergence(spec: IntegralSpec, eps_ladder: tuple[float, ...] = DEFAULT_LADDER,
                         full: float | None = None) -> ConvergenceReport:
    """The eps-ladder of truncated integrals, and the verdict read off its table.

    The table is the truncated integral's whole expansion in delta; its
    leading singular term, delta^x (ln delta)^k with the smallest x and then
    the largest k over the terms other than the constant, is exact.  The
    integral converges iff x > 0: a negative power or a logarithm (x = 0,
    k >= 1) grows without bound.  The rungs are its values at eps_ladder, for
    display and as checks.  Above the rank cap, or when a rung leaves the
    double range, is not positive, falls as eps shrinks or rises above `full`
    (the full integral, when known), the report is "not-run" and the note
    says why, as it is when D, the exponents' common denominator, exceeds
    10^MAX_LADDER_DIGITS.
    """
    if spec.r > MAX_QUADRATURE_RANK:
        return not_run(_RANK_CAP)
    big_d = math.lcm(*(e.as_integer_ratio()[1] for row in spec.exponents for e in row))
    if big_d > 10 ** MAX_LADDER_DIGITS:
        return not_run(f"exponent denominator D of {Decimal(big_d).adjusted() + 1} digits "
                       f"above the ladder's budget (10^{MAX_LADDER_DIGITS})")
    ladder = tuple(sorted(eps_ladder, reverse=True))
    table, q, big_d = _ladder_table(spec)
    try:
        values = [_rung(table, q, big_d, e) for e in ladder]
    except IntegralOverflowError as exc:
        return not_run(str(exc))
    positive = all(v > 0 for v in values)
    falls = any(a - b > _MAX_FALL * a for a, b in zip(values, values[1:]))
    # no truncation of a positive integrand exceeds the full integral
    above = full is not None and any(v - full > _MAX_FALL * full for v in values)
    if not positive or falls or above:
        return not_run(
            f"inconsistent eps ladder: truncated values "
            f"{', '.join(f'{v:.3g}' for v in values)} "
            + ("are not all finite and positive" if not positive
               else "fall as eps shrinks" if falls else f"exceed the full integral {full:.3g}")
        )
    # the smallest power, compared as integers over D, then the largest log power
    p, neg_k = min((p, -k) for p, k in table if (p, k) != (0, 0))
    empirical = "convergent" if p > 0 else "divergent"
    return ConvergenceReport(tuple(zip(ladder, values)), Fraction(p, big_d), -neg_k, empirical, None)


# the documented floor of the --eps range; no sweep runs below the ladder
MIN_EPS = 1e-12
_LOG_MAX = math.log(sys.float_info.max)


def closed_form_integral(pair: HermitianPair, lambda0: Weight, lam) -> float:
    """The full integral below the threshold, trace weighted by multiplicity:
    Harish-Chandra's formal-degree product, normalized by the Faraut-Koranyi
    volume, S(r,a,b) dim tau_Lambda0 prod_beta (rho - p Lambda_1)(h_beta) /
    (Lambda + rho)(h_beta) over noncompact positive beta, where S(r,a,b) is
    the integral at Lambda0 = 0, lambda = -p (every exponent E = 0).
    math.inf when the value lies above the double range.
    """
    rd = restricted_root_data(pair)
    here = hc_condition_original(HighestWeightInput(pair, lambda0, lam))
    if not here.exists:
        raise ValueError(f"{pair.label}: lambda = {lam} is not below the threshold")
    at_e0 = hc_condition_original(HighestWeightInput(pair, (0,) * len(lambda0), -rd.p))
    ratio = weyl_dimension(pair, lambda0) * math.prod(at_e0.values) / math.prod(here.values)
    # S(r,a,b) = S_r(b+1, 1, a/2) / (r! 2^r), Selberg's integral; no Gamma sees lambda
    r, b, g = rd.r, rd.b, rd.a / 2
    log_s = sum(math.lgamma(b + 1 + j * g) + math.lgamma(1 + j * g) + math.lgamma(1 + (j + 1) * g)
                - math.lgamma(b + 2 + (r + j - 1) * g) - math.lgamma(1 + g) for j in range(r))
    s = math.exp(log_s - math.lgamma(r + 1) - r * math.log(2))
    try:
        return s * float(ratio)
    except OverflowError:  # the ratio alone is beyond the double range
        log_value = math.log(s) + math.log(ratio.numerator) - math.log(ratio.denominator)
        return math.exp(log_value) if log_value < _LOG_MAX else math.inf


# -- empirical threshold ------------------------------------------------------


def empirical_threshold(
    pair: HermitianPair,
    lambda0: Weight,
    tol: float = 0.05,
) -> float:
    """The critical lambda, exactly, from the integrals alone.

    The criterion is deliberately not consulted.  Each probe builds the
    integrand at an exact lambda and reads the leading term
    delta^x (ln delta)^k of its table (`classify_convergence`); the trace
    sum_s m_s I_s has positive terms, so no multiplicity m_s moves that term.
    The search starts at lambda = -2 and steps to lambda + x: every exponent
    E_j falls by one per unit of lambda (Lambda_1(h_j) = 1 on every cascade
    coroot), and the leading term of a convergent probe is delta^(min E + 1),
    so one step lands on the threshold.  When a step leaves the bracket of probes read
    convergent below and divergent above, the next probe is its midpoint.
    The search returns the first lambda whose leading term is delta^0
    (ln delta)^k, k >= 1: at most three probes on every rank <= 4 pair.

    That lambda is the threshold, with no further probe.  The table is the
    truncated integral I(lambda, delta) exactly, so I diverges like
    (ln delta)^k at the returned lambda_s, and the integral does not exist
    there.  Below it, at lambda_s - h, h > 0, the integrand is the one at
    lambda_s times prod_j v_j^h <= v_r^h, and the mass of the integrand at
    lambda_s on the layer 2^-(m+1) <= v_r < 2^-m is at most
    I(lambda_s, 2^-(m+1)), which the table bounds by A + B m^k.  So the
    integral at lambda_s - h is at most sum_m 2^(-mh) (A + B m^k), finite:
    it exists exactly for lambda < lambda_s.  A coefficient that vanishes at
    some probe can only cost probes, never a wrong answer.

    Returns the exact threshold as a float.  `tol` is validated and
    otherwise unused: the exact answer meets any tolerance.

    Raises ValueError unless tol is finite and positive, and
    ConfigurationError before any probe when `ladder_precheck` refuses, when
    a probe's ladder did not run (a rung beyond the double range), or when
    _MAX_PROBES probes meet no logarithmic term.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if reason := ladder_precheck(pair, lambda0):
        raise ConfigurationError(f"eps ladder not run: {reason}")
    lo, hi = -math.inf, math.inf  # the highest convergent and the lowest divergent probe
    lam = Fraction(-2)
    for _ in range(_MAX_PROBES):
        rep = classify_convergence(build_integrand(pair, lambda0, lam), DEFAULT_LADDER)
        if rep.empirical_classification == "not-run":
            raise ConfigurationError(f"eps ladder not run at lambda = {float(lam):.12g}: {rep.note}")
        x = rep.leading_exponent
        if x == 0:
            return float(lam)
        if x > 0:
            lo = lam
        else:
            hi = lam
        # a step away from the one end found so far stays inside the bracket
        lam += x
        if not lo < lam < hi:
            lam = (lo + hi) / 2
    raise ConfigurationError(f"no logarithmic term in {_MAX_PROBES} probes; the threshold "
                             f"lies in [{float(lo):.12g}, {float(hi):.12g}]")
