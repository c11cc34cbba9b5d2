"""Truncated convergence integrals over the ordered chamber in the unit cube.

The integrand is a sum over compact-part weights of products
(1-x_j^2)^E_{s,j} times the restricted-root polynomial P(x), integrated over
0 <= x_1 <= ... <= x_r <= 1-eps.  It converges iff every E_{s,j} > -1, which
by the weight bound is the criterion `hc_condition`; an eps-ladder of
truncations, run while dim tau is within MAX_TRACE_DIM, the rank within
MAX_QUADRATURE_RANK and lambda's denominator within 10^MAX_LADDER_DIGITS,
corroborates it numerically, and its exponent guides the threshold search.
A convergent integral's value is Harish-Chandra's formal-degree product, in
closed form.
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
from .weights import (
    KssWeightSystem,
    Weight,
    lambda_one,
    weight_multiplicities,
    weight_on_coroot,
    weight_system,
    weyl_dimension,
)


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
    fitted_slope: float  # log-estimate vs log(1/eps), least squares
    increment_exponent: float  # decade ratio of successive increments
    empirical_classification: str  # convergent | divergent | boundary-indeterminate | not-run
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


def build_integrand(
    pair: HermitianPair,
    ws: KssWeightSystem,
    lam,
    with_multiplicities: bool = False,
) -> IntegralSpec:
    """Exponent table E_{s,j} = -(Lambda^s + lambda Lambda_1)(h_j) - p.

    One exact row per distinct E_{s,j}; its multiplicity sums the weight
    multiplicities (or counts the weights, with unit weights) over the
    weights that share it.  Rows keep the order of first occurrence.
    """
    rs = pair.root_system
    rd = restricted_root_data(pair)
    gammas = strongly_orthogonal_cascade(pair).gammas
    lam1 = lambda_one(pair)
    lam_exact = as_exact(lam)

    # E_{s,j} = shift_j - Lambda^s(h_j); integer pairings from the coroot table
    shift = [-lam_exact * weight_on_coroot(rs, lam1, g) - rd.p for g in gammas]
    mults = weight_multiplicities(ws) if with_multiplicities else None
    rows: dict[tuple[int, ...], int] = {}
    for mu in ws.weights:
        key = tuple(weight_on_coroot(rs, mu, g) for g in gammas)
        rows[key] = rows.get(key, 0) + (mults[mu] if mults else 1)
    exponents = tuple(tuple(s - m for s, m in zip(shift, k)) for k in rows)
    return IntegralSpec(rd.r, rd.a, rd.b, exponents, tuple(rows.values()))


# -- classification -----------------------------------------------------------


_BOUNDARY_BAND = 0.01
# an increment at or below this fraction of its rungs reads as converged to
# full precision
_INCREMENT_FLOOR = 1e-12
# the ladder's last increment, between its two finest rungs, scales like
# (second-finest eps)^delta and clears the floor only while delta stays below
# this (3 on DEFAULT_LADDER); a larger |delta| is the converged sentinel or
# the noise of a cancelling ladder, not a measured distance to the threshold
_RESOLVED_EXPONENT = math.log10(_INCREMENT_FLOOR) / math.log10(sorted(DEFAULT_LADDER)[1])
# truncations of a positive integrand never decrease as eps shrinks, and none
# exceeds the full integral; each rung is exact to its last double, and the
# full integral (from lgamma) to a few ulps (4.1e-15 relative at worst on the
# rank <= 4 catalog), so a larger step against either order is a fault
_MAX_FALL = 1e-12


def _increment_exponent(values: list[float]) -> float:
    """Exponent estimate from the decade ratio of successive increments.

    For truncations of A + B eps^delta the increments scale like eps^delta,
    so -log10 of the last increment ratio estimates delta = min E + 1 even
    very close to the boundary.
    """
    if len(values) < 3:
        raise ValueError("need at least three ladder points")
    inc = [b - a for a, b in zip(values, values[1:])]
    # an increment at rounding level relative to its own step means the
    # truncations already converged to full precision; don't let noise
    # into the ratio
    floors = [_INCREMENT_FLOOR * max(abs(a), abs(b)) for a, b in zip(values, values[1:])]
    if any(d <= f for d, f in zip(inc, floors)):
        return 10.0
    ratios = [b / a for a, b in zip(inc, inc[1:])]
    return -math.log10(ratios[-1])


def not_run(reason: str) -> ConvergenceReport:
    """The report of an eps ladder that did not run, and why."""
    return ConvergenceReport((), math.nan, math.nan, "not-run",
                             f"{reason}; analytic classification only")


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
    """The eps-ladder of truncated integrals, and the empirical verdict read
    off it.

    The verdict comes from the increment-ratio exponent alone
    (boundary-indeterminate inside a small band, not guessed); whether the
    integral converges is the criterion's, not this report's.  Above the rank
    cap, or when a rung leaves the double range, is not positive, falls as
    eps shrinks or rises above `full` (the full integral, when known), it is
    "not-run" and the note says why, as it is when D, the exponents' common
    denominator, exceeds 10^MAX_LADDER_DIGITS.
    """
    if spec.r > MAX_QUADRATURE_RANK:
        return not_run(_RANK_CAP)
    big_d = math.lcm(*(e.as_integer_ratio()[1] for row in spec.exponents for e in row))
    if big_d > 10 ** MAX_LADDER_DIGITS:
        return not_run(f"exponent denominator D of {Decimal(big_d).adjusted() + 1} digits "
                       f"above the ladder's budget (10^{MAX_LADDER_DIGITS})")
    ladder = tuple(sorted(eps_ladder, reverse=True))
    try:
        values = _truncations(spec, ladder)
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

    logs = [math.log(v) for v in values]
    xs = [math.log(1.0 / e) for e in ladder]
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(logs) / n
    fitted = sum((x - xbar) * (y - ybar) for x, y in zip(xs, logs)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    delta_hat = _increment_exponent(values)
    if delta_hat > _BOUNDARY_BAND:
        empirical = "convergent"
    elif delta_hat < -_BOUNDARY_BAND:
        empirical = "divergent"
    else:
        empirical = "boundary-indeterminate"
    return ConvergenceReport(tuple(zip(ladder, values)), fitted, delta_hat, empirical, None)


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
    """Recover the critical lambda from the empirical verdict only.

    The criterion is deliberately not consulted; each probe
    builds the unit-weight spec and reads the increment exponent d of its
    DEFAULT_LADDER, convergent when d > 0.  The bracket starts
    at lambda = -2 and doubles downward (or, if -2 converges, steps up
    through 0, 4, 8, ...).  Inside it, a resolved d (|d| below
    _RESOLVED_EXPONENT) is read as the distance lambda_c - lambda, since the
    exponent falls by one per unit of lambda: the next probe sits tol/4 past
    that estimate toward the farther end of the bracket, but no farther than
    its midpoint, and at the midpoint when the estimate lies outside the
    bracket.  A guided probe that fails to halve the bracket is followed by a
    midpoint probe, so the search takes at most twice the probes of a
    bisection.  Returns the midpoint of a bracket no wider than tol,
    convergent at its lower end and divergent at its upper end.

    Raises ValueError unless tol is finite and positive, or when the bracket
    reaches the spacing of doubles before it is tol wide, and ConfigurationError
    before any probe when `ladder_precheck` refuses, if no bracket is found in
    8 steps, or if a probe's ladder did not run (a rung beyond the double range).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if reason := ladder_precheck(pair, lambda0):
        raise ConfigurationError(f"eps ladder not run: {reason}")
    ws = weight_system(pair, lambda0)

    def increment_exponent(lam: float) -> float:
        rep = classify_convergence(build_integrand(pair, ws, lam), DEFAULT_LADDER)
        if rep.empirical_classification == "not-run":
            raise ConfigurationError(f"eps ladder not run at lambda = {lam}: {rep.note}")
        return rep.increment_exponent

    lo, hi = -math.inf, math.inf
    lam, steps, guided, width = -2.0, 0, False, math.inf
    while True:
        d = increment_exponent(lam)
        if d > 0.0:
            lo = lam
        else:
            hi = lam
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        if math.isinf(hi - lo):
            steps += 1
            if steps > 8:
                raise ConfigurationError(
                    f"no {'divergent' if d > 0.0 else 'convergent'} endpoint found")
            lam = 2.0 * lam if d <= 0.0 else (0.0 if lam < 0.0 else lam + 4.0)
            continue
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ValueError(f"tol = {tol} is below the spacing of doubles at lambda = {mid}")
        estimate = lam + d
        # tol/4 past the estimate toward the farther end, but not past the midpoint
        if estimate < mid:
            target = min(estimate + 0.25 * tol, mid)
        else:
            target = max(estimate - 0.25 * tol, mid)
        trusted = abs(d) < _RESOLVED_EXPONENT and not (guided and hi - lo > 0.5 * width)
        guided = trusted and lo < target < hi
        lam, width = (target if guided else mid), hi - lo
