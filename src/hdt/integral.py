"""Truncated convergence integrals over the ordered chamber in the unit cube.

The integrand is a sum over compact-part weights of products
(1-x_j^2)^E_{s,j} times the restricted-root polynomial P(x), integrated over
0 <= x_1 <= ... <= x_r <= 1-eps.  It converges iff every E_{s,j} > -1, which
by the weight bound is the criterion `hc_condition`; an eps-ladder of
truncations, run while dim tau is within MAX_TRACE_DIM and the rank within
MAX_QUADRATURE_RANK, corroborates it numerically, and its exponent guides
the threshold search.  A convergent integral's value is Harish-Chandra's
formal-degree product, in closed form.
Quadrature is tensorized Gauss-Legendre on panels graded geometrically
toward the singular face, with the ordering handled by nested cumulative
integration (exact on each panel for polynomial degree below the order).
The graded panels of every eps are a prefix of those of a smaller one, so a
whole ladder is one sweep: the shared panels once, then one tail panel per
eps.  Only the quadrature functions import numpy, when first called, so
importing this module (as every CLI command does) loads no numpy.
"""

from __future__ import annotations

import itertools
import math
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
    """Intermediate values left the double range; exponents too negative
    for the chosen truncation."""


class ConfigurationError(RuntimeError):
    """The threshold search could not bracket the threshold, or a probe's
    eps ladder did not run."""


DEFAULT_LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
DEFAULT_ORDER = 24  # Gauss-Legendre nodes per panel
# building the cumulative matrix costs about order^3.7: 0.4 s at 128,
# about 20 minutes at 1000
MAX_ORDER = 128
# the threshold search's probes run a lower order: they need the increment
# exponent's sign and first digits, not the values' last digits
PROBE_ORDER = 20
MAX_QUADRATURE_RANK = 4
_RANK_CAP = f"rank above quadrature cap ({MAX_QUADRATURE_RANK})"
# the largest trace (dim tau_Lambda0, by the Weyl formula) whose weights are
# enumerated for the eps ladder; the benchmark's largest is 4 096
MAX_TRACE_DIM = 10_000


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


# -- quadrature machinery ---------------------------------------------------


@lru_cache(maxsize=None)
def _gauss(order: int):
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=None)
def _cumulative_matrix(order: int):
    """C[i,j] = integral of the j-th Lagrange basis polynomial (at the
    Gauss nodes) from -1 to node i; exact for degree < order."""
    import numpy as np

    x, w = _gauss(order)
    # row i of t is the same rule mapped onto [-1, x_i], exact for the
    # degree-(order-1) basis
    half = (x + 1.0) / 2.0
    t = -1.0 + half[:, None] * (x + 1.0)
    c = np.empty((order, order))
    for j in range(order):
        lj = np.ones_like(t)
        for k in range(order):
            if k != j:
                lj *= (t - x[k]) / (x[j] - x[k])
        # one dot per entry: a batched product would round differently, and
        # the cancelling ladders are sensitive to the last ulp
        for i in range(order):
            c[i, j] = half[i] * np.dot(w, lj[i])
    return c


def _panels(eps: float) -> list[tuple[float, float]]:
    """Partition of [0, 1-eps] halving geometrically toward the singular face.

    Every panel but the last is [1 - 2^-(i-1), 1 - 2^-i] (from 0 for i = 1),
    so the graded panels of a larger eps are a prefix of a smaller one's.
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
def _p_monomials(r: int, a: int, b: int):
    """Expansion of P(x) into monomials: coefficient and per-coordinate power."""
    import numpy as np

    pairs = [(j, k) for j in range(r) for k in range(j + 1, r)]
    n_terms = (a + 1) ** len(pairs)
    if n_terms > 200_000:
        raise ValueError("restricted-root polynomial expansion too large")
    acc: dict[tuple[int, ...], int] = {}
    for choice in itertools.product(range(a + 1), repeat=len(pairs)):
        coeff = 1
        powers = [2 * b + 1] * r
        for (j, k), t in zip(pairs, choice):
            coeff *= comb(a, t) * (-1) ** (a - t)
            powers[k] += 2 * t
            powers[j] += 2 * (a - t)
        key = tuple(powers)
        acc[key] = acc.get(key, 0) + coeff
    items = [(c, p) for p, c in sorted(acc.items()) if c != 0]
    coeffs = np.array([c for c, _ in items], dtype=float)
    powers = np.array([p for _, p in items], dtype=int)
    return coeffs, powers


def _truncations(spec: IntegralSpec, eps_values: tuple[float, ...], order: int) -> list[float]:
    """Truncated integral at every eps in eps_values, each on its own panels
    of _panels(eps) at the given Gauss order.

    The graded panels of every eps are a prefix of those of the smallest,
    so one sweep integrates them once and then each eps's own tail panel,
    which starts from the shared running totals and carries its own
    inner-coordinate values through the nested integration.  Arrays are
    panel-major, (panel, monomial, node): each batched product then runs
    the same BLAS call per panel as a panel-by-panel loop, so every rung
    rounds exactly as a sweep over its eps alone, which matters for the
    ladders whose monomial sum cancels.
    """
    import numpy as np

    ref_x, ref_w = _gauss(order)
    cmat_t = _cumulative_matrix(order).T
    partitions = [_panels(e) for e in eps_values]
    shared = max(partitions, key=len)[:-1]
    n_shared = len(shared)
    starts = [len(p) - 1 for p in partitions]  # shared panels below each tail
    panels = shared + [p[-1] for p in partitions]
    halves = np.array([(hi - lo) / 2.0 for lo, hi in panels])
    x = np.array([lo + half * (ref_x + 1.0) for (lo, _), half in zip(panels, halves)])
    one_minus_sq = (1.0 - x * x)[:, None, :]
    coeffs, powers = _p_monomials(spec.r, spec.a, spec.b)
    distinct, index = np.unique(powers, return_inverse=True)
    index = index.reshape(powers.shape)
    xpow = np.stack([x ** int(q) for q in distinct], axis=1)  # (panel, power, node)

    totals = [0.0] * len(eps_values)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for mult, exps in zip(spec.multiplicities, np.array(spec.exponents, dtype=float)):
            inner = None
            for j in range(spec.r):
                vals = (xpow * one_minus_sq ** exps[j])[:, index[:, j]]
                if inner is not None:
                    vals *= inner
                per_panel = vals @ ref_w
                per_panel *= halves[:, None]
                # running totals at the start of each shared panel, and at its end
                before = np.zeros((n_shared + 1, len(coeffs)))
                np.cumsum(per_panel[:n_shared], axis=0, out=before[1:])
                tail_start = before[starts]
                if j == spec.r - 1:
                    break
                inner = vals @ cmat_t
                inner *= halves[:, None, None]
                inner[1:n_shared] += before[1:n_shared, :, None]
                inner[n_shared:] += tail_start[:, :, None]
            for i, last in enumerate(tail_start + per_panel[n_shared:]):
                totals[i] += mult * float(coeffs @ last)
    for e, total in zip(eps_values, totals):
        if not math.isfinite(total):
            raise IntegralOverflowError(
                f"non-finite value at eps = {e}; exponents too negative"
            )
    return totals


def integrate(spec: IntegralSpec, eps: float, order: int = DEFAULT_ORDER) -> float:
    """The integral truncated at 1 - eps, at the given Gauss order per panel."""
    return _truncations(spec, (eps,), order)[0]


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
# truncations of a positive integrand never decrease as eps shrinks; a rung
# that falls by more than quadrature noise (up to 4.7e-10 relative on the
# e7vii ladders that converge) means the monomial sum has cancelled its digits
_MAX_FALL = 1e-6


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


def ladder_precheck(pair: HermitianPair, lambda0: Weight) -> str | None:
    """Why the eps ladder of tau_lambda0 will not run (trace budget, then rank
    cap), or None; decided before any weight is enumerated."""
    dim = weyl_dimension(pair, lambda0)
    if dim > MAX_TRACE_DIM:
        return f"dim tau {dim} above the trace budget ({MAX_TRACE_DIM})"
    if restricted_root_data(pair).r > MAX_QUADRATURE_RANK:
        return _RANK_CAP
    return None


def classify_convergence(spec: IntegralSpec, eps_ladder: tuple[float, ...] = DEFAULT_LADDER,
                         order: int = DEFAULT_ORDER,
                         full: float | None = None) -> ConvergenceReport:
    """The eps-ladder of truncated integrals at the given Gauss order, and
    the empirical verdict read off it.

    The verdict comes from the increment-ratio exponent alone
    (boundary-indeterminate inside a small band, not guessed); whether the
    integral converges is the criterion's, not this report's.  Above the rank
    cap, or when the ladder overflows, cancels, falls or rises above `full`
    (the full integral, when known), it is "not-run" and the note says why.
    """
    if spec.r > MAX_QUADRATURE_RANK:
        return not_run(_RANK_CAP)
    ladder = tuple(sorted(eps_ladder, reverse=True))
    try:
        values = _truncations(spec, ladder, order)
    except IntegralOverflowError as exc:
        return not_run(str(exc))
    positive = all(v > 0 for v in values)
    falls = any(a - b > _MAX_FALL * a for a, b in zip(values, values[1:]))
    # no truncation of a positive integrand exceeds the full integral
    above = full is not None and any(v - full > _MAX_FALL * full for v in values)
    if not positive or falls or above:
        # cancellation in the monomial sum has eaten the significant digits
        return not_run(
            f"quadrature lost precision: truncated values "
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


def closed_form_integral(pair: HermitianPair, lambda0: Weight, lam) -> float:
    """The full integral below the threshold, trace weighted by multiplicity:
    Harish-Chandra's formal-degree product, normalized by the Faraut-Koranyi
    volume, S(r,a,b) dim tau_Lambda0 prod_beta (rho - p Lambda_1)(h_beta) /
    (Lambda + rho)(h_beta) over noncompact positive beta, where S(r,a,b) is
    the integral at Lambda0 = 0, lambda = -p (every exponent E = 0).
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
    return math.exp(log_s - math.lgamma(r + 1) - r * math.log(2)) * float(ratio)


# -- empirical threshold ------------------------------------------------------


def empirical_threshold(
    pair: HermitianPair,
    lambda0: Weight,
    tol: float = 0.05,
) -> float:
    """Recover the critical lambda from the empirical verdict only.

    The criterion is deliberately not consulted; each probe
    builds the unit-weight spec and reads the increment exponent d of its
    DEFAULT_LADDER at PROBE_ORDER, convergent when d > 0.  The bracket starts
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
    8 steps, or if a probe's ladder did not run (overflow, lost precision).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if reason := ladder_precheck(pair, lambda0):
        raise ConfigurationError(f"eps ladder not run: {reason}")
    ws = weight_system(pair, lambda0)

    def increment_exponent(lam: float) -> float:
        rep = classify_convergence(build_integrand(pair, ws, lam), DEFAULT_LADDER, PROBE_ORDER)
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
