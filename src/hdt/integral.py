"""Truncated convergence integrals over the ordered chamber in the unit cube.

The integrand is a sum over compact-part weights of products
(1-x_j^2)^E_{s,j} times the restricted-root polynomial P(x), integrated over
0 <= x_1 <= ... <= x_r <= 1-eps.  Convergence is decided analytically from
the exponents (finite iff every E_{s,j} > -1) and corroborated numerically;
quadrature is tensorized Gauss-Legendre on panels geometrically graded
toward the singular face, with the ordering handled by nested cumulative
integration (exact on each panel for polynomial degree below the order).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .cascade import restricted_root_data, strongly_orthogonal_cascade
from .criterion import as_exact
from .hermitian import HermitianPair
from .weights import (
    KssWeightSystem,
    Weight,
    lambda_one,
    weight_multiplicities,
    weight_on_coroot,
    weight_system,
)


class IntegralOverflowError(ArithmeticError):
    """Intermediate values left the double range, or cancellation left a
    truncated value that is not positive; exponents too negative for the
    chosen truncation."""


class ConfigurationError(RuntimeError):
    """Bisection could not bracket the threshold."""


DEFAULT_LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
MAX_QUADRATURE_RANK = 4


@dataclass(frozen=True)
class IntegralSpec:
    r: int
    a: int
    b: int
    exponents: tuple[tuple[Fraction | float, ...], ...]  # distinct rows E_{s,j}
    multiplicities: tuple[int, ...]  # per row, summed over the weights sharing it
    eps: float
    order: int


@dataclass(frozen=True)
class ConvergenceReport:
    classification: str  # convergent | divergent | boundary-indeterminate
    min_exponent: float
    truncated_values: tuple[tuple[float, float], ...]  # (eps, estimate)
    fitted_slope: float  # log-estimate vs log(1/eps), least squares
    increment_exponent: float  # decade ratio of successive increments
    empirical_classification: str
    formal_dimension_scalar: float | None  # up to normalization (c := 1)
    scalar_note: str | None


# -- quadrature machinery ---------------------------------------------------


@lru_cache(maxsize=None)
def _gauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=None)
def _cumulative_matrix(order: int) -> np.ndarray:
    """C[i,j] = integral of the j-th Lagrange basis polynomial (at the
    Gauss nodes) from -1 to node i; exact for degree < order."""
    x, _ = _gauss(order)
    c = np.zeros((order, order))
    for i in range(order):
        # sub-rule on [-1, x_i], exact for the degree-(order-1) basis
        sx, sw = _gauss(order)
        half = (x[i] + 1.0) / 2.0
        t = -1.0 + half * (sx + 1.0)
        for j in range(order):
            lj = np.ones_like(t)
            for k in range(order):
                if k != j:
                    lj *= (t - x[k]) / (x[j] - x[k])
            c[i, j] = half * np.dot(sw, lj)
    return c


def _panels(eps: float) -> list[tuple[float, float]]:
    """Partition of [0, 1-eps] halving geometrically toward the singular face."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    points = [0.0]
    h = 0.5
    while h > 2 * eps and 1.0 - h > points[-1]:
        points.append(1.0 - h)
        h /= 2.0
    points.append(1.0 - eps)
    return list(zip(points[:-1], points[1:]))


class _Grid:
    """Shared Gauss nodes on graded panels with cumulative integration."""

    def __init__(self, eps: float, order: int):
        ref_x, ref_w = _gauss(order)
        self.order = order
        self.cmat = _cumulative_matrix(order)
        self.panels = _panels(eps)
        xs, self.halves = [], []
        for lo, hi in self.panels:
            half = (hi - lo) / 2.0
            xs.append(lo + half * (ref_x + 1.0))
            self.halves.append(half)
        self.x = np.concatenate(xs)
        self.ref_w = ref_w

    def cumulative(self, vals: np.ndarray):
        """Running integral from 0 evaluated at every node, plus the total.

        vals has shape (..., n_nodes); returns (same shape, (...,)).
        """
        out = np.empty_like(vals)
        prefix = np.zeros(vals.shape[:-1])
        n = self.order
        for p, half in enumerate(self.halves):
            seg = vals[..., p * n : (p + 1) * n]
            out[..., p * n : (p + 1) * n] = prefix[..., None] + half * (seg @ self.cmat.T)
            prefix = prefix + half * (seg @ self.ref_w)
        return out, prefix


@lru_cache(maxsize=None)
def _p_monomials(r: int, a: int, b: int):
    """Expansion of P(x) into monomials: coefficient and per-coordinate power."""
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


def _integrate_at_order(spec: IntegralSpec, order: int) -> float:
    grid = _Grid(spec.eps, order)
    x = grid.x
    one_minus_sq = 1.0 - x * x
    coeffs, powers = _p_monomials(spec.r, spec.a, spec.b)
    xpow = {int(q): x ** int(q) for q in np.unique(powers)}

    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for mult, exps in zip(spec.multiplicities, np.array(spec.exponents, dtype=float)):
            h = None
            for j in range(spec.r):
                fj = one_minus_sq ** exps[j]
                vals = fj[None, :] * np.stack([xpow[int(q)] for q in powers[:, j]])
                if h is not None:
                    vals = vals * h
                h, totals = grid.cumulative(vals)
            total += mult * float(coeffs @ totals)
    if not math.isfinite(total):
        raise IntegralOverflowError(
            f"non-finite value at eps = {spec.eps}; exponents too negative"
        )
    return total


def integrate(spec: IntegralSpec) -> tuple[float, float]:
    """Estimate the truncated integral; returns (value, error bound).

    The bound is the difference between two quadrature orders, which is a
    faithful indicator here because panel grading keeps the integrand
    polynomial-like on every panel.
    """
    v1 = _integrate_at_order(spec, spec.order)
    v2 = _refined(spec)
    return v2, abs(v2 - v1)


def _refined(spec: IntegralSpec) -> float:
    """The value integrate() reports, without the lower order its bound needs."""
    return _integrate_at_order(spec, spec.order + 8)


# -- integrand construction --------------------------------------------------


def build_integrand(
    pair: HermitianPair,
    ws: KssWeightSystem,
    lam,
    eps: float = 1e-6,
    order: int = 16,
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
    return IntegralSpec(
        r=rd.r,
        a=rd.a,
        b=rd.b,
        exponents=tuple(tuple(s - m for s, m in zip(shift, k)) for k in rows),
        multiplicities=tuple(rows.values()),
        eps=eps,
        order=order,
    )


# -- classification -----------------------------------------------------------


_BOUNDARY_BAND = 0.01


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
    floors = [1e-12 * max(abs(a), abs(b)) for a, b in zip(values, values[1:])]
    if any(d <= f for d, f in zip(inc, floors)):
        return 10.0
    ratios = [b / a for a, b in zip(inc, inc[1:])]
    return -math.log10(ratios[-1])


def classify_convergence(
    pair: HermitianPair,
    ws: KssWeightSystem,
    lam,
    eps_ladder: tuple[float, ...] = DEFAULT_LADDER,
    order: int = 16,
    empirical_only: bool = False,
    want_scalar: bool = False,
    with_multiplicities: bool = False,
) -> ConvergenceReport:
    """Analytic classification from the exponents, corroborated on an
    eps-ladder of truncated integrals.

    Above the rank cap, or when the ladder overflows or cancels, the
    empirical part is "not-run" and the note says why.  With
    empirical_only=True the verdict comes from the increment-ratio exponent
    alone (boundary-indeterminate inside a small band, not guessed), and a
    failed ladder raises IntegralOverflowError.
    """
    rd = restricted_root_data(pair)
    quadrature = rd.r <= MAX_QUADRATURE_RANK
    spec = build_integrand(pair, ws, lam, order=order,
                           with_multiplicities=with_multiplicities and quadrature)
    min_exp = float(min(min(row) for row in spec.exponents))
    # finite iff every exponent exceeds -1
    analytic = "convergent" if all(e > -1 for row in spec.exponents for e in row) else "divergent"

    def analytic_only(reason: str) -> ConvergenceReport:
        return ConvergenceReport(analytic, min_exp, (), float("nan"), float("nan"),
                                 "not-run", None, f"{reason}; analytic classification only")

    if not quadrature:
        return analytic_only(f"rank above quadrature cap ({MAX_QUADRATURE_RANK})")
    ladder = tuple(sorted(eps_ladder, reverse=True))
    try:
        values = [_refined(replace(spec, eps=e)) for e in ladder]
        if not all(math.isfinite(v) and v > 0 for v in values):
            # cancellation in the monomial sum has eaten every significant digit
            raise IntegralOverflowError(
                f"quadrature lost precision at lambda = {lam}: truncated values "
                f"{', '.join(f'{v:.3g}' for v in values)} are not all finite and positive"
            )
    except IntegralOverflowError as exc:
        if empirical_only:
            raise
        return analytic_only(str(exc))

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

    cls = empirical if empirical_only else analytic

    scalar, note = None, None
    if want_scalar and cls == "convergent":
        scalar, note = _formal_scalar(spec, lam, min(ladder))
    return ConvergenceReport(
        cls, min_exp, tuple(zip(ladder, values)), fitted, delta_hat,
        empirical, scalar, note,
    )


def _formal_scalar(spec: IntegralSpec, lam, eps_base: float):
    """Value of the full integral, tail-extrapolated with the known exponent.

    All constants the polar-coordinate formula leaves unpinned are set to 1,
    so this is meaningful up to normalization only; in rank one the familiar
    disc factor (k-1)/pi with k = -lambda is applied for display.
    """
    e1, e2 = eps_base * 1e-2, eps_base * 1e-3
    i1 = _refined(replace(spec, eps=e1))
    i2 = _refined(replace(spec, eps=e2))
    delta = float(min(min(row) for row in spec.exponents)) + 1.0
    rho = 10.0 ** (-delta)
    value = i2 + (i2 - i1) * rho / (1.0 - rho) if rho < 1.0 else i2
    note = "up to normalization (c := 1)"
    if spec.r == 1:
        k = -float(as_exact(lam))
        value *= (k - 1.0) / math.pi
        note = "disc normalization (k-1)/pi applied, k = -lambda"
    return value, note


# -- empirical threshold ------------------------------------------------------


def empirical_threshold(
    pair: HermitianPair,
    lambda0: Weight,
    tol: float = 0.05,
    eps_ladder: tuple[float, ...] = DEFAULT_LADDER,
    order: int = 12,
) -> float:
    """Recover the critical lambda by bisection on the empirical verdict only.

    The analytic exponent test is deliberately not consulted; each probe
    classifies the eps-ladder increments.  Raises ConfigurationError if no
    bracket can be found, or if a probe's quadrature loses precision.
    """
    ws = weight_system(pair, lambda0)

    def empirically_convergent(lam: float) -> bool:
        try:
            rep = classify_convergence(
                pair, ws, lam, eps_ladder=eps_ladder, order=order, empirical_only=True
            )
        except IntegralOverflowError as exc:
            raise ConfigurationError(str(exc)) from exc
        return rep.increment_exponent > 0.0

    hi = 0.0
    tries = 0
    while empirically_convergent(hi):
        hi += 4.0
        tries += 1
        if tries > 8:
            raise ConfigurationError("no divergent endpoint found")
    lo = -2.0
    tries = 0
    while not empirically_convergent(lo):
        lo *= 2.0
        tries += 1
        if tries > 8:
            raise ConfigurationError("no convergent endpoint found")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if empirically_convergent(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
