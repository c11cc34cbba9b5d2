"""Existence of the holomorphic discrete series: both forms of the condition.

The single-inequality form (lambda strictly below an exact rational
threshold) and the original all-noncompact-roots form are computed
independently and asserted to agree; the reduction trace exhibits the
elementary expansion behind that equivalence as a machine-checked
certificate.

Pairings are integers from one table per pair: each noncompact positive
gamma's coroot, rho(h_gamma), Lambda_1(h_gamma) and 2 (gamma|gamma).  With
lambda = n/d, d (Lambda + rho)(h_gamma) is an integer, and a `Fraction` is
built only for a returned value.  The reduction trace's lambda-free part is
checked and cached once per (pair, Lambda_0).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .cascade import restricted_root_data, strongly_orthogonal_cascade
from .hermitian import HermitianPair, partition_roots
from .rootsystem import Root, StructuralError
from .weights import Weight, _validate_lambda0, lambda_one, rho_weight, weight_on_coroot

_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")


def parse_decimal(text: str) -> Fraction:
    """Parse a plain decimal string to an exact rational.

    Scientific notation is rejected so boundary verdicts stay deterministic.
    """
    text = text.strip()
    if not _DECIMAL_RE.match(text):
        raise ValueError(f"not a plain decimal: {text!r}")
    return Fraction(text)


def as_exact(lam) -> Fraction:
    """Exact rational view of the central parameter.

    Strings must be plain decimals; floats are taken at their exact binary
    value, which keeps comparisons deterministic.
    """
    if isinstance(lam, str):
        return parse_decimal(lam)
    return Fraction(lam)


class _HighestWeightInput(NamedTuple):
    pair: HermitianPair
    lambda0: Weight  # full-rank weight coords, zero on the distinguished coroot
    lam: Fraction


class HighestWeightInput(_HighestWeightInput):
    __slots__ = ()

    def __new__(cls, pair: HermitianPair, lambda0, lam):
        return super().__new__(cls, pair, _validate_lambda0(pair, lambda0), as_exact(lam))


class CriterionVerdict(NamedTuple):
    pair_label: str
    exists: bool
    threshold: Fraction  # 1 - p - lambda0(h_r), exact
    margin: float  # threshold - lambda
    original_form_exists: bool
    witnesses: tuple[Root, ...]  # noncompact roots violating the original form
    lambda_is_integer: bool  # advisory single-valuedness flag, not enforced


class OriginalFormResult(NamedTuple):
    exists: bool
    witnesses: tuple[Root, ...]
    values: tuple[Fraction, ...]  # (Lambda + rho)(h_gamma) per noncompact root


class _Row(NamedTuple):
    gamma: Root  # a noncompact positive root
    coroot: Root
    rho: int  # rho(h_gamma)
    lam1: int  # Lambda_1(h_gamma)
    norm2: int  # 2 (gamma|gamma)


@lru_cache(maxsize=None)
def _noncompact_table(pair: HermitianPair) -> tuple[_Row, ...]:
    """The integer pairings of each noncompact positive root, in order."""
    rs = pair.root_system
    rho, lam1 = rho_weight(pair), lambda_one(pair)
    return tuple(_Row(g, rs.coroot(g), weight_on_coroot(rs, rho, g),
                      weight_on_coroot(rs, lam1, g), rs.inner2(g, g))
                 for g in partition_roots(pair).noncompact_pos)


def _pairings(inp: HighestWeightInput) -> tuple[list[int], tuple[Root, ...]]:
    """For lambda = n/d, the integer d (Lambda_0 + rho)(h_gamma) + n Lambda_1(h_gamma)
    = d (Lambda + rho)(h_gamma) per noncompact positive gamma, and the gammas
    where it is >= 0."""
    n, d = inp.lam.numerator, inp.lam.denominator
    table = _noncompact_table(inp.pair)
    nums = [d * (sum(map(mul, inp.lambda0, row.coroot)) + row.rho) + n * row.lam1
            for row in table]
    return nums, tuple(row.gamma for row, v in zip(table, nums) if v >= 0)


def hc_condition_original(inp: HighestWeightInput) -> OriginalFormResult:
    """(Lambda + rho)(h_gamma) < 0 for every noncompact positive gamma."""
    nums, witnesses = _pairings(inp)
    values = tuple(Fraction(v, inp.lam.denominator) for v in nums)
    return OriginalFormResult(not witnesses, witnesses, values)


def hc_threshold(pair: HermitianPair, lambda0: Weight) -> Fraction:
    rd = restricted_root_data(pair)
    gamma_r = strongly_orthogonal_cascade(pair).gammas[-1]
    return Fraction(1 - rd.p - weight_on_coroot(pair.root_system, lambda0, gamma_r))


def hc_condition(inp: HighestWeightInput) -> CriterionVerdict:
    """Decide existence via the single exact inequality lambda < threshold.

    The boundary lambda = threshold does not exist (the inequality is
    strict).  The original form is evaluated as well and the two verdicts
    are asserted equal; a disagreement would be an implementation bug.
    """
    threshold = hc_threshold(inp.pair, inp.lambda0)
    exists = inp.lam < threshold
    witnesses = _pairings(inp)[1]
    if exists != (not witnesses):
        raise StructuralError(
            f"{inp.pair.name}: criterion forms disagree at lambda = {inp.lam}"
        )
    return CriterionVerdict(
        pair_label=inp.pair.label,
        exists=exists,
        threshold=threshold,
        margin=float(threshold - inp.lam),
        original_form_exists=not witnesses,
        witnesses=witnesses,
        lambda_is_integer=inp.lam.denominator == 1,
    )


class TraceEntry(NamedTuple):
    gamma: Root
    expansion: tuple[int, ...]  # m with gamma = gamma_r - sum m_j alpha_j, m >= 0
    pairing: Fraction  # (Lambda + rho | gamma)
    pairing_top: Fraction  # (Lambda + rho | gamma_r)
    slack: Fraction  # pairing_top - pairing = sum m_j (Lambda_0 + rho | alpha_j) >= 0


@lru_cache(maxsize=256)  # `verify exact` uses 79 (pair, Lambda_0)
def _trace_certificate(pair: HermitianPair, lambda0: Weight):
    """The checked lambda-free part of `reduction_trace`: 4 (Lambda_0 + rho |
    gamma_r), 4 (Lambda_1 | gamma_r) and per gamma (gamma, m, s, s/4), where
    s = 4 (Lambda_0 + rho | gamma_r - gamma) and 4 (w|gamma) = w(h_gamma) 2 (gamma|gamma).
    """
    gamma_r = strongly_orthogonal_cascade(pair).gammas[-1]
    table = _noncompact_table(pair)
    top = next(row for row in table if row.gamma == gamma_r)

    def four_pairing(row: _Row) -> int:
        return (sum(map(mul, lambda0, row.coroot)) + row.rho) * row.norm2

    top4 = four_pairing(top)
    entries = []
    for row in table:
        gamma = row.gamma
        m = tuple(a - b for a, b in zip(gamma_r, gamma))
        if m[pair.node] != 0 or any(c < 0 for c in m):
            raise StructuralError(f"{pair.name}: no non-negative compact expansion for {gamma}")
        if row.lam1 * row.norm2 != top.lam1 * top.norm2:
            raise StructuralError(f"{pair.name}: (Lambda_1|gamma) differs from gamma_r at {gamma}")
        slack4 = top4 - four_pairing(row)
        if slack4 < 0:
            raise StructuralError(f"{pair.name}: monotonicity fails at {gamma}")
        entries.append((gamma, m, slack4, Fraction(slack4, 4)))
    return top4, top.lam1 * top.norm2, tuple(entries)


def reduction_trace(inp: HighestWeightInput) -> tuple[TraceEntry, ...]:
    """Certificate that the original form reduces to the single inequality.

    Every noncompact positive gamma equals gamma_r minus a non-negative
    integer combination of compact simple roots, so (Lambda + rho | gamma)
    <= (Lambda + rho | gamma_r) with slack independent of lambda; strict
    negativity of all the coroot values is then equivalent to strict
    negativity at gamma_r alone.  The slack is lambda-free because
    (Lambda_1|gamma) = (Lambda_1|gamma_r) for every noncompact gamma; that
    identity, the expansions and the integer slacks are checked and cached
    per (pair, Lambda_0), and each call adds only the pairing at gamma_r.
    """
    top4, lam1_4, entries = _trace_certificate(inp.pair, inp.lambda0)
    n, d = inp.lam.numerator, inp.lam.denominator
    top4d = d * top4 + n * lam1_4
    top = Fraction(top4d, 4 * d)
    return tuple(TraceEntry(gamma, m, Fraction(top4d - d * slack4, 4 * d), top, slack)
                 for gamma, m, slack4, slack in entries)
