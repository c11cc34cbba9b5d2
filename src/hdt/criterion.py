"""Existence of the holomorphic discrete series: both forms of the condition.

The single-inequality form (lambda strictly below an exact rational
threshold) and the original all-noncompact-roots form are computed
independently and asserted to agree; the reduction trace exhibits the
elementary expansion behind that equivalence as a machine-checked
certificate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .cascade import restricted_root_data, strongly_orthogonal_cascade
from .hermitian import HermitianPair, partition_roots
from .rootsystem import Root, StructuralError
from .weights import (
    Weight,
    _add,
    _validate_lambda0,
    lambda_one,
    rho_weight,
    weight_on_coroot,
)

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


@dataclass(frozen=True)
class HighestWeightInput:
    pair: HermitianPair
    lambda0: Weight  # full-rank weight coords, zero on the distinguished coroot
    lam: Fraction

    def __post_init__(self):
        _validate_lambda0(self.pair, self.lambda0)
        object.__setattr__(self, "lambda0", tuple(int(c) for c in self.lambda0))
        object.__setattr__(self, "lam", as_exact(self.lam))


@dataclass(frozen=True)
class CriterionVerdict:
    pair_label: str
    exists: bool
    threshold: Fraction  # 1 - p - lambda0(h_r), exact
    margin: float  # threshold - lambda
    original_form_exists: bool
    witnesses: tuple[Root, ...]  # noncompact roots violating the original form
    lambda_is_integer: bool  # advisory single-valuedness flag, not enforced


@dataclass(frozen=True)
class OriginalFormResult:
    exists: bool
    witnesses: tuple[Root, ...]
    values: tuple[Fraction, ...]  # (Lambda + rho)(h_gamma) per noncompact root


def hc_condition_original(inp: HighestWeightInput) -> OriginalFormResult:
    """(Lambda + rho)(h_gamma) < 0 for every noncompact positive gamma."""
    pair = inp.pair
    rs = pair.root_system
    lam1 = lambda_one(pair)
    base = _add(inp.lambda0, rho_weight(pair))
    vals = []
    witnesses = []
    for gamma in partition_roots(pair).noncompact_pos:
        v = weight_on_coroot(rs, base, gamma) + inp.lam * weight_on_coroot(rs, lam1, gamma)
        vals.append(v)
        if v >= 0:
            witnesses.append(gamma)
    return OriginalFormResult(not witnesses, tuple(witnesses), tuple(vals))


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
    orig = hc_condition_original(inp)
    if exists != orig.exists:
        raise StructuralError(
            f"{inp.pair.name}: criterion forms disagree at lambda = {inp.lam}"
        )
    return CriterionVerdict(
        pair_label=inp.pair.label,
        exists=exists,
        threshold=threshold,
        margin=float(threshold - inp.lam),
        original_form_exists=orig.exists,
        witnesses=orig.witnesses,
        lambda_is_integer=inp.lam.denominator == 1,
    )


@dataclass(frozen=True)
class TraceEntry:
    gamma: Root
    expansion: tuple[int, ...]  # m with gamma = gamma_r - sum m_j alpha_j, m >= 0
    pairing: Fraction  # (Lambda + rho | gamma)
    pairing_top: Fraction  # (Lambda + rho | gamma_r)
    slack: Fraction  # pairing_top - pairing = sum m_j (Lambda_0 + rho | alpha_j) >= 0


def reduction_trace(inp: HighestWeightInput) -> tuple[TraceEntry, ...]:
    """Certificate that the original form reduces to the single inequality.

    Every noncompact positive gamma equals gamma_r minus a non-negative
    integer combination of compact simple roots, so (Lambda + rho | gamma)
    <= (Lambda + rho | gamma_r) with slack independent of lambda; strict
    negativity of all the coroot values is then equivalent to strict
    negativity at gamma_r alone.
    """
    pair = inp.pair
    rs = pair.root_system
    gamma_r = strongly_orthogonal_cascade(pair).gammas[-1]
    lam1 = lambda_one(pair)
    base = _add(inp.lambda0, rho_weight(pair))

    def full_pairing(v) -> Fraction:
        # (w|v) = w(h_v) (v|v) / 2
        on_coroot = weight_on_coroot(rs, base, v) + inp.lam * weight_on_coroot(rs, lam1, v)
        return on_coroot * rs.norm_sq(v) / 2

    top = full_pairing(gamma_r)
    entries = []
    for gamma in partition_roots(pair).noncompact_pos:
        m = tuple(a - b for a, b in zip(gamma_r, gamma))
        if m[pair.node] != 0 or any(c < 0 for c in m):
            raise StructuralError(
                f"{pair.name}: no non-negative compact expansion for {gamma}"
            )
        val = full_pairing(gamma)
        slack = top - val
        if slack < 0:
            raise StructuralError(f"{pair.name}: monotonicity fails at {gamma}")
        entries.append(TraceEntry(gamma, m, val, top, slack))
    return tuple(entries)
