"""The strongly-orthogonal-root cascade and the restricted-root invariants.

A greedy step takes the highest remaining noncompact root (largest height,
then lexicographically largest) and keeps only the candidates strongly
orthogonal to it; repeated, it produces the maximal family gamma_1, ...,
gamma_r with gamma_j +- gamma_k never a root.  Projecting every positive
root onto the span of the gammas classifies the restricted roots, whose
multiplicities (a, b) determine the genus p = (r-1)a + b + 2.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .hermitian import HermitianPair, partition_roots
from .rootsystem import Root, StructuralError


class CascadeResult(NamedTuple):
    """gammas ascending: gammas[-1] is the highest noncompact root."""

    pair: HermitianPair
    gammas: tuple[Root, ...]

    @property
    def r(self) -> int:
        return len(self.gammas)


class RestrictedData(NamedTuple):
    r: int
    a: int  # 0 with a_defined=False in the rank-1 degenerate case
    b: int
    p: int
    type_tag: str  # "B_r", "BC_r" or "A_1-degenerate"
    a_defined: bool
    zero_compact_count: int  # compact positive roots restricting to 0


def _strongly_orthogonal(rs, x: Root, y: Root) -> bool:
    s = tuple(a + b for a, b in zip(x, y))
    d = tuple(a - b for a, b in zip(x, y))
    return not rs.is_root(s) and not rs.is_root(d)


@lru_cache(maxsize=None)
def strongly_orthogonal_cascade(pair: HermitianPair) -> CascadeResult:
    rs = pair.root_system
    candidates = list(partition_roots(pair).noncompact_pos)
    chosen: list[Root] = []
    while candidates:
        # the highest candidate: largest height, then lexicographically largest
        gamma = max(candidates, key=lambda c: (sum(c), c))
        chosen.append(gamma)
        # gamma itself passes the +- test (2 gamma and 0 are not roots), so
        # drop it explicitly
        candidates = [
            c for c in candidates if c != gamma and _strongly_orthogonal(rs, c, gamma)
        ]

    gammas = tuple(reversed(chosen))
    if len({rs.inner2(g, g) for g in gammas}) != 1:
        raise StructuralError(f"{pair.name}: cascade roots of unequal length")
    for i, gi in enumerate(gammas):
        for gj in gammas[i + 1 :]:
            if not _strongly_orthogonal(rs, gi, gj):
                raise StructuralError(f"{pair.name}: cascade not strongly orthogonal")
    return CascadeResult(pair, gammas)


# the nonzero alpha(h_j) a positive root may have, by side (compact or not):
# gamma_j, gamma_j/2, (gamma_j + gamma_k)/2 noncompact; 0, +-gamma_j/2,
# +-(gamma_j - gamma_k)/2 compact
_ALLOWED = {
    False: {(2,), (1,), (1, 1)},
    True: {(), (1,), (-1,), (1, -1), (-1, 1)},
}


@lru_cache(maxsize=None)
def restricted_root_data(pair: HermitianPair) -> RestrictedData:
    """Classify every positive root by its restriction and count multiplicities.

    Noncompact positive roots must restrict to gamma_j (once each, and only
    gamma_j itself does), (gamma_j + gamma_k)/2 with a uniform count a, or
    gamma_j/2 with a uniform count b.  Compact positive roots restrict to 0,
    +-(gamma_j - gamma_k)/2 (count a) or +-gamma_j/2 (count b).  One pass
    counts the roots by side and restriction; any other restriction, or any
    other count, is a structural error.
    """
    cr = strongly_orthogonal_cascade(pair)
    part = partition_roots(pair)
    rs = pair.root_system
    r = cr.r
    # key: side, and the j with alpha(h_j) != 0, repeated |alpha(h_j)| times
    counts: Counter[tuple[bool, tuple[int, ...]]] = Counter()
    for compact, roots in ((False, part.noncompact_pos), (True, part.compact_pos)):
        for alpha in roots:
            # c_j = alpha(h_j), twice the restricted coefficient
            c = tuple(rs.coroot_pairing(alpha, g) for g in cr.gammas)
            support = [j for j, cj in enumerate(c) if cj]
            if tuple(c[j] for j in support) not in _ALLOWED[compact]:
                raise StructuralError(f"{pair.name}: unclassifiable restriction {c} of {alpha}")
            if 2 in c and alpha != cr.gammas[support[0]]:
                raise StructuralError(f"{pair.name}: non-cascade root {alpha} restricts to gamma")
            counts[compact, tuple(j for j in support for _ in range(abs(c[j])))] += 1

    zero_compact = counts.pop((True, ()), 0)
    a, b = counts[False, (0, 1)], counts[False, (0,)]
    expected = Counter({(False, (j, j)): 1 for j in range(r)})
    for compact in (False, True):
        expected.update({(compact, (j,)): b for j in range(r)})
        expected.update({(compact, (j, k)): a for j in range(r) for k in range(j + 1, r)})
    if counts != expected:
        raise StructuralError(
            f"{pair.name}: restricted multiplicities {dict(counts)} are not 1 on each "
            f"gamma_j, a = {a} on each pair and b = {b} on each gamma_j/2, on both sides"
        )

    p = (r - 1) * a + b + 2
    tag = f"BC_{r}" if b else f"B_{r}" if r >= 2 else "A_1-degenerate"
    return RestrictedData(r, a, b, p, tag, r >= 2, zero_compact)


class RhoReport(NamedTuple):
    pair_label: str
    p: int
    rho_on_h_r: int  # must equal p - 1
    two_rho_n_on_h: tuple[int, ...]  # must equal p for every j


def root_sum(rs, roots) -> Root:
    """Sum of roots in simple-root coordinates, e.g. 2 rho from the positive roots."""
    return tuple(sum(root[i] for root in roots) for i in range(rs.rank))


def verify_rho_identities(pair: HermitianPair) -> RhoReport:
    """Exact check that rho(h_r) = p - 1 and 2 rho_n(h_j) = p for all j.

    These are theorems; failure raises StructuralError.
    """
    rs = pair.root_system
    part = partition_roots(pair)
    cr = strongly_orthogonal_cascade(pair)
    rd = restricted_root_data(pair)

    # 2 rho is the sum of the positive roots: an odd value fails the test too
    two_rho_hr = rs.coroot_pairing(root_sum(rs, rs.positive_roots), cr.gammas[-1])
    if two_rho_hr != 2 * (rd.p - 1):
        raise StructuralError(f"{pair.name}: 2 rho(h_r) = {two_rho_hr} != 2 (p - 1) = {2 * (rd.p - 1)}")
    sum_n = root_sum(rs, part.noncompact_pos)
    two_rho_n = tuple(rs.coroot_pairing(sum_n, g) for g in cr.gammas)
    for j, v in enumerate(two_rho_n):
        if v != rd.p:
            raise StructuralError(f"{pair.name}: 2 rho_n(h_{j+1}) = {v} != p = {rd.p}")
    return RhoReport(pair.label, rd.p, two_rho_hr // 2, two_rho_n)
