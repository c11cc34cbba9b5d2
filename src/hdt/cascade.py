"""The strongly-orthogonal-root cascade and the restricted-root invariants.

Greedy descent from the highest noncompact root produces the maximal family
gamma_1, ..., gamma_r with gamma_j +- gamma_k never a root.  Projecting every
positive root onto the span of the gammas classifies the restricted roots,
whose multiplicities (a, b) determine the genus p = (r-1)a + b + 2.
"""

from __future__ import annotations

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


def _dominates(d: Root, c: Root) -> bool:
    return d != c and all(di >= ci for di, ci in zip(d, c))


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
        maximal = [
            c for c in candidates if not any(_dominates(d, c) for d in candidates)
        ]
        # dominance maximum is unique in these systems; lexicographic max as a
        # deterministic tie-break regardless
        gamma = max(maximal)
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


@lru_cache(maxsize=None)
def restricted_root_data(pair: HermitianPair) -> RestrictedData:
    """Classify every positive root by its restriction and count multiplicities.

    Noncompact positive roots must restrict to gamma_j (once each, and only
    gamma_j itself does), (gamma_j + gamma_k)/2 with a uniform count a, or
    gamma_j/2 with a uniform count b.  Compact positive roots restrict to 0,
    +-(gamma_j - gamma_k)/2 (count a) or +-gamma_j/2 (count b).  Any other
    pattern, or non-uniform counts, is a structural error.
    """
    cr = strongly_orthogonal_cascade(pair)
    part = partition_roots(pair)
    rs = pair.root_system
    r = cr.r

    full: dict[int, int] = {}
    nc_half: dict[int, int] = {}
    nc_pair: dict[tuple[int, int], int] = {}
    c_half: dict[int, int] = {}
    c_pair: dict[tuple[int, int], int] = {}
    zero_compact = 0

    def pattern(alpha: Root):
        # c_j = alpha(h_j), twice the restricted coefficient
        c = tuple(rs.coroot_pairing(alpha, g) for g in cr.gammas)
        support = [(j, cj) for j, cj in enumerate(c) if cj != 0]
        if not support:
            return ("zero",)
        if len(support) == 1:
            j, cj = support[0]
            if cj == 2:
                return ("full", j)
            if abs(cj) == 1:
                return ("half", j, cj)
        elif len(support) == 2:
            (j, cj), (k, ck) = support
            if abs(cj) == 1 and abs(ck) == 1:
                if cj > 0 and ck > 0:
                    return ("pair_sum", j, k)
                if cj * ck < 0:
                    return ("pair_diff", j, k)
        raise StructuralError(f"{pair.name}: unclassifiable restriction {c} of {alpha}")

    for alpha in part.noncompact_pos:
        pat = pattern(alpha)
        if pat[0] == "full":
            if alpha != cr.gammas[pat[1]]:
                raise StructuralError(f"{pair.name}: non-cascade root restricts to gamma")
            full[pat[1]] = full.get(pat[1], 0) + 1
        elif pat[0] == "half":
            if pat[2] != 1:
                raise StructuralError(f"{pair.name}: noncompact root with negative restriction")
            nc_half[pat[1]] = nc_half.get(pat[1], 0) + 1
        elif pat[0] == "pair_sum":
            key = (pat[1], pat[2])
            nc_pair[key] = nc_pair.get(key, 0) + 1
        else:
            raise StructuralError(f"{pair.name}: noncompact root restricts to {pat}")

    for alpha in part.compact_pos:
        pat = pattern(alpha)
        if pat[0] == "zero":
            zero_compact += 1
        elif pat[0] == "half":
            c_half[pat[1]] = c_half.get(pat[1], 0) + 1
        elif pat[0] == "pair_diff":
            key = (pat[1], pat[2])
            c_pair[key] = c_pair.get(key, 0) + 1
        else:
            raise StructuralError(f"{pair.name}: compact root restricts to {pat}")

    if sorted(full) != list(range(r)) or any(v != 1 for v in full.values()):
        raise StructuralError(f"{pair.name}: gamma multiplicities not all 1")

    def uniform(counts: dict, keys: list, what: str) -> int:
        vals = [counts.get(k, 0) for k in keys]
        if not vals:
            return 0
        if len(set(vals)) != 1:
            raise StructuralError(f"{pair.name}: non-uniform {what} multiplicities {counts}")
        return vals[0]

    all_pairs = [(j, k) for j in range(r) for k in range(j + 1, r)]
    a_nc = uniform(nc_pair, all_pairs, "noncompact pair")
    a_c = uniform(c_pair, all_pairs, "compact pair")
    b_nc = uniform(nc_half, list(range(r)), "noncompact half")
    b_c = uniform(c_half, list(range(r)), "compact half")
    if a_nc != a_c or b_nc != b_c:
        raise StructuralError(
            f"{pair.name}: compact/noncompact multiplicities disagree "
            f"(a: {a_nc}/{a_c}, b: {b_nc}/{b_c})"
        )

    a, b = a_nc, b_nc
    a_defined = r >= 2
    p = (r - 1) * a + b + 2
    if b > 0:
        tag = f"BC_{r}"
    elif r >= 2:
        tag = f"B_{r}"
    else:
        tag = "A_1-degenerate"
    return RestrictedData(r, a, b, p, tag, a_defined, zero_compact)


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
