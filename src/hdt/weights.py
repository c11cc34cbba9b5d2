"""Weights on the full Cartan subalgebra and the compact-part weight systems.

A weight is a tuple of integer values on the simple coroots
(fundamental-weight coordinates); it pairs with a root's coroot by an
integer dot product against the coroot table of `rootsystem`.  rho and the
Weyl dimension are integers too: a remainder in halving or dividing them
is a StructuralError.  One function, `_validate_lambda0`, checks every
highest weight Lambda0.  Multiplicities come from Freudenthal's recursion
on the dominant weights alone, each carried over its compact Weyl group
orbit, from Lambda0 alone (`weight_multiplicities`); their sum is checked
against the Weyl dimension.  They are the one source of the eps ladder's
trace, and never change a convergence verdict.  String saturation from
the highest weight (`weight_system`) serves the weight bound and the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub
from typing import NamedTuple

from .cascade import root_sum, strongly_orthogonal_cascade
from .hermitian import HermitianPair, compact_nodes, partition_roots
from .rootsystem import RootSystem, StructuralError

Weight = tuple[int, ...]


def weight_on_coroot(rs: RootSystem, w: Weight, alpha) -> int:
    """w evaluated on the coroot of the root alpha."""
    return sum(map(mul, w, rs.coroot(alpha)))


@lru_cache(maxsize=None)
def rho_weight(pair: HermitianPair) -> Weight:
    """rho, the half sum of the positive roots, in weight coordinates."""
    rs = pair.root_system
    two_rho = rs.weight_coords(root_sum(rs, rs.positive_roots))
    if any(c % 2 for c in two_rho):
        raise StructuralError(f"{pair.name}: rho is not integral on the simple coroots")
    return tuple(c // 2 for c in two_rho)


def lambda_one(pair: HermitianPair) -> Weight:
    """The fundamental weight dual to the distinguished noncompact node."""
    return tuple(int(i == pair.node) for i in range(pair.root_system.rank))


def extend_compact_coords(pair: HermitianPair, compact_coords) -> Weight:
    """Zero-extend coordinates given on the compact nodes to the full Cartan,
    and check them as `_validate_lambda0` does."""
    full, nodes = list(compact_coords), compact_nodes(pair)
    if len(full) != len(nodes):
        raise ValueError(f"{pair.label} needs {len(nodes)} lambda0 coordinates "
                         f"(compact nodes {[n + 1 for n in nodes]}), got {len(full)}")
    full.insert(pair.node, 0)  # the compact nodes are the others, in order
    return _validate_lambda0(pair, full)


def compact_fundamental_weights(pair: HermitianPair) -> tuple[Weight, ...]:
    """Unit weights on each compact node (zero on the distinguished coroot)."""
    n = pair.root_system.rank
    return tuple(tuple(int(j == i) for j in range(n)) for i in compact_nodes(pair))


class KssWeightSystem(NamedTuple):
    pair: HermitianPair
    highest: Weight
    weights: tuple[Weight, ...]  # sorted, without multiplicities


def _validate_lambda0(pair: HermitianPair, lambda0) -> Weight:
    """Lambda0 as a tuple of ints, after its four rules: one coordinate per
    node, zero on the distinguished node, integral and dominant.  A broken
    rule raises ValueError."""
    nodes, rank = compact_nodes(pair), pair.root_system.rank
    if len(lambda0) != rank:
        raise ValueError(f"{pair.label} needs {rank} lambda0 coordinates (one per node, "
                         f"zero at node {pair.node + 1}), got {len(lambda0)}")
    if lambda0[pair.node] != 0:
        raise ValueError("lambda0 must vanish on the distinguished coroot")
    for i in nodes:
        v = lambda0[i]
        if int(v) != v:
            raise ValueError(f"lambda0 must be integral, got {v} at node {i + 1}")
        if v < 0:
            raise ValueError(f"lambda0 must be dominant, got {v} at node {i + 1}")
    return tuple(int(c) for c in lambda0)


@lru_cache(maxsize=256)  # `verify exact` uses 79 (pair, Lambda_0)
def weight_system(pair: HermitianPair, lambda0: Weight) -> KssWeightSystem:
    """Weight support of the compact-part irreducible with highest weight lambda0.

    Worklist saturation: from each known weight mu and each compact simple
    root alpha with mu(h_alpha) = c > 0, the weights mu - alpha, ...,
    mu - c*alpha all occur.  The closure of this rule from the highest weight
    is exactly the support of the irreducible.  Only the top of each string
    walks it: mu is skipped for alpha when mu + alpha is known, since that
    weight's string reaches past mu - c*alpha, so each string is walked
    about once.
    """
    start = _validate_lambda0(pair, lambda0)
    rs = pair.root_system
    rows = {i: rs.cartan[i] for i in compact_nodes(pair)}
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for mu in frontier:
            for i, row in rows.items():
                c = mu[i]
                if c <= 0 or tuple(m + ri for m, ri in zip(mu, row)) in seen:
                    continue
                for k in range(1, c + 1):
                    cand = tuple(m - k * ri for m, ri in zip(mu, row))
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return KssWeightSystem(pair, start, tuple(sorted(seen, reverse=True)))


@lru_cache(maxsize=None)
def _compact_roots(pair: HermitianPair) -> tuple[Weight, tuple]:
    """2 rho_c in weight coordinates, and per compact positive root alpha its
    weight coordinates, its simple-root coordinates, its coroot and
    2(alpha|alpha)."""
    rs = pair.root_system
    compact_pos = partition_roots(pair).compact_pos
    return (rs.weight_coords(root_sum(rs, compact_pos)),
            tuple((rs.weight_coords(a), a, rs.coroot(a), rs.inner2(a, a)) for a in compact_pos))


@lru_cache(maxsize=256)  # `verify exact` uses 79 (pair, Lambda_0)
def weight_multiplicities(pair: HermitianPair, lambda0: Weight) -> dict[Weight, int]:
    """Multiplicity of every weight of the compact-part irreducible with
    highest weight lambda0, from lambda0 alone.

    Freudenthal's formula (lam - nu | lam + nu + 2 rho_c) m(nu) =
    2 sum_(alpha, k >= 1) m(nu + k alpha) (nu + k alpha | alpha) is used scaled
    by 4, which makes both sides integers: with lam - nu = sum n_i alpha_i and
    x the weight coordinates of lam + nu + 2 rho_c, the left factor is
    sum_i n_i x_i 2(alpha_i|alpha_i), and 4 (w|alpha) = w(alpha^vee) 2(alpha|alpha).
    It runs on the dominant weights alone, walked from lam by compact positive
    roots (Stembridge, Adv. Math. 136 (1998)) with n carried, in order of
    height.  The string sums T(w, alpha) = sum_(k >= 0) m(w + k alpha)
    (w + k alpha)(alpha^vee) are W_c-invariant, so for nu dominant T(nu +
    alpha, alpha) = m(w) w(beta^vee) + T(w + beta, beta), where (w, beta) is
    (nu + alpha, alpha) moved into the dominant chamber: beta is positive and
    w lies above nu, so that tail was kept when w was reached, and each
    (dominant weight, root) costs one step.  Simple reflections then carry
    each multiplicity over its W_c-orbit (Moody and Patera, Bull. AMS 7
    (1982)).  The multiplicities must sum to `weyl_dimension`, an independent
    closed form, or StructuralError is raised.  lambda0 is checked as
    `_validate_lambda0` does; cached per (pair, lambda0).
    """
    lam = _validate_lambda0(pair, lambda0)
    rs = pair.root_system
    rows = {i: rs.cartan[i] for i in compact_nodes(pair)}
    two_rho_c, alphas = _compact_roots(pair)
    diag = [rs.sym[i][i] for i in range(rs.rank)]
    dominant = {lam: (0,) * rs.rank}  # dominant weight mu -> n of lam - mu
    for mu in (todo := [lam]):
        for aw, a, _, _ in alphas:
            nu = tuple(map(sub, mu, aw))
            if nu not in dominant and all(nu[i] >= 0 for i in rows):
                dominant[nu] = tuple(map(add, dominant[mu], a))
                todo.append(nu)
    mults: dict[Weight, int] = {lam: 1}
    # (dominant w, alpha) -> T(w + alpha, alpha); no lam + alpha is a weight
    tails = {(lam, aw): 0 for aw, _, _, _ in alphas}
    for nu in sorted(dominant, key=lambda mu: sum(dominant[mu]))[1:]:  # lam first
        for aw, _, coroot, _ in alphas:
            # (nu + alpha, alpha) moved by simple reflections to (w, beta), w
            # dominant: w(beta^vee) = nu(alpha^vee) + 2 > 0 makes beta positive
            w, beta = tuple(map(add, nu, aw)), aw
            while (i := next((i for i in rows if w[i] < 0), None)) is not None:
                c, d = w[i], beta[i]
                w = tuple(m - c * ri for m, ri in zip(w, rows[i]))
                beta = tuple(m - d * ri for m, ri in zip(beta, rows[i]))
            tails[nu, aw] = (mults[w] * (sum(map(mul, nu, coroot)) + 2) + tails[w, beta]
                             if w in mults else 0)
        rhs = sum(nsq2 * tails[nu, aw] for aw, _, _, nsq2 in alphas)
        x = (a + b + c for a, b, c in zip(lam, nu, two_rho_c))
        denom = sum(ni * xi * di for ni, xi, di in zip(dominant[nu], x, diag))
        if denom == 0:
            raise StructuralError("vanishing denominator in multiplicity recursion")
        val, rem = divmod(2 * rhs, denom)
        if rem or val <= 0:
            raise StructuralError(f"non-positive-integer multiplicity {Fraction(2 * rhs, denom)}")
        mults[nu] = val
    for mu, m in list(mults.items()):
        for w in (orbit := [mu]):
            for i, row in rows.items():
                if (c := w[i]) > 0 and (v := tuple(a - c * ri for a, ri in zip(w, row))) not in mults:
                    mults[v] = m
                    orbit.append(v)
    if (total := sum(mults.values())) != (dim := weyl_dimension(pair, lam)):
        raise StructuralError(f"multiplicities sum to {total}, not the Weyl dimension {dim}")
    return mults


def freudenthal_multiplicity(ws: KssWeightSystem, mu: Weight) -> int:
    """Multiplicity of mu in the compact-part irreducible."""
    m = weight_multiplicities(ws.pair, ws.highest).get(tuple(mu))
    if m is None:
        raise ValueError("mu is not a weight of this representation")
    return m


def weyl_dimension(pair: HermitianPair, lambda0: Weight) -> int:
    # dim tau_lambda0 = prod (lam + rho_c | alpha) / (rho_c | alpha) over the
    # compact positive roots, each ratio read on alpha^vee; no weight is built
    lambda0 = _validate_lambda0(pair, lambda0)  # a ValueError, not a failed theorem
    two_rho_c, alphas = _compact_roots(pair)
    shifted = tuple(2 * c + t for c, t in zip(lambda0, two_rho_c))
    num = den = 1
    for _, _, coroot, _ in alphas:
        num *= sum(map(mul, shifted, coroot))
        den *= sum(map(mul, two_rho_c, coroot))
    dim, rem = divmod(num, den)
    if rem:
        raise StructuralError(f"{pair.name}: Weyl dimension {num}/{den} is not an integer")
    return dim


class WeightBoundReport(NamedTuple):
    pair_label: str
    lambda0: Weight
    bound: Fraction  # (lambda0 | gamma_r)
    n_checked: int
    max_value: Fraction
    equality_attained: bool


def verify_weight_bound(pair: HermitianPair, ws: KssWeightSystem) -> WeightBoundReport:
    """Exhaustive exact check of (Lambda^s | gamma_j) <= (Lambda_0 | gamma_r).

    A violation raises StructuralError (the inequality is a theorem).  The
    gammas share one length, so (w | gamma) = w(h_gamma) (gamma|gamma) / 2
    is compared through the integer w(h_gamma).
    """
    rs = pair.root_system
    gammas = strongly_orthogonal_cascade(pair).gammas
    half_len = Fraction(rs.inner2(gammas[-1], gammas[-1]), 4)
    top = weight_on_coroot(rs, ws.highest, gammas[-1])
    max_val = None
    n = 0
    for mu in ws.weights:
        for g in gammas:
            v = weight_on_coroot(rs, mu, g)
            n += 1
            if v > top:
                raise StructuralError(
                    f"{pair.name}: weight bound violated: "
                    f"({mu}|{g}) = {v * half_len} > {top * half_len}"
                )
            if max_val is None or v > max_val:
                max_val = v
    return WeightBoundReport(
        pair.label, ws.highest, top * half_len, n, max_val * half_len, max_val == top
    )
