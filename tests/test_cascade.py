"""Cascade construction, restricted multiplicities, genus, and identities."""

import itertools
import operator
from fractions import Fraction

import pytest

import hdt.cascade
from hdt.cascade import (
    CascadeResult,
    restricted_root_data,
    strongly_orthogonal_cascade,
    verify_rho_identities,
)
from hdt.hermitian import (HermitianPair, RootPartition, catalog, dim_p_plus, pair_by_label,
                          partition_roots)
from hdt.rootsystem import CartanType, StructuralError


def _strongly_orthogonal(rs, x, y):
    s = tuple(a + b for a, b in zip(x, y))
    d = tuple(a - b for a, b in zip(x, y))
    return not rs.is_root(s) and not rs.is_root(d)


def brute_force_max_orthogonal(pair):
    """Largest strongly orthogonal subset of the noncompact positive roots,
    by exhaustive subset search (the independent oracle for maximality)."""
    rs = pair.root_system
    roots = partition_roots(pair).noncompact_pos
    best = 0
    for size in range(len(roots), 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(roots, size):
            ok = all(
                _strongly_orthogonal(rs, x, y)
                for x, y in itertools.combinations(subset, 2)
            )
            if ok:
                return size
    return best


def test_su11_cascade():
    cr = strongly_orthogonal_cascade(pair_by_label("su11"))
    assert cr.gammas == ((1,),)
    assert cr.r == 1


def test_su22_rank_matches_brute_force():
    pr = pair_by_label("su22")
    cr = strongly_orthogonal_cascade(pr)
    assert cr.r == 2
    assert brute_force_max_orthogonal(pr) == 2


def test_sp3_cascade_is_the_long_roots():
    # C3 long roots: 2e1 = 2a1+2a2+a3, 2e2 = 2a2+a3, 2e3 = a3
    pr = pair_by_label("sp3")
    cr = strongly_orthogonal_cascade(pr)
    assert set(cr.gammas) == {(2, 2, 1), (0, 2, 1), (0, 0, 1)}
    assert cr.gammas[-1] == (2, 2, 1)  # ascending, highest last
    rs = pr.root_system
    assert all(rs.inner2(g, g) == 4 for g in cr.gammas)


@pytest.mark.parametrize("label", ["su12", "su22", "su23", "sp2", "sp3", "so2_5", "sostar8"])
def test_cascade_maximality_small(label):
    # brute force over all subsets wherever the noncompact set is small
    pr = pair_by_label(label)
    if len(partition_roots(pr).noncompact_pos) > 16:
        pytest.skip("noncompact set too large for exhaustive search")
    assert strongly_orthogonal_cascade(pr).r == brute_force_max_orthogonal(pr)


def test_cascade_cannot_be_extended():
    for pr in catalog():
        rs = pr.root_system
        cr = strongly_orthogonal_cascade(pr)
        for alpha in partition_roots(pr).noncompact_pos:
            if alpha in cr.gammas:
                continue
            assert not all(_strongly_orthogonal(rs, alpha, g) for g in cr.gammas)


def _restricted_coefficients(cr, alpha):
    # coordinates of alpha's restriction in the basis {gamma_j}: the gammas
    # are mutually orthogonal, so c_j = (alpha|gamma_j) / (gamma_j|gamma_j),
    # half the integer alpha(h_j)
    rs = cr.pair.root_system
    return tuple(Fraction(rs.coroot_pairing(alpha, g), 2) for g in cr.gammas)


def test_restricted_coefficients_self_and_zero():
    pr = pair_by_label("so2_5")
    cr = strongly_orthogonal_cascade(pr)
    for j, g in enumerate(cr.gammas):
        c = _restricted_coefficients(cr, g)
        assert c == tuple(Fraction(1 if i == j else 0) for i in range(cr.r))
    # so(2,5) has one compact positive root orthogonal to both gammas
    zeros = [
        alpha
        for alpha in partition_roots(pr).compact_pos
        if all(ci == 0 for ci in _restricted_coefficients(cr, alpha))
    ]
    assert len(zeros) == restricted_root_data(pr).zero_compact_count == 1


def test_restricted_coefficients_sp2_short_root():
    pr = pair_by_label("sp2")
    cr = strongly_orthogonal_cascade(pr)
    c = _restricted_coefficients(cr, (1, 0))
    assert sorted(abs(x) for x in c) == [Fraction(1, 2), Fraction(1, 2)]
    assert c[0] * c[1] < 0  # compact root restricts to a half-difference


def test_restricted_data_examples():
    rd = restricted_root_data(pair_by_label("su11"))
    assert (rd.r, rd.b, rd.p, rd.a_defined) == (1, 0, 2, False)
    assert rd.type_tag == "A_1-degenerate"

    rd = restricted_root_data(pair_by_label("su23"))
    assert (rd.r, rd.a, rd.b, rd.p) == (2, 2, 1, 5)
    assert rd.type_tag == "BC_2"
    assert dim_p_plus(pair_by_label("su23")) == rd.r + rd.a * rd.r * (rd.r - 1) // 2 + rd.b * rd.r

    rd = restricted_root_data(pair_by_label("e7vii"))
    assert (rd.r, rd.a, rd.b, rd.p) == (3, 8, 0, 18)
    assert 27 == rd.r + rd.a * rd.r * (rd.r - 1) // 2 + rd.b * rd.r


def closed_form(family, *size):
    """(r, a, b, p) of su(p,q), sp(n,R), so(2,n) and so*(2n) by their label's
    family and sizes; a is 0 in rank one."""
    if family == "su":
        p, q = size
        r, a, b, genus = min(p, q), 2, abs(p - q), p + q
    elif family == "sp":
        (n,) = size
        r, a, b, genus = n, 1, 0, n + 1
    elif family == "so2_":
        (n,) = size
        r, a, b, genus = 2, n - 2, 0, n
    else:  # sostar, of size 2n
        n = size[0] // 2
        r, a, b, genus = n // 2, 4, 2 * (n % 2), 2 * n - 2
    return r, a if r >= 2 else 0, b, genus


def test_closed_forms_whole_catalog():
    for pr in catalog():
        label = pr.label
        family = next((f for f in ("sostar", "so2_", "sp", "su") if label.startswith(f)), None)
        if family is None:
            continue  # the exceptional pairs are checked in test_restricted_data_examples
        digits = label[len(family):]
        size = tuple(map(int, digits)) if family == "su" else (int(digits),)
        assert tuple(restricted_root_data(pr))[:4] == closed_form(family, *size), label


def dominance_cascade(pair):
    """The cascade by the dominance rule: each step takes the lexicographically
    largest of the candidates that no other candidate dominates coordinatewise
    (the reference oracle for the highest-candidate rule)."""
    rs = pair.root_system
    candidates = list(partition_roots(pair).noncompact_pos)
    chosen = []
    while candidates:
        gamma = max(c for c in candidates if not any(
            d != c and all(map(operator.ge, d, c)) for d in candidates))
        chosen.append(gamma)
        candidates = [c for c in candidates if c != gamma and _strongly_orthogonal(rs, c, gamma)]
    return tuple(reversed(chosen))


def test_cascade_matches_dominance_rule_on_catalog():
    for pr in catalog():
        assert strongly_orthogonal_cascade(pr).gammas == dominance_cascade(pr), pr.label


@pytest.mark.parametrize("family,rank,node,form", [
    ("A", 23, 11, ("su", 12, 12)),
    ("C", 16, 15, ("sp", 16)),
    ("D", 16, 15, ("sostar", 32)),
    ("B", 12, 0, ("so2_", 23)),
], ids=["su(12,12)", "sp(16,R)", "so*(32)", "so(2,23)"])
def test_structure_beyond_catalog(family, rank, node, form):
    pr = HermitianPair(CartanType(family, rank), node, "beyond", "beyond")
    assert strongly_orthogonal_cascade(pr).gammas == dominance_cascade(pr)
    assert tuple(restricted_root_data(pr))[:4] == closed_form(*form)


def _restricting_to(pair, pattern, compact):
    """The first positive root on the given side whose restricted
    coefficients, sorted, are the pattern padded with zeros."""
    cr = strongly_orthogonal_cascade(pair)
    part = partition_roots(pair)
    want = sorted(list(pattern) + [0] * (cr.r - len(pattern)))
    return next(alpha for alpha in (part.compact_pos if compact else part.noncompact_pos)
                if sorted(_restricted_coefficients(cr, alpha)) == want)


def _without(roots, root):
    return tuple(x for x in roots if x != root)


SU34 = pair_by_label("su34")  # r = 3, a = 2, b = 1: every kind of restricted root
HALF = Fraction(1, 2)


def _corrupted_su34(case):
    """su(3,4)'s root partition and cascade with one defect."""
    compact, noncompact = partition_roots(SU34)
    gammas = strongly_orthogonal_cascade(SU34).gammas
    if case == "gamma-missing":  # a cascade root missing from the noncompact side
        noncompact = _without(noncompact, gammas[0])
    elif case == "gamma-twice":  # gamma_1 restricting to itself twice
        noncompact += gammas[:1]
    elif case == "pair-sum-dropped":  # one (gamma_j + gamma_k)/2 root dropped
        noncompact = _without(noncompact, _restricting_to(SU34, (HALF, HALF), False))
    elif case == "compact-pair-dropped":  # one compact (gamma_j - gamma_k)/2 root dropped
        compact = _without(compact, _restricting_to(SU34, (-HALF, HALF), True))
    elif case == "compact-half-dropped":  # one compact gamma_j/2 root dropped
        compact = _without(compact, _restricting_to(SU34, (HALF,), True))
    else:  # a cascade without gamma_1
        gammas = gammas[1:]
    return RootPartition(compact, noncompact), gammas


@pytest.mark.parametrize("case", ["gamma-missing", "gamma-twice", "pair-sum-dropped",
                                  "compact-pair-dropped", "compact-half-dropped",
                                  "cascade-without-gamma-1"])
def test_restricted_data_refuses_corrupted_input(monkeypatch, case):
    part, gammas = _corrupted_su34(case)
    monkeypatch.setattr(hdt.cascade, "partition_roots", lambda pair: part)
    monkeypatch.setattr(hdt.cascade, "strongly_orthogonal_cascade",
                        lambda pair: CascadeResult(pair, gammas))
    with pytest.raises(StructuralError):
        restricted_root_data.__wrapped__(SU34)


def test_restricted_data_refuses_a_root_restricting_to_gamma_that_is_not_gamma(monkeypatch):
    # in sp(2,R), the long root 2e_2 = a_2 pairs 2 with the coroot of the short
    # e_1 + e_2; with a cascade of e_1 + e_2 alone, and 2e_2 the only
    # noncompact root, every count is right but the root is not gamma_1
    sp2 = pair_by_label("sp2")
    monkeypatch.setattr(hdt.cascade, "partition_roots", lambda pair: RootPartition((), ((0, 1),)))
    monkeypatch.setattr(hdt.cascade, "strongly_orthogonal_cascade",
                        lambda pair: CascadeResult(pair, ((1, 1),)))
    with pytest.raises(StructuralError):
        restricted_root_data.__wrapped__(sp2)


def test_dimension_bookkeeping_exact():
    for pr in catalog():
        rd = restricted_root_data(pr)
        part = partition_roots(pr)
        half = rd.a * rd.r * (rd.r - 1) // 2 + rd.b * rd.r
        assert len(part.noncompact_pos) == rd.r + half
        assert len(part.compact_pos) == half + rd.zero_compact_count


def test_rho_identities_all_pairs():
    for pr in catalog():
        rep = verify_rho_identities(pr)
        rd = restricted_root_data(pr)
        assert rep.rho_on_h_r == rd.p - 1
        assert all(v == rd.p for v in rep.two_rho_n_on_h)
        # genus three ways: formula, 1 + rho(h_r), 2 rho_n(h_j)
        assert rd.p == (rd.r - 1) * rd.a + rd.b + 2 == 1 + rep.rho_on_h_r


def test_equal_gamma_lengths():
    for pr in catalog():
        rs = pr.root_system
        cr = strongly_orthogonal_cascade(pr)
        top = rs.inner2(rs.highest_root, rs.highest_root)
        assert all(rs.inner2(g, g) == top for g in cr.gammas)
