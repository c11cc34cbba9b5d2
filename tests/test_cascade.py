"""Cascade construction, restricted multiplicities, genus, and identities."""

import itertools
from fractions import Fraction

import pytest

from hdt.cascade import (
    restricted_root_data,
    strongly_orthogonal_cascade,
    verify_rho_identities,
)
from hdt.hermitian import catalog, dim_p_plus, pair_by_label, partition_roots


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


def test_closed_forms_whole_catalog():
    for pr in catalog():
        rd = restricted_root_data(pr)
        label = pr.label
        if label.startswith("su"):
            p, q = int(label[2]), int(label[3])
            assert rd.r == min(p, q)
            assert rd.b == abs(p - q)
            assert rd.p == p + q
            if rd.a_defined:
                assert rd.a == 2
        elif label.startswith("sp"):
            n = int(label[2:])
            assert (rd.r, rd.b, rd.p) == (n, 0, n + 1)
            if rd.a_defined:
                assert rd.a == 1
        elif label.startswith("so2_"):
            n = int(label[4:])
            assert (rd.r, rd.a, rd.b, rd.p) == (2, n - 2, 0, n)
        elif label.startswith("sostar"):
            n = int(label[6:]) // 2
            assert rd.r == n // 2
            assert rd.b == 2 * (n % 2)
            assert rd.p == 2 * n - 2
            if rd.a_defined:
                assert rd.a == 4


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
