"""Root system generation, pairings, reflections, and their invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hdt.rootsystem import CartanType, build_root_system

# classical dimension of the simple Lie algebra, for |roots| = dim - rank
DIMENSIONS = {
    ("A", 2): 8,
    ("A", 7): 63,
    ("B", 3): 21,
    ("C", 4): 36,
    ("D", 5): 45,
    ("E6", 6): 78,
    ("E7", 7): 133,
}


def test_rank_validation():
    with pytest.raises(ValueError):
        CartanType("D", 2)
    with pytest.raises(ValueError):
        CartanType("E6", 7)
    with pytest.raises(ValueError):
        CartanType("F", 4)
    with pytest.raises(ValueError):
        CartanType("A", 0)


def test_a1():
    rs = build_root_system(CartanType("A", 1))
    assert set(rs.all_roots) == {(1,), (-1,)}
    assert rs.highest_root == (1,)


def test_a2_hand_enumeration():
    # the six roots of A2, written out by hand
    rs = build_root_system(CartanType("A", 2))
    expected = {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
    assert set(rs.all_roots) == expected


def test_c2_hand_enumeration():
    rs = build_root_system(CartanType("C", 2))
    pos = {(1, 0), (0, 1), (1, 1), (2, 1)}
    assert set(rs.positive_roots) == pos
    assert rs.highest_root == (2, 1)
    # alpha_1 short, alpha_2 long under the long-root-2 normalization
    assert rs.inner2((1, 0), (1, 0)) == 2
    assert rs.inner2((0, 1), (0, 1)) == 4


def test_e7_count():
    rs = build_root_system(CartanType("E7", 7))
    assert len(rs.all_roots) == 126  # dim 133 - rank 7


@pytest.mark.parametrize("family,rank", DIMENSIONS)
def test_positive_count_matches_dimension(family, rank):
    rs = build_root_system(CartanType(family, rank))
    assert 2 * len(rs.positive_roots) == DIMENSIONS[(family, rank)] - rank


def test_cartan_integer_examples():
    rs = build_root_system(CartanType("B", 2))
    for alpha in rs.all_roots:
        assert rs.coroot_pairing(alpha, alpha) == 2
    # orthogonal pair in B2: alpha_2-string boundary roots e1-e2 and e1+e2
    assert rs.inner2((1, 0), (1, 2)) == 0
    assert rs.coroot_pairing((1, 0), (1, 2)) == 0


def test_fundamental_weights_dual_to_coroots():
    for t in (CartanType("A", 3), CartanType("C", 3), CartanType("E6", 6)):
        rs = build_root_system(t)
        for i in range(rs.rank):
            w = rs.fundamental_weight(i)
            for j, alpha in enumerate(rs.simple_roots):
                assert rs.coroot_pairing(w, alpha) == (1 if i == j else 0)


def test_is_root():
    rs = build_root_system(CartanType("A", 2))
    assert rs.is_root((1, 1))
    assert not rs.is_root((2, 0))  # reduced system
    assert not rs.is_root((0, 0))
    # entries equal to an int are that int; any other entry is not a root's
    assert rs.is_root((Fraction(2, 2), 1.0))
    assert not rs.is_root((Fraction(1, 2), 1))
    assert not rs.is_root((1.5, 0))
    assert not rs.is_root(("1", 1))
    with pytest.raises(ValueError):
        rs.is_root((1, 0, 0))


def reflect(rs, alpha, v) -> tuple:
    """Reflection of v in the hyperplane orthogonal to the root alpha:
    v - v(alpha^vee) alpha, in simple-root coordinates."""
    c = rs.coroot_pairing(v, alpha)
    return tuple(vi - c * ai for vi, ai in zip(v, alpha))


def test_reflection_basics():
    rs = build_root_system(CartanType("C", 3))
    for alpha in rs.simple_roots:
        assert reflect(rs, alpha, alpha) == tuple(-c for c in alpha)
    # perpendicular vector is fixed: in C3, (1,0,0) and (0,0,1) are orthogonal
    assert rs.inner2((1, 0, 0), (0, 0, 1)) == 0
    assert reflect(rs, (0, 0, 1), (1, 0, 0)) == (1, 0, 0)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4), ("E6", 6)])
def test_reflection_closure_exhaustive(family, rank):
    rs = build_root_system(CartanType(family, rank))
    for alpha in rs.all_roots:
        for beta in rs.all_roots:
            img = tuple(int(c) for c in reflect(rs, alpha, beta))
            assert rs.is_root(img)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3)])
def test_root_strings_unbroken(family, rank):
    rs = build_root_system(CartanType(family, rank))
    for alpha in rs.all_roots:
        for beta in rs.all_roots:
            if beta == alpha or beta == tuple(-c for c in alpha):
                continue
            hits = []
            for k in range(-4, 5):
                v = tuple(b + k * a for a, b in zip(alpha, beta))
                if rs.is_root(v):
                    hits.append(k)
            assert hits == list(range(min(hits), max(hits) + 1))
            assert len(hits) <= 4


coeffs = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=3, max_size=3
)


@settings(max_examples=60)
@given(coeffs, coeffs, st.sampled_from(range(9)))
def test_gram_weyl_invariance(u, v, root_idx):
    rs = build_root_system(CartanType("B", 3))
    alpha = rs.positive_roots[root_idx]
    su = reflect(rs, alpha, u)
    sv = reflect(rs, alpha, v)
    assert rs.inner2(su, sv) == rs.inner2(u, v)


@settings(max_examples=40)
@given(coeffs, st.sampled_from(range(9)))
def test_reflection_involutive(v, root_idx):
    rs = build_root_system(CartanType("C", 3))
    alpha = rs.positive_roots[root_idx]
    assert reflect(rs, alpha, reflect(rs, alpha, v)) == tuple(Fraction(c) for c in v)
