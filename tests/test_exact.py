"""The small exact linear solver."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hdt.exact import SingularMatrixError, solve_linear


def test_solve_identity():
    v = (Fraction(3, 7), Fraction(-2), Fraction(5, 11))
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert solve_linear(m, v) == v


def test_solve_a2_cartan():
    # hand inversion of [[2,-1],[-1,2]]: inverse is 1/3 [[2,1],[1,2]]
    m = [[2, -1], [-1, 2]]
    assert solve_linear(m, (1, 0)) == (Fraction(2, 3), Fraction(1, 3))
    assert solve_linear(m, (0, 1)) == (Fraction(1, 3), Fraction(2, 3))


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear([[1, 2], [2, 4]], (1, 0))


def test_solve_needs_pivot_swap():
    # first pivot is zero: exercises the row swap
    m = [[0, 1], [1, 0]]
    assert solve_linear(m, (Fraction(5), Fraction(7))) == (Fraction(7), Fraction(5))


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=40
)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(rationals, min_size=n, max_size=n),
        )
    )
)
def test_solve_roundtrip(mx):
    m, x = mx
    try:
        v = [sum((mij * xj for mij, xj in zip(row, x)), Fraction(0)) for row in m]
        assert solve_linear(m, v) == tuple(x)
    except SingularMatrixError:
        pass  # singular draws are legitimate; nothing to check
