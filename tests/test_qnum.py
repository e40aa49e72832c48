from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qhaar import qnum
from qhaar.errors import InvalidDimensionError


def test_q_of_N_exact_at_two():
    lo, hi = qnum.q_of_N(2)
    assert lo == hi == 1


def test_q_of_N_three_matches_radical():
    # q(3) = (3 - sqrt(5)) / 2, solved by radicals.
    lo, hi = qnum.q_of_N(3)
    assert hi - lo <= Fraction(1, 2 ** 128)
    assert abs(float(lo) - (3 - 5 ** 0.5) / 2) < 1e-12
    # the bracket really contains the root of q^2 - 3q + 1
    assert lo * lo - 3 * lo + 1 >= 0
    assert hi * hi - 3 * hi + 1 <= 0


def test_q_decreasing_in_N():
    assert qnum.q_of_N(4)[1] < qnum.q_of_N(3)[0]


def test_q_of_N_rejects_small():
    with pytest.raises(InvalidDimensionError):
        qnum.q_of_N(1)


def test_q_int_at_q_one_is_classical():
    for a in range(10):
        assert qnum.q_int(a, 2) == a


def test_q_int_values_at_three():
    assert [qnum.q_int(a, 3) for a in (1, 2, 3, 4)] == [1, 3, 8, 21]


def test_q_int_zero():
    assert qnum.q_int(0, 5) == 0


def test_q_factorial():
    assert qnum.q_factorial(0, 3) == 1
    assert qnum.q_factorial(3, 3) == 24
    assert qnum.q_factorial(4, 3) == 504


def test_dim_irrep():
    assert qnum.dim_irrep(0, 7) == 1
    assert qnum.dim_irrep(2, 3) == 8
    assert qnum.dim_irrep(3, 3) == 21


def test_fusion_summands():
    assert qnum.fusion_summands(0, 5) == [5]
    assert qnum.fusion_summands(1, 4) == [5, 3]
    assert qnum.fusion_summands(2, 2) == [4, 2, 0]
    assert len(qnum.fusion_summands(3, 7)) == 4


@given(st.integers(0, 12), st.integers(0, 12), st.integers(3, 10))
def test_dimension_identity(n, k, N):
    lhs = qnum.dim_irrep(n, N) * qnum.dim_irrep(k, N)
    rhs = sum(qnum.dim_irrep(l, N) for l in qnum.fusion_summands(n, k))
    assert lhs == rhs


@given(st.integers(1, 50), st.integers(2, 10))
def test_q_int_matches_bracketed_real(a, N):
    # (q^a - q^-a)/(q - 1/q) evaluated on the rational bracket must straddle
    # the integer recursion value.
    # q^-a amplifies the bracket width by ~N^a, so bracket generously.
    lo, hi = qnum.q_of_N(N, precision_bits=448)
    val = qnum.q_int(a, N)
    for q in (lo, hi):
        if q == 1:
            continue
        approx = (q ** a - q ** -a) / (q - 1 / q)
        assert abs(approx - val) < Fraction(1, 2 ** 32)


@given(st.integers(1, 30), st.integers(2, 9))
def test_q_int_strictly_increasing(a, N):
    assert qnum.q_int(a + 1, N) > qnum.q_int(a, N)
    assert qnum.q_int(a, N + 1) >= qnum.q_int(a, N)
    if a >= 2:
        assert qnum.q_int(a, N + 1) > qnum.q_int(a, N)

