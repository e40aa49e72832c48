from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qhaar import ncpoly, qnum, rapid_decay
from qhaar.errors import AdmissibilityError, InvalidDimensionError
from qhaar.rapid_decay import ThreeVertexParams, TruncationLimits

import oracles


class TestThreeVertexParams:
    def test_r_property(self):
        assert ThreeVertexParams(2, 2, 2).r == 1
        assert ThreeVertexParams(3, 1, 4).r == 0
        assert ThreeVertexParams(5, 5, 0).r == 5

    def test_parity_mismatch(self):
        with pytest.raises(AdmissibilityError):
            ThreeVertexParams(2, 2, 3)

    def test_r_out_of_range(self):
        with pytest.raises(AdmissibilityError):
            ThreeVertexParams(1, 1, 4)
        with pytest.raises(AdmissibilityError):
            ThreeVertexParams(2, 2, 8)

    def test_negative(self):
        with pytest.raises(AdmissibilityError):
            ThreeVertexParams(-2, 2, 0)


class TestThreeVertexNorm:
    def test_example_222(self):
        p = ThreeVertexParams(2, 2, 2)
        assert rapid_decay.three_vertex_norm_inv_factorial(p, 3) == Fraction(9, 7)
        assert oracles.three_vertex_norm_inv_product(p, 3) == Fraction(9, 7)

    def test_r0_is_one(self):
        for n in range(0, 6):
            for k in range(0, 6):
                p = ThreeVertexParams(n, k, n + k)
                assert rapid_decay.three_vertex_norm_inv_factorial(p, 4) == 1
                assert oracles.three_vertex_norm_inv_product(p, 4) == 1

    def test_110_is_one(self):
        p = ThreeVertexParams(1, 1, 0)
        for N in (3, 5, 8):
            assert rapid_decay.three_vertex_norm_inv_factorial(p, N) == 1

    def test_radicand_example(self):
        # [2][2] / ([3][1]^2) at N = 3: 3*3 / 8
        p = ThreeVertexParams(1, 1, 2)
        assert rapid_decay.prefactor_radicand(p, 3) == Fraction(9, 8)

    def test_radicand_trivial_triple(self):
        assert rapid_decay.prefactor_radicand(ThreeVertexParams(0, 0, 0), 5) == 1

    def test_n2_rejected(self):
        p = ThreeVertexParams(2, 2, 2)
        with pytest.raises(InvalidDimensionError):
            rapid_decay.three_vertex_norm_inv_factorial(p, 2)
        with pytest.raises(InvalidDimensionError):
            rapid_decay.dn_constant(2)

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 9), st.integers(0, 9), st.data())
    def test_two_formulas_agree(self, n, k, data):
        l = data.draw(st.sampled_from(qnum.fusion_summands(n, k)))
        N = data.draw(st.sampled_from([3, 4, 7]))
        p = ThreeVertexParams(n, k, l)
        a = rapid_decay.three_vertex_norm_inv_factorial(p, N)
        b = oracles.three_vertex_norm_inv_product(p, N)
        assert a == b
        assert a > 0
        assert rapid_decay.prefactor_radicand(p, N) > 0


QUICK = TruncationLimits(r_max=24, nk_max=12)


class TestDnConstant:
    def test_bracket_at_3(self):
        b = rapid_decay.dn_constant(3, QUICK)
        assert 1 < b.value
        assert b.value <= mpmath.mpf(b.rigorous_upper.numerator) / b.rigorous_upper.denominator
        # the supremum is attained in the limit of large parameters
        assert any(x == float("inf") for x in b.argmax)

    def test_value_near_known(self):
        b = rapid_decay.dn_constant(3, QUICK)
        assert abs(b.value - mpmath.mpf("1.2992")) < 1e-3

    def test_large_n_tends_to_one(self):
        b = rapid_decay.dn_constant(50, QUICK)
        assert 1 < b.value < mpmath.mpf("1.001")

    def test_tail_error_small(self):
        _, tail = rapid_decay.rigorous_upper_bound(3)
        assert 0 < tail < Fraction(1, 10 ** 12)

    def test_upper_decreasing_in_n(self):
        uppers = [rapid_decay.rigorous_upper_bound(N)[0] for N in range(3, 11)]
        assert all(a > b for a, b in zip(uppers, uppers[1:]))

    def test_d_star_dominates(self):
        d = rapid_decay.d_star_upper()
        assert d == rapid_decay.rigorous_upper_bound(3)[0]
        assert d < 3  # sanity: the N = 3 bound is about 2.03


class TestSelectP:
    def test_postcondition_and_minimality(self):
        d = rapid_decay.d_star_upper()
        for degree in (0, 1, 2):
            for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10 ** 9)):
                m, p, achieved = rapid_decay.select_p(degree, eps, d)
                assert p == 4 * m
                # the threshold at 53 bits would round 1 + 1e-9 up by 8e-17
                with mpmath.workprec(qnum.PRECISION_BITS):
                    target = 1 + mpmath.mpf(eps.numerator) / eps.denominator
                assert achieved <= target
                if m > 1:
                    with mpmath.workprec(qnum.PRECISION_BITS):
                        D = mpmath.mpf(d.numerator) / d.denominator
                        prev = D ** (mpmath.mpf(1) / (2 * (m - 1))) \
                            * mpmath.mpf(2 * degree * (m - 1) + 1) \
                            ** (mpmath.mpf(3) / (4 * (m - 1)))
                    assert prev > target

    def test_bad_inputs(self):
        d = rapid_decay.d_star_upper()
        with pytest.raises(ValueError):
            rapid_decay.select_p(-1, Fraction(1, 2), d)
        with pytest.raises(ValueError):
            rapid_decay.select_p(2, Fraction(0), d)
        with pytest.raises(ValueError):
            rapid_decay.select_p(2, Fraction(1, 2), Fraction(1, 2))


def assert_below_rd_bound(P, N, p_list):
    """||P||_p <= D_upper * (deg P + 1)^(3/2) * ||P||_2 for each p, at N."""
    d_upper, _ = rapid_decay.rigorous_upper_bound(N)
    with mpmath.workprec(qnum.PRECISION_BITS):
        bound = rapid_decay.rd_bound(d_upper, P.degree, ncpoly.lp_norm(P, 2, N))
        for p in p_list:
            assert ncpoly.lp_norm(P, p, N) <= bound, p


class TestRdCheck:
    def test_scaled_generator_passes(self):
        P = ncpoly.scaled_generators(ncpoly.NCPolynomial.generator(1, 1, "o+"), 5)
        assert P.degree == 1
        assert_below_rd_bound(P, 5, [2, 4, 6])

    def test_sum_passes(self):
        g = ncpoly.NCPolynomial.generator
        P = ncpoly.scaled_generators(g(1, 1, "o+") + g(1, 2, "o+"), 4)
        assert_below_rd_bound(P, 4, [2, 4])
