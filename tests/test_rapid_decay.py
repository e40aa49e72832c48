from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import fone, fzero, mpf_le

from qhaar import ncpoly, qnum, rapid_decay
from qhaar.errors import InvalidDimensionError, ResourceLimitError
from qhaar.rapid_decay import TruncationLimits

import oracles


# The scan's working precision, and the agreement the exact oracles demand of it.
SCAN_BITS = qnum.PRECISION_BITS + 16
REL_TOL = mpmath.mpf(10) ** -30


def scan_matches(n, k, l, N):
    """objective_squares at (n, k, l), on the scan's own factor table, is radicand * inv_norm^2."""
    r = (n + k - l) // 2
    want = oracles.prefactor_radicand(n, k, l, N) \
        * oracles.three_vertex_norm_inv_product(n, k, l, N) ** 2
    with mpmath.workprec(SCAN_BITS):
        omq = rapid_decay.factor_table(N, n + k + 2)
        got = mpmath.mpf(list(rapid_decay.objective_squares(omq, n - r, k - r, r))[r])
        exact = mpmath.mpf(want.numerator) / want.denominator
        return abs(got - exact) <= REL_TOL * exact


class TestThreeVertexNorm:
    def test_example_222(self):
        assert oracles.three_vertex_norm_inv_factorial(2, 2, 2, 3) == Fraction(9, 7)
        assert oracles.three_vertex_norm_inv_product(2, 2, 2, 3) == Fraction(9, 7)
        assert scan_matches(2, 2, 2, 3)

    def test_r0_is_one(self):
        for n in range(0, 6):
            for k in range(0, 6):
                assert oracles.three_vertex_norm_inv_factorial(n, k, n + k, 4) == 1
                assert oracles.three_vertex_norm_inv_product(n, k, n + k, 4) == 1
                assert scan_matches(n, k, n + k, 4)

    def test_110_is_one(self):
        for N in (3, 5, 8):
            assert oracles.three_vertex_norm_inv_factorial(1, 1, 0, N) == 1
            assert scan_matches(1, 1, 0, N)

    def test_radicand_example(self):
        # [2][2] / ([3][1]^2) at N = 3: 3*3 / 8
        assert oracles.prefactor_radicand(1, 1, 2, 3) == Fraction(9, 8)
        assert scan_matches(1, 1, 2, 3)

    def test_radicand_trivial_triple(self):
        assert oracles.prefactor_radicand(0, 0, 0, 5) == 1
        assert scan_matches(0, 0, 0, 5)

    def test_n2_rejected(self):
        with pytest.raises(InvalidDimensionError):
            rapid_decay.rigorous_upper_bound(2)
        with pytest.raises(InvalidDimensionError):
            rapid_decay.dn_constant(2)

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 9), st.integers(0, 9), st.data())
    def test_two_formulas_agree(self, n, k, data):
        l = data.draw(st.sampled_from(qnum.fusion_summands(n, k)))
        N = data.draw(st.sampled_from([3, 4, 7]))
        a = oracles.three_vertex_norm_inv_factorial(n, k, l, N)
        assert a == oracles.three_vertex_norm_inv_product(n, k, l, N)
        assert a > 0
        assert oracles.prefactor_radicand(n, k, l, N) > 0
        assert scan_matches(n, k, l, N)


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


class TestScanBitIdentity:
    """The raw-tuple scan against the mpf-object scan kept in oracles, bit for bit.

    Exact equality of every rounded value is what keeps the argmax and every
    printed digit unchanged.  The argmax is decided by ties: every factor
    1 - Q^e with e >= e0 rounds to 1 (e0 = 13 at N = 57), so all points past
    the saturation edge repeat one value, and the first strict maximum is
    reported at the edge, a = b = r = e0 - 1, which prints as 24/24/24.
    The sweep also pins dn_constant's cuts, which skip rows and r-tails
    that only repeat values already seen.
    """

    @pytest.mark.parametrize("N", [3, 57])
    def test_every_objective_value_on_the_default_grid(self, N):
        t = TruncationLimits()
        values, best2, argmax = oracles.reference_dn_scan(N, t.r_max, t.nk_max)
        INF = 2 * t.nk_max + t.r_max + 2
        grid = list(range(t.nk_max + 1)) + [INF]
        checked = 0
        with mpmath.workprec(SCAN_BITS):
            omq = rapid_decay.factor_table(N, INF) + [fone] * (INF + t.r_max + 2)
            for a in grid:
                for b, row in zip(grid, rapid_decay.objective_rows(omq, a, grid, t.r_max)):
                    for r, v2 in enumerate(row):
                        assert v2 == values[a, b, r]._mpf_, (a, b, r)
                        checked += 1
            for a, b in ((0, 0), (3, 7), (INF, 5), (INF, INF)):
                assert rapid_decay.objective_squares(omq, a, b, t.r_max) \
                    == [values[a, b, r]._mpf_ for r in range(t.r_max + 1)]
            ref_value = mpmath.sqrt(best2)
        assert checked == len(values) == (t.nk_max + 2) ** 2 * (t.r_max + 1)
        b = rapid_decay.dn_constant(N)
        assert b.value._mpf_ == ref_value._mpf_
        assert b.argmax == argmax

    @pytest.mark.parametrize("trunc", [QUICK, TruncationLimits(r_max=2, nk_max=16),
                                       TruncationLimits(r_max=0, nk_max=0)])
    @pytest.mark.parametrize("N", [3, 5, 20, 50, 57, 1000])
    def test_value_and_argmax(self, N, trunc):
        _, best2, argmax = oracles.reference_dn_scan(N, trunc.r_max, trunc.nk_max)
        with mpmath.workprec(SCAN_BITS):
            ref_value = mpmath.sqrt(best2)
        b = rapid_decay.dn_constant(N, trunc)
        assert b.value._mpf_ == ref_value._mpf_
        assert b.argmax == argmax

    # e0 runs from 53 (N = 3) down to 8 (N = 1000): above and below nk_max
    # = 14 and r_max = 20, always above nk_max = 4 with a long r-tail, and
    # QUICK.
    @pytest.mark.parametrize("trunc", [TruncationLimits(r_max=20, nk_max=14),
                                       TruncationLimits(r_max=40, nk_max=4), QUICK])
    def test_cut_scan_sweep(self, trunc):
        for N in [*range(3, 61), 100, 1000]:
            _, best2, argmax = oracles.reference_dn_scan(N, trunc.r_max, trunc.nk_max)
            with mpmath.workprec(SCAN_BITS):
                ref_value = mpmath.sqrt(best2)
            b = rapid_decay.dn_constant(N, trunc)
            assert (b.value._mpf_, b.argmax) == (ref_value._mpf_, argmax), N


def padded_table(N, t=TruncationLimits()):
    """dn_constant's factor table at truncation t, padding included."""
    INF = 2 * t.nk_max + t.r_max + 2
    with mpmath.workprec(SCAN_BITS):
        return rapid_decay.factor_table(N, INF) + [fone] * (INF + t.r_max + 2)


class TestSaturation:
    """The property dn_constant's cuts rest on: the factors 1 - Q^e rise to 1 and stay there."""

    @pytest.mark.parametrize("N", [*range(3, 61), 10 ** 3, 10 ** 6])
    def test_factors_rise_and_stay_at_one(self, N):
        omq = padded_table(N)
        assert omq[0] == fzero
        assert all(mpf_le(x, y) for x, y in zip(omq, omq[1:]))
        e0 = next(i for i, x in enumerate(omq) if x == fone)
        t = TruncationLimits()
        assert e0 < 2 * t.nk_max + t.r_max + 2  # reached by the factors, not the padding
        assert all(x == fone for x in omq[e0:])
        assert rapid_decay._saturation(omq) == e0

    @pytest.mark.parametrize("N", [3, 57, 10 ** 6])
    def test_dn_constant_cuts_at_the_first_one(self, N, monkeypatch):
        seen = []
        saturation = rapid_decay._saturation

        def spy(omq):
            seen.append((saturation(omq), omq))
            return seen[-1][0]

        monkeypatch.setattr(rapid_decay, "_saturation", spy)
        rapid_decay.dn_constant(N)
        [(e0, omq)] = seen
        assert omq == padded_table(N)
        assert e0 == next(i for i, x in enumerate(omq) if x == fone)


    def test_the_cuts_start_one_index_before_saturation(self, monkeypatch):
        # e0 = 13 at N = 57: a and b on 0..11 and top = 12, r on 0..12, so 13^3
        # values are evaluated, not the 14^3 of cuts at e0.
        evaluated = []
        rows = rapid_decay.objective_rows

        def counted(*args):
            for row in rows(*args):
                evaluated.append(len(row))
                yield row

        monkeypatch.setattr(rapid_decay, "objective_rows", counted)
        assert rapid_decay.dn_constant(57).argmax == (24, 24, 24)
        assert sum(evaluated) == 13 ** 3 == 2197


class TestScanGuard:
    def test_shipped_truncations_run(self):
        # QUICK, and the truncations of the golden dn files; the default
        # runs in TestScanBitIdentity and criterion 5.
        for trunc in (QUICK, TruncationLimits(r_max=16, nk_max=8),
                      TruncationLimits(r_max=2, nk_max=16)):
            assert rapid_decay.dn_constant(3, trunc).truncation == trunc

    def test_limit_is_inclusive(self, monkeypatch):
        t = TruncationLimits(r_max=4, nk_max=3)
        points = (t.nk_max + 2) ** 2 * (t.r_max + 1)
        monkeypatch.setattr(rapid_decay, "MAX_SCAN_POINTS", points)
        assert rapid_decay.dn_constant(3, t).value > 1
        monkeypatch.setattr(rapid_decay, "MAX_SCAN_POINTS", points - 1)
        with pytest.raises(ResourceLimitError) as exc:
            rapid_decay.dn_constant(3, t)
        assert exc.value.required_k is None


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
