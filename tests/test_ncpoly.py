import functools
import math
import operator
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from qhaar import exactla, freelimit, ncpoly, qnum, weingarten
from qhaar.errors import (InvalidDimensionError, InvalidIndexError, ModelMismatchError,
                          PolyParseError, ResourceLimitError)
from qhaar.ncpoly import ONE, ZERO, GaussianRational, NCPolynomial

import oracles


def x(i, j):
    return NCPolynomial.generator(i, j, "o+")


def vgen(i, j, star=False):
    return NCPolynomial.generator(i, j, "u+", star=star)


FRACTIONS = st.fractions(min_value=-100, max_value=100, max_denominator=50)
PARTS = FRACTIONS | st.integers(-100, 100)  # coefficient parts come as both types
NONZERO = PARTS.filter(bool)


def fraction_str(re, im) -> str:
    """str() of a coefficient whose parts were both kept as Fractions."""
    return str(Fraction(re)) if im == 0 else f"{Fraction(re)}+{Fraction(im)}i"


def assert_parts(z: GaussianRational, re, im):
    """z equals re + im*i, with int parts exactly where they are integral."""
    assert (z.re, z.im) == (re, im)
    for part in (z.re, z.im):
        assert type(part) is (int if Fraction(part).denominator == 1 else Fraction)
    assert str(z) == fraction_str(re, im)
    assert z == GaussianRational(Fraction(re), Fraction(im))
    assert hash(z) == hash(GaussianRational(Fraction(re), Fraction(im)))


class TestGaussianRational:
    @given(st.sampled_from(["real-real", "real-complex", "complex-real", "complex-complex"]),
           PARTS, NONZERO, PARTS, NONZERO, st.sampled_from([0, Fraction(0)]))
    def test_fast_path_equals_the_general_formula(self, case, a, b, c, d, zero):
        b = b if case.startswith("complex") else zero
        d = d if case.endswith("complex") else zero
        x, y = GaussianRational(a, b), GaussianRational(c, d)
        assert_parts(x, a, b)
        s, p = x + y, x * y
        assert_parts(s, a + c, b + d)
        assert_parts(p, a * c - b * d, a * d + b * c)
        if case == "real-real":
            assert s.im == 0 and p.im == 0 and s.is_real and p.is_real
        elif case != "complex-complex":
            assert p.im != 0 or a == 0 or c == 0
            assert s.im != 0
        for z in (a, int(c)):  # plain numbers on either side
            assert x + z == z + x == GaussianRational(a + z, b)
            assert x * z == z * x == GaussianRational(a * z, b * z)
            assert_parts(x * z, a * z, b * z)

    def test_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(1))
        b = GaussianRational(Fraction(1), Fraction(-2))
        assert (a * b).re == Fraction(1, 2) + 2
        assert (a + b).im == Fraction(-1)
        # integral Fraction results come back as ints
        assert_parts(a + GaussianRational(Fraction(1, 2)), 1, 1)
        assert_parts(GaussianRational(Fraction(2, 3)) * 3, 2, 0)
        assert str(GaussianRational(Fraction(4, 2), Fraction(-6, 3))) == "2+-2i"

    def test_conjugate_and_str(self):
        a = GaussianRational(Fraction(1, 3), Fraction(2))
        assert a.conjugate().im == -2
        assert str(GaussianRational(Fraction(3, 4))) == "3/4"


def test_expansion_matches_a_fraction_only_expansion():
    a = ncpoly.parse_poly("1/2*x[1,1] - 2/3i*x[1,2] + x[2,1]")
    terms = {w: (Fraction(c.re), Fraction(c.im)) for (w, _), c in a.terms.items()}
    star = {tuple(reversed(w)): (re, -im) for w, (re, im) in terms.items()}
    star_a = {w1 + w2: (p * r - q * s, p * s + q * r)
              for w1, (p, q) in star.items() for w2, (r, s) in terms.items()}
    want = oracles.expand_power(star_a, 3)
    got = (a.adjoint() * a) ** 3
    assert set(got.terms) == {(w, 0) for w in want}
    for (w, _), c in got.terms.items():
        assert_parts(c, *want[w])
    assert any(type(c.re) is int for c in got.terms.values())
    assert any(type(c.re) is Fraction for c in got.terms.values())


class TestAlgebra:
    def test_unit_law(self):
        one = NCPolynomial.constant(1)
        p = x(1, 1) + x(1, 2)
        assert one * p == p == p * one

    def test_monomial_concatenation(self):
        p = x(1, 1) * x(1, 2)
        ((word, h),) = p.terms.keys()
        assert word == ((1, 1, "1"), (1, 2, "1"))
        assert h == 0

    def test_square_distributes(self):
        p = (x(1, 1) + x(1, 2)) ** 2
        assert len(p.terms) == 4
        assert all(len(w) == 2 for w, _ in p.terms)

    def test_power_squares_and_multiplies(self, monkeypatch):
        calls = []
        mul = NCPolynomial.__mul__
        monkeypatch.setattr(NCPolynomial, "__mul__",
                            lambda self, other: calls.append(1) or mul(self, other))
        p = x(1, 1) ** 20000
        assert list(p.terms) == [(((1, 1, "1"),) * 20000, 0)]
        assert len(calls) <= 2 * (20000).bit_length()

    def test_power_matches_repeated_product(self):
        # term order too: the first word past kmax decides the reported k
        p = x(1, 1) - Fraction(1, 2) * x(1, 2) + NCPolynomial.constant(3)
        acc = NCPolynomial.constant(1)
        for m in range(8):
            q = p ** m
            assert q == acc and list(q.terms) == list(acc.terms)
            acc = acc * p

    def test_cancelled_terms_are_dropped(self):
        one = NCPolynomial.constant(1)
        cases = [(x(1, 1) * x(1, 2) - x(1, 1) * x(1, 2), {}),
                 ((x(1, 1) + x(1, 2)) - (x(1, 1) + x(1, 2)), {}),
                 # x11 x11 cancels: x11 x11 - x11 + x11^3 - x11 x11
                 ((x(1, 1) + x(1, 1) * x(1, 1)) * (x(1, 1) - one),
                  (x(1, 1) ** 3 - x(1, 1)).terms)]
        for p, want in cases:
            assert p.terms == want
            assert all(c for c in p.terms.values())

    def test_model_mismatch(self):
        with pytest.raises(ModelMismatchError):
            x(1, 1) * vgen(1, 1)

    def test_adjoint_orthogonal_self_adjoint(self):
        assert x(1, 1).adjoint() == x(1, 1)

    def test_adjoint_reverses_and_conjugates(self):
        p = (x(1, 1) * x(2, 2)).scale(ncpoly.I)
        q = p.adjoint()
        ((word, _),) = q.terms.keys()
        assert word == ((2, 2, "1"), (1, 1, "1"))
        assert list(q.terms.values())[0] == GaussianRational(Fraction(0), Fraction(-1))

    def test_adjoint_flips_star(self):
        p = vgen(1, 1)
        ((word, _),) = p.adjoint().terms.keys()
        assert word == ((1, 1, "*"),)

    def test_adjoint_involution(self):
        p = vgen(1, 1) * vgen(2, 3, True) + vgen(1, 2).scale(ncpoly.I)
        assert p.adjoint().adjoint() == p

    def test_degree_conventions(self):
        assert NCPolynomial("o+").degree == 0
        assert NCPolynomial.constant(3).degree == 0
        assert (x(1, 1) * x(1, 1)).degree == 2


class TestStateEval:
    def test_unital(self):
        assert ncpoly.state_eval(NCPolynomial.constant(1), 5).re == 1
        assert ncpoly.state_eval(NCPolynomial.constant(1), None).re == 1

    def test_scaled_square(self):
        s = ncpoly.scaled_generators(x(1, 1), 7)
        assert ncpoly.state_eval(s * s, 7).re == 1

    def test_scaled_fourth_power(self):
        for N in (3, 5, 8):
            s = ncpoly.scaled_generators(x(1, 1), N)
            assert ncpoly.state_eval((s * s) ** 2, N).re == Fraction(2 * N, N + 1)

    def test_limit_state(self):
        p = x(1, 1) ** 4
        assert ncpoly.state_eval(p, None).re == 2
        c = vgen(1, 1) * vgen(1, 1, True)
        assert ncpoly.state_eval(c * c, None).re == 2

    def test_trace_property(self):
        a = x(1, 1) * x(1, 2)
        b = x(2, 2) + x(2, 1) * x(1, 1)
        for N in (3, 4):
            assert ncpoly.state_eval(a * b, N) == ncpoly.state_eval(b * a, N)

    def test_positivity_of_squares(self):
        suite = [x(1, 1), x(1, 2) + x(2, 1), x(1, 1) * x(2, 2) - NCPolynomial.constant(1)]
        for N in (3, 5):
            for a in suite:
                for m in (1, 2):
                    val = ncpoly.state_eval((a.adjoint() * a) ** m, N)
                    assert val.is_real and val.re >= 0

    @pytest.mark.parametrize("model", ["o+", "u+"])
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_sum_of_word_moments(self, model, seed):
        # Random words, and w* w words whose moment is positive, all of length <= 10.
        rng = random.Random(seed)
        N = rng.randint(2, 4)
        stars = "1*" if model == "u+" else "1"

        def letter():
            return rng.randint(1, N), rng.randint(1, N), rng.choice(stars)

        terms = {}
        for _ in range(12):
            if rng.random() < 0.5:
                word = tuple(letter() for _ in range(rng.randint(0, 10)))
            else:
                w = tuple(letter() for _ in range(rng.randint(1, 5)))
                flip = {"1": "*", "*": "1"} if model == "u+" else {"1": "1"}
                word = tuple((i, j, flip[e]) for i, j, e in reversed(w)) + w
            h = rng.choice([0, len(word) - len(word) % 2])  # as scaled_generators leaves it
            terms[(word, h)] = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                                                rng.randint(-2, 2))
        expected, nonzero = GaussianRational(), 0
        for (word, h), c in terms.items():
            mom = weingarten.haar_moment(weingarten.GeneratorWord(word, model), N)
            nonzero += mom != 0
            expected = expected + c * (mom * N ** (h // 2))
        assert nonzero
        assert ncpoly.state_eval(NCPolynomial(model, dict(terms)), N) == expected

    @pytest.mark.parametrize("word, model, N", [
        (((1, 1, "1"), (0, 1, "1")), "o+", 3),
        (((1, 1, "1"), (1, 1, "*")), "o+", 3),
        (((1, 1, "x"), (1, 1, "1")), "u+", 3),
        (((1, 1, "1"), (1, 1, "1")), "o+", 1),
        (((1, 4, "1"), (1, 4, "1")), "o+", 3),
        (((1, 4, "1"),), "u+", 3),
    ])
    def test_rejects_a_bad_word_as_haar_moment_does(self, word, model, N):
        with pytest.raises(Exception) as one_word:
            weingarten.haar_moment(weingarten.GeneratorWord(word, model), N)
        good = {(((1, 1, "1"), (1, 1, "1")), 0): ONE}
        with pytest.raises(type(one_word.value)) as polynomial:
            ncpoly.state_eval(NCPolynomial(model, {**good, (word, 0): ONE}), N)
        assert type(polynomial.value) is type(one_word.value)

    def test_zero_polynomial_needs_no_dimension(self):
        assert ncpoly.state_eval(NCPolynomial("o+"), 1) == GaussianRational()

    @pytest.mark.parametrize("N, kmax", [(2, 8), (3, 8), (4, 6)])
    def test_character_moments_are_catalan(self, N, kmax):
        # chi = sum_i u_ii is semicircular on [-2, 2] for every N >= 2
        # (Banica, C. R. Acad. Sci. Paris 322, 1996).
        chi = ncpoly.parse_poly("+".join(f"x[{i},{i}]" for i in range(1, N + 1)))
        for m in range(1, kmax // 2 + 1):
            assert ncpoly.state_eval(chi ** (2 * m), N) == GaussianRational(freelimit.catalan(m))

    @pytest.mark.parametrize("N", range(2, 11))
    def test_character_moments_are_catalan_past_word_expansion(self, N):
        # The same identity through the cycle-type sum, up to order 12 at
        # every N <= 10, where chi^(2m) would expand to N^(2m) words.  Every
        # Weingarten entry of the k = 2m table moves tr(Wg G), so a wrong one
        # breaks it.
        chi = ncpoly.parse_poly("+".join(f"x[{i},{i}]" for i in range(1, N + 1)))
        for m in range(1, 7):
            assert ncpoly.linear_state(chi, m, N) == GaussianRational(freelimit.catalan(m))

    @pytest.mark.parametrize("N", [3, 4])
    def test_linear_modulus_moments_agree_across_models(self, N):
        # U_N^+ is the free complexification of O_N^+ (v = z u, z a Haar
        # unitary free from u), so |a|^2 has the same moments in both models.
        a = ncpoly.parse_poly("x[1,1]+x[1,2]+2*x[2,1]")
        a_v = ncpoly.parse_poly("v[1,1]+v[1,2]+2*v[2,1]")
        for m in range(1, 5):
            assert (ncpoly.state_eval((a_v.adjoint() * a_v) ** m, N)
                    == ncpoly.state_eval((a.adjoint() * a) ** m, N))

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("forms, two_m", [(1, 4), (1, 6), (2, 2)])
    def test_moments_are_orthogonally_invariant(self, N, forms, two_m):
        # For a real orthogonal R (acting on indices 1, 2), u -> R^T u is a
        # *-automorphism of O_N^+ that keeps the Haar state and takes the
        # form sum C_ij x[i,j] to the form of R C.  So h((a* a)^m) for a
        # product a of such forms is the same with every C replaced by R C.
        # The rotated side builds a* by hand (conjugated forms, reversed), so
        # this also checks NCPolynomial.adjoint.  It cannot catch a wrong
        # Weingarten entry: both sides read the same tables.
        rng = random.Random(100 * N + 10 * forms + two_m)
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))  # Cayley transform of [[0, -t], [t, 0]]
        c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        R = [[c, s], [-s, c]]
        assert c * c + s * s == 1
        Cs = [[[GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                 rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
              for _ in range(forms)]
        RCs = [[[sum((C[l][j] * R[i][l] for l in range(2)), ZERO) for j in range(2)]
                for i in range(2)] for C in Cs]

        def form(C, adjoint=False):  # x letters are self-adjoint
            return sum((x(i + 1, j + 1).scale(C[i][j].conjugate() if adjoint else C[i][j])
                        for i in range(2) for j in range(2)), NCPolynomial("o+"))

        def product(polys):
            return functools.reduce(operator.mul, polys)

        a, b = product(map(form, Cs)), product(map(form, RCs))
        b_star = product(form(C, adjoint=True) for C in reversed(RCs))
        m = two_m // 2
        assert (ncpoly.state_eval((a.adjoint() * a) ** m, N)
                == ncpoly.state_eval((b_star * b) ** m, N))


def random_linear_form(rng, model, eps, N, terms, h0):
    """sqrt(N)^h0 times a sum of `terms` distinct letters with Gaussian-rational coefficients."""
    cells = rng.sample([(i, j) for i in range(1, N + 1) for j in range(1, N + 1)], terms)
    return NCPolynomial(model, {(((i, j, eps),), h0): GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4))) or ONE for i, j in cells})


def word_route_norm(a, p, N, kmax=weingarten.DEFAULT_KMAX):
    """lp_norm as it is computed without linear_state, word by word through state_eval."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncpoly, "linear_state", lambda *args: None)
        return ncpoly.lp_norm(a, p, N, kmax=kmax)


def spy(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that logs each call; return the log."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


class TestLinearState:
    """The cycle-type route for linear forms against the word expansion it replaces."""

    @pytest.mark.parametrize("N", range(2, 7))
    def test_equals_the_word_expansion(self, N):
        rng = random.Random(700 + N)
        cases = 0
        for model, eps in (("o+", "1"), ("u+", "1"), ("u+", "*")):
            for m in range(1, 7):
                for h0 in (0, 1):
                    # At most 4^6 = 4096 words per expansion.
                    most = min(N * N, 4 if m <= 3 else 2)
                    a = random_linear_form(rng, model, eps, N, rng.randint(1, most), h0)
                    want = ncpoly.state_eval((a.adjoint() * a) ** m, N)
                    assert ncpoly.linear_state(a, m, N) == want, (a.terms, m)
                    cases += 1
        assert cases == 36

    def test_lp_norm_takes_the_route_at_finite_n_only(self, monkeypatch):
        a = ncpoly.scaled_generators(x(1, 1) + x(2, 3).scale(ncpoly.I), 3)
        want = word_route_norm(a, 6, 3)
        calls = spy(monkeypatch, ncpoly, "state_eval")
        assert ncpoly.lp_norm(a, 6, 3) == want and not calls
        ncpoly.lp_norm(x(1, 1) + x(2, 3), 6, None)
        assert len(calls) == 1

    @pytest.mark.parametrize("name, a", [
        ("product", x(1, 1) * x(1, 2) + x(2, 2)),
        ("mixed stars", vgen(1, 1) + vgen(1, 2, True)),
        ("constant term", x(1, 1) + NCPolynomial.constant(1)),
        ("mixed powers", NCPolynomial("o+", {(((1, 1, "1"),), 0): ONE,
                                             (((1, 2, "1"),), 1): ONE})),
    ])
    def test_other_shapes_take_the_word_route(self, name, a, monkeypatch):
        assert ncpoly.linear_state(a, 2, 3) is None
        want = word_route_norm(a, 4, 3)
        calls = spy(monkeypatch, ncpoly, "state_eval")
        assert ncpoly.lp_norm(a, 4, 3) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("p, kmax", [(14, 12), (8, 6)])
    def test_past_kmax_refuses_as_the_word_route_does(self, p, kmax):
        a = x(1, 1) + x(1, 2)
        assert ncpoly.linear_state(a, p // 2, 3, kmax) is None
        with pytest.raises(ResourceLimitError) as words:
            word_route_norm(a, p, 3, kmax=kmax)
        with pytest.raises(ResourceLimitError) as route:
            ncpoly.lp_norm(a, p, 3, kmax=kmax)
        assert str(route.value) == str(words.value) == f"word length {p} exceeds kmax={kmax}"
        assert route.value.required_k == words.value.required_k == p

    def test_past_order_12_a_linear_form_takes_one_table(self, monkeypatch):
        # p = 14 at kmax 14: the state the word route computes, with no bilinear_solve.
        a = ncpoly.scaled_generators(x(1, 2).scale(GaussianRational(2, -1)), 3)
        b = a.adjoint() * a
        want = ncpoly.state_eval(b ** 3, 3, kmax=14, right=b ** 4)
        norm = word_route_norm(a, 14, 3, kmax=14)
        assert ncpoly.linear_state(a, 7, 3, kmax=14) == want
        solves = spy(monkeypatch, exactla, "bilinear_solve")
        assert ncpoly.lp_norm(a, 14, 3, kmax=14) == norm
        assert not solves
        # With C = I every cycle gives N: Σ_λ S_λ N^(len λ) = tr(Wg G) = Catalan(k/2).
        for k in (14, 16):
            sums = weingarten.cycle_type_sums(k, 3, kmax=k)
            assert sum(S * 3 ** len(lam) for lam, S in sums) == math.comb(k, k // 2) // (k // 2 + 1)

    @pytest.mark.parametrize("C", [((1, 1), (0, 0)), ((0, 2), (Fraction(-1, 3), 0)),
                                   ((1, -1), (2, Fraction(1, 2)))])
    def test_equals_the_n2_oracle_past_order_12(self, C):
        # O_2^+ = SU_{-1}(2): an oracle with no Gram matrix, one position per letter of a^(2m).
        a = sum((x(i + 1, j + 1).scale(c) for i, row in enumerate(C) for j, c in enumerate(row)
                 if c), NCPolynomial("o+"))
        for k in (14, 16):
            want = oracles.o2_moment([C] * k)
            assert ncpoly.linear_state(a, k // 2, 2, kmax=k) == GaussianRational(want)

    @pytest.mark.parametrize("a, N, error", [
        (x(1, 1) + x(1, 4), 3, InvalidIndexError),
        (vgen(4, 1, True) + vgen(1, 1, True), 3, InvalidIndexError),
        (x(1, 1), 1, InvalidDimensionError),
        (x(1, 5), 1, InvalidDimensionError),
    ])
    def test_bad_letters_and_dimensions_raise_as_the_word_route_does(self, a, N, error):
        with pytest.raises(error) as words:
            word_route_norm(a, 4, N)
        with pytest.raises(error) as route:
            ncpoly.lp_norm(a, 4, N)
        assert str(route.value) == str(words.value)

    def test_a_form_with_every_letter_dropped_is_zero(self):
        a = ncpoly.scaled_generators(x(5, 1) + x(1, 5), 4)
        assert not a.terms and ncpoly.linear_state(a, 2, 4) is None
        assert ncpoly.lp_norm(a, 4, 4) == 0


def random_poly(rng, model, N, lengths, powers=(0,), complex_parts=False) -> NCPolynomial:
    """Three terms, each a random word of a length drawn from `lengths` and letters at most
    min(N, 2), times sqrt(N)^(its length + a draw from `powers`), as scaled_generators leaves it."""
    stars = "1*" if model == "u+" else "1"
    top = min(N or 2, 2)
    terms = {}
    for _ in range(3):
        word = tuple((rng.randint(1, top), rng.randint(1, top), rng.choice(stars))
                     for _ in range(rng.choice(lengths)))
        h = len(word) + rng.choice(powers) if N else 0
        terms[(word, h)] = GaussianRational(Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                                            rng.randint(1, 5) if complex_parts else 0)
    return NCPolynomial(model, terms)


PAIR_CASES = {
    "homogeneous": dict(lengths=(2,)),
    "non-homogeneous": dict(lengths=(1, 2, 3)),
    "constant term": dict(lengths=(0, 2)),
    "mixed powers": dict(lengths=(2,), powers=(0, 2)),
    "complex coefficient": dict(lengths=(1, 2), complex_parts=True),
}


class TestPairedState:
    """state_eval(L, N, right=R) against the state of the expanded product L R."""

    @pytest.mark.parametrize("model", ["o+", "u+"])
    @pytest.mark.parametrize("N", [2, 3, 4, None])
    def test_equals_the_state_of_the_expanded_product(self, model, N):
        rng = random.Random(f"{model} {N}")
        nonzero = 0
        for name, case in PAIR_CASES.items():
            for _ in range(4):
                L = random_poly(rng, model, N, **case)
                # With L* in the right factor the product has a positive part, so it is rarely 0.
                R = L.adjoint() + random_poly(rng, model, N, **case)
                want = ncpoly.state_eval(L * R, N)
                assert ncpoly.state_eval(L, N, right=R) == want, (name, L.terms, R.terms)
                nonzero += bool(want)
        assert nonzero >= 15

    def test_right_none_is_the_unit(self):
        a = x(1, 1) * x(1, 1) + x(1, 2).scale(GaussianRational(2, 3)) * x(1, 2)
        for N in (3, None):
            assert (ncpoly.state_eval(a, N) == ncpoly.state_eval(a, N, right=NCPolynomial.constant(1))
                    == ncpoly.state_eval(NCPolynomial.constant(1), N, right=a))

    def test_a_zero_factor_needs_no_dimension(self):
        assert ncpoly.state_eval(x(1, 1), 1, right=NCPolynomial("o+")) == ZERO
        assert ncpoly.state_eval(NCPolynomial("o+"), 1, right=x(1, 1)) == ZERO

    def test_factors_of_two_models_are_refused(self):
        with pytest.raises(ModelMismatchError):
            ncpoly.state_eval(x(1, 1), 3, right=vgen(1, 1))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_scaled_factor_refuses_the_limit_state(self, side):
        scaled = NCPolynomial("o+", {(((1, 1, "1"),), 2): ONE})
        factors = (scaled, x(1, 1)) if side == "left" else (x(1, 1), scaled)
        with pytest.raises(ValueError, match="cannot be evaluated in the limit state"):
            ncpoly.state_eval(factors[0], None, right=factors[1])
        with pytest.raises(ValueError, match="cannot be evaluated in the limit state"):
            ncpoly.state_eval(factors[0] * factors[1], None)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_an_odd_power_on_a_nonzero_moment_is_irrational(self, side):
        odd = NCPolynomial("o+", {(((1, 1, "1"),), 1): ONE})
        factors = (odd, x(1, 1)) if side == "left" else (x(1, 1), odd)
        for a, right in (factors, (factors[0] * factors[1], None)):
            with pytest.raises(ValueError, match="irrational"):
                ncpoly.state_eval(a, 3, right=right)

    @pytest.mark.parametrize("word, model, N", [
        (((1, 1, "1"), (0, 1, "1")), "o+", 3),
        (((1, 1, "1"), (1, 1, "*")), "o+", 3),
        (((1, 1, "x"), (1, 1, "1")), "u+", 3),
        (((1, 4, "1"), (1, 4, "1")), "o+", 3),
        (((1, 4, "1"),), "u+", 3),
    ])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_bad_letters_in_either_factor_raise_as_the_product_does(self, word, model, N, side):
        good = NCPolynomial(model, {(((1, 1, "1"), (1, 1, "1")), 0): ONE})
        bad = NCPolynomial(model, {(word, 0): ONE})
        factors = (bad, good) if side == "left" else (good, bad)
        with pytest.raises(Exception) as product:
            ncpoly.state_eval(factors[0] * factors[1], N)
        with pytest.raises(type(product.value)) as paired:
            ncpoly.state_eval(factors[0], N, right=factors[1])
        assert str(paired.value) == str(product.value)

    @pytest.mark.parametrize("p, kmax", [(14, 12), (8, 6), (10, 8)])
    def test_past_kmax_a_homogeneous_form_refuses_as_the_expansion_does(self, p, kmax):
        a = ncpoly.scaled_generators(x(1, 1) + x(1, 2).scale(ncpoly.I), 3)
        b, m = a.adjoint() * a, p // 2
        with pytest.raises(ResourceLimitError) as expanded:
            ncpoly.state_eval(b ** m, 3, kmax=kmax)
        with pytest.raises(ResourceLimitError) as paired:
            ncpoly.state_eval(b ** (m // 2), 3, kmax=kmax, right=b ** (m - m // 2))
        assert str(paired.value) == str(expanded.value) == f"word length {p} exceeds kmax={kmax}"
        assert paired.value.required_k == expanded.value.required_k == p

    @pytest.mark.parametrize("model, counter", [("o+", "semicircular_moment"),
                                                ("u+", "circular_moment")])
    @pytest.mark.parametrize("p", [2, 4, 6, 8])
    def test_one_moment_per_word_of_the_expansion(self, model, counter, p, monkeypatch):
        a = NCPolynomial(model, {(((i, j, "1"),), 0): GaussianRational(i, j)
                                 for i, j in ((1, 1), (1, 2), (2, 1))})
        b = a.adjoint() * a
        words = len((b ** (p // 2)).terms)
        want = ncpoly.state_eval(b ** (p // 2), None)
        evals = spy(monkeypatch, ncpoly, "state_eval")
        moments = spy(monkeypatch, freelimit, counter)
        with mpmath.workprec(qnum.PRECISION_BITS):
            assert ncpoly.lp_norm(a, p, None) == mpmath.root(want.re, p)
        assert len(evals) == 1 and len(moments) == words == 3 ** p


class TestScaledGenerators:
    def test_prefactor_tracking(self):
        s = ncpoly.scaled_generators(x(1, 1) * x(1, 1), 4)
        ((_, h),) = s.terms.keys()
        assert h == 2

    def test_out_of_range_letters_drop(self):
        p = NCPolynomial.generator(5, 1, "o+")
        assert ncpoly.scaled_generators(p, 4).terms == {}
        kept = ncpoly.scaled_generators(p, 5)
        assert len(kept.terms) == 1


class TestLpNorm:
    def test_l2_of_scaled_generator(self):
        s = ncpoly.scaled_generators(x(1, 1), 6)
        assert ncpoly.lp_norm(s, 2, 6) == 1

    def test_l4_closed_form(self):
        N = 5
        s = ncpoly.scaled_generators(x(1, 1), N)
        got = ncpoly.lp_norm(s, 4, N)
        want = (2 * N / (N + 1)) ** 0.25
        assert abs(float(got) - want) < 1e-12

    def test_limit_norm_is_catalan_root(self):
        got = ncpoly.lp_norm(x(1, 1), 6, None)
        assert abs(float(got) - 5 ** (1 / 6)) < 1e-12

    def test_hoelder_monotone_in_m(self):
        for N in (4, 7):
            s = ncpoly.scaled_generators(x(1, 1) + x(1, 2), N)
            norms = [ncpoly.lp_norm(s, 2 * m, N) for m in range(1, 7)]
            assert all(a <= b + mpmath.mpf("1e-30") for a, b in zip(norms, norms[1:]))

    def test_limit_gap_shrinks(self):
        p = x(1, 1) ** 2
        lim = ncpoly.lp_norm(p, 4, None)
        gaps = []
        for N in (4, 8, 16):
            s = ncpoly.scaled_generators(p, N)
            gaps.append(abs(ncpoly.lp_norm(s, 4, N) - lim))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            ncpoly.lp_norm(x(1, 1), 3, 4)


class TestParser:
    def test_example_from_docs(self):
        p = ncpoly.parse_poly("x[1,1]*x[1,2] - 1/2*x[2,2]")
        assert p.model == "o+"
        assert len(p.terms) == 2
        key = (((2, 2, "1"),), 0)
        assert p.terms[key] == GaussianRational(Fraction(-1, 2))

    def test_powers(self):
        assert ncpoly.parse_poly("x[1,1]^4") == x(1, 1) ** 4

    def test_unitary_letters(self):
        p = ncpoly.parse_poly("v[1,1]*v*[1,1]")
        assert p.model == "u+"
        ((word, _),) = p.terms.keys()
        assert word == ((1, 1, "1"), (1, 1, "*"))

    def test_imaginary_coefficient(self):
        p = ncpoly.parse_poly("3/2i*x[1,1]")
        ((_, _),) = p.terms.keys()
        assert list(p.terms.values())[0] == GaussianRational(Fraction(0), Fraction(3, 2))

    def test_mixed_models_rejected(self):
        with pytest.raises(PolyParseError):
            ncpoly.parse_poly("x[1,1]*v[1,1]")

    def test_garbage_rejected(self):
        # The last three hold literals longer than the 4300 digits int() accepts.
        for bad in ("", "x[1]", "x[1,1]+", "x[1,1]^1/2", "y[1,1]",
                    "x[1,1]x[1,1]", "2 3", "x[1,1]^2 x[1,2]", "1/0*x[1,1]",
                    "1/" + "7" * 5000, "x[1,1]^" + "3" * 5000, f"x[{'2' * 5000},1]"):
            with pytest.raises(PolyParseError):
                ncpoly.parse_poly(bad)

    @settings(deadline=None, max_examples=1000)
    @given(st.text(alphabet="xv*[],0123456789+-/^i ", max_size=40))
    def test_fuzzed_text_raises_only_parse_errors(self, text):
        # A power of two or more digits can ask for a word of length 10**8 or
        # a constant like 2^99999999999; nothing guards that expansion yet.
        assume(not re.search(r"\^\s*\d\d", text))
        try:
            ncpoly.parse_poly(text)
        except PolyParseError:
            pass
        except InvalidIndexError:  # an index below 1
            assert re.search(r"\[0+,|,0+\]", text)
