"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and
asserts both the mathematical content and the runtime budget.
"""

import itertools
import sys
import time
from fractions import Fraction

import mpmath

from qhaar import cli, freelimit, ncpoly, pairings, qnum, rapid_decay, weingarten

import oracles


def u(i, j):
    return (i, j, "1")


def v(i, j, star=False):
    return (i, j, "*" if star else "1")


def gw(letters, model):
    return weingarten.GeneratorWord(tuple(letters), model)


def _criterion(num, desc, budget_s, body):
    t0 = time.time()
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {num}: {desc}", file=sys.stderr)
        raise
    elapsed = time.time() - t0
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.1f}s)"
    print(f"PASS criterion {num}: {desc} [{elapsed:.1f}s]")


def test_criterion_1_exact_weingarten_values():
    def body():
        for N in range(2, 11):
            assert weingarten.haar_moment(gw([u(1, 1)] * 2, "o+"), N) == Fraction(1, N)
            assert weingarten.haar_moment(gw([u(1, 1)] * 4, "o+"), N) == Fraction(2, N * (N + 1))

    _criterion(1, "exact h(u11 u11) and h(u11^4) closed forms", 1, body)


def test_criterion_2_unitarity_contraction():
    def body():
        alphabet = [(1, 1), (1, 2), (2, 1), (2, 2)]
        for N in range(3, 9):
            for length in range(0, 5):
                for combo in itertools.product(alphabet, repeat=length):
                    base = [u(i, j) for i, j in combo]
                    want = weingarten.haar_moment(gw(base, "o+"), N)
                    for pos in range(length + 1):
                        for row in (1, 2):
                            word = base[:pos] + [u(row, 1), u(row, 1)] + base[pos:]
                            got = weingarten.unitarity_contraction(gw(word, "o+"), N, pos)
                            assert got == want, (combo, pos, row, N)

    _criterion(2, "unitarity contraction, contracted length <= 6, N <= 8", 60, body)


# Fixed convergence suite: (name, letters, model). Lengths 4 and 6, mixed
# indices, both models; every word has a strictly positive finite-N gap.
CONVERGENCE_SUITE = [
    ("u11^4", [u(1, 1)] * 4, "o+"),
    ("u11 u12 u12 u11", [u(1, 1), u(1, 2), u(1, 2), u(1, 1)], "o+"),
    ("u11 u21 u21 u11", [u(1, 1), u(2, 1), u(2, 1), u(1, 1)], "o+"),
    ("u11 u22 u22 u11", [u(1, 1), u(2, 2), u(2, 2), u(1, 1)], "o+"),
    ("u11^6", [u(1, 1)] * 6, "o+"),
    ("u11 u12 u12 u11 u22 u22",
     [u(1, 1), u(1, 2), u(1, 2), u(1, 1), u(2, 2), u(2, 2)], "o+"),
    ("(v11 v11*)^2", [v(1, 1), v(1, 1, True)] * 2, "u+"),
    ("(v11 v11*)^3", [v(1, 1), v(1, 1, True)] * 3, "u+"),
    ("v12 v12* v11 v11*",
     [v(1, 2), v(1, 2, True), v(1, 1), v(1, 1, True)], "u+"),
    ("v11 v11* v12 v12* v11 v11*",
     [v(1, 1), v(1, 1, True), v(1, 2), v(1, 2, True), v(1, 1), v(1, 1, True)], "u+"),
]


def test_criterion_3_moment_convergence():
    def body():
        assert len(CONVERGENCE_SUITE) == 10
        for name, letters, model in CONVERGENCE_SUITE:
            k = len(letters)
            if model == "o+":
                free = freelimit.semicircular_moment([(i, j) for i, j, _ in letters])
            else:
                free = freelimit.circular_moment([((i, j), e) for i, j, e in letters])
            word = gw(letters, model)
            gaps = []
            for N in (4, 8, 16):
                h = weingarten.haar_moment(word, N)
                gaps.append(abs(Fraction(N) ** (k // 2) * h - free))
            assert gaps[0] > gaps[1] > gaps[2], (name, gaps)
        for N in (4, 8, 16):
            scaled = Fraction(N) ** 2 * weingarten.haar_moment(gw([u(1, 1)] * 4, "o+"), N)
            assert scaled == Fraction(2 * N, N + 1)

    _criterion(3, "free-limit convergence on the fixed 10-word suite", 300, body)


def test_criterion_4_three_vertex_two_formulas():
    def body():
        for n in range(0, 13):
            for k in range(0, 13):
                for l in range(abs(n - k), n + k + 1, 2):
                    for N in range(3, 9):
                        a = oracles.three_vertex_norm_inv_factorial(n, k, l, N)
                        assert a == oracles.three_vertex_norm_inv_product(n, k, l, N)
                        if l == n + k:  # r = 0
                            assert a == 1
        for N in range(3, 9):
            assert oracles.three_vertex_norm_inv_factorial(1, 1, 0, N) == 1
        # The scan's formula at the scan's q and precision, on every admissible
        # triple with n, k <= 12 (819 per N): (n, k, l) = (a + r, b + r, a + b).
        checked = 0
        for N in range(3, 9):
            with mpmath.workprec(qnum.PRECISION_BITS + 16):
                omq = rapid_decay.factor_table(N, 26)
                tol = mpmath.mpf(10) ** -30
                for a in range(13):
                    for b in range(13):
                        values = map(mpmath.mpf, rapid_decay.objective_squares(
                            omq, a, b, 12 - max(a, b)))
                        for r, got in enumerate(values):
                            n, k, l = a + r, b + r, a + b
                            want = oracles.prefactor_radicand(n, k, l, N) \
                                * oracles.three_vertex_norm_inv_product(n, k, l, N) ** 2
                            exact = mpmath.mpf(want.numerator) / want.denominator
                            assert abs(got - exact) <= tol * exact, (n, k, l, N)
                            checked += 1
        assert checked == 6 * 819

    _criterion(4, "three-vertex norm: factorial = product = the scan's formula, n,k <= 12", 60,
               body)


def test_criterion_5_dn_behavior():
    def body():
        values = []
        for N in (3, 5, 10, 20, 50):
            b = rapid_decay.dn_constant(N)
            upper = mpmath.mpf(b.rigorous_upper.numerator) / b.rigorous_upper.denominator
            assert b.value >= 1
            assert b.value <= upper
            values.append(b.value)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert (values[-1] - 1) * 10 < values[0] - 1
        assert rapid_decay.rigorous_upper_bound(3)[0] < 3  # finite and sane

    _criterion(5, "D_N bracket: >1, decreasing toward 1, below rigorous upper", 120, body)


def test_criterion_6_p_selector():
    def body():
        d_star = rapid_decay.d_star_upper()
        D = mpmath.mpf(d_star.numerator) / d_star.denominator
        for degree in (0, 1, 2):
            for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
                m, p, achieved = rapid_decay.select_p(degree, eps, d_star)
                eps_f = mpmath.mpf(eps.numerator) / eps.denominator
                with mpmath.workprec(128):
                    def obj(mm):
                        return D ** (mpmath.mpf(1) / (2 * mm)) \
                            * mpmath.mpf(2 * degree * mm + 1) ** (mpmath.mpf(3) / (4 * mm))
                    assert obj(m) <= 1 + eps_f
                    assert achieved <= 1 + eps_f
                    if m > 1:
                        assert obj(m - 1) > 1 + eps_f
                assert p == 4 * m

    _criterion(6, "L^p selector minimality on a 3x3 (degree, eps) grid", 1, body)


def test_criterion_7_rd_sandwich():
    def body():
        g = ncpoly.NCPolynomial.generator
        polys = [
            (g(1, 1, "o+"), (2, 4, 8, 12), 12),
            (g(1, 1, "o+") + g(1, 2, "o+"), (2, 4, 8, 12), 12),
            (g(1, 1, "o+") * g(2, 2, "o+"), (2, 4, 8), 16),
        ]
        for base, p_list, kmax in polys:
            deg = base.degree
            for N in range(3, 9):
                P = ncpoly.scaled_generators(base, N)
                d_upper = rapid_decay.rigorous_upper_bound(N)[0]
                l2 = ncpoly.lp_norm(P, 2, N, kmax=kmax)
                bound = (mpmath.mpf(d_upper.numerator) / d_upper.denominator) \
                    * mpmath.power(deg + 1, mpmath.mpf(3) / 2) * l2
                for p in p_list:
                    val = ncpoly.lp_norm(P, p, N, kmax=kmax)
                    assert val <= bound, (deg, N, p)

    _criterion(7, "L^p values below the rapid-decay bound, p up to 8/12", 600, body)


def test_criterion_8_limit_inequality():
    def body():
        for m in range(1, 9):
            assert freelimit.catalan(m) ** (1 / (2 * m)) <= 2
        g = ncpoly.NCPolynomial.generator
        P = g(1, 1, "o+") + g(1, 2, "o+")
        norms = []
        with mpmath.workprec(128):
            for m in range(1, 7):
                val = ncpoly.lp_norm(P, 2 * m, None)
                want = mpmath.sqrt(2) * mpmath.mpf(freelimit.catalan(m)) ** \
                    (mpmath.mpf(1) / (2 * m))
                assert abs(val - want) < mpmath.mpf("1e-25")
                norms.append(val)
            assert all(a < b for a, b in zip(norms, norms[1:]))
            cap = 2 ** mpmath.mpf("1.5") * mpmath.sqrt(2)
            assert all(n <= cap for n in norms)

    _criterion(8, "free-limit L^p values: sqrt(2)*Catalan^(1/2m), below cap", 60, body)


def test_criterion_9_oracle_equivalence():
    def body():
        import random
        rng = random.Random(20260823)
        labels3 = [(1, 1), (1, 2), (2, 1)]
        words = [[(1, 1)] * k for k in range(11)]
        words += [[labels3[i % 3] for i in range(k)] for k in range(11)]
        words += [[rng.choice(labels3) for _ in range(rng.randint(0, 10))]
                  for _ in range(40)]
        for w in words:
            assert freelimit.semicircular_moment(w) == oracles.brute_semicircular_moment(w)
        cwords = [[((1, 1), "1" if i % 2 == 0 else "*") for i in range(k)]
                  for k in range(11)]
        cwords += [[(rng.choice(labels3), rng.choice("1*"))
                    for _ in range(rng.randint(0, 10))] for _ in range(40)]
        for w in cwords:
            assert freelimit.circular_moment(w) == oracles.brute_circular_moment(w)
        for k in range(2, 13, 2):
            for N in range(2, 11):
                t = weingarten.weingarten_table(k, N)
                n = t.size
                gram = pairings.gram_matrix(k, N)
                for i in range(n):
                    row = [t.num(i, x) for x in range(n)]
                    for j in range(n):
                        s = sum(row[x] * gram[x][j] for x in range(n))
                        assert s == (t.wg_den if i == j else 0)

    _criterion(9, "brute-force pairing oracle and wg*gram identity, k <= 12", 300, body)


def test_criterion_10_deterministic_output(tmp_path):
    def body():
        paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
        for path in paths:
            code = cli.main(["converge", "--poly", "x[1,1]^2", "--N-list", "4,8,16",
                             "--p-list", "2,4", "--out", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    _criterion(10, "byte-identical converge output across repeated runs", 120, body)
