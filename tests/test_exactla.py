"""The exactla kernel (exact float64 elimination mod p < 2**23) and its certified inverse."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qhaar import exactla, pairings, weingarten
from qhaar.errors import InvalidArgumentError, SingularMatrixError

import oracles


def inverse_mod_reference(A, p):
    """A^{-1} mod p by Python-int Gauss-Jordan with row pivoting."""
    n = len(A)
    M = [[int(a) % p for a in row] + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        r = next(i for i in range(col, n) if M[i][col])
        M[col], M[r] = M[r], M[col]
        inv = pow(M[col][col], -1, p)
        M[col] = [x * inv % p for x in M[col]]
        for i in range(n):
            if i != col and M[i][col]:
                f = M[i][col]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[col])]
    return [row[n:] for row in M]


def indicator(n, idx):
    V = np.zeros((n, 1))
    V[idx, 0] = 1
    return V


def one_orbit_each(loop_mat):
    """Rotation orbits of one pairing each, r = 1: the solve is one system, G itself."""
    return np.arange(loop_mat.shape[0])[:, None]


def block_edge_matrix(n):
    # Entries in [p-64, p) give the largest products the exactness bound allows.
    p = next(exactla.prime_stream())
    rng = random.Random(n)
    return [[rng.randrange(p - 64, p) for _ in range(n)] for _ in range(n)], p, rng


# Sizes at the edges of a step of S = 4 pivots (3, 4, 5) and of a 64-wide block.
EDGE_SIZES = [1, 3, 4, 5, 63, 64, 65, 130]


def solve_reference(A, V, p):
    """A^{-1} V mod p, by the pivoting Python-int reference inverse."""
    ref = inverse_mod_reference(A, p)
    return [[sum(r * int(v) for r, v in zip(row, col)) % p for col in V.T] for row in ref]


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_kernel_matches_reference_at_block_edges(n):
    A, p, rng = block_edge_matrix(n)
    V = indicator(n, sorted(rng.sample(range(n), max(1, n // 2))))
    T = exactla._solve_mod_prime(np.array(A, dtype=np.float64), V, p)
    assert np.abs(T).max() <= p // 2 + 1
    assert np.mod(T, p).astype(np.int64).tolist() == solve_reference(A, V, p)


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_full_inverse_kernel_matches_reference_at_block_edges(n):
    A, p, _ = block_edge_matrix(n)
    T = exactla._solve_mod_prime(np.array(A, dtype=np.float64), np.eye(n), p)
    assert np.abs(T).max() <= p // 2 + 1
    assert np.mod(T, p).astype(np.int64).tolist() == inverse_mod_reference(A, p)


@pytest.mark.parametrize("k, N", [(12, 3), (12, 8), (14, 3), (14, 8)])
def test_kernel_solves_gram_systems_exactly(k, N):
    # Past the reference inverse's reach: (G mod p) T = V (mod p) is checked
    # directly in Python ints, for one indicator column and, at k = 12, V = I.
    loop_mat = pairings.loop_matrix(k)
    n = loop_mat.shape[0]
    cases = [indicator(n, list(range(0, n, 3)))] + ([np.eye(n)] if k == 12 else [])
    for p in itertools.islice(exactla.prime_stream(), 2):
        pows = [pow(N, l, p) for l in range(int(loop_mat.max()) + 1)]
        G = [[pows[l] for l in row] for row in loop_mat.tolist()]
        for V in cases:
            T = exactla._solve_mod_prime(np.array(G, dtype=np.float64), V, p)
            assert np.abs(T).max() <= p // 2 + 1
            cols = [[int(t) for t in col] for col in T.T.tolist()]
            GT = [[sum(g * t for g, t in zip(row, col)) % p for col in cols] for row in G]
            assert GT == V.astype(np.int64).tolist()


@pytest.mark.parametrize("n", [1, 4, 5, 65])
def test_stacked_kernel_solves_each_system_of_the_stack(n):
    # A stack of three and each of its systems alone, a 2-D call: both must
    # give each system's residues, and None when any one of them meets a
    # vanishing leading minor.
    p = next(exactla.prime_stream())
    rng = np.random.default_rng(n)
    A = rng.integers(p - 64, p, (3, n, n)).astype(np.float64)
    V = rng.integers(0, 2, (3, n, 2)).astype(np.float64)
    T = exactla._solve_mod_prime(A, V, p)
    assert T.shape == (3, n, 2) and np.abs(T).max() <= p // 2 + 1
    for a, v, t in zip(A, V, T):
        assert np.array_equal(np.mod(t, p), np.mod(exactla._solve_mod_prime(a, v, p), p))
    A[1, 0, 0] = 0  # the first leading minor of the middle system vanishes
    assert exactla._solve_mod_prime(A, V, p) is None


@pytest.mark.parametrize("r", [1, 2, 3, 4, 12, 14, 16])
def test_root_of_unity_is_primitive(r):
    for p in itertools.islice(exactla.prime_stream(r), 3):
        w = exactla._root_of_unity(r, p)
        assert len({pow(w, t, p) for t in range(r)}) == r and pow(w, r, p) == 1


def test_root_of_unity_refuses_a_prime_outside_its_class():
    # 3 is not 1 (mod 4), so there is no primitive 4th root of unity mod 3 to find.
    with pytest.raises(InvalidArgumentError, match="not 1 \\(mod 4\\)"):
        exactla._root_of_unity(4, 3)


def orbit_stack(loop_rows, V, orbits):
    """The representatives' rows: L[u, a, b] = loop_rows[a, rho^u rep_b], V[u, a] = V[rho^u rep_a].

    The same gather as exactla._gram_solve's, from the rows of pairings.loop_rows.
    """
    return loop_rows[np.arange(len(orbits))[:, None], orbits.T[:, None, :]], V[orbits.T]


BLOCK_CASES = ([(k, None, N) for k in (4, 8, 12, 14, 16) for N in (2, 3, 8)]
               + [(12, "11**11**11**", 3), (16, "11**11**11**11**", 3)])


@pytest.mark.parametrize("k, pattern, N", BLOCK_CASES)
def test_block_residues_equal_the_dense_kernel(k, pattern, N):
    # Every case has an orbit with a nontrivial stabilizer, whose rows are
    # missing from some blocks and whose residues carry the 1/s factor.
    pattern = pattern and tuple(pattern)
    loop_mat, orbits = pairings.loop_matrix(k, pattern), pairings.rotation_orbits(k, pattern)
    r = orbits.shape[1]
    assert r > 1 and (orbits == orbits[:, :1]).sum(axis=1).max() > 1
    n = loop_mat.shape[0]
    V = np.zeros((n, 2))
    V[::3, 0] = V[1::2, 1] = 1
    L, Vs = orbit_stack(pairings.loop_rows(k, pattern), V, orbits)
    blocks = exactla._Blocks.of(orbits)
    for p in itertools.islice(exactla.prime_stream(r), 2):
        assert (p - 1) % r == 0
        pows = np.array([pow(N, l, p) for l in range(int(loop_mat.max()) + 1)], dtype=np.float64)
        T = exactla._block_solve(pows[L], Vs, blocks, p)
        assert T.shape == (n, 2) and np.abs(T).max() <= p // 2 + 1
        want = exactla._solve_mod_prime(pows[loop_mat], V, p)
        assert np.array_equal(np.mod(T, p), np.mod(want, p))


def test_prime_stream_residue_classes_match_a_sieve():
    primes = oracles.sieve_primes_descending(exactla.PRIME_START - 30000, exactla.PRIME_START)
    for r in (1, 3, 4, 14, 16, 18, 20):
        want = [p for p in primes if p % r == 1 % r]
        assert len(want) >= 20
        assert list(itertools.islice(exactla.prime_stream(r), 20)) == want[:20]


def test_a_second_stream_of_a_class_reads_the_first_ones_primes(monkeypatch):
    # r = 7 and r = 14 step through one class, n = 1 (mod 14); a stream that
    # reads found primes divides nothing.
    monkeypatch.setattr(exactla, "_primes", {})
    first = list(itertools.islice(exactla.prime_stream(14), 14))
    assert exactla._primes == {14: first}

    def no_division(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(exactla.math, "isqrt", no_division)
    assert list(itertools.islice(exactla.prime_stream(14), 14)) == first
    assert list(itertools.islice(exactla.prime_stream(7), 14)) == first


def k16_o_word_inputs():
    """Loop rows, orbits and compatible indices of criterion 7's order-16 word."""
    letters = [(2, 2, "1"), (1, 1, "1"), (1, 1, "1"), (2, 2, "1")] * 4
    plist = pairings.word_pairings(16)
    R = pairings.compatible_indices(plist, [i for i, _, _ in letters])
    C = pairings.compatible_indices(plist, [j for _, j, _ in letters])
    return pairings.loop_rows(16), pairings.rotation_orbits(16), R, C


def test_a_skipped_block_prime_leaves_the_moment_unchanged(monkeypatch):
    loops, orbits, R, C = k16_o_word_inputs()
    drawn = counting_stream(monkeypatch)
    want = exactla.bilinear_solve(loops, 3, R, C, orbits)
    honest = len(drawn)
    real_kernel, skipped = exactla._solve_mod_prime, []

    def skip_first(A, V, p):
        if not skipped:
            skipped.append(p)
            return None
        return real_kernel(A, V, p)

    monkeypatch.setattr(exactla, "_solve_mod_prime", skip_first)
    drawn.clear()
    assert exactla.bilinear_solve(loops, 3, R, C, orbits) == want
    assert skipped == drawn[:1] and len(drawn) == honest + 1


def test_block_route_gives_up_after_max_primes(monkeypatch):
    loops, orbits, R, C = k16_o_word_inputs()
    monkeypatch.setattr(exactla, "MAX_PRIMES", 3)
    monkeypatch.setattr(exactla, "_solve_mod_prime", lambda A, V, p: None)
    drawn = counting_stream(monkeypatch)
    with pytest.raises(SingularMatrixError):
        exactla.bilinear_solve(loops, 3, R, C, orbits)
    assert len(drawn) == 3 and all((p - 1) % 16 == 0 for p in drawn)


def counting_stream(monkeypatch, first=()):
    """Patch exactla.prime_stream to yield `first`, then the real stream; count draws."""
    drawn = []
    real_stream = exactla.prime_stream

    def stream(*residue_class):
        for p in itertools.chain(first, real_stream(*residue_class)):
            drawn.append(p)
            yield p

    monkeypatch.setattr(exactla, "prime_stream", stream)
    return drawn


def test_prime_stream_matches_a_sieve():
    """The first MAX_PRIMES primes drawn are the largest primes a sieve finds below PRIME_START.

    The sieve's window [PRIME_START - 3000, PRIME_START] holds no square of a
    prime (2887**2 < PRIME_START - 3000 and 2897**2 > PRIME_START), so trial
    division that stopped one odd divisor short of isqrt(n) would still pass.
    """
    want = oracles.sieve_primes_descending(exactla.PRIME_START - 3000, exactla.PRIME_START)
    assert len(want) >= exactla.MAX_PRIMES
    assert list(itertools.islice(exactla.prime_stream(), exactla.MAX_PRIMES)) \
        == want[:exactla.MAX_PRIMES]


def test_interleaved_prime_streams_share_one_cache(monkeypatch):
    # Two interleaved streams read one cache, which holds what either has drawn.
    want = oracles.sieve_primes_descending(exactla.PRIME_START - 300, exactla.PRIME_START)[:8]
    monkeypatch.setattr(exactla, "_primes", {})
    first, second = exactla.prime_stream(), exactla.prime_stream()
    got = [(next(first), next(first), next(second)) for _ in range(4)]
    assert [x for a, b, _ in got for x in (a, b)] == want
    assert [c for _, _, c in got] == want[:4]
    assert exactla._primes == {2: want}


def test_exactness_inequality():
    assert exactla.BLOCK * (exactla.PRIME_START - 1) ** 2 + exactla.PRIME_START < 2 ** 52
    # The Garner step: a Horner value and a new digit before reduction.
    P = exactla.PRIME_START
    assert (P // 2 + 1) * (P - 1) + P // 2 + 1 < 2 ** 52
    assert (P + 1) * (P - 1) < 2 ** 52


def python_crt(residues, primes):
    """The x in [0, prod(primes)) with x = r (mod p) for each pair, in Python ints."""
    x, M = 0, 1
    for r, p in zip(residues, primes):
        x += M * ((r - x) * pow(M, -1, p) % p)
        M *= p
    return x


def mixed_radix(digits, primes):
    """d_1 + p_1 (d_2 + p_2 (...)) per entry, in Python ints."""
    W, M = [0] * digits[0].size, 1
    for d, p in zip(digits, primes):
        W = [w + M * int(x) for w, x in zip(W, d.ravel().tolist())]
        M *= p
    return W


LARGE = list(itertools.islice(exactla.prime_stream(), 6))


@pytest.mark.parametrize("primes", [(3, 5, 7) + tuple(LARGE[:j]) for j in range(1, 7)]
                         + [tuple(LARGE[:j]) for j in (1, 2, 6)]
                         + [(LARGE[0], 3, LARGE[1], 5, 7)])
def test_garner_digits_at_residue_extremes(primes):
    # Residues of size p//2 + 1, the largest the kernel returns, and the
    # largest digits the Horner step can meet; every entry pattern of signs.
    signs = np.array(list(itertools.product((-1, 1), repeat=3)), dtype=np.float64).T
    residues = [signs[i % 3] * (p // 2 + 1) for i, p in enumerate(primes)]
    digits = []
    for i, (T, p) in enumerate(zip(residues, primes)):
        d = exactla._garner_digit(T.copy(), digits, list(primes[:i]), p)
        assert np.abs(d).max() <= p // 2 + 1
        digits.append(d)
    M = math.prod(primes)
    want = [python_crt([int(T[e]) for T in residues], primes) for e in range(signs.shape[1])]
    assert [w % M for w in mixed_radix(digits, primes)] == want
    # Earlier digits at their extremes, however they arose.
    extreme = [signs[(i + 1) % 3] * (p // 2 + 1) for i, p in enumerate(primes[:-1])]
    p, T = primes[-1], residues[-1]
    d = exactla._garner_digit(T.copy(), extreme, list(primes[:-1]), p)
    M = math.prod(primes[:-1])
    W = mixed_radix(extreme, primes[:-1]) if extreme else [0] * T.size
    assert np.abs(d).max() <= p // 2 + 1
    assert [(w + M * int(x)) % (M * p) for w, x in zip(W, d.tolist())] \
        == [python_crt([w % M, int(t)], [M, p]) for w, t in zip(W, T.tolist())]


def test_prime_dividing_a_leading_minor_is_skipped(monkeypatch):
    # The k=4 Gram matrix at N=3 is [[9, 3], [3, 9]]: its leading entry vanishes mod 3.
    gram = np.array(pairings.gram_matrix(4, 3), dtype=np.float64)
    assert gram[0, 0] == 9
    assert exactla._solve_mod_prime(gram % 3, indicator(2, [0, 1]), 3) is None
    # The table first: it solves by rotation blocks, on primes p = 1 (mod 4) only.
    table = weingarten.weingarten_table(4, 3)
    want = sum(table.wg(0, q) for q in (0, 1))
    counting_stream(monkeypatch, first=(3,))
    loops = np.array(pairings.loop_matrix(4), dtype=np.int64)
    assert exactla.bilinear_solve(loops, 3, [0], [0, 1], one_orbit_each(loops)) == want


@pytest.mark.parametrize("order", [1, 2, 4, 5, 64, 65, 70])
def test_first_vanishing_leading_minor_is_detected_in_any_block(order):
    # A = L diag(d) U with unit triangular L and U has leading minors
    # d_1 ... d_m, so the first one to vanish mod p has the given order:
    # the first and last pivot of a step of S = 4 pivots, the last pivot of
    # a 64-wide block, and pivots inside later blocks.
    n, p = 130, next(exactla.prime_stream())
    rng = np.random.default_rng(order)
    L = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    U = np.triu(rng.integers(0, p, (n, n)), 1) + np.eye(n, dtype=np.int64)
    d = rng.integers(1, p, n)
    d[order - 1] = 0
    A = (L * d % p @ U % p).astype(np.float64)
    V = indicator(n, list(range(0, n, 3)))
    assert exactla._solve_mod_prime(A, V, p) is None
    m = order - 1
    T = exactla._solve_mod_prime(A[:m, :m], V[:m], p)
    assert np.mod(T, p).astype(np.int64).tolist() == solve_reference(A[:m, :m], V[:m], p)


def same_inverse(got, want, k, pattern=None):
    """(X, D) holds the representative columns of the inverse Y/E of the (k, pattern) Gram
    matrix: X[a]/D is column rep_a of Y/E entrywise, as Fractions, for every representative."""
    (X, D), (Y, E) = got, want
    reps = pairings.rotation_orbits(k, pattern)[:, 0].tolist()
    return (len(X) == len(reps) and all(len(col) == len(Y) for col in X)
            and all(x * E == Y[i][rep] * D for col, rep in zip(X, reps) for i, x in enumerate(col)))


def test_prime_three_is_skipped_for_the_k4_table(monkeypatch):
    gram = pairings.gram_matrix(4, 3)
    assert exactla._solve_mod_prime(np.array(gram) % 3.0, np.eye(2), 3) is None
    drawn = counting_stream(monkeypatch, first=(3,))
    loop_mat = pairings.loop_matrix(4)
    assert exactla.fraction_free_inverse(loop_mat, 3, one_orbit_each(loop_mat)) \
        == ([[3, -1], [-1, 3]], 24)
    assert drawn[0] == 3 and len(drawn) >= 2


def test_wrong_candidate_denominator_is_rejected(monkeypatch):
    gram = pairings.gram_matrix(10, 3)
    want = oracles.bareiss_inverse(gram)
    drawn = counting_stream(monkeypatch)
    assert same_inverse(certified_table(10, 3), want, 10)
    honest, accepted_at = len(drawn), math.prod(drawn)
    # Where the honest run was accepted, the first denominator returned is
    # multiplied by the modulus: then D W = 0 mod M, so X = 0 would be
    # accepted but for the certificate's + D term.
    real_reconstruct, lies = exactla.rational_reconstruct, []

    def wrong_first(a, m):
        f = real_reconstruct(a, m)
        if m == accepted_at and f is not None and not lies:
            lies.append(f)
            return Fraction(f.numerator, f.denominator * m)
        return f

    monkeypatch.setattr(exactla, "rational_reconstruct", wrong_first)
    drawn.clear()
    got = certified_table(10, 3)
    assert lies
    assert same_inverse(got, want, 10) and got[1] == want[1] // math.gcd(want[1], *sum(want[0], []))
    assert len(drawn) > honest


def certified_table(k, N, pattern=None):
    """fraction_free_inverse as weingarten._build_table calls it, through the rotation orbits."""
    return exactla.fraction_free_inverse(pairings.loop_rows(k, pattern), N,
                                         pairings.rotation_orbits(k, pattern))


def test_certified_inverse_matches_bareiss_oracle():
    # Uncoloured tables (r = k), a periodic coloured pattern (period 4, so
    # r = 2) and aperiodic ones (r = 1, one orbit per pairing), each solved
    # on its representative columns, which are all it returns.
    rng = random.Random(7)
    periodic, aperiodic = tuple("11**11**"), tuple("11*1*1**")
    assert pairings.rotation_orbits(8, periodic).shape[1] == 2
    assert pairings.rotation_orbits(8, aperiodic).shape[1] == 1
    cases = [(k, None) for k in range(2, 11, 2)] + [(8, periodic), (8, aperiodic)]
    for k in range(4, 11, 2):
        for _ in range(2):
            pattern = ["1", "*"] * (k // 2)
            rng.shuffle(pattern)
            cases.append((k, tuple(pattern)))
    for k, pattern in cases:
        for N in range(2, 7):
            gram = pairings.gram_matrix(k, N, pattern)
            assert same_inverse(certified_table(k, N, pattern), oracles.bareiss_inverse(gram),
                                k, pattern)
    gram = pairings.gram_matrix(12, 3)
    assert same_inverse(certified_table(12, 3), oracles.bareiss_inverse(gram), 12)


def test_more_rotations_than_block_raise_before_any_prime(monkeypatch):
    # r > BLOCK would break the transforms' exactness bound BLOCK p**2 < 2**52.
    loop_mat = pairings.loop_matrix(4)
    orbits = np.tile(np.arange(2)[:, None], (1, exactla.BLOCK + 1))
    drawn = counting_stream(monkeypatch)
    with pytest.raises(InvalidArgumentError):
        exactla.fraction_free_inverse(loop_mat, 3, orbits)
    with pytest.raises(InvalidArgumentError):
        exactla.bilinear_solve(loop_mat, 3, [0], [1], orbits)
    assert drawn == []
    assert exactla.fraction_free_inverse(loop_mat, 3, orbits[:, :exactla.BLOCK]) \
        == ([[3, -1], [-1, 3]], 24)


def test_a_whole_loop_matrix_with_rotation_orbits_raises_before_any_prime(monkeypatch):
    # The solves take one row per orbit (pairings.loop_rows); all n rows with
    # m < n orbits would read the wrong rows as the representatives'.
    orbits = pairings.rotation_orbits(8)
    loop_mat = pairings.loop_matrix(8)
    assert len(orbits) < len(loop_mat)
    drawn = counting_stream(monkeypatch)
    with pytest.raises(InvalidArgumentError, match="loop rows for"):
        exactla.fraction_free_inverse(loop_mat, 3, orbits)
    with pytest.raises(InvalidArgumentError, match="loop rows for"):
        exactla.bilinear_solve(loop_mat, 3, [0], [1], orbits)
    assert drawn == []
    assert np.array_equal(pairings.loop_rows(8), loop_mat[orbits[:, 0]])


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["o+", "u+"]), st.integers(2, 6), st.data())
def test_modular_route_matches_table_route_on_random_words(model, N, data):
    # Words are either arbitrary (often zero) or a rotated w* w (never zero).
    idx = st.integers(1, min(N, 3))
    flag = st.sampled_from("1*") if model == "u+" else st.just("1")
    flip = {"1": "*", "*": "1"}
    w = data.draw(st.lists(st.tuples(idx, idx, flag), min_size=1, max_size=6))
    if data.draw(st.booleans()):
        letters = w + data.draw(st.lists(st.tuples(idx, idx, flag), min_size=len(w),
                                         max_size=len(w)))
    else:
        letters = [(i, j, flip[e] if model == "u+" else e) for i, j, e in reversed(w)] + w
        rot = data.draw(st.integers(0, len(letters) - 1))
        letters = letters[rot:] + letters[:rot]
    k = len(letters)
    pattern = tuple(e for _, _, e in letters) if model == "u+" else None
    plist = pairings.word_pairings(k, pattern)
    assume(plist)  # an unbalanced pattern fits no pairing and reaches neither route
    R = pairings.compatible_indices(plist, [i for i, _, _ in letters])
    C = pairings.compatible_indices(plist, [j for _, j, _ in letters])
    loops = np.array(pairings.loop_matrix(k, pattern), dtype=np.int64)
    want = weingarten.haar_moment(weingarten.GeneratorWord(tuple(letters), model), N)
    assert exactla.bilinear_solve(loops, N, R, C, one_orbit_each(loops)) == want
    assert exactla.bilinear_solve(pairings.loop_rows(k, pattern), N, R, C,
                                  pairings.rotation_orbits(k, pattern)) == want


def k8_moment_inputs():
    """Loop matrix, row and column indices and table value of a nonzero k = 8 word at N = 3."""
    letters = ((1, 2, "1"), (2, 2, "1"), (2, 2, "1"), (1, 2, "1")) * 2
    plist = pairings.word_pairings(8)
    R = pairings.compatible_indices(plist, [i for i, _, _ in letters])
    C = pairings.compatible_indices(plist, [j for _, j, _ in letters])
    loops = np.array(pairings.loop_matrix(8), dtype=np.int64)
    return loops, R, C, weingarten.haar_moment(weingarten.GeneratorWord(letters, "o+"), 3)


def test_certificate_rejects_a_wrong_vector_denominator(monkeypatch):
    loops, R, C, want = k8_moment_inputs()
    drawn = counting_stream(monkeypatch)
    assert exactla.bilinear_solve(loops, 3, R, C, one_orbit_each(loops)) == want
    honest, accepted_at = len(drawn), math.prod(drawn)
    # Where the honest run was accepted, the first denominator returned is
    # multiplied by the modulus: then D W = 0 mod M, so X = 0 (a moment of
    # 0) would be accepted but for the certificate's + D term.
    real_reconstruct, lies = exactla.rational_reconstruct, []

    def wrong_first(a, m):
        f = real_reconstruct(a, m)
        if m == accepted_at and f is not None and not lies:
            lies.append(f)
            return Fraction(f.numerator, f.denominator * m)
        return f

    monkeypatch.setattr(exactla, "rational_reconstruct", wrong_first)
    drawn.clear()
    assert exactla.bilinear_solve(loops, 3, R, C, one_orbit_each(loops)) == want
    assert lies
    assert len(drawn) > honest


def test_both_routes_give_up_after_max_primes(monkeypatch):
    # 3 divides the leading entry N**(k/2) of both Gram matrices at N = 3, so
    # the one prime allowed is skipped and no residue is ever combined.
    monkeypatch.setattr(exactla, "MAX_PRIMES", 1)
    counting_stream(monkeypatch, first=(3,))
    loop_mat = pairings.loop_matrix(12)
    with pytest.raises(SingularMatrixError):
        exactla.fraction_free_inverse(loop_mat, 3, one_orbit_each(loop_mat))
    loops, R, C, _ = k8_moment_inputs()
    with pytest.raises(SingularMatrixError):
        exactla.bilinear_solve(loops, 3, R, C, one_orbit_each(loops))


def recorded_prime_loop(monkeypatch, solve, loop_mat, N, V):
    """(result, primes drawn, rational_reconstruct arguments) of one prime loop run."""
    with monkeypatch.context() as patch:
        drawn, args = counting_stream(patch), []
        real_reconstruct = exactla.rational_reconstruct

        def recording(a, m):
            args.append((a, m))
            return real_reconstruct(a, m)

        patch.setattr(exactla, "rational_reconstruct", recording)
        return solve(loop_mat, N, V), drawn, args


PRIME_LOOP_CASES = ([(k, None, N, "I") for k in range(2, 13, 2) for N in (2, 3, 4, 8)]
                    + [(12, "11*1*1*1*1**", N, "I") for N in (3, 8)]
                    + [(14, None, N, "column") for N in (3, 8)])


@pytest.mark.parametrize("k, pattern, N, rhs", PRIME_LOOP_CASES)
def test_prime_loop_matches_the_reference_loop(monkeypatch, k, pattern, N, rhs):
    # The Garner digits and the lazy certificate against the bigint CRT and
    # the eager certificate: the same primes, the same reconstruction calls
    # in the same order, and the same (D, X).
    loop_mat = pairings.loop_matrix(k, None if pattern is None else tuple(pattern))
    n = loop_mat.shape[0]
    V = np.eye(n) if rhs == "I" else indicator(n, list(range(0, n, 3)))
    got = recorded_prime_loop(monkeypatch, lambda L, N, V: exactla._gram_solve(
        L, N, V, one_orbit_each(L)), loop_mat, N, V)
    want = recorded_prime_loop(monkeypatch, oracles.reference_gram_solve, loop_mat, N, V)
    assert got == want
    if k >= 6:
        assert got[2]  # the D chain ran


def adjoint_square(w, model):
    """The letters of w* w: the word, reversed and starred, then the word; never a zero moment."""
    flip = {"1": "*", "*": "1"} if model == "u+" else {"1": "1"}
    return [(i, j, flip[e]) for i, j, e in reversed(w)] + list(w)


@pytest.mark.parametrize("model, stars, N, r", [
    ("o+", "1111111", 3, 14), ("o+", "1111111", 8, 14), ("o+", "11111111", 3, 16),
    ("u+", "1*1*1*1*", 3, 16),  # alternating: the O_N^+ pairings and blocks
    ("u+", "11**11**", 3, 4),  # the periodic pattern 11**11**11**11**
    ("u+", "11*1*1*", 3, 1),  # aperiodic: a stack of one, the dense solve
])
def test_block_route_matches_the_dense_route_past_the_tables(model, stars, N, r):
    rng = random.Random(stars + str(N))
    w = [(rng.randint(1, 2), rng.randint(1, N), e) for e in stars]
    letters = adjoint_square(w, model)
    k = len(letters)
    colours = tuple(e for _, _, e in letters) if model == "u+" else None
    pattern = pairings.canonical_pattern(colours)
    plist = pairings.word_pairings(k, pattern)
    R = pairings.compatible_indices(plist, [i for i, _, _ in letters])
    C = pairings.compatible_indices(plist, [j for _, j, _ in letters])
    orbits = pairings.rotation_orbits(k, pattern)
    assert orbits.shape[1] == r
    loops = pairings.loop_matrix(k, pattern)
    want = exactla.bilinear_solve(loops, N, R, C, one_orbit_each(loops))
    assert want > 0
    assert exactla.bilinear_solve(pairings.loop_rows(k, pattern), N, R, C, orbits) == want
    assert weingarten.haar_moment(weingarten.GeneratorWord(tuple(letters), model), N,
                                  kmax=k) == want
