"""The modular kernel of exactla: exact float64 elimination mod p < 2**23."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qhaar import exactla, pairings, weingarten


def bilinear_mod_reference(A, u_idx, v_idx, p):
    """u^T A^{-1} v mod p by Python-int Gauss-Jordan with row pivoting."""
    n = len(A)
    M = [[int(a) % p for a in row] + [1 if i in v_idx else 0] for i, row in enumerate(A)]
    for col in range(n):
        r = next(i for i in range(col, n) if M[i][col])
        M[col], M[r] = M[r], M[col]
        inv = pow(M[col][col], -1, p)
        M[col] = [x * inv % p for x in M[col]]
        for i in range(n):
            if i != col and M[i][col]:
                f = M[i][col]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[col])]
    return sum(M[i][n] for i in u_idx) % p


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_kernel_matches_reference_at_block_edges(n):
    # Entries in [p-64, p) give the largest products the exactness bound allows.
    p = next(exactla.prime_stream())
    rng = random.Random(n)
    A = [[rng.randrange(p - 64, p) for _ in range(n)] for _ in range(n)]
    u_idx = sorted(rng.sample(range(n), max(1, n // 3)))
    v_idx = sorted(rng.sample(range(n), max(1, n // 2)))
    got = exactla._bilinear_mod_prime(np.array(A, dtype=np.float64), u_idx, v_idx, p)
    assert got == bilinear_mod_reference(A, u_idx, v_idx, p)


def test_exactness_inequality():
    assert exactla.BLOCK * (exactla.PRIME_START - 1) ** 2 + exactla.PRIME_START < 2 ** 52


def test_prime_dividing_a_leading_minor_is_skipped(monkeypatch):
    # The k=4 Gram matrix at N=3 is [[9, 3], [3, 9]]: its leading entry vanishes mod 3.
    gram = np.array(pairings.gram_matrix(4, 3), dtype=np.float64)
    assert gram[0, 0] == 9
    assert exactla._bilinear_mod_prime(gram % 3, [0], [0, 1], 3) is None
    real_stream = exactla.prime_stream

    def stream():
        yield 3
        yield from real_stream()

    monkeypatch.setattr(exactla, "prime_stream", stream)
    loops = np.array(pairings.loop_matrix(4), dtype=np.int64)
    table = weingarten.weingarten_table(4, 3)
    want = sum(table.wg(0, q) for q in (0, 1))
    assert exactla.bilinear_solve(loops, 3, [0], [0, 1]) == want


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
    assert exactla.bilinear_solve(loops, N, R, C) == want
