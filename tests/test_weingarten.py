import collections
import itertools
import logging
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhaar import exactla, ncpoly, pairings, weingarten
from qhaar.errors import (InvalidArgumentError, InvalidDimensionError, InvalidIndexError,
                          ResourceLimitError)

import oracles


def u(i, j):
    return (i, j, "1")


def v(i, j, star=False):
    return (i, j, "*" if star else "1")


def gw(letters, model):
    return weingarten.GeneratorWord(tuple(letters), model)


def test_table_k2():
    t = weingarten.weingarten_table(2, 7)
    assert t.size == 1
    assert t.wg(0, 0) == Fraction(1, 7)


def test_table_k4_closed_form():
    for N in range(2, 8):
        t = weingarten.weingarten_table(4, N)
        den = N ** 4 - N ** 2
        assert t.wg(0, 0) == Fraction(N ** 2, den)
        assert t.wg(0, 1) == Fraction(-N, den)
        assert t.wg(1, 0) == Fraction(-N, den)
        assert t.wg(1, 1) == Fraction(N ** 2, den)


def test_wg_times_gram_is_identity_small():
    for k in (2, 4, 6, 8):
        for N in (2, 3, 5, 10):
            t = weingarten.weingarten_table(k, N)
            gram = pairings.gram_matrix(k, N)
            n = t.size
            for i in range(n):
                for j in range(n):
                    s = sum(t.num(i, x) * gram[x][j] for x in range(n))
                    assert s == (t.wg_den if i == j else 0)


def test_tables_never_build_the_bigint_gram_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("gram_matrix called")

    weingarten._build_table.cache_clear()
    monkeypatch.setattr(pairings, "gram_matrix", refuse)
    t = weingarten.weingarten_table(8, 5)
    assert t.size == 14 and t.wg(0, 0) > 0


def test_moment_examples():
    assert weingarten.haar_moment(gw([u(1, 1)] * 2, "o+"), 5) == Fraction(1, 5)
    assert weingarten.haar_moment(gw([u(1, 1), u(1, 2)], "o+"), 3) == 0
    for N in range(2, 9):
        assert weingarten.haar_moment(gw([u(1, 1)] * 4, "o+"), N) == Fraction(2, N * (N + 1))


def test_moment_direct_delta_oracle():
    # the delta-pattern double sum recomputed from scratch must agree
    words = [
        [u(1, 1), u(2, 2), u(1, 1), u(2, 2)],
        [u(1, 1), u(1, 2), u(1, 2), u(1, 1)],
        [u(1, 2), u(2, 1), u(1, 2), u(2, 1)],
        [u(1, 1)] * 6,
    ]
    for N in (3, 5):
        for word in words:
            t = weingarten.weingarten_table(len(word), N)
            got = weingarten.haar_moment(gw(word, "o+"), N)
            want = oracles.brute_haar_moment_via_deltas(word, N, t.wg)
            assert got == want


def test_odd_moments_vanish():
    assert weingarten.haar_moment(gw([u(1, 1)] * 3, "o+"), 4) == 0
    assert weingarten.haar_moment(gw([u(1, 1), u(2, 2), u(1, 2)], "o+"), 4) == 0


def test_empty_word_is_one():
    assert weingarten.haar_moment(gw([], "o+"), 4) == 1


def test_index_beyond_N_rejected():
    with pytest.raises(InvalidIndexError):
        weingarten.haar_moment(gw([u(1, 5), u(1, 5)], "o+"), 4)


@pytest.mark.parametrize("letters, model, error", [
    ([u(1, 1), (0, 1, "1"), (1, 1, "x"), u(1, 1), (0, 1, "1")], "u+", InvalidIndexError),
    ([u(1, 1), (1, 1, "x"), (0, 1, "1"), (1, 1, "x")], "u+", ValueError),
    ([u(2, 1), v(1, 1, True), (0, 1, "1"), v(1, 1, True)], "o+", ValueError),
])
def test_word_rejects_its_first_bad_letter(letters, model, error):
    # repeated letters are checked once; the first bad one still decides the error
    with pytest.raises(error) as exc:
        gw(letters, model)
    assert type(exc.value) is error


def test_odd_k_table_rejected():
    with pytest.raises(ValueError):
        weingarten.weingarten_table(3, 4)


def test_kmax_resource_error():
    with pytest.raises(ResourceLimitError) as exc:
        weingarten.haar_moment(gw([u(1, 1)] * 14, "o+"), 3, kmax=12)
    assert exc.value.required_k == 14


def test_cycle_type_sums_group_the_table():
    # S_λ sums the table entries of the pairs whose union has cycle type λ.
    # Each pair's type by union-find, so every pair is read, not only the
    # representatives' rows that cycle_type_sums reads.
    for k, N in ((2, 5), (6, 3), (10, 4)):
        t = weingarten.weingarten_table(k, N)
        plist = pairings.enumerate_nc_pairings(k)
        want = collections.Counter()
        for a in range(t.size):
            for c in range(t.size):
                want[oracles.union_half_lengths(plist[a], plist[c])] += t.wg(a, c)
        assert dict(weingarten.cycle_type_sums(k, N)) == want
    assert weingarten.cycle_type_sums(2, 5) == (((1,), Fraction(1, 5)),)


def test_cycle_type_sums_check_as_the_table_does():
    with pytest.raises(ResourceLimitError):
        weingarten.cycle_type_sums(14, 3)
    with pytest.raises(InvalidDimensionError):
        weingarten.cycle_type_sums(4, 1)
    with pytest.raises(InvalidArgumentError):
        weingarten.cycle_type_sums(3, 3)


def test_kmax_checked_before_listing_pairings(monkeypatch):
    # Past kmax the moment is refused (or is 0) without listing any pairing.
    listing = pairings.word_pairings

    def word_pairings(k, pattern=None):
        assert k <= 12, f"listed pairings at k={k}"
        return listing(k, pattern)

    monkeypatch.setattr(pairings, "word_pairings", word_pairings)
    with pytest.raises(ResourceLimitError) as exc:
        weingarten.haar_moment(gw([u(1, 1)] * 30, "o+"), 3)
    assert exc.value.required_k == 30
    assert weingarten.haar_moment(gw([u(1, 1), u(1, 2)] * 15, "o+"), 3) == 0
    unbalanced = gw((v(1, 1),) * 29 + (v(1, 1, True),), "u+")
    assert weingarten.haar_moment(unbalanced, 3) == 0
    alternating = gw((v(1, 1), v(1, 1, True)) * 15, "u+")
    with pytest.raises(ResourceLimitError):
        weingarten.haar_moment(alternating, 3)
    assert weingarten.haar_moment(gw([u(1, 1)] * 4, "o+"), 3) == Fraction(1, 6)


def test_unitary_moments():
    # v v* pairs behave like the orthogonal k=2 case
    assert weingarten.haar_moment(gw([v(1, 1), v(1, 1, True)], "u+"), 5) == Fraction(1, 5)
    # no 1-* pair available
    assert weingarten.haar_moment(gw([v(1, 1), v(1, 1)], "u+"), 5) == 0


def test_unitarity_contraction_identities():
    for N in (3, 6):
        # sum_j h(u_1j u_1j) = 1 = h(empty)
        total = weingarten.unitarity_contraction(gw([u(1, 1), u(1, 1)], "o+"), N, 0)
        assert total == 1
        # row-orthogonality: sum_j h(u_1j u_2j) = 0
        total = sum(weingarten.haar_moment(gw([u(1, j), u(2, j)], "o+"), N)
                    for j in range(1, N + 1))
        assert total == 0
        # contraction inside a longer word reduces k = 4 to k = 2
        word = [u(1, 1), u(1, 1), u(1, 1), u(1, 1)]
        got = weingarten.unitarity_contraction(gw(word, "o+"), N, 2)
        assert got == weingarten.haar_moment(gw([u(1, 1), u(1, 1)], "o+"), N)


def test_unitarity_contraction_all_positions():
    # every insertion point in every base word over indices {1,2}
    alphabet = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for N in (3, 5):
        for length in (0, 1, 2):
            for combo in itertools.product(alphabet, repeat=length):
                base = [u(i, j) for i, j in combo]
                want = weingarten.haar_moment(gw(base, "o+"), N)
                for pos in range(length + 1):
                    for row in (1, 2):
                        word = base[:pos] + [u(row, 1), u(row, 1)] + base[pos:]
                        got = weingarten.unitarity_contraction(gw(word, "o+"), N, pos)
                        assert got == want, (combo, pos, row, N)


def test_transpose_symmetry():
    words = [
        [u(1, 2), u(1, 2)],
        [u(1, 2), u(2, 1), u(1, 1), u(1, 2)],
        [u(1, 1), u(2, 3), u(2, 3), u(1, 1), u(3, 2), u(3, 2)],
    ]
    for N in (3, 5):
        for word in words:
            flipped = [u(j, i) for i, j, _ in word]
            assert (weingarten.haar_moment(gw(word, "o+"), N)
                    == weingarten.haar_moment(gw(flipped, "o+"), N))


def test_state_positivity_on_squares():
    words = [[], [u(1, 1)], [u(1, 2)], [u(1, 1), u(2, 2)], [u(1, 2), u(2, 1), u(1, 1)]]
    for N in (3, 4):
        for w in words:
            square = list(reversed(w)) + w
            assert weingarten.haar_moment(gw(square, "o+"), N) >= 0


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["o+", "u+"]), st.sampled_from([3, 4]), st.data())
def test_moment_metamorphic_symmetries(model, N, data):
    # h(w* w) > 0 is unchanged by rotation (h is a trace), by relabelling rows
    # or columns (conjugation by a permutation matrix) and by transposition.
    idx = st.integers(1, N)
    flag = st.sampled_from("1*") if model == "u+" else st.just("1")
    w = data.draw(st.lists(st.tuples(idx, idx, flag), max_size=4))
    flip = {"1": "*", "*": "1"} if model == "u+" else {"1": "1"}
    letters = [(i, j, flip[e]) for i, j, e in reversed(w)] + w
    want = weingarten.haar_moment(gw(letters, model), N)
    assert want > 0
    rot = data.draw(st.integers(0, max(len(letters) - 1, 0)))
    rows = data.draw(st.permutations(range(1, N + 1)))
    cols = data.draw(st.permutations(range(1, N + 1)))
    for variant in (letters[rot:] + letters[:rot],
                    [(rows[i - 1], j, e) for i, j, e in letters],
                    [(i, cols[j - 1], e) for i, j, e in letters],
                    [(j, i, e) for i, j, e in letters]):
        assert weingarten.haar_moment(gw(variant, model), N) == want, variant


def test_modular_route_matches_table_route():
    # the large-k path must reproduce the exact table values at small k
    cases = [
        ([u(1, 1)] * 4, "o+", 3),
        ([u(1, 1), u(2, 2), u(2, 2), u(1, 1)] * 2, "o+", 4),
        ([u(1, 1)] * 8, "o+", 5),
        ([u(1, 1), u(2, 2)] * 5, "o+", 3),
        ([v(1, 1), v(1, 1, True)] * 3, "u+", 3),
    ]
    for word, model, N in cases:
        k = len(word)
        pattern = None
        if model == "u+":
            pattern = tuple(e for _, _, e in word)
            plist = list(pairings.enumerate_colored_nc_pairings(pattern))
        else:
            plist = list(pairings.enumerate_nc_pairings(k))
        rows = [l[0] for l in word]
        cols = [l[1] for l in word]
        R = [a for a, p in enumerate(plist) if all(rows[x - 1] == rows[y - 1] for x, y in p.pairs)]
        C = [a for a, p in enumerate(plist) if all(cols[x - 1] == cols[y - 1] for x, y in p.pairs)]
        loops = np.array(pairings.loop_matrix(k, pattern), dtype=np.int64)
        # One orbit per pairing (r = 1) against the table's rotation blocks.
        got = exactla.bilinear_solve(loops, N, R, C, np.arange(len(plist))[:, None])
        assert got == weingarten.haar_moment(gw(word, model), N)


def sampled_unitary_words(rng, count, orders=(4, 6, 8)):
    """Non-alternating U_N^+ words of the given orders k, indices in {1, 2}.

    One in four is uniform (its moment is almost always 0).  The others lay
    the colours and row indices pair by pair on a random non-crossing
    matching, and the column indices on a random matching of those colours,
    so their moments are mostly nonzero.  Matchings come from the oracles.
    """
    words = []
    while len(words) < count:
        k = rng.choice(orders)
        pattern, rows, cols = [None] * k, [None] * k, [None] * k
        if rng.random() < 0.25:
            pattern = [rng.choice("1*") for _ in range(k)]
            rows = [rng.randint(1, 2) for _ in range(k)]
            cols = [rng.randint(1, 2) for _ in range(k)]
        else:
            for a, b in rng.choice(sorted(oracles.brute_nc_matchings(k))):
                pattern[a - 1], pattern[b - 1] = rng.choice([("1", "*"), ("*", "1")])
                rows[a - 1] = rows[b - 1] = rng.randint(1, 2)
            for a, b in rng.choice(oracles.brute_colored_matchings(pattern)):
                cols[a - 1] = cols[b - 1] = rng.randint(1, 2)
        if any(x == y for x, y in zip(pattern, pattern[1:])):
            words.append(tuple(zip(rows, cols, pattern)))
    return words


@pytest.mark.parametrize("N", [3, 4])
def test_unitary_moments_are_the_free_complexification(N):
    # v_ij -> z u_ij (Banica): every U_N^+ moment is a polynomial in O_N^+
    # moments, so a wrong entry in a coloured table shows here.
    # The k = 10 words reach coloured tables of up to 14 pairings, which the
    # modular kernel inverts in several steps of exactla.S pivots.
    rng = random.Random(1600 + N)
    words = sampled_unitary_words(rng, 120) + sampled_unitary_words(rng, 20, orders=(10,))
    nonzero = collections.Counter()
    for letters in words:
        h = weingarten.haar_moment(gw(letters, "u+"), N)
        assert h == oracles.free_complexification(letters, N), letters
        nonzero[len(letters)] += h != 0
    assert nonzero[4] + nonzero[6] + nonzero[8] >= 60 and nonzero[10] >= 10


def test_alternating_unitary_word_reuses_the_orthogonal_loop_matrix(monkeypatch):
    # The k=14 U_N^+ word alternates v / v*, so its modular solve asks for
    # loop_rows(14, None), the rows O_N^+ words of length 14 use.  The two
    # words are one class, so the memo is cleared before each: both solve.
    weingarten._class_moment.cache_clear()
    calls = []
    real = pairings.loop_rows
    monkeypatch.setattr(pairings, "loop_rows", lambda *a: calls.append(a) or real(*a))
    word = [v(1, 1), v(1, 2, True), v(2, 2), v(2, 1, True)] * 3 + [v(1, 1), v(1, 1, True)]
    h = weingarten.haar_moment(gw(word, "u+"), 3, kmax=14)
    assert calls == [(14, None)]
    x_word = [u(i, j) for i, j, _ in word]
    weingarten._class_moment.cache_clear()
    assert h == weingarten.haar_moment(gw(x_word, "o+"), 3, kmax=14)


def test_moments_and_linear_states_build_no_loop_matrix():
    # The solves read only the representatives' rows (pairings.loop_rows and
    # cycle_types): a cold order-14 moment, through bilinear_solve, and a cold
    # k = 12 linear state, through a table and its cycle-type sums, build no
    # n x n loop matrix.
    for cache in (pairings._loop_matrix, pairings._rep_rows, weingarten._class_moment,
                  weingarten._build_table, weingarten._cycle_type_sums):
        cache.cache_clear()
    word = [u(1, 1), u(1, 2), u(2, 2), u(2, 1)] * 3 + [u(1, 1), u(1, 1)]
    assert weingarten.haar_moment(gw(word, "o+"), 3, kmax=14) != 0
    a = ncpoly.parse_poly("x[1,1]+2*x[1,2]")
    assert ncpoly.linear_state(a, 6, 3) is not None
    assert weingarten._cycle_type_sums.cache_info().currsize == 1
    assert pairings.loop_matrix.cache_info().currsize == 0


def test_k14_table_is_built_silently_and_exactly(caplog):
    caplog.set_level(logging.DEBUG)
    t = weingarten.weingarten_table(14, 3, kmax=14)
    assert not caplog.records
    assert t.size == 429
    gram = pairings.gram_matrix(14, 3)
    for i in (0, 1, 200, 428):
        for j in range(t.size):
            s = sum(t.num(i, x) * gram[x][j] for x in range(t.size))
            assert s == (t.wg_den if i == j else 0)


def test_cache_returns_same_object():
    a = weingarten.weingarten_table(4, 6)
    b = weingarten.weingarten_table(4, 6)
    assert a is b


def test_table_pattern_must_fit_k():
    # A k=4 pattern under k=2 is rejected every time: nothing was cached for it.
    for _ in range(2):
        with pytest.raises(InvalidArgumentError):
            weingarten.weingarten_table(2, 3, ("1", "*", "1", "*"))
    with pytest.raises(InvalidArgumentError):
        weingarten.weingarten_table(2, 3, ("1", "1"))
    t = weingarten.weingarten_table(4, 3, ("1", "*", "1", "*"))
    assert (t.k, t.size, t.pattern) == (4, 2, ("1", "*", "1", "*"))


# Uncoloured tables serve O_N^+ and alternating U_N^+ words (r = k turns); coloured ones
# serve U_N^+, periodic (r = 2 or 3 turns; at k = 8 every orbit is one pairing, at k = 12
# some have 2 or 3) or aperiodic (r = 1).
COMPACT_CASES = [(k, None) for k in range(2, 11, 2)] + [
    (8, tuple("11**11**")), (12, tuple("11**11**11**")), (12, tuple("11*1**11*1**")),
    (8, tuple("11*1*1**")), (10, tuple("1**1*11**1"))]


@pytest.mark.parametrize("k, pattern", COMPACT_CASES)
def test_compact_table_reads_the_bareiss_inverse(k, pattern):
    orbits = pairings.rotation_orbits(k, pattern)
    for N in (2, 3, 4):
        t = weingarten.weingarten_table(k, N, pattern)
        Y, E = oracles.bareiss_inverse(pairings.gram_matrix(k, N, pattern))
        assert t.size == len(Y)
        assert len(t.cols) == orbits.shape[0] and all(len(col) == t.size for col in t.cols)
        assert all(t.wg(a, b) == Fraction(Y[a][b], E) for a in range(t.size) for b in range(t.size))


@pytest.mark.parametrize("pattern", [tuple("11**11**11**"), tuple("11*1**11*1**"),
                                     tuple("11*1*1**1*1*")])
def test_compact_table_times_gram_is_identity_on_whole_rows_at_k12(pattern):
    # Uncoloured k = 12 tables get every row in criterion 9.
    for N in (2, 3, 4):
        t = weingarten.weingarten_table(12, N, pattern)
        gram = pairings.gram_matrix(12, N, pattern)
        for i in range(t.size):
            row = [t.num(i, x) for x in range(t.size)]
            for j in range(t.size):
                assert sum(w * gram[x][j] for x, w in enumerate(row)) == (t.wg_den if i == j else 0)


def test_the_k12_table_holds_its_representative_columns_only():
    t = weingarten.weingarten_table(12, 3)
    assert len(t.cols) == 14 and {len(col) for col in t.cols} == {132}


def test_o2_oracle_equals_the_weingarten_route():
    # Rotated w* w words are never zero; the others mostly are.
    rng = random.Random(2602)
    words, nonzero = [], 0
    for k in range(2, 15, 2):
        for _ in range(3):
            half = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(k // 2)]
            w = half[::-1] + half
            t = rng.randrange(k)
            words.append(w[t:] + w[:t])
            words.append([(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(k)])
    for w in words:
        want = weingarten.haar_moment(gw([u(i, j) for i, j in w], "o+"), 2, kmax=14)
        assert oracles.o2_moment(w) == want, w
        nonzero += bool(want)
    assert nonzero >= len(words) // 2


def test_o2_oracle_equals_the_weingarten_route_at_orders_16_and_18():
    # Past the order-14 words above: two rotated w* w words of each order,
    # each one certified solve on the representatives' rows at N = 2.
    rng = random.Random(1618)
    for k in (16, 18):
        for _ in range(2):
            half = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(k // 2)]
            w = half[::-1] + half
            t = rng.randrange(k)
            w = w[t:] + w[:t]
            want = weingarten.haar_moment(gw([u(i, j) for i, j in w], "o+"), 2, kmax=k)
            assert want > 0 and oracles.o2_moment(w) == want, w


def class_variants(letters):
    """The word turned, reflected, transposed, and all three at once; the stars stay put."""
    turned = letters[3:] + letters[:3]
    reflected = letters[::-1]
    transposed = [(j, i, e) for i, j, e in letters]
    return [turned, reflected, transposed, [(j, i, e) for i, j, e in reflected[5:] + reflected[:5]]]


def class_key_of(letters, model):
    rows, cols = [i for i, _, _ in letters], [j for _, j, _ in letters]
    pattern = tuple(e for _, _, e in letters) if model == "u+" else None
    return weingarten._class_key(rows, cols, pairings.canonical_pattern(pattern))


def rotated_squares(rng, count, k, model, top=3):
    """Turns of w* w for seeded words w of k/2 letters with indices at most top: never 0."""
    flip = {"1": "*", "*": "1"} if model == "u+" else {"1": "1"}
    words = []
    for _ in range(count):
        w = [(rng.randint(1, top), rng.randint(1, top), rng.choice("1*") if model == "u+" else "1")
             for _ in range(k // 2)]
        square = [(i, j, flip[e]) for i, j, e in reversed(w)] + w
        t = rng.randrange(k)
        words.append(square[t:] + square[:t])
    return words


@pytest.mark.parametrize("N", [3, 4])
def test_a_word_and_its_class_key_have_one_table_moment(N):
    # The table route (k <= 12) never reads the memo, so it checks each key
    # against its word; every turn, reflection and transposition has that key.
    rng = random.Random(2700 + N)
    cases = [(w, "o+") for k in (4, 8, 12) for w in rotated_squares(rng, 8, k, "o+")]
    cases += [(w, "u+") for k in (4, 8, 12) for w in rotated_squares(rng, 8, k, "u+")]
    cases += [(w, "u+") for w in sampled_unitary_words(rng, 40)]
    nonzero = 0
    for letters, model in cases:
        key = class_key_of(letters, model)
        assert all(class_key_of(w, model) == key for w in class_variants(letters)), letters
        h = weingarten.haar_moment(gw(letters, model), N)
        assert weingarten._moment(list(key[0]), list(key[1]), key[2], N, 12) == h, letters
        nonzero += h != 0
    assert nonzero >= len(cases) * 3 // 4


def test_a_memo_hit_equals_a_cold_solve_of_each_variant():
    # N = 8 follows N = 3 with the memo full: a key without N would answer it.
    rng = random.Random(2714)
    words = [(w, model) for model in ("o+", "u+") for w in rotated_squares(rng, 2, 14, model)]
    assert any(pairings.canonical_pattern(tuple(e for *_, e in w)) for w, m in words if m == "u+")
    for letters, model in words:
        for N in (3, 8):
            h = weingarten.haar_moment(gw(letters, model), N, kmax=14)
            assert h > 0
            for variant in class_variants(letters):
                hits = weingarten.haar_moment.cache_info().hits
                assert weingarten.haar_moment(gw(variant, model), N, kmax=14) == h
                assert weingarten.haar_moment.cache_info().hits == hits + 1, variant
                weingarten._class_moment.cache_clear()
                assert weingarten.haar_moment(gw(variant, model), N, kmax=14) == h, variant
                assert weingarten.haar_moment.cache_info().misses == 1


def test_the_o2_oracle_agrees_with_the_memo_at_k14():
    weingarten._class_moment.cache_clear()
    rng = random.Random(2702)
    words = [[(i, j, "1") for i, j, _ in w] for w in rotated_squares(rng, 2, 14, "o+", top=2)]
    for letters in words:
        for w in [letters] + class_variants(letters):
            h = weingarten.haar_moment(gw(w, "o+"), 2, kmax=14)
            assert h == oracles.o2_moment([(i, j) for i, j, _ in w]), w
    assert weingarten.haar_moment.cache_info().hits >= 4 * len(words)
