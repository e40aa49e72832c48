import itertools
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhaar import pairings
from qhaar.errors import InvalidArgumentError, InvalidDimensionError

import oracles


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def test_enumerate_counts_match_catalan():
    for k in range(0, 17, 2):
        assert len(pairings.enumerate_nc_pairings(k)) == catalan(k // 2)


def test_enumerate_odd_is_empty():
    assert pairings.enumerate_nc_pairings(5) == ()
    assert pairings.enumerate_nc_pairings(1) == ()


def test_enumerate_matches_brute_force():
    for k in range(0, 11, 2):
        ours = {p.pairs for p in pairings.enumerate_nc_pairings(k)}
        assert ours == oracles.brute_nc_matchings(k)


def test_canonical_order_is_lexicographic():
    for k in range(0, 17, 2):
        ps = [p.pairs for p in pairings.enumerate_nc_pairings(k)]
        assert all(list(pairs) == sorted(pairs) for pairs in ps)
        assert ps == sorted(ps)


def test_k4_explicit():
    ps = pairings.enumerate_nc_pairings(4)
    assert [p.pairs for p in ps] == [((1, 2), (3, 4)), ((1, 4), (2, 3))]


def test_crossing_rejected():
    with pytest.raises(ValueError):
        pairings.NCPairPartition(k=4, pairs=((1, 3), (2, 4)))


def test_colored_forced_and_empty():
    assert len(pairings.enumerate_colored_nc_pairings(("1", "*"))) == 1
    assert pairings.enumerate_colored_nc_pairings(("1", "1")) == ()
    got = pairings.enumerate_colored_nc_pairings(("1", "*", "1", "*"))
    assert {c.pairs for c in got} == {((1, 2), (3, 4)), ((1, 4), (2, 3))}


def test_colored_are_plain_pairings_with_opposite_colors():
    pattern = ("1", "1", "*", "*", "1", "*")
    got = pairings.enumerate_colored_nc_pairings(pattern)
    assert got and all(type(p) is pairings.NCPairPartition for p in got)
    assert all(pattern[a - 1] != pattern[b - 1] for p in got for a, b in p.pairs)
    assert pairings.word_pairings(6, pattern) == got
    assert pairings.word_pairings(6) is pairings.enumerate_nc_pairings(6)


def test_compatible_indices():
    plist = pairings.enumerate_nc_pairings(4)  # (12)(34), (14)(23)
    assert pairings.compatible_indices(plist, "aabb") == [0]
    assert pairings.compatible_indices(plist, "abba") == [1]
    assert pairings.compatible_indices(plist, "aaaa") == [0, 1]
    assert pairings.compatible_indices(plist, "abab") == []


LABELS = {"str": st.sampled_from("abc"), "int": st.integers(1, 3),
          "tuple": st.tuples(st.integers(1, 2), st.integers(1, 2))}


@pytest.mark.parametrize("kind", sorted(LABELS))
@settings(deadline=None, max_examples=300)
@given(m=st.integers(0, 6), data=st.data())
def test_compatible_indices_matches_the_scan(kind, m, data):
    k = 2 * m
    labels = data.draw(st.lists(LABELS[kind], min_size=k, max_size=k))
    if kind == "str":
        labels = "".join(labels)
    pattern = data.draw(st.none() | st.lists(st.sampled_from("1*"), min_size=k, max_size=k)
                        .map(tuple))
    plist = pairings.word_pairings(k, pattern)
    assert pairings.compatible_indices(plist, labels) == oracles.compatible_indices_scan(
        plist, labels)


@pytest.mark.parametrize("k", [14, 16])
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_compatible_indices_matches_the_scan_at_high_order(k, data):
    # Labels (and colours) laid pair by pair on a random pairing, so the word
    # cancels and the slot masks, up to k*k = 256 bits, decide the result.
    pairs = data.draw(st.sampled_from(pairings.enumerate_nc_pairings(k))).pairs
    labels, colours = [None] * k, [None] * k
    for a, b in pairs:
        labels[a - 1] = labels[b - 1] = data.draw(st.integers(1, 3))
        colours[a - 1], colours[b - 1] = data.draw(st.sampled_from([("1", "*"), ("*", "1")]))
    pattern = data.draw(st.sampled_from([None, tuple(colours)]))
    plist = pairings.word_pairings(k, pattern)
    got = pairings.compatible_indices(plist, labels)
    assert got and got == oracles.compatible_indices_scan(plist, labels)


@pytest.mark.parametrize("labels", ["aa", "ab", [1, 1], [1, 2], [(1, 2), (1, 2)],
                                    [(1, 2), (2, 1)]])
@pytest.mark.parametrize("pattern", [None, ("1", "*"), ("*", "1"), ("1", "1")])
def test_compatible_indices_on_single_pair_words(labels, pattern):
    plist = pairings.word_pairings(2, pattern)
    assert pairings.compatible_indices(plist, labels) == oracles.compatible_indices_scan(
        plist, labels)


class Untouchable:
    """A list element that raises on any attribute access."""

    def __getattribute__(self, name):
        raise AssertionError(f"pairing read: .{name}")


def test_zero_words_make_no_scan():
    plist = [Untouchable(), Untouchable()]
    assert pairings.compatible_indices(plist, "abab") == []
    assert pairings.compatible_indices(plist, [(1, 2), (2, 1), (1, 2), (2, 1)]) == []
    assert pairings.compatible_indices([Untouchable()], "aaa") == []


def test_compatible_indices_empty_and_odd_words():
    assert pairings.compatible_indices(pairings.enumerate_nc_pairings(0), []) == [0]
    assert pairings.compatible_indices(pairings.enumerate_nc_pairings(0), "") == [0]
    for k in (1, 3, 5):
        assert pairings.compatible_indices(pairings.enumerate_nc_pairings(k), "a" * k) == []


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 6), st.data())
def test_has_compatible_pairing_matches_listing(m, data):
    k = 2 * m
    labels = data.draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    pattern = data.draw(st.none() | st.lists(st.sampled_from("1*"), min_size=k, max_size=k)
                        .map(tuple))
    plist = pairings.enumerate_nc_pairings(k) if pattern is None else [
        pairings.NCPairPartition(k, m) for m in oracles.brute_colored_matchings(pattern)]
    listed = oracles.compatible_indices_scan(plist, labels)
    assert pairings.has_compatible_pairing(labels, pattern) == bool(listed)


def test_has_compatible_pairing_odd_length_and_bad_symbol():
    assert not pairings.has_compatible_pairing("aab")
    with pytest.raises(InvalidArgumentError):
        pairings.has_compatible_pairing("aa", ("1", "x"))


@pytest.mark.parametrize("k, pattern", [(4, "1*1*1*"), (2, "1*1*"), (2, "11"),
                                        (4, "11**1"), (2, "1x"), (3, "1*1")])
def test_gram_rejects_pattern_not_fitting_k(k, pattern):
    with pytest.raises(InvalidArgumentError):
        pairings.gram_matrix(k, 3, pattern)
    with pytest.raises(InvalidArgumentError):
        pairings.loop_matrix(k, tuple(pattern))


def test_colored_alternating_count_is_catalan():
    for m in range(1, 7):
        pattern = ("1", "*") * m
        assert len(pairings.enumerate_colored_nc_pairings(pattern)) == catalan(m)


def loop_count(p, q):
    """loops(p, q), read from the loop matrix."""
    index = {r.pairs: a for a, r in enumerate(pairings.enumerate_nc_pairings(p.k))}
    return int(pairings.loop_matrix(p.k)[index[p.pairs], index[q.pairs]])


def test_loop_count_examples():
    p1 = pairings.NCPairPartition(4, ((1, 2), (3, 4)))
    p2 = pairings.NCPairPartition(4, ((1, 4), (2, 3)))
    assert loop_count(p1, p2) == 1
    q1 = pairings.NCPairPartition(6, ((1, 2), (3, 4), (5, 6)))
    q2 = pairings.NCPairPartition(6, ((1, 6), (2, 3), (4, 5)))
    assert loop_count(q1, q2) == 1


@settings(deadline=None)
@given(st.integers(1, 5), st.data())
def test_loop_count_properties(m, data):
    k = 2 * m
    ps = pairings.enumerate_nc_pairings(k)
    p = data.draw(st.sampled_from(ps))
    q = data.draw(st.sampled_from(ps))
    lc = loop_count(p, q)
    assert lc == loop_count(q, p)
    assert 1 <= lc <= m
    assert (lc == m) == (p == q)


def test_gram_small():
    assert pairings.gram_matrix(2, 5) == ((5,),)
    assert pairings.gram_matrix(4, 3) == ((9, 3), (3, 9))


def test_gram_det_k4():
    g = pairings.gram_matrix(4, 3)
    assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 3 ** 4 - 3 ** 2 == 72


def test_gram_symmetric_and_positive_definite():
    # rational LDL^T with positive pivots certifies positive definiteness
    for k in (2, 4, 6, 8):
        for N in (2, 3, 7, 10):
            g = [list(map(Fraction, row)) for row in pairings.gram_matrix(k, N)]
            n = len(g)
            assert all(g[i][j] == g[j][i] for i in range(n) for j in range(n))
            for i in range(n):
                piv = g[i][i]
                assert piv > 0
                for r in range(i + 1, n):
                    f = g[r][i] / piv
                    for c in range(i, n):
                        g[r][c] -= f * g[i][c]


def test_gram_rejects_bad_dimension():
    with pytest.raises(InvalidDimensionError):
        pairings.gram_matrix(4, 1)


def test_alternating_pattern_shares_the_uncoloured_matrices():
    # Non-crossing pairs join points an odd distance apart, so every pairing
    # fits an alternating pattern, and no other pattern.
    for k in (2, 4, 6, 8):
        for pattern in (("1", "*") * (k // 2), ("*", "1") * (k // 2)):
            assert pairings.canonical_pattern(pattern) is None
            assert pairings.word_pairings(k, pattern) == pairings.enumerate_nc_pairings(k)
            assert pairings.loop_matrix(k, pattern) is pairings.loop_matrix(k, None)
    for pattern in (("1", "1", "*", "*"), ("1", "*", "*", "1")):
        assert pairings.canonical_pattern(pattern) == pattern
        assert len(pairings.word_pairings(4, pattern)) < len(pairings.enumerate_nc_pairings(4))
    assert pairings.canonical_pattern(None) is None


def test_loop_matrix_call_forms_share_one_cache_entry():
    # Separate entries would build separate tuples, so identity shows one entry.
    info = pairings.loop_matrix.cache_info
    misses = info().misses
    a = pairings.loop_matrix(10)
    assert pairings.loop_matrix(10, None) is a
    assert pairings.loop_matrix(k=10, pattern=None) is a
    assert info().misses - misses <= 1


def test_loop_matrix_is_a_read_only_int8_array():
    L = pairings.loop_matrix(6)
    assert isinstance(L, np.ndarray) and L.dtype == np.int8
    with pytest.raises(ValueError):
        L[0, 0] = 0
    assert L[0, 0] == 3


def test_loop_matrix_matches_the_walk():
    # Every uncoloured k <= 14, built by dihedral orbits, against one walk per pair.
    for k in range(0, 15, 2):
        L = pairings.loop_matrix(k)
        assert L.shape == (catalan(k // 2),) * 2 and (L.diagonal() == k // 2).all()
        assert np.array_equal(L, oracles.loop_matrix_walk(k))


def period(pattern):
    k = len(pattern)
    return min(d for d in range(1, k + 1)
               if all(pattern[i] == pattern[(i + d) % k] for i in range(k)))


def image_positions(plist, g):
    """Position in plist of the image of each pairing under the 0-based point map g."""
    index = {p.pairs: a for a, p in enumerate(plist)}
    return [index[tuple(sorted(tuple(sorted((g(a - 1) + 1, g(b - 1) + 1))) for a, b in p.pairs))]
            for p in plist]


def mirrors(pattern):
    """Every s for which i -> s - i (mod k) fixes the pattern."""
    k = len(pattern)
    return [s for s in range(k) if all(pattern[(s - i) % k] == pattern[i] for i in range(k))]


def test_loop_matrix_matches_the_walk_on_every_small_pattern():
    count = 0
    for k in range(2, 9, 2):
        for pattern in itertools.product("1*", repeat=k):
            if pairings.canonical_pattern(pattern) and pairings.word_pairings(k, pattern):
                count += 1
                assert np.array_equal(pairings.loop_matrix(k, pattern),
                                      oracles.loop_matrix_walk(k, pattern)), pattern
    assert count == 4 + 18 + 68  # every balanced non-alternating pattern at k = 4, 6, 8


# Periodic (with and without a mirror), reflection-only, and asymmetric.
NAMED = {10: ["11111*****", "1111*1****"],
         12: ["11**11**11**", "11*1**11*1**", "111111******", "11111*1*****"]}


@pytest.mark.parametrize("k", [10, 12])
def test_loop_matrix_matches_the_walk_on_sampled_patterns(k):
    # Colours laid pair by pair on seeded random pairings, so each pattern fits.
    rng = random.Random(1000 + k)
    plist = pairings.enumerate_nc_pairings(k)
    sample = {tuple(p) for p in NAMED[k]}
    while len(sample) < len(NAMED[k]) + 16:
        pattern = [None] * k
        for a, b in rng.choice(plist).pairs:
            pattern[a - 1], pattern[b - 1] = rng.choice([("1", "*"), ("*", "1")])
        if pairings.canonical_pattern(tuple(pattern)):
            sample.add(tuple(pattern))
    kinds = {(period(p) < k, bool(mirrors(p))) for p in sample}
    assert kinds == ({(False, True), (False, False)} if k == 10 else
                     {(True, True), (True, False), (False, True), (False, False)})
    for pattern in sorted(sample):
        assert np.array_equal(pairings.loop_matrix(k, pattern),
                              oracles.loop_matrix_walk(k, pattern)), "".join(pattern)


@pytest.mark.parametrize("pattern, count", [(None, 23), ("11**11**11**", 5),
                                            ("111111******", 1)])
def test_loop_matrix_is_invariant_under_rotation_and_reflection(pattern, count):
    # L[g.a, g.c] == L[a, c] for every dihedral map g of the 12 points fixing the pattern.
    k = 12
    pattern = pattern and tuple(pattern)
    plist = pairings.word_pairings(k, pattern)
    d = 1 if pattern is None else period(pattern)
    maps = [lambda i, r=r: (i + r) % k for r in range(d, k, d)]
    maps += [lambda i, s=s: (s - i) % k for s in (range(k) if pattern is None else mirrors(pattern))]
    assert len(maps) == count
    L = pairings.loop_matrix(k, pattern)
    for g in maps:
        perm = image_positions(plist, g)
        assert np.array_equal(L[np.ix_(perm, perm)], L)


@pytest.mark.parametrize("k, pattern", [(k, None) for k in (0, 2, 4, 8, 12, 14)]
                         + [(12, "11**11**11**"), (12, "1*1*1*1*1*1*"), (12, "111111******"),
                            (16, "11**11**11**11**"), (12, "11*1*1*1*1**")])
def test_rotation_orbits_are_the_orbits_of_the_period_rotation(k, pattern):
    # Row a turns its representative, the orbit's smallest position, t times
    # by the pattern's period (1 when it alternates); rows partition the list.
    pattern = pattern and tuple(pattern)
    plist = pairings.word_pairings(k, pattern)
    index = {p.pairs: a for a, p in enumerate(plist)}
    d = 1 if pairings.canonical_pattern(pattern) is None else period(pattern)
    turn = [index[tuple(sorted(tuple(sorted(((a - 1 + d) % k + 1, (b - 1 + d) % k + 1)))
                                   for a, b in p.pairs))] for p in plist]
    orbits = pairings.rotation_orbits(k, pattern)
    assert orbits.shape[1] == max(k // d, 1) and not orbits.flags.writeable
    assert orbits is pairings.rotation_orbits(k, pattern and list(pattern))
    for row in orbits.tolist():
        assert row[0] == min(row)
        assert row[1:] == [turn[a] for a in row[:-1]]
        assert turn[row[-1]] == row[0]
    assert sorted(set(orbits.ravel().tolist())) == list(range(len(plist)))
    assert orbits[:, 0].tolist() == sorted(set(orbits[:, 0].tolist()))


def test_pattern_check_agrees_with_the_listing():
    # Both decide colours by _parity labels; the oracle checks each pair's
    # colours directly and lists every matching.
    for k in range(0, 13):
        for pattern in itertools.product("1*", repeat=k):
            want = oracles.brute_colored_matchings(pattern)
            got = pairings.enumerate_colored_nc_pairings(pattern)
            assert [p.pairs for p in got] == want, pattern
            assert pairings.has_compatible_pairing([0] * k, pattern) == bool(want), pattern
            if k <= 6 and not want:
                with pytest.raises(InvalidArgumentError, match="fits no pairing"):
                    pairings.loop_matrix(k, pattern)


def sampled_patterns(k, count, seed):
    """count distinct non-alternating patterns of k points, colours laid pair by pair on
    seeded random pairings, so each fits at least one pairing."""
    rng = random.Random(seed)
    plist = pairings.enumerate_nc_pairings(k)
    sample = set()
    while len(sample) < count:
        pattern = [None] * k
        for a, b in rng.choice(plist).pairs:
            pattern[a - 1], pattern[b - 1] = rng.choice([("1", "*"), ("*", "1")])
        if pairings.canonical_pattern(tuple(pattern)):
            sample.add(tuple(pattern))
    return sorted(sample)


def test_loop_rows_match_the_walk():
    # The representatives' rows, against one walk per pair on those rows: every
    # uncoloured k <= 12 and every small pattern, and sampled patterns at k = 14, 16.
    # At k = 16 the walk takes the library's listing of a pattern's pairings, which
    # test_pattern_check_agrees_with_the_listing checks by brute force up to k = 12.
    cases = [(k, None) for k in range(0, 13, 2)]
    cases += [(k, pattern) for k in range(2, 9, 2) for pattern in itertools.product("1*", repeat=k)
              if pairings.canonical_pattern(pattern) and pairings.word_pairings(k, pattern)]
    cases += [(k, pattern) for k in (14, 16) for pattern in sampled_patterns(k, 4, 1400 + k)]
    cases += [(16, tuple("11**11**11**11**")), (16, None)]
    assert len(cases) == 7 + 90 + 8 + 2
    for k, pattern in cases:
        rows = pairings.loop_rows(k, pattern)
        reps = pairings.rotation_orbits(k, pattern)[:, 0].tolist()
        assert rows.dtype == np.int8
        assert rows.shape == (len(reps), len(pairings.word_pairings(k, pattern)))
        want = oracles.loop_matrix_walk(k, pattern, reps, listed=k == 16)
        assert np.array_equal(rows, want), (k, pattern)


def test_loop_rows_check_the_pattern_as_loop_matrix_does():
    for k, pattern in [(4, "1*1*1*"), (2, "11"), (4, "11**1"), (2, "1x")]:
        with pytest.raises(InvalidArgumentError):
            pairings.loop_rows(k, tuple(pattern))
        with pytest.raises(InvalidArgumentError):
            pairings.cycle_types(k, tuple(pattern))


def test_cycle_types_match_the_loops_and_the_rotation():
    # Every pair of a representative's row, against union-find; the block of
    # representatives' columns is symmetric, and a row is kept by the turns
    # that fix its representative.
    for k in range(0, 13, 2):
        plist = pairings.enumerate_nc_pairings(k)
        n = len(plist)
        codes, types = pairings.cycle_types(k)
        orbits = pairings.rotation_orbits(k)
        reps = orbits[:, 0].tolist()
        assert codes.shape == (len(reps), n) and codes.dtype == np.uint8
        assert not codes.flags.writeable and len(set(types)) == len(types)
        L = pairings.loop_matrix(k).tolist()
        rot = pairings._rotation(k)
        for a, rep in enumerate(reps):
            stabilizer = len(set(orbits[a].tolist()))  # rho^s fixes rep
            for c in range(n):
                t = types[codes[a, c]]
                assert len(t) == L[rep][c] and sum(t) == k // 2
                assert t == oracles.union_half_lengths(plist[rep], plist[c])
                turned = c
                for _ in range(stabilizer):
                    turned = rot[turned]
                assert codes[a, turned] == codes[a, c]
        assert np.array_equal(codes[:, reps], codes[:, reps].T)
    assert len(pairings.cycle_types(12)[1]) == 11  # every partition of 6


def union_find_sample(k):
    """2000 seeded pairs of the representatives' rows at k, each against union-find."""
    plist = pairings.enumerate_nc_pairings(k)
    codes, types = pairings.cycle_types(k)
    reps = pairings.rotation_orbits(k)[:, 0].tolist()
    assert codes.shape == (len(reps), len(plist))
    assert set(np.unique(codes).tolist()) == set(range(len(types)))
    rng = random.Random(k)
    for _ in range(2000):
        a, c = rng.randrange(len(reps)), rng.randrange(len(plist))
        assert types[codes[a, c]] == oracles.union_half_lengths(plist[reps[a]], plist[c]), (a, c)
    return types


def test_cycle_types_match_union_find_on_a_sample_at_k14():
    types = union_find_sample(14)
    assert len(set(types)) == len(types) == 15  # partitions of 7


def test_cycle_types_match_union_find_on_a_sample_at_k16():
    types = union_find_sample(16)
    assert len(set(types)) == len(types) == 22  # partitions of 8


def turned_rows(k):
    """The codes of every pair, each row turned from its representative's (cycle_types),
    by the rotation image_positions finds: T[rho x, rho c] = T[x, c]."""
    plist = pairings.enumerate_nc_pairings(k)
    rot = image_positions(plist, lambda i: (i + 1) % k)
    codes, _ = pairings.cycle_types(k)
    C = np.zeros((len(plist),) * 2, dtype=np.uint8)
    written = np.zeros(len(plist), dtype=bool)
    for x, row in zip(pairings.rotation_orbits(k)[:, 0].tolist(), codes):
        for _ in range(max(k, 1)):
            C[x], written[x] = row, True
            x, row = rot[x], row[np.argsort(rot)]  # row[c] moves to column rot[c]
    assert written.all()
    return C


@pytest.mark.parametrize("k", range(0, 15, 2))
def test_cycle_types_are_dihedral_invariant(k):
    # The rotation i -> i + 1 and the reflection i -> -i generate the dihedral
    # group; each only relabels the points of p ∪ q, so it keeps the code.
    # The rows turned round their orbits give every pair; the reflection and
    # the symmetry of p ∪ q then compare rows of different orbits.
    plist = pairings.enumerate_nc_pairings(k)
    _, types = pairings.cycle_types(k)
    C = turned_rows(k)
    assert np.array_equal(C, C.T)
    assert np.array_equal(np.array([len(t) for t in types], dtype=np.int8)[C],
                          pairings.loop_matrix(k))
    for g in (lambda i: (i + 1) % k, lambda i: -i % k):
        perm = image_positions(plist, g)
        assert np.array_equal(C[np.ix_(perm, perm)], C)
