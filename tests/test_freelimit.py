import random

import pytest
from hypothesis import given, settings, strategies as st

from qhaar import freelimit

import oracles


def test_single_variable_moments_are_catalan():
    assert [freelimit.semicircular_moment([(1, 1)] * k) for k in (2, 4, 6)] == [1, 2, 5]
    for k in range(0, 17):
        assert freelimit.semicircular_moment([(1, 1)] * k) \
            == (0 if k % 2 else freelimit.catalan(k // 2))


def test_semicircle_single_values():
    assert freelimit.catalan(0) == 1
    assert freelimit.catalan(1) == 1
    assert freelimit.semicircular_moment([(1, 1)] * 7) == 0
    assert freelimit.catalan(5) == 42


def test_semicircle_single_matches_quadrature():
    for k in range(0, 11):
        got = freelimit.semicircular_moment([(1, 1)] * k)
        assert abs(got - oracles.quadrature_semicircle_moment(k)) < 1e-7


def test_mixed_label_words():
    s = [(1, 1), (1, 2), (1, 1), (1, 2)]
    assert freelimit.semicircular_moment(s) == 0
    nested = [(1, 1), (1, 2), (1, 2), (1, 1)]
    assert freelimit.semicircular_moment(nested) == 1


def test_circular_examples():
    c = (1, 1)
    assert freelimit.circular_moment([(c, "1"), (c, "*")]) == 1
    assert freelimit.circular_moment([(c, "1"), (c, "1")]) == 0
    assert freelimit.circular_moment([(c, "1"), (c, "*")] * 2) == 2


def test_circular_alternating_is_catalan():
    c = (2, 3)
    for m in range(1, 9):
        word = [(c, "1"), (c, "*")] * m
        assert freelimit.circular_moment(word) == freelimit.catalan(m)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from([(1, 1), (1, 2), (2, 1)]), max_size=10))
def test_semicircular_matches_brute_force(labels):
    assert freelimit.semicircular_moment(labels) == oracles.brute_semicircular_moment(labels)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.sampled_from([(1, 1), (1, 2)]),
                          st.sampled_from(["1", "*"])), max_size=10))
def test_circular_matches_brute_force(letters):
    assert freelimit.circular_moment(letters) == oracles.brute_circular_moment(letters)


def sampled_circular_words(rng, count):
    """`count` non-alternating words of (i, j, '1' or '*') letters, k even and <= 12.

    One in four is uniform (its moment is almost always 0).  The others lay
    opposite colours and one label pair by pair on a random non-crossing
    matching from the oracles, so their moments are nonzero.
    """
    matchings = {k: sorted(oracles.brute_nc_matchings(k)) for k in range(2, 13, 2)}
    words = []
    while len(words) < count:
        k = rng.choice(list(matchings))
        if rng.random() < 0.25:
            pattern = [rng.choice("1*") for _ in range(k)]
            labels = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(k)]
        else:
            pattern, labels = [None] * k, [None] * k
            for a, b in rng.choice(matchings[k]):
                pattern[a - 1], pattern[b - 1] = rng.choice([("1", "*"), ("*", "1")])
                labels[a - 1] = labels[b - 1] = (rng.randint(1, 2), rng.randint(1, 2))
        if any(x == y for x, y in zip(pattern, pattern[1:])):
            words.append(tuple((i, j, e) for (i, j), e in zip(labels, pattern)))
    return words


def test_circular_is_the_free_complexification_of_semicircular():
    # c_ij = z s_ij, z a Haar unitary *-free from the semicircular family:
    # the N -> infinity form of v_ij -> z u_ij, so a wrong colour rule shows here.
    nonzero = 0
    for word in sampled_circular_words(random.Random(1700), 200):
        c = freelimit.circular_moment([((i, j), e) for i, j, e in word])
        assert c == oracles.free_complexification(word, None), word
        nonzero += c != 0
    assert nonzero >= 100


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        freelimit.catalan(-1)
