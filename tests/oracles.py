"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's own enumeration and
evaluation paths: matchings are generated exhaustively and filtered, the
semicircle moments come from numerical quadrature, and the three-vertex norm
is a telescoped product, or a ratio of q-factorials, of exact quantum integers.
Primes come from a sieve of Eratosthenes, not from trial division.
The loop-count oracle walks every pair of pairings separately; uncoloured, it
takes only the library's canonical pairing list, whose order the matrix must
follow, and coloured, the brute-force list filtered pair by pair.  U_N^+
moments also come from O_N^+ ones by free complexification.  The D_N scan
is kept in its earlier form, on mpmath.mpf objects, to pin the library's
raw-tuple scan bit for bit.  The exact prime loop is kept with its
earlier bigint CRT and eager certificate, to pin the library's Garner
digits and lazy certificate step by step.  At N = 2, o2_moment computes
moments from O_2^+ ≅ SU_{-1}(2) with no Gram matrix at all.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

import mpmath

from qhaar import exactla, freelimit, pairings, qnum, weingarten
from qhaar.errors import SingularMatrixError


def all_matchings(points):
    """Every perfect matching of a point tuple, crossings included."""
    if not points:
        yield ()
        return
    first = points[0]
    for idx in range(1, len(points)):
        rest = points[1:idx] + points[idx + 1:]
        for m in all_matchings(rest):
            yield ((first, points[idx]),) + m


def has_crossing(pairs) -> bool:
    for a, b in pairs:
        for c, d in pairs:
            if a < c < b < d:
                return True
    return False


def brute_nc_matchings(k: int) -> set:
    """Non-crossing matchings of {1..k} via generate-all-then-filter."""
    out = set()
    for m in all_matchings(tuple(range(1, k + 1))):
        pairs = tuple(sorted(tuple(sorted(p)) for p in m))
        if not has_crossing(pairs):
            out.add(pairs)
    return out


@lru_cache(maxsize=None)
def _sorted_nc_matchings(k: int) -> tuple:
    return tuple(sorted(brute_nc_matchings(k)))


def brute_colored_matchings(pattern) -> list:
    """Sorted non-crossing matchings of a {1,*} pattern, each pair joining a 1 to a *.

    Checked pair by pair on the colours themselves; sorting the pair lists
    gives the library's canonical order.
    """
    return [m for m in _sorted_nc_matchings(len(pattern))
            if all({pattern[a - 1], pattern[b - 1]} == {"1", "*"} for a, b in m)]


def brute_semicircular_moment(labels) -> int:
    k = len(labels)
    if k % 2:
        return 0
    count = 0
    for m in all_matchings(tuple(range(1, k + 1))):
        pairs = tuple(sorted(tuple(sorted(p)) for p in m))
        if has_crossing(pairs):
            continue
        if all(labels[a - 1] == labels[b - 1] for a, b in pairs):
            count += 1
    return count


def brute_circular_moment(letters) -> int:
    k = len(letters)
    if k % 2:
        return 0
    count = 0
    for m in all_matchings(tuple(range(1, k + 1))):
        pairs = tuple(sorted(tuple(sorted(p)) for p in m))
        if has_crossing(pairs):
            continue
        if all(
            letters[a - 1][0] == letters[b - 1][0]
            and {letters[a - 1][1], letters[b - 1][1]} == {"1", "*"}
            for a, b in pairs
        ):
            count += 1
    return count


def quadrature_semicircle_moment(k: int, tol: float = 1e-9) -> float:
    """(1/2pi) * integral of t^k sqrt(4 - t^2) over [-2, 2]."""
    from scipy import integrate
    import math

    # substitute t = 2 sin(theta) to remove the endpoint singularity
    val, err = integrate.quad(
        lambda th: (2 * math.sin(th)) ** k * 4 * math.cos(th) ** 2,
        -math.pi / 2, math.pi / 2, epsabs=tol / 10, limit=200)
    # quad's error report is conservative by a couple of digits
    assert err < 100 * tol
    return val / (2 * math.pi)


def brute_haar_moment_via_deltas(word, N: int, wg_lookup) -> Fraction:
    """Direct double sum over pairing pairs with explicit delta evaluation.

    wg_lookup(p_idx, q_idx) supplies exact Weingarten entries; the pairing
    list and deltas are recomputed here from scratch.
    """
    k = len(word)
    if k % 2:
        return Fraction(0)
    nc = sorted(brute_nc_matchings(k))
    rows = [l[0] for l in word]
    cols = [l[1] for l in word]
    total = Fraction(0)
    for pi, p in enumerate(nc):
        if not all(rows[a - 1] == rows[b - 1] for a, b in p):
            continue
        for qi, q in enumerate(nc):
            if not all(cols[a - 1] == cols[b - 1] for a, b in q):
                continue
            total += wg_lookup(pi, qi)
    return total


def loop_matrix_walk(k: int, pattern=None, rows=None, listed=False):
    """Loop counts over word_pairings(k, pattern), by one walk per pair.

    The plain build `pairings.loop_matrix` must reproduce: each pair (p, q)
    walks mq∘mp from every unseen point, counting orbit cycles, and the union
    of two matchings has half as many components as mq∘mp has cycles.  A
    pattern's pairings come from brute_colored_matchings, or with listed
    from pairings.word_pairings (the brute listing enumerates all 2,027,025
    matchings at k = 16).  With rows, a list of positions, only those rows
    are walked, in that order, against every column.
    """
    if pattern is None or listed:
        plist = [p.partners() for p in pairings.word_pairings(k, pattern)]
    else:
        plist = [pairings.NCPairPartition(k, m).partners()
                 for m in brute_colored_matchings(pattern)]

    def loops(mp, mq):
        seen, cycles = set(), 0
        for s in range(k):
            if s not in seen:
                cycles += 1
                x = s
                while x not in seen:
                    seen.add(x)
                    x = mq[mp[x]]
        return cycles // 2

    rows = range(len(plist)) if rows is None else rows
    return np.array([[loops(plist[a], mq) for mq in plist] for a in rows],
                    dtype=np.int8).reshape(len(rows), len(plist))


def union_half_lengths(p, q):
    """Sorted point counts / 2 of the components of p ∪ q, by union-find."""
    root = list(range(p.k + 1))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in p.pairs + q.pairs:
        root[find(a)] = find(b)
    sizes = {}
    for x in range(1, p.k + 1):
        sizes[find(x)] = sizes.get(find(x), 0) + 1
    return tuple(sorted(s // 2 for s in sizes.values()))


def free_complexification(word, N: int | None) -> Fraction:
    """The U_N^+ Haar moment of a word of (i, j, '1' or '*') letters, from O_N^+ moments.

    U_N^+ is the free complexification of O_N^+ (Banica 1997): v_ij -> z u_ij,
    and so v*_ij -> u_ij z*, preserves the Haar state, with z a Haar unitary
    *-free from O_N^+, so tau(z^n) = 0 unless n = 0.  The word becomes an
    alternating product of factors, Laurent polynomials in z and polynomials
    in the u_ij, each a dict from a power or a u-word to its coefficient.
    The first factor with a nonzero state c splits into its centred part
    plus c, the c term dropping the factor and merging its neighbours; a
    product of centred factors alternating between the two free algebras
    has state 0.  The u-words are evaluated by haar_moment, or with N = None
    by freelimit.semicircular_moment: then u_ij is the free semicircular
    s_ij and the result is the free circular moment of the word.
    """
    def state(side, f):
        if side == "z":
            return f.get(0, 0)
        return sum(c * orthogonal_moment(w) for w, c in f.items())

    def times(f, g):
        out = {}
        for x, a in f.items():
            for y, b in g.items():
                xy = x + y  # z powers add, u-words concatenate
                out[xy] = out.get(xy, 0) + a * b
        return {x: c for x, c in out.items() if c}

    def evaluate(factors):
        merged = []
        for side, f in factors:
            if merged and merged[-1][0] == side:
                f = times(merged.pop()[1], f)
            merged.append((side, f))
        for n, (side, f) in enumerate(merged):
            c = state(side, f)
            if c:
                unit = 0 if side == "z" else ()
                centred = {**f, unit: f.get(unit, 0) - c}
                centred = {x: a for x, a in centred.items() if a}
                return (evaluate(merged[:n] + [(side, centred)] + merged[n + 1:])
                        + c * evaluate(merged[:n] + merged[n + 1:]))
        return Fraction(not merged)

    @lru_cache(maxsize=None)
    def orthogonal_moment(w):
        if N is None:
            return freelimit.semicircular_moment([(i, j) for i, j, _ in w])
        return weingarten.haar_moment(weingarten.GeneratorWord(w, "o+"), N)

    factors = []
    for i, j, eps in word:
        z, u = ("z", {1 if eps == "1" else -1: 1}), ("u", {((i, j, "1"),): 1})
        factors += [z, u] if eps == "1" else [u, z]
    return evaluate(factors)


def compatible_indices_scan(plist, labels) -> list:
    """Positions in plist of the pairings whose every pair joins two equal labels.

    The plain scan over every pair of every pairing, with no cancellation
    shortcut; `pairings.compatible_indices` must return the same list.
    """
    return [a for a, p in enumerate(plist)
            if all(labels[x - 1] == labels[y - 1] for x, y in p.pairs)]


def expand_power(terms: dict, m: int) -> dict:
    """The m-th power of a polynomial by m plain products, in Fraction pairs only.

    terms maps each word (a tuple of letters) to its coefficient as a pair
    (re, im) of Fractions; the result has the same form, without zero terms.
    """
    out = {(): (Fraction(1), Fraction(0))}
    for _ in range(m):
        nxt = {}
        for w1, (a, b) in out.items():
            for w2, (c, d) in terms.items():
                re, im = nxt.get(w1 + w2, (Fraction(0), Fraction(0)))
                nxt[w1 + w2] = (re + a * c - b * d, im + a * d + b * c)
        out = {w: z for w, z in nxt.items() if any(z)}
    return out


def three_vertex_norm_inv_product(n: int, k: int, l: int, N: int) -> Fraction:
    """Inverse squared three-vertex norm via the telescoped product over s = 1..r.

    r = (n + k - l) / 2; cross-checks `three_vertex_norm_inv_factorial`.
    """
    r = (n + k - l) // 2
    out = Fraction(1)
    for s in range(1, r + 1):
        out *= Fraction(
            qnum.q_int(1 + s, N) * qnum.q_int(n - r + s, N) * qnum.q_int(k - r + s, N),
            qnum.q_int(l + 1 + s, N) * qnum.q_int(s, N) ** 2,
        )
    return out


def three_vertex_norm_inv_factorial(n: int, k: int, l: int, N: int) -> Fraction:
    """Inverse squared three-vertex norm, q-factorial closed form, r = (n + k - l) / 2."""
    r = (n + k - l) // 2
    num = qnum.q_int(r + 1, N) * qnum.q_factorial(l + 1, N) \
        * qnum.q_factorial(n, N) * qnum.q_factorial(k, N)
    den = qnum.q_factorial(l + 1 + r, N) * qnum.q_factorial(n - r, N) \
        * qnum.q_factorial(k - r, N) * qnum.q_factorial(r, N)
    return Fraction(num, den)


def prefactor_radicand(n: int, k: int, l: int, N: int) -> Fraction:
    """Radicand [k+1][n+1] / ([l+1][r+1]^2) of the D_N objective, r = (n + k - l) / 2."""
    r = (n + k - l) // 2
    return Fraction(
        qnum.q_int(k + 1, N) * qnum.q_int(n + 1, N),
        qnum.q_int(l + 1, N) * qnum.q_int(r + 1, N) ** 2,
    )


def reference_dn_scan(N: int, r_max: int, nk_max: int):
    """The D_N grid scan on mpmath.mpf objects: (objective values, best2, argmax).

    The library's scan as it was before it moved to raw mpf tuples, kept
    operation for operation (same operands, same association order), so
    its values pin the library's bit for bit.  The objective values are a
    dict from (a, b, r) to the mpf squared objective; best2 is their first
    strict maximum in scan order, and argmax its (n, k, l) with math.inf for
    limiting entries.  Runs at the library's scan precision.
    """
    def factor_table(length):
        lo, hi = qnum.q_of_N(N)
        q = (mpmath.mpf(lo.numerator) / lo.denominator
             + mpmath.mpf(hi.numerator) / hi.denominator) / 2
        Q = q * q
        one = Qe = mpmath.mpf(1)
        omq = []
        for _ in range(length):
            omq.append(one - Qe)
            Qe = Qe * Q
        return omq

    def objective_squares(omq, a, b, r_max):
        ab = a + b
        prod = mpmath.mpf(1)
        for r in range(r_max + 1):
            if r > 0:
                prod *= omq[r + 1] * omq[a + r] * omq[b + r] \
                    / (omq[ab + 1 + r] * omq[r] ** 2)
            radicand = omq[1] * omq[a + r + 1] * omq[b + r + 1] \
                / (omq[r + 1] ** 2 * omq[ab + 1])
            yield radicand * prod * prod

    rmax, amax = r_max, nk_max
    INF = 2 * amax + rmax + 2
    values = {}
    with mpmath.workprec(qnum.PRECISION_BITS + 16):
        omq = factor_table(INF) + [mpmath.mpf(1)] * (INF + rmax + 2)
        grid = list(range(amax + 1)) + [INF]
        best2 = mpmath.mpf(0)
        best_arg = (0, 0, 0)
        for a in grid:
            for b in grid:
                for r, v2 in enumerate(objective_squares(omq, a, b, rmax)):
                    values[a, b, r] = v2
                    if v2 > best2:
                        best2 = v2
                        best_arg = tuple(math.inf if x >= INF else x
                                         for x in (a + r, b + r, a + b))
    return values, best2, best_arg


def bareiss_inverse(A):
    """Exact inverse of an integer matrix by fraction-free Gauss-Jordan (Montante).

    Returns (M, det) with inverse M/det.  Every division is exact and every
    intermediate entry is a minor of A.  No pivoting: the leading minors must
    be nonzero, as they are for positive definite Gram matrices.
    """
    n = len(A)
    M = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(A)]
    prev = 1
    for col in range(n):
        pivot = M[col][col]
        if pivot == 0:
            raise ZeroDivisionError(f"zero pivot at step {col}")
        row_p = M[col]
        for i in range(n):
            if i == col:
                continue
            row_i = M[i]
            f = row_i[col]
            M[i] = [(pivot * row_i[j] - f * row_p[j]) // prev for j in range(2 * n)]
        prev = pivot
    return [M[i][n:] for i in range(n)], M[n - 1][n - 1]


def sieve_primes_descending(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi], largest first, by a segmented sieve of Eratosthenes.

    A plain sieve finds the base primes up to isqrt(hi); each then strikes
    its multiples, from the larger of its square and lo, out of the segment.
    """
    root = math.isqrt(hi)
    base = bytearray([1]) * (root + 1)
    base[:2] = bytes(2)
    for d in range(2, math.isqrt(root) + 1):
        if base[d]:
            base[d * d::d] = bytes(len(range(d * d, root + 1, d)))
    segment = bytearray([1]) * (hi - lo + 1)
    for d in range(2, root + 1):
        if base[d]:
            start = max(d * d, -(-lo // d) * d)
            segment[start - lo::d] = bytes(len(range(start, hi + 1, d)))
    return [n for n in range(hi, max(lo, 2) - 1, -1) if segment[n - lo]]


def reference_certified(W, M: int, scale: int):
    """The eager certificate: (D, X) with X = D W mod M in (-M/2, M/2] and M > scale max|X| + D.

    W is an object array of ints.  Every D of the chain builds the whole of
    X = D W mod M, checks it, and, when it fails, passes the first entry
    above isqrt(M/2) to exactla.rational_reconstruct (looked up on the module
    at each call, so a test can patch it) for the next factor of D.
    """
    bound = math.isqrt(M // 2)
    D = 1
    while True:
        X = D * W % M
        X[X > M // 2] -= M
        if M > scale * max(map(abs, X.flat)) + D:
            return D, X
        big = next((x for x in X.flat if abs(x) > bound), None)
        f = exactla.rational_reconstruct(big, M) if big is not None and D < M else None
        if f is None:
            return None
        D *= f.denominator


def reference_gram_solve(loop_mat, N: int, V):
    """The prime loop with a bigint CRT and the eager certificate; (D, X) with X a flat list.

    Draws from exactla.prime_stream and runs exactla._solve_mod_prime, as the
    library does, but combines each T mod p into W in [0, M) by
    w + M ((w - t) (-1/M mod p) mod p), five bigint operations per entry,
    and certifies with reference_certified.
    """
    max_loops = int(loop_mat.max())
    scale = loop_mat.shape[0] * N ** max_loops
    W, M = [0] * V.size, 1
    for p in itertools.islice(exactla.prime_stream(), exactla.MAX_PRIMES):
        pows = np.array([pow(N, l, p) for l in range(max_loops + 1)], dtype=np.float64)
        T = exactla._solve_mod_prime(pows[loop_mat], V, p)
        if T is None:
            continue
        c = -pow(M, -1, p) % p
        W = [w + M * ((w - t) * c % p) for w, t in zip(W, map(int, T.ravel().tolist()))]
        M *= p
        found = reference_certified(np.array(W, dtype=object), M, scale)
        if found is not None:
            return found[0], found[1].tolist()
    raise SingularMatrixError(f"no exact result within {exactla.MAX_PRIMES} primes")


def _gmul(x, y):
    """The product of two Gaussian numbers given as (re, im) pairs."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


# The letters of SU_{-1}(2): 0 = a, 1 = a*, 2 = c, 3 = c*.  G[k][l] is the letter at
# entry (k, l) of its fundamental matrix g = [[a, c*], [c, a*]]; SQRT2_V is sqrt(2) V.
G = ((0, 3), (2, 1))
SQRT2_V = (((1, 0), (1, 0)), ((0, 1), (0, -1)))


def o2_moment(positions) -> Fraction:
    """Exact Haar state of O_2^+ on a product of linear forms in u_ij, with no Gram matrix.

    Each position is a letter (i, j), 1-based, standing for u_ij, or a 2 x 2
    matrix C of rationals standing for Σ C[i][j] u_(i+1)(j+1); a word and a
    power of a linear form cost the same.

    Proof.  O_2^+ ≅ SU_{-1}(2) (Banica, C. R. Acad. Sci. Paris 322, 1996).
    At q = -1 the unitary fundamental matrix of Woronowicz's SU_q(2),
    [[a, -q c*], [c, a*]], is g = [[a, c*], [c, a*]], and unitarity says that
    c and c* commute, that a* a + c* c = 1 = a a* + c* c, so a and a* commute
    too, and that a c = -c a and a c* = -c* a: every a-letter anticommutes
    with every c-letter.  With V = [[1, 1], [i, -i]] / sqrt(2),

        2 w = 2 V g V* = [[a + a* + c + c*, i(a* - a) + i(c* - c)],
                          [i(a - a*) + i(c* - c), a + a* - c - c*]]

    is unitary with self-adjoint entries, so orthogonal, and Δ(w) = w ⊗ w
    since V is scalar: u_ij -> w_ij realises the isomorphism, and the Haar
    state of O_2^+ is that of SU_{-1}(2) on the images.

    A product of positions expands into monomials in the four letters.
    Sorting a monomial to a^p a*^q c^r c*^s moves each a-letter left past
    the c-letters before it, one sign each.  The walk over positions keeps
    the counts (p, q, r, s) of the letters placed so far, with a coefficient
    for each; an a-letter placed after r + s c-letters takes the sign
    (-1)^(r + s).

    The Haar state h of a sorted monomial.  The quotient a -> z, c -> 0 onto
    the circle T is a Hopf *-morphism; applied to either leg of Δ it sends a
    monomial to z^(p - q - r + s) ⊗ itself, or to itself ⊗ z^(p - q + r - s),
    and the invariance of h then makes h vanish unless p = q and r = s.
    Then the monomial is (1 - x)^p x^r with x = c* c.  The character
    χ = tr w = tr g = a + a* has h(χ^(2m)) = Catalan(m), the number of
    non-crossing pairings of 2m points that fix u^(⊗2m) (Banica, as above);
    as a, a* commute, only the term C(2m, m) (a* a)^m survives h, so
    h((1 - x)^m) = 1 / (m + 1) for every m: 1 - x, and so x, is uniform on
    [0, 1], and h((1 - x)^p x^r) = ∫_0^1 (1 - t)^p t^r dt = p! r! / (p + r + 1)!.
    """
    two_w = [[[(0, 0)] * 4 for _ in range(2)] for _ in range(2)]  # 2 w_ij over the letters
    for i, j, k, l in itertools.product(range(2), repeat=4):
        (a, b), (c, d), x = SQRT2_V[i][k], SQRT2_V[j][l], G[k][l]
        old = two_w[i][j][x]
        two_w[i][j][x] = (old[0] + a * c + b * d, old[1] + b * c - a * d)  # + V_ik conj(V_jl)
    states = {(0, 0, 0, 0): (Fraction(1), Fraction(0))}
    for pos in positions:
        if isinstance(pos[0], int):
            C = [[0, 0], [0, 0]]
            C[pos[0] - 1][pos[1] - 1] = 1
        else:
            C = pos
        form = [tuple(sum(Fraction(C[i][j]) * two_w[i][j][x][part]
                          for i in range(2) for j in range(2)) / 2 for part in (0, 1))
                for x in range(4)]
        nxt: dict = {}
        for counts, coeff in states.items():
            for x, f in enumerate(form):
                if f == (0, 0):
                    continue
                z = _gmul(coeff, f)
                if x < 2 and (counts[2] + counts[3]) % 2:
                    z = (-z[0], -z[1])
                key = counts[:x] + (counts[x] + 1,) + counts[x + 1:]
                old = nxt.get(key, (0, 0))
                nxt[key] = (old[0] + z[0], old[1] + z[1])
        states = nxt
    total = [Fraction(0), Fraction(0)]
    for (p, q, r, s), (re, im) in states.items():
        if p == q and r == s:
            weight = Fraction(math.factorial(p) * math.factorial(r), math.factorial(p + r + 1))
            total[0] += re * weight
            total[1] += im * weight
    if total[1]:
        raise ValueError(f"an O_2^+ moment of real forms came out complex: {total}")
    return total[0]
