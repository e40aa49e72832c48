"""Non-crossing pair partitions, colored variants, and their Gram matrices.

Pairings of {1..k} are kept in a canonical order (lexicographic on the sorted
pair list) so that matrix indexing is reproducible across runs.  The Gram
entry between two pairings is N**loops, where loops counts the closed loops
obtained by gluing one diagram to the reflection of the other; for pair
partitions this equals the number of connected components of the union
multigraph.

rotation_orbits lists the orbits of the rotation by a pattern's period,
by which exactla splits the Gram matrix into blocks.  The rotation only
relabels the points of p ∪ q, so the rows of the orbit representatives
determine every pair, and they are all that is computed: one numpy row
kernel, _rep_rows, cached per (k, canonical pattern), records the cycle
type of p ∪ q, the half-lengths of its cycles, as a one-byte code for each
representative p and every pairing q.  cycle_types returns those codes;
loop_rows is their lengths, since a loop is a cycle, and is what the
certified solves read.  loop_matrix, the whole array, is the rows turned
round their orbits, built only when asked for (gram, wg).

Colours are labels: a non-crossing pair joins points an odd distance apart,
so it joins a '1' to a '*' iff its ends share the label (colour is '1') xor
(position odd), _parity.  The colored pairings are the uncoloured ones
compatible with those labels, in order, so a colored loop matrix is a
principal submatrix of the uncoloured one; the kernel computes a colored
pattern's own rows over its own pairings, never the uncoloured array.

`word_pairings` and `compatible_indices` are the one place that lists the
pairings indexing a word and filters them by its labels; finite-N moments,
loop matrices and the free limits all go through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, InvalidDimensionError

Pair = tuple[int, int]


@dataclass(frozen=True)
class NCPairPartition:
    """A non-crossing perfect matching of {1..k}, k even."""

    k: int
    pairs: tuple[Pair, ...]
    # Pair-slot bitmask: bit (a-1)*k + (b-1) is set for each pair (a, b); see
    # compatible_indices.
    bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for a, b in self.pairs:
            if not (1 <= a < b <= self.k):
                raise ValueError(f"bad pair ({a},{b}) for k={self.k}")
            seen.add(a)
            seen.add(b)
        if len(seen) != self.k or len(self.pairs) != self.k // 2 or self.k % 2:
            raise ValueError("pairs do not form a perfect matching")
        for a, b in self.pairs:
            for c, d in self.pairs:
                if a < c < b < d:
                    raise ValueError(f"crossing pairs ({a},{b}) and ({c},{d})")
        object.__setattr__(self, "bits", sum(1 << ((a - 1) * self.k + b - 1)
                                             for a, b in self.pairs))

    def partners(self) -> list[int]:
        """0-based partner array: partners()[i] is the point matched to i."""
        m = [0] * self.k
        for a, b in self.pairs:
            m[a - 1] = b - 1
            m[b - 1] = a - 1
        return m


def _matchings(points: tuple[int, ...]):
    """All non-crossing matchings of an increasing point tuple (recursive).

    Each matching is a sorted pair list, and they come in increasing order:
    the first pair's partner increases from loop to loop, and inner pairs
    precede outer ones.
    """
    if not points:
        yield ()
        return
    first = points[0]
    for idx in range(1, len(points), 2):
        inner, outer = points[1:idx], points[idx + 1:]
        for m1 in _matchings(inner):
            for m2 in _matchings(outer):
                yield ((first, points[idx]),) + m1 + m2


@lru_cache(maxsize=None)
def enumerate_nc_pairings(k: int) -> tuple[NCPairPartition, ...]:
    """All non-crossing pairings of {1..k} in canonical order.

    Odd k gives the empty tuple (not an error), so odd moments vanish
    downstream without special casing.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k % 2:
        return ()
    return tuple(NCPairPartition(k=k, pairs=m) for m in _matchings(tuple(range(1, k + 1))))


def _parity(pattern: Sequence[str]) -> list[bool]:
    """The labels (colour is '1') xor (position odd) of a {1,*} pattern.

    Two points an odd distance apart, as the ends of a non-crossing pair or
    two entries adjacent on a cancellation stack are, carry equal labels iff
    one is '1' and the other '*'.
    """
    if any(c not in ("1", "*") for c in pattern):
        raise InvalidArgumentError(f"pattern symbols must be '1' or '*': {tuple(pattern)}")
    return [(c == "1") ^ (i & 1) for i, c in enumerate(pattern)]


def enumerate_colored_nc_pairings(pattern: Sequence[str]) -> tuple[NCPairPartition, ...]:
    """Non-crossing matchings of a {1,*} pattern joining each '1' to a '*'."""
    plist = enumerate_nc_pairings(len(pattern))
    return tuple(plist[a] for a in compatible_indices(plist, _parity(pattern)))


def word_pairings(k: int, pattern: Optional[tuple[str, ...]] = None
                  ) -> tuple[NCPairPartition, ...]:
    """Pairings indexing a word of length k: all of them, or those fitting its colours."""
    return enumerate_nc_pairings(k) if pattern is None else enumerate_colored_nc_pairings(pattern)


def canonical_pattern(pattern: Optional[tuple[str, ...]]) -> Optional[tuple[str, ...]]:
    """The pattern, or None when it alternates.

    Every non-crossing pair joins points an odd distance apart, so an
    alternating pattern fits every pairing: word_pairings gives the full
    canonical list in the same order, and the loop matrix and the Gram
    matrix are the uncoloured ones.  Keying caches by this value lets an
    alternating U_N^+ word share them with O_N^+ words.
    """
    if pattern is not None and all(a != b for a, b in zip(pattern, pattern[1:])):
        return None
    return pattern


def compatible_indices(plist: Sequence[NCPairPartition], labels: Sequence) -> list[int]:
    """Positions in plist of the pairings whose every pair joins two equal labels.

    This one filter serves both sides of the Weingarten calculus: the Haar
    moment sums Wg over (row-compatible) x (column-compatible) pairings, and
    its free limit counts those compatible with both, i.e. with the
    (row, column) labels.

    A word that does not cancel has no compatible pairing, so the O(k) stack
    of has_compatible_pairing returns [] without touching plist; a colored
    compatible pairing is also an uncolored one, so this holds for colored
    lists too.  Otherwise one bitmask `good` sets slot i*k + j for every two
    0-based positions i, j with equal labels, and a pairing fits iff its own
    slot mask lies inside `good`.  The labels must be hashable.
    """
    if not has_compatible_pairing(labels):
        return []
    k = len(labels)
    at: dict = {}  # label -> bitmask of its positions
    for j, x in enumerate(labels):
        at[x] = at.get(x, 0) | 1 << j
    good = 0
    for i, x in enumerate(labels):
        good |= at[x] << i * k
    return [a for a, p in enumerate(plist) if p.bits & good == p.bits]


def has_compatible_pairing(labels: Sequence, pattern: Optional[tuple[str, ...]] = None) -> bool:
    """Whether compatible_indices(word_pairings(len(labels), pattern), labels) is nonempty.

    Decided without listing pairings: a stack cancels adjacent equal labels (each
    paired with its _parity label under a pattern), and since free-product
    rewriting is confluent, such a pairing exists iff the word cancels completely.
    It runs in O(k) for every word: compatible_indices calls it first, and
    haar_moment uses it to refuse words past kmax, up to k of about 10^4.
    """
    if pattern is not None:
        labels = list(zip(labels, _parity(pattern)))
    stack = []
    for x in labels:
        if stack and stack[-1] == x:
            stack.pop()
        else:
            stack.append(x)
    return not stack


def _checked(k: int, pattern: Optional[Sequence[str]]) -> Optional[tuple[str, ...]]:
    """The canonical pattern, or InvalidArgumentError when no pairing of k points fits it.

    The one check of a pattern against k: the O(k) stack of
    has_compatible_pairing on its _parity labels.
    """
    pat = tuple(pattern) if pattern is not None else None
    if pat is not None and (len(pat) != k or not has_compatible_pairing(_parity(pat))):
        raise InvalidArgumentError(f"pattern {''.join(pat)!r} fits no pairing of k={k} points")
    return canonical_pattern(pat)


def cycle_types(k: int, pattern: Optional[Sequence[str]] = None
                ) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Cycle half-lengths of p ∪ q for each orbit representative p and every pairing q.

    Returns (codes, types) over plist = word_pairings(k, pattern) and its
    rotation orbits (rotation_orbits): the union of plist[rep_a] and
    plist[c], rep_a = orbits[a, 0], has cycles of 2L points for the L in
    types[codes[a, c]], a sorted tuple with sum k/2 and one entry per loop.
    codes is a read-only m x n uint8 array; types lists every partition of
    k/2.  Every other pair is a turn of these: the rotation keeps cycle
    types (loop_matrix).  Checks the pattern as loop_matrix does; cached by
    (k, canonical pattern).
    """
    return _rep_rows(k, _checked(k, pattern))


def loop_rows(k: int, pattern: Optional[Sequence[str]] = None) -> np.ndarray:
    """Loop counts of the orbit representatives' rows, m x n int8: the lengths of cycle_types.

    Row a is row rep_a = rotation_orbits(k, pattern)[a, 0] of loop_matrix(k,
    pattern), which is all exactla's certified solves read.  A new array per
    call, from the cached codes.
    """
    codes, types = cycle_types(k, pattern)
    return np.array([len(t) for t in types], dtype=np.int8)[codes]


def loop_matrix(k: int, pattern: Optional[Sequence[str]] = None) -> np.ndarray:
    """Pairwise loop counts over the (colored) canonical pairing list.

    The loop counts of the whole Gram matrix N**loops, as a read-only int8
    array, for gram_matrix; the solves read only loop_rows, and this is
    built from them by the rotation.  The rotation rho by the pattern's
    period maps the pairings fitting it onto themselves and p ∪ q onto
    rho p ∪ rho q, relabelling points only, so L[rho i, rho j] = L[i, j].
    With orbits = rotation_orbits(k, pattern), row orbits[a, t] =
    rho^t rep_a is then L[rep_a, rho^-t j] at column j, and
    rho^-t orbits[b, u] = orbits[b, (u - t) mod r].  Checks the pattern as
    cycle_types does; cached by (k, canonical pattern), so (k, None) and
    alternating patterns share one object; see cache_info().
    """
    return _loop_matrix(k, _checked(k, pattern))


@lru_cache(maxsize=None)
def _loop_matrix(k: int, pattern: Optional[tuple[str, ...]]) -> np.ndarray:
    rows, orbits = loop_rows(k, pattern), _rotation_orbits(k, pattern)
    r = orbits.shape[1]
    L = np.empty((rows.shape[1],) * 2, dtype=np.int8)
    turned = np.empty(rows.shape[1], dtype=np.intp)
    for t in range(r):
        turned[orbits] = orbits[:, (np.arange(r) - t) % r]  # turned[j] = rho^-t j
        L[orbits[:, t]] = rows[:, turned]
    L.flags.writeable = False
    return L


loop_matrix.cache_info = _loop_matrix.cache_info


@lru_cache(maxsize=None)
def _rotation(k: int) -> list[int]:
    """Position in enumerate_nc_pairings(k) of each pairing turned by i -> i + 1 (mod k).

    A pairing is found by its slot mask (NCPairPartition.bits): the 1-based
    pair (a, b) joins the 0-based points a - 1 and b - 1, turned to a % k
    and b % k.
    """
    plist = enumerate_nc_pairings(k)
    index = {p.bits: a for a, p in enumerate(plist)}
    out = []
    for p in plist:
        mask = 0
        for a, b in p.pairs:
            x, y = a % k, b % k
            mask |= 1 << (x * k + y if x < y else y * k + x)
        out.append(index[mask])
    return out


def rotation_orbits(k: int, pattern: Optional[Sequence[str]] = None) -> np.ndarray:
    """The orbits of the pattern's rotation on word_pairings(k, pattern), as an (m, r) array.

    The rotation turns the points by the pattern's smallest period d (d = 1
    for no pattern or an alternating one, which fits every pairing), so it
    maps the pairings fitting the pattern to themselves, and r = k / d turns
    make the identity.  Row a lists the orbit of its first, smallest
    position rep_a: orbits[a, t] is rep_a turned t times, for t < r, so an
    orbit of s positions repeats with period s, and r / s is the order of
    its stabilizer.  Rows are in the order of their representatives.  An
    aperiodic pattern gives r = 1: one orbit per pairing, in list order.
    Cached by (k, canonical pattern), read-only; the caller has checked the
    pattern (loop_matrix).
    """
    pat = tuple(pattern) if pattern is not None else None
    return _rotation_orbits(k, canonical_pattern(pat))


@lru_cache(maxsize=None)
def _rotation_orbits(k: int, pattern: Optional[tuple[str, ...]]) -> np.ndarray:
    rot = _rotation(k)
    if pattern is None:
        d, turn = 1, rot
    else:
        d = next(d for d in range(1, k + 1) if pattern[d:] + pattern[:d] == pattern)
        S = compatible_indices(enumerate_nc_pairings(k), _parity(pattern))
        pos = {s: i for i, s in enumerate(S)}
        turn = []
        for s in S:
            for _ in range(d):
                s = rot[s]
            turn.append(pos[s])
    r = k // d if k else 1
    seen = bytearray(len(turn))
    orbits = []
    for a in range(len(turn)):
        if not seen[a]:
            row = [a]
            for _ in range(r - 1):
                row.append(turn[row[-1]])
            for b in row:
                seen[b] = 1
            orbits.append(row)
    out = np.array(orbits, dtype=np.intp).reshape(len(orbits), r)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _half_partners(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd), n x k/2 uint8 over enumerate_nc_pairings(k).

    even[a, i] is the partner of point 2i in plist[a], an odd point, halved;
    odd[a, i] the partner of point 2i + 1, an even point, halved.
    """
    plist = enumerate_nc_pairings(k)
    half = np.array([p.partners() for p in plist], dtype=np.uint8).reshape(len(plist), k) // 2
    return np.ascontiguousarray(half[:, 0::2]), np.ascontiguousarray(half[:, 1::2])


@lru_cache(maxsize=None)
def _partitions(h: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    """(weight, keys, types): every partition of h and a mixed-radix key for each.

    A partition with c_L parts L has key sum_L c_L weight[L], weight[L] the
    product of the radices h // L' + 1 for L' < L; as c_L <= h // L, that
    is a mixed-radix number with digits c_L, one per partition.  weight[0]
    is 0, so an entry that counts no cycle adds nothing.  types lists the
    partitions as sorted tuples, in the order of their keys, which keys
    holds, ascending.  Every key is below prod_L (h // L + 1), about
    1.3e8 at h = 16.
    """
    weight = [0, 1]
    for L in range(1, h):
        weight.append(weight[-1] * (h // L + 1))

    def parts(rest, least):
        if not rest:
            yield ()
        for L in range(least, rest + 1):
            for tail in parts(rest - L, L):
                yield (L,) + tail

    by_key = sorted((sum(weight[L] for L in t), t) for t in parts(h, 1))
    return (np.array(weight, dtype=np.int64), np.array([key for key, _ in by_key]),
            tuple(t for _, t in by_key))


# Entries of each temporary the row kernel makes: 128 KB of intp.
CHUNK = 1 << 14


@lru_cache(maxsize=None)
def _rep_rows(k: int, pattern: Optional[tuple[str, ...]]
              ) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """cycle_types for a canonical pattern: the representatives' rows, in chunks of pairs.

    Both pairings join points of opposite parity, so for p = plist[rep_a]
    and q = plist[c], σ = odd_q ∘ even_p (_half_partners) maps each even
    point, halved, to the next even point of its cycle of p ∪ q, and a cycle
    of 2L points is one cycle of L points of σ.  Each chunk composes σ for
    CHUNK / (k/2) pairs at once, whole rows of n columns when they fit,
    else a run of columns of one row.  Pointer doubling finds the least
    point of each cycle of σ: M[x] is the least of σ^t(x) for t < span,
    first min(x, σ(x)) with span 2; each step squares F, from σ to
    σ^span, and M[x] = min(M[x], M[F[x]]) doubles the span, until it
    reaches k/2, the longest cycle.  A bincount of
    those least points then holds each cycle's length at its least point
    and 0 elsewhere, and the sum of _partitions' weights over the lengths
    is the key of the cycle type, whose position among the keys is the code.
    Codes fit a byte while k/2 has at most 256 partitions, that is for
    k <= 32.
    """
    h = k // 2
    orbits = _rotation_orbits(k, pattern)
    even, odd = _half_partners(k)
    if pattern is not None:
        S = compatible_indices(enumerate_nc_pairings(k), _parity(pattern))
        even, odd = even[S], odd[S]
    reps = even[orbits[:, 0]]
    weight, keys, types = _partitions(h)
    m, n = len(reps), len(odd)
    codes = np.zeros((m, n), dtype=np.uint8)  # k = 0: one empty pairing, the empty type
    rows_per = max(1, CHUNK // max(1, n * h))
    cols_per = min(n, max(1, CHUNK // max(1, h)))
    ids = np.arange(h, dtype=np.uint8)
    for a0 in range(0, m if h else 0, rows_per):
        E = reps[a0:a0 + rows_per]
        for c0 in range(0, n, cols_per):
            sigma = odd[c0:c0 + cols_per][:, E]  # [c, a, i] = odd_c[even_a[i]]
            pairs = sigma.shape[0] * sigma.shape[1]
            sigma = sigma.reshape(pairs, h)
            base = np.arange(0, pairs * h, h)[:, None]
            F = sigma + base  # σ, as positions in the flattened chunk
            M = np.minimum(sigma, ids)
            span = 2
            while span < h:
                F = np.take(F, F)
                M = np.minimum(M, np.take(M, F))
                span *= 2
            lengths = np.bincount((M + base).ravel(), minlength=pairs * h).reshape(pairs, h)
            found = np.searchsorted(keys, weight[lengths].sum(axis=1))
            codes[a0:a0 + len(E), c0:c0 + cols_per] = found.reshape(-1, len(E)).T
    codes.flags.writeable = False
    return codes, types


def gram_matrix(k: int, N: int, pattern: Optional[Sequence[str]] = None
                ) -> tuple[tuple[int, ...], ...]:
    """Exact integer Gram matrix N**loops over the (colored) canonical pairing list."""
    if N < 2:
        raise InvalidDimensionError(f"need N >= 2, got {N}")
    if k < 0 or k % 2:
        raise InvalidArgumentError(f"need even k >= 0, got {k}")
    return tuple(tuple(N ** l for l in row) for row in loop_matrix(k, pattern).tolist())
