"""Non-crossing pair partitions, colored variants, and their Gram matrices.

Pairings of {1..k} are kept in a canonical order (lexicographic on the sorted
pair list) so that matrix indexing is reproducible across runs.  The Gram
entry between two pairings is N**loops, where loops counts the closed loops
obtained by gluing one diagram to the reflection of the other; for pair
partitions this equals the number of connected components of the union
multigraph.

One walker, _walk, visits the pairs (p, q) by dihedral orbits and records
the cycle type of p ∪ q, the half-lengths of its cycles, as a one-byte code
per pair.  cycle_types returns those codes; loop_matrix is their lengths,
since a loop is a cycle.  rotation_orbits lists the orbits of the rotation
by a pattern's period, by which exactla splits the Gram matrix into blocks.

Colours are labels: a non-crossing pair joins points an odd distance apart,
so it joins a '1' to a '*' iff its ends share the label (colour is '1') xor
(position odd), _parity.  The colored pairings are the uncoloured ones
compatible with those labels, in order, so a colored loop matrix is a
principal submatrix of the uncoloured one.

`word_pairings` and `compatible_indices` are the one place that lists the
pairings indexing a word and filters them by its labels; finite-N moments,
loop matrices and the free limits all go through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
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


def loop_matrix(k: int, pattern: Optional[Sequence[str]] = None) -> np.ndarray:
    """Pairwise loop counts over the (colored) canonical pairing list.

    The one form of the Gram matrix N**loops, as a read-only int8 array, and
    the one check of a pattern against k: the O(k) stack of
    has_compatible_pairing on its _parity labels decides whether any pairing
    fits it.  Cached by (k, canonical pattern), so (k, None) and alternating
    patterns share one object; see cache_info().
    """
    pat = tuple(pattern) if pattern is not None else None
    if pat is not None and (len(pat) != k or not has_compatible_pairing(_parity(pat))):
        raise InvalidArgumentError(f"pattern {''.join(pat)!r} fits no pairing of k={k} points")
    return _loop_matrix(k, canonical_pattern(pat))


def _index_map(plist: Sequence[NCPairPartition], index: dict, g: list[int]) -> list[int]:
    """Position in plist of the image under the point map g of each pairing in plist.

    index maps each pairing's slot mask (NCPairPartition.bits) to its position.
    """
    k = len(g)
    out = []
    for p in plist:
        mask = 0
        for a, b in p.pairs:
            x, y = g[a - 1], g[b - 1]
            mask |= 1 << (x * k + y if x < y else y * k + x)
        out.append(index[mask])
    return out


@lru_cache(maxsize=None)
def _loop_matrix(k: int, pattern: Optional[tuple[str, ...]]) -> np.ndarray:
    """loops(p, q) over word_pairings(k, pattern): the lengths of the cycle types of _walk.

    A pattern takes the principal submatrix on its compatible positions:
    loops depend only on the two pairings.  The uncoloured matrix lets _walk
    write its codes into the array's own bytes, then maps each row to the
    lengths of its types with bytes.translate, row by row, so the build holds
    no second n x n buffer and keeps no code once it returns.
    """
    plist = enumerate_nc_pairings(k)
    if pattern is not None:
        S = compatible_indices(plist, _parity(pattern))
        L = _loop_matrix(k, None)[np.ix_(S, S)]
        L.flags.writeable = False
        return L
    n = len(plist)
    L = np.zeros((n, n), dtype=np.int8)  # at most k/2 loops; k is far below 256
    flat = memoryview(L).cast("B")
    lengths = bytes(map(len, _walk(k, flat))).ljust(256, b"\0")
    for i in range(0, n * n, n):
        flat[i:i + n] = bytes(flat[i:i + n]).translate(lengths)
    L.flags.writeable = False
    return L


loop_matrix.cache_info = _loop_matrix.cache_info


@lru_cache(maxsize=None)
def _rotation(k: int) -> list[int]:
    """Position in enumerate_nc_pairings(k) of each pairing turned by i -> i + 1 (mod k)."""
    plist = enumerate_nc_pairings(k)
    return _index_map(plist, {p.bits: a for a, p in enumerate(plist)},
                      [(i + 1) % k for i in range(k)])


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
    out = np.array(orbits, dtype=np.intp)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def cycle_types(k: int) -> tuple[bytes, tuple[tuple[int, ...], ...]]:
    """Cycle half-lengths of p ∪ q for every two pairings p, q of k points.

    Returns (codes, types): the union of plist[a] and plist[c], plist the
    canonical list of n pairings, has cycles of 2L points for the L in
    types[codes[a * n + c]], a sorted tuple with sum k/2 and one entry per
    loop.  One _walk, into a buffer of its own: loop_matrix does not keep
    the codes, so a caller of only the loop matrix never holds them.
    """
    codes = bytearray(len(enumerate_nc_pairings(k)) ** 2)
    types = _walk(k, codes)
    return bytes(codes), types


def _walk(k: int, out) -> tuple[tuple[int, ...], ...]:
    """A one-byte code of the cycle type of p ∪ q for every two pairings, by dihedral orbits.

    out is a writable buffer of n * n bytes, n the length of plist =
    enumerate_nc_pairings(k); plist[a] ∪ plist[c] gets its code at
    out[a * n + c], and the returned tuple lists the types by code, each the
    sorted half-lengths of the cycles.

    One pair: both pairings join points of opposite parity, so walking
    x -> mq[mp[x]] from an even point x meets every even point of x's cycle
    and no other, and a cycle of 2L points is one orbit of L even points.
    The lengths are kept as the base-(k/2 + 1) number whose digit L counts
    the cycles of L even points (a count is at most k/2), and a number met
    for the first time gets the next code.

    Why orbits are exact: a rotation or a reflection g of the points keeps
    non-crossing pairings non-crossing and maps p ∪ q onto g·p ∪ g·q,
    relabelling vertices only, so the two unions have one cycle type, and g
    permutes plist.  Hence T[g·a, c] = T[a, g⁻¹·c] for the types T and
    pairing positions a and c, and the row of g·a is the row of a permuted.
    The maps used are i -> i + 1 and i -> -i (mod k); slot masks turn each
    into a permutation of positions.  For each position a not yet written,
    its row is walked, except in the columns of rows already written, where
    T[a, c] = T[c, a] (the union does not depend on the order of p and q).
    The inverse rotation then carries that row round the rotation orbit of
    a, and each row met is written reflected too, which writes the whole
    dihedral orbit.  k = 0 needs no case of its own: its one empty pairing
    has the empty type.  Codes fit a byte while k/2 has at most 256
    partitions, that is for k <= 32.
    """
    plist = enumerate_nc_pairings(k)
    n, h = len(plist), k // 2
    rot = _rotation(k)
    ref = _index_map(plist, {p.bits: a for a, p in enumerate(plist)}, [-i % k for i in range(k)])
    # Row permutations, C-level on bytes.  With n = 1 no row is ever permuted.
    turn_back = itemgetter(*sorted(range(n), key=rot.__getitem__))  # the inverse rotation
    reflect = itemgetter(*ref)  # a reflection is an involution
    # even[a][i]: the partner of point 2i in plist[a], as an odd point // 2; odd: the reverse.
    # bytes, not tuples: at k = 18 tuples held 0.6 MB more, which stayed in the process peak.
    even, odd = [], []
    for p in plist:
        mp = p.partners()
        even.append(bytes(x // 2 for x in mp[0::2]))
        odd.append(bytes(x // 2 for x in mp[1::2]))
    digit = [(h + 1) ** length for length in range(h + 1)]
    code_of: dict = {}
    done = bytearray(n)
    for a, mp in enumerate(even):
        if done[a]:
            continue
        row = bytearray(out[a::n])
        for c, mq in enumerate(odd):
            if done[c]:
                continue
            key = seen = 0
            for s in range(h):
                if not seen >> s & 1:
                    x, length = s, 0
                    while True:
                        seen |= 1 << x
                        x = mq[mp[x]]
                        length += 1
                        if x == s:
                            break
                    key += digit[length]
            row[c] = code_of.setdefault(key, len(code_of))
        b = a
        while True:  # b goes round the rotation orbit of a, row is its row
            if not done[b]:
                out[b * n:(b + 1) * n] = row
                done[b] = 1
            if not done[ref[b]]:
                out[ref[b] * n:(ref[b] + 1) * n] = bytes(reflect(row))
                done[ref[b]] = 1
            b = rot[b]
            if b == a:
                break
            row = bytes(turn_back(row))
    return tuple(tuple(length for length in range(1, h + 1)
                       for _ in range(key // digit[length] % (h + 1)))
                 for key in code_of)


def gram_matrix(k: int, N: int, pattern: Optional[Sequence[str]] = None
                ) -> tuple[tuple[int, ...], ...]:
    """Exact integer Gram matrix N**loops over the (colored) canonical pairing list."""
    if N < 2:
        raise InvalidDimensionError(f"need N >= 2, got {N}")
    if k < 0 or k % 2:
        raise InvalidArgumentError(f"need even k >= 0, got {k}")
    return tuple(tuple(N ** l for l in row) for row in loop_matrix(k, pattern).tolist())
