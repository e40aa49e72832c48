"""Exact Weingarten tables and Haar-state moments for O_N^+ and U_N^+.

A moment of a generator word of even length k is the double sum over
(colored) non-crossing pairings (p, q) of

    delta_p(row indices) * delta_q(column indices) * Wg(p, q),

where Wg is the exact rational inverse of the Gram matrix G = N**loops.
Both routes pass the loop counts of the rotation-orbit representatives'
rows (pairings.loop_rows), N and the orbits (pairings.rotation_orbits) to
exactla's one certified solve of G X = D V, which proves the identity
before it returns and splits G into rotation blocks; no route builds the
whole loop matrix.  A table solves the columns of the orbit representatives
and keeps only those (cols = X, wg_den = D); Wg commutes with the
rotation, so every other entry is read from them (WeingartenTable.num).
Tables are cached.  A word of length at most TABLE_KMAX sums table
entries; a longer word is instead one solve with V the indicator column
of its column-compatible pairings, summed over its row-compatible
pairings, and that solve is memoized by the word's class.

The memo.  Past TABLE_KMAX, _moment first decides in O(k) whether any
pairing fits the rows and the columns (pairings.has_compatible_pairing
under the pattern); a word with none is 0.  Any other word is solved as
its class key (_class_key): the least (kernel(rows∘g), kernel(cols∘g),
pattern∘g) over the 2k turns and reflections g of the points, taken with
rows and columns as given and swapped, where kernel renames the labels
1, 2, ... in order of first appearance.  _class_moment caches the solve
by (key, N), unbounded like the tables; haar_moment.cache_info reports
its hits and misses.  Every word of a class has one moment

    h = Σ_{p in R, q in C} Wg_e(p, q),

R and C the pairings fitting the colours e whose pairs join equal row,
respectively column, labels:

- A dihedral map g of the points maps non-crossing pairings onto
  non-crossing pairings.  Each pair keeps its two ends' colours and
  labels, so p fits e and the rows of a word iff g p fits e∘g^-1 and the
  moved rows, and likewise for columns: g maps R and C onto those of the
  moved word.  The union g p ∪ g q is p ∪ q with its points renamed, so
  every loop count, hence the Gram matrix and its inverse, is kept:
  Wg_{e∘g^-1}(g p, g q) = Wg_e(p, q), and the sum is unchanged.
  A turned or reflected pattern alternates iff the pattern does, so
  canonical patterns stay canonical.
- A bijective relabelling of the rows or the columns keeps which
  positions carry equal labels, so it keeps R and C: h reads the labels
  only through their kernels.
- Swapping rows and columns swaps R and C, and Wg is symmetric because
  the Gram matrix is.
- A reflection moves each star flag with its letter and flips none: the
  key reverses the pattern and nothing else.

Wg depends on N, so N is part of the memo's key.

cycle_type_sums reduces a table for ncpoly.linear_state: S_λ(k, N) sums
Wg(p, q) over the pairs whose union p ∪ q has cycle half-lengths λ
(pairings.cycle_types).  For a linear form a = Σ C_ij u_ij the (p, q) term
of h((a* a)^{k/2}) is Wg(p, q) Π_{L in λ} tr((C* C)^L): both pairings join
a* positions to a positions, so every cycle alternates them and depends on
C only through C* C.  With C = I each cycle gives N, and the sum is
tr(Wg G) = Catalan(k/2).  The sums read each representative column once,
weighted by its orbit's size, against the representative's own row of
cycle-type codes, at every k up to kmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from . import exactla, pairings
from .errors import (InvalidArgumentError, InvalidDimensionError, InvalidIndexError,
                     ResourceLimitError)

# Largest k whose word moments _moment reads from a table (132 pairings at k=12); longer
# words take one bilinear_solve each.  Linear forms take a table at every k up to kmax.
TABLE_KMAX = 12
# Hard default admission limit; callers may raise it explicitly.
DEFAULT_KMAX = 12

Letter = tuple[int, int, str]  # (row, column, '1' or '*')


@dataclass(frozen=True)
class GeneratorWord:
    """A product of generators u_ij (orthogonal) or v_ij^eps (unitary)."""

    letters: tuple[Letter, ...]
    model: str = "o+"

    def __post_init__(self):
        if self.model not in ("o+", "u+"):
            raise ValueError(f"unknown model {self.model!r}")
        check_letters(dict.fromkeys(self.letters), self.model)  # each distinct letter once


def check_letters(letters: Iterable[Letter], model: str):
    """Raise unless every letter is a generator of the model: indices >= 1, a valid star flag."""
    for i, j, eps in letters:
        if i < 1 or j < 1:
            raise InvalidIndexError(f"indices must be >= 1: ({i},{j})")
        if eps not in ("1", "*"):
            raise ValueError(f"bad star flag {eps!r}")
        if model == "o+" and eps != "1":
            raise ValueError("orthogonal generators are self-adjoint")


def check_dimension(letters: Iterable[Letter], N: int):
    """Raise unless N >= 2 and every index of the letters is at most N."""
    if N < 2:
        raise InvalidDimensionError(f"need N >= 2, got {N}")
    for i, j, _ in letters:
        if i > N or j > N:
            raise InvalidIndexError(f"index ({i},{j}) exceeds N={N}")


@dataclass(frozen=True)
class WeingartenTable:
    """Exact inverse Wg of the Gram matrix over the canonical pairings: its representative columns.

    orbits is pairings.rotation_orbits(k, pattern) as lists, and cols[a][i]
    / wg_den is Wg(i, rep_a) for rep_a = orbits[a][0].  Wg commutes with the
    rotation rho (exactla's module docstring), so for q = rho^t rep_a,
    Wg(p, q) = Wg(rho^-t p, rep_a), and for p = orbits[b][u],
    rho^-t p = orbits[b][(u - t) mod r].  _turns locates every position once
    per table, on the first read.
    """

    k: int
    N: int
    pattern: Optional[tuple[str, ...]]
    orbits: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    wg_den: int

    @cached_property
    def _turns(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
        """(where, back): q = rho^t rep_a for (a, t) = where[q], and back[p][t] = rho^-t p."""
        where, back = [None] * self.size, [None] * self.size
        for a, orbit in enumerate(self.orbits):
            for u, p in enumerate(orbit):  # an orbit of s < r positions repeats: any u serves
                where[p] = (a, u)
                back[p] = tuple(orbit[u - t] for t in range(len(orbit)))  # wraps mod r
        return tuple(where), tuple(back)

    def num(self, p: int, q: int) -> int:
        """wg_den Wg(p, q), an integer."""
        where, back = self._turns
        a, t = where[q]
        return self.cols[a][back[p][t]]

    def sum_num(self, R: Sequence[int], C: Sequence[int]) -> int:
        """wg_den Σ Wg(p, q) over p in R and q in C, each position located once."""
        where, back = self._turns
        cols = self.cols
        rows = [back[p] for p in R]
        total = 0
        for q in C:
            a, t = where[q]
            col = cols[a]
            total += sum([col[turns[t]] for turns in rows])
        return total

    def wg(self, p: int, q: int) -> Fraction:
        return Fraction(self.num(p, q), self.wg_den)

    @property
    def size(self) -> int:
        return len(self.cols[0])


def weingarten_table(k: int, N: int, pattern: Optional[Sequence[str]] = None,
                     kmax: int = DEFAULT_KMAX) -> WeingartenTable:
    """Build (or fetch) the exact Weingarten table for (k, N, pattern)."""
    if N < 2:
        raise InvalidDimensionError(f"need N >= 2, got {N}")
    if k < 0 or k % 2:
        raise InvalidArgumentError(f"need even k >= 0, got {k}")
    if k > kmax:
        raise ResourceLimitError(f"k={k} exceeds kmax={kmax}", required_k=k)
    return _build_table(k, N, tuple(pattern) if pattern is not None else None)


@lru_cache(maxsize=None)
def _build_table(k: int, N: int, pattern: Optional[tuple[str, ...]]) -> WeingartenTable:
    loop_rows = pairings.loop_rows(k, pattern)  # checks the pattern
    orbits = pairings.rotation_orbits(k, pattern)
    cols, den = exactla.fraction_free_inverse(loop_rows, N, orbits)
    return WeingartenTable(k=k, N=N, pattern=pattern, orbits=tuple(map(tuple, orbits.tolist())),
                           cols=tuple(map(tuple, cols)), wg_den=den)


def cycle_type_sums(k: int, N: int, kmax: int = DEFAULT_KMAX
                    ) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Pairs (λ, S_λ): S_λ sums Wg(p, q) over the pairings p, q whose union has cycle type λ.

    λ is a tuple of cycle half-lengths (pairings.cycle_types); the module
    docstring says why these sums are all that ncpoly.linear_state needs.
    Checked as weingarten_table checks (k, N, kmax); cached per (k, N).
    """
    weingarten_table(k, N, kmax=kmax)
    return _cycle_type_sums(k, N)


@lru_cache(maxsize=None)
def _cycle_type_sums(k: int, N: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """S_λ = Σ_a s_a Σ_i [code(rep_a, i) = λ] cols[a][i] / wg_den, s_a the size of orbit a.

    The rotation keeps cycle types and permutes the pairings, so the pairs
    (p, rho^t rep_a) give, with p = rho^t i, the pairs (i, rep_a) once for
    each of the s_a columns of orbit a; and the union i ∪ rep_a does not
    depend on the order of the two, so its code is in row a of
    pairings.cycle_types, the representatives' rows.
    """
    codes, types = pairings.cycle_types(k)
    table = _build_table(k, N, None)
    sums = [0] * len(types)
    for orbit, col, row in zip(table.orbits, table.cols, codes.tolist()):
        s = len(set(orbit))
        for code, x in zip(row, col):
            sums[code] += s * x
    return tuple((t, Fraction(s, table.wg_den)) for t, s in zip(types, sums))


def haar_moment(word: GeneratorWord, N: int, kmax: int = DEFAULT_KMAX) -> Fraction:
    """Exact Haar-state moment of a generator word at dimension N; odd lengths give 0."""
    letters = word.letters
    check_dimension(letters, N)
    return _moment([i for i, _, _ in letters], [j for _, j, _ in letters],
                   tuple(eps for _, _, eps in letters) if word.model == "u+" else None,
                   N, kmax)


def _moment(rows: list[int], cols: list[int], pattern: Optional[tuple[str, ...]], N: int,
            kmax: int) -> Fraction:
    """The moment of the word with these row and column indices and colours, unchecked.

    pattern is the word's star flags for U_N^+ and None for O_N^+.  The caller
    has checked the letters (check_letters) and N against them
    (check_dimension): haar_moment for one word, ncpoly.state_eval once for
    all the words of a polynomial.
    """
    k = len(rows)
    if k == 0:
        return Fraction(1)
    if k % 2:
        return Fraction(0)

    pattern = pairings.canonical_pattern(pattern)
    if k > TABLE_KMAX or k > kmax:  # decide 0 before listing its Catalan-many pairings
        if not (pairings.has_compatible_pairing(rows, pattern)
                and pairings.has_compatible_pairing(cols, pattern)):
            return Fraction(0)
        if k > kmax:
            raise ResourceLimitError(f"word length {k} exceeds kmax={kmax}", required_k=k)
        return _class_moment(*_class_key(rows, cols, pattern), N)

    plist = pairings.word_pairings(k, pattern)
    R = pairings.compatible_indices(plist, rows)
    C = pairings.compatible_indices(plist, cols) if R else None
    if not C:
        return Fraction(0)
    table = weingarten_table(k, N, pattern, kmax=kmax)
    return Fraction(table.sum_num(R, C), table.wg_den)


def _kernel(labels: Sequence) -> tuple[int, ...]:
    """The labels renamed 1, 2, ... in order of first appearance: their equality pattern."""
    first = {x: i for i, x in enumerate(dict.fromkeys(labels), 1)}
    return tuple(map(first.__getitem__, labels))


def _class_key(rows: Sequence, cols: Sequence, pattern: Optional[tuple[str, ...]]
              ) -> tuple[tuple[int, ...], tuple[int, ...], Optional[tuple[str, ...]]]:
    """The least (kernel(rows∘g), kernel(cols∘g), pattern∘g) over the word's class.

    g runs over the k turns and the k reflections of the points, once with
    rows and columns as given and once swapped; pattern is canonical
    (pairings.canonical_pattern), and so is every pattern∘g.  Every word of
    the class has one moment (the memo, in the module docstring), and the
    key is itself a word of the class, with labels 1..m for m distinct
    labels.
    """
    k = len(rows)
    best = None
    words = (rows, cols, pattern), (rows[::-1], cols[::-1], pattern and pattern[::-1])
    for x, y, pat in words + tuple((y, x, pat) for x, y, pat in words):
        for t in range(k):
            head = _kernel(x[t:] + x[:t])
            if best is None or head <= best[0]:  # the second kernel only breaks a tie
                key = (head, _kernel(y[t:] + y[:t]), pat and pat[t:] + pat[:t])
                if best is None or key < best:
                    best = key
    return best


@lru_cache(maxsize=None)
def _class_moment(rows: tuple[int, ...], cols: tuple[int, ...],
                  pattern: Optional[tuple[str, ...]], N: int) -> Fraction:
    """The moment of a class key (_class_key) at N: one certified solve, by rotation blocks."""
    k = len(rows)
    plist = pairings.word_pairings(k, pattern)
    return exactla.bilinear_solve(pairings.loop_rows(k, pattern), N,
                                  pairings.compatible_indices(plist, rows),
                                  pairings.compatible_indices(plist, cols),
                                  pairings.rotation_orbits(k, pattern))


haar_moment.cache_info = _class_moment.cache_info


def unitarity_contraction(word: GeneratorWord, N: int, position: int) -> Fraction:
    """Sum over j of the moment with column j placed at two adjacent letters.

    The letters at `position` and `position+1` must carry equal row indices;
    their column entries are replaced by each j = 1..N and the moments are
    summed.  By unitarity this equals the moment of the word with the two
    letters removed.
    """
    letters = word.letters
    if not (0 <= position < len(letters) - 1):
        raise ValueError(f"bad position {position} for word of length {len(letters)}")
    (a1, _, e1), (a2, _, e2) = letters[position], letters[position + 1]
    if a1 != a2:
        raise ValueError("adjacent letters must share a row index")
    total = Fraction(0)
    for j in range(1, N + 1):
        mod = letters[:position] + ((a1, j, e1), (a2, j, e2)) + letters[position + 2:]
        total += haar_moment(GeneratorWord(mod, word.model), N)
    return total
