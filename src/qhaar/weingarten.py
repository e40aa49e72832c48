"""Exact Weingarten tables and Haar-state moments for O_N^+ and U_N^+.

A moment of a generator word of even length k is the double sum over
(colored) non-crossing pairings (p, q) of

    delta_p(row indices) * delta_q(column indices) * Wg(p, q),

where Wg is the exact rational inverse of the Gram matrix G = N**loops.
Both routes pass pairings.loop_matrix, N and the rotation orbits of the
pairings (pairings.rotation_orbits) to exactla's one certified solve of
G X = D V, which proves the identity before it returns and splits G into
rotation blocks.  A table solves the columns of the orbit representatives
and keeps only those (cols = X, wg_den = D); Wg commutes with the
rotation, so every other entry is read from them (WeingartenTable.num).
Tables are cached.  A word of length at most TABLE_KMAX sums table
entries; a longer word is instead one solve with V the indicator column
of its column-compatible pairings, summed over its row-compatible
pairings.

cycle_type_sums reduces a table for ncpoly.linear_state: S_λ(k, N) sums
Wg(p, q) over the pairs whose union p ∪ q has cycle half-lengths λ
(pairings.cycle_types).  For a linear form a = Σ C_ij u_ij the (p, q) term
of h((a* a)^{k/2}) is Wg(p, q) Π_{L in λ} tr((C* C)^L): both pairings join
a* positions to a positions, so every cycle alternates them and depends on
C only through C* C.  With C = I each cycle gives N, and the sum is
tr(Wg G) = Catalan(k/2).  The sums read each representative column once,
weighted by its orbit's size, at every k up to kmax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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
    rho^-t p = orbits[b][(u - t) mod r].  _where[p] = (b, u) finds p.
    """

    k: int
    N: int
    pattern: Optional[tuple[str, ...]]
    orbits: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    wg_den: int
    _where: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_where", {p: (b, u) for b, orbit in enumerate(self.orbits)
                                            for u, p in enumerate(orbit)})

    def num(self, p: int, q: int) -> int:
        """wg_den Wg(p, q), an integer."""
        a, t = self._where[q]
        b, u = self._where[p]
        return self.cols[a][self.orbits[b][u - t]]  # a negative index wraps mod r

    def wg(self, p: int, q: int) -> Fraction:
        return Fraction(self.num(p, q), self.wg_den)

    @property
    def size(self) -> int:
        return len(self._where)


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
    orbits = pairings.rotation_orbits(k, pattern)
    cols, den = exactla.fraction_free_inverse(pairings.loop_matrix(k, pattern), N, orbits)
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
    """S_λ = Σ_a s_a Σ_i [code(i, rep_a) = λ] cols[a][i] / wg_den, s_a the size of orbit a.

    The rotation keeps cycle types and permutes the pairings, so the pairs
    (p, rho^t rep_a) give, with p = rho^t i, the pairs (i, rep_a) once for
    each of the s_a columns of orbit a.
    """
    codes, types = pairings.cycle_types(k)
    table = _build_table(k, N, None)
    n = table.size
    sums = [0] * len(types)
    for orbit, col in zip(table.orbits, table.cols):
        s, rep = len(set(orbit)), orbit[0]
        # Row rep of the codes: the union p ∪ q does not depend on the order of p and q.
        for code, x in zip(codes[rep * n:(rep + 1) * n], col):
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
    if k > kmax:  # refuse a nonzero moment before listing its Catalan-many pairings
        if (pairings.has_compatible_pairing(rows, pattern)
                and pairings.has_compatible_pairing(cols, pattern)):
            raise ResourceLimitError(f"word length {k} exceeds kmax={kmax}", required_k=k)
        return Fraction(0)
    plist = pairings.word_pairings(k, pattern)
    R = pairings.compatible_indices(plist, rows)
    C = pairings.compatible_indices(plist, cols) if R else None
    if not C:
        return Fraction(0)

    if k <= TABLE_KMAX:
        table = weingarten_table(k, N, pattern, kmax=kmax)
        num = table.num
        return Fraction(sum(num(p, q) for p in R for q in C), table.wg_den)

    # Large-k route: single exact bilinear solve by rotation blocks, no full inverse.
    return exactla.bilinear_solve(pairings.loop_matrix(k, pattern), N, R, C,
                                  pairings.rotation_orbits(k, pattern))


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
