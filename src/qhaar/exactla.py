"""Exact linear algebra mod primes: certified inverses and bilinear solves.

Both routes are one certified solve of A X = D V, modulo primes below 2**23,
for the Gram matrix A = N**loops taken as (loop_mat, N), loop_mat from
pairings.loop_matrix; no bigint A exists.

* ``fraction_free_inverse`` -- V = I: the exact inverse X/D of A.  Used for
  full Weingarten tables.

* ``bilinear_solve`` -- V = v, a 0-1 indicator column: the exact value of
  u^T A^{-1} v = sum(X[r] for r in u) / D.  Used for single large-k moments
  where the full table is out of reach.

Both go through one prime loop, ``_gram_solve``: for each prime it builds
A mod p, runs the kernel, skips the primes described below, and combines the
residues into W = A^{-1} V mod M, M the product of the primes used.  The
combination is Garner's mixed-radix CRT (Garner, IRE Trans. Electronic
Computers EC-8, 1959), in float64: W = d_1 + p_1 (d_2 + p_2 (... d_j)),
and for a new prime p, ``_garner_digit`` takes W mod p by Horner over the
earlier digits, then the new digit d = (T - W mod p) (1/M mod p), both with
``_reduce``.  Exactness: every digit and residue has size at most p/2 + 1
for its own prime, and every prime is at most P = PRIME_START.  A Horner
value is a reduced value times a residue in [0, p), plus a digit:
at most (P/2 + 1)(P - 1) + P/2 + 1.  T - W mod p has size at most p + 1, and
times 1/M mod p in [0, p) at most (P + 1)(P - 1).  Both are below
P**2 < 2**46 < 2**52, so float64 holds them and ``_reduce`` is exact.  The
bigint side is then one update per entry and prime, W + M d, which keeps W
as a representative of each entry mod M, not reduced into [0, M).

After each prime the loop tries one certificate, ``_certified``: rational
reconstruction proposes a denominator D, and X = D W mod M (symmetric
residues) is accepted only when M > n max|A| max|X| + D.  Proof:
A W = V (mod M), so A X = D V (mod M), and every entry of A X - D V is at
most n max|A| max|X| + D < M in absolute value (V is a 0-1 matrix), so it
is 0: A X = D V exactly, however D was found.  Each D scans the entries in
order and stops at the first one that fails, once the next D's candidate
entry is known too, so a rejected D costs a few entries, not a pass over
the table.  The primes come from ``prime_stream``, which finds them by
trial division, exact for every candidate, once per process.

The kernel works in float64 BLAS, after FFLAS-FFPACK (Dumas, Giorgi and
Pernet, ACM TOMS 35, 2008).  Per prime it solves A T = V mod p by blocked
LU without pivoting, then back substitution, on one copy of [A mod p | V]
in blocks of BLOCK columns.  Forward elimination, block by block: copy the
diagonal block out and invert it in place by Gauss-Jordan in steps of S
pivots, each step inverting its S x S pivot block in Python ints
(pivot-free, pivot by pivot in column order) and carrying that to the rest
of the diagonal block by one rank-S update; normalize the block row by the
inverse, to [I | R], and subtract multiples of R from the rows below only.
That leaves [U | Y] with U unit upper triangular.  Back substitution, from
the last block up: the Y part of a block row is now T there, so subtract
its multiples from the Y parts of the rows above.  A one-column solve
takes about n**3/3 multiply-adds, against n**3/2 for Gauss-Jordan, which
also clears the rows above each block.

Exactness: every factor of every product is a residue of size below p <
2**23.  A step of the diagonal-block inverse reduces only its S pivot
rows and columns, so each other entry of the block takes at most BLOCK
products between reductions; every matmul has inner dimension at most
BLOCK and reduced operands.  So every partial sum is an integer below
BLOCK*(p-1)**2 + p < 2**52, which float64 holds exactly.  Reducing such
an X as X - rint(X*(1/p))*p is then exact too, and leaves a residue of
size at most p/2 + 1 with no correction step.

No pivoting: the Gram matrix N**loops of non-crossing pairings is positive
definite for N >= 2 (Temperley-Lieb at delta = N >= 2; a coloured Gram
matrix is a principal submatrix of it), so every leading minor is a nonzero
integer.  A prime is skipped when a leading minor of A vanishes mod p.
Pivot-free elimination in column order meets, as its k-th pivot, the ratio
of the leading minors of orders k and k-1; grouping the pivots in blocks
and steps keeps their order and their values, and each is tested in the
S x S inverse, so the elimination stops at the first vanishing leading
minor, as the scalar one does.  Only the finitely many primes dividing a
leading minor do that, and a skipped prime never changes the result.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import SingularMatrixError

# First candidate prime: BLOCK*(p-1)**2 + p < 2**52 keeps float64 matmuls exact.
PRIME_START = (1 << 23) - 1
# Side of the diagonal blocks in the modular elimination.
BLOCK = 64
# Pivots per step when a diagonal block is inverted.
S = 4
# Primes drawn before giving up.
MAX_PRIMES = 162


# The primes prime_stream has found so far, in the order it yields them.
_primes: list[int] = []


def prime_stream():
    """Descending primes from PRIME_START: odd n with no odd divisor d <= isqrt(n).

    Each prime is found once per process, by trial division, and kept in
    _primes; a later stream reads them from there.
    """
    for i in itertools.count():
        if i == len(_primes):
            start = _primes[-1] - 2 if _primes else PRIME_START
            p = next((n for n in range(start, 3, -2)
                      if all(n % d for d in range(3, math.isqrt(n) + 1, 2))), None)
            if p is None:
                return
            _primes.append(p)
        yield _primes[i]


def _reduce(X: np.ndarray, p: int) -> np.ndarray:
    """Reduce X mod p in place to residues of size at most p/2 + 1 (so below p).

    X holds integers below 2**52 in size: the float64 quotient X*(1/p) is then
    within 1/p of X/p, so rounding it leaves a residue no larger than p/2 + 1.
    """
    q = X * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    X -= q
    return X


def _inverse_small(P: list[list[int]], p: int) -> Optional[list[list[int]]]:
    """P^{-1} mod p, entries in [0, p), for a small square list P; None at a zero pivot.

    Pivot-free Gauss-Jordan in Python ints, in place, pivot by pivot in
    column order: row k becomes row / pivot with 1 / pivot at k, and every
    other row i loses P[i][k] times it, with -P[i][k] / pivot left at k.
    """
    s = len(P)
    for k in range(s):
        pivot = P[k][k] % p
        if pivot == 0:
            return None
        inv = pow(pivot, -1, p)
        row = P[k]
        row[k] = 1
        row = P[k] = [x * inv % p for x in row]
        for i in range(s):
            if i != k:
                other = P[i]
                f = other[k]
                other[k] = 0
                P[i] = [(x - f * y) % p for x, y in zip(other, row)]
    return P


def _solve_mod_prime(A: np.ndarray, V: np.ndarray, p: int) -> Optional[np.ndarray]:
    """A^{-1} V mod p for float64 matrices A (n x n) and V (n x m) of residues mod p.

    Blocked LU without pivoting, in place on one copy of [A | V], then back
    substitution (see the module docstring).  Forward, per diagonal block:
    invert it mod p in steps of S pivots, normalize its block row to
    R = inv [A12 | V1] mod p, and subtract multiples of R from the rows
    below.  Back, from the last block up: the V part of each block row is
    final, and its multiples are subtracted from the V parts above.  The
    result has entries of size at most p/2 + 1.  Returns None if a leading
    minor of A vanishes mod p.
    """
    n = A.shape[0]
    M = np.concatenate([A, V], axis=1)
    del A  # the caller's residue matrix: hold only [A | V] while eliminating
    for j0 in range(0, n, BLOCK):
        j1 = min(j0 + BLOCK, n)
        B = M[j0:j1, j0:j1].copy()
        b = j1 - j0
        for s0 in range(0, b, S):  # invert B in place, S pivots a step
            s1 = min(s0 + S, b)
            rows = _reduce(B[s0:s1], p)
            P = _inverse_small([[int(x) for x in r] for r in rows[:, s0:s1].tolist()], p)
            if P is None:
                return None
            col = _reduce(B[:, s0:s1].copy(), p)
            col[s0:s1] = 0  # rows s0:s1 become the normalized pivot rows; leave them
            # Rows s0:s1 of the inverse are P^-1 rows with P^-1 at the pivot
            # block, and its columns there are -col P^-1: clear those
            # columns, then one rank-S update.
            B[:, s0:s1] = 0
            P = np.array(P, dtype=np.float64)
            rows[:] = _reduce(P @ rows, p)
            rows[:, s0:s1] = P
            B -= col @ rows
        R = M[j0:j1, j1:]
        R[:] = _reduce(_reduce(B, p) @ R, p)
        below = M[j1:, j1:]
        below -= M[j1:, j0:j1] @ R
        _reduce(below, p)
    X = M[:, n:]
    for j0 in reversed(range(BLOCK, n, BLOCK)):
        j1 = min(j0 + BLOCK, n)
        above = X[:j0]
        above -= M[:j0, j0:j1] @ X[j0:j1]
        _reduce(above, p)
    return X.copy()  # not a view: M is freed on return


def rational_reconstruct(a: int, m: int) -> Optional[Fraction]:
    """Recover n/d = a (mod m) with |n|, d <= sqrt(m/2), if it exists."""
    bound = math.isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        qq = r0 // r1
        r0, r1 = r1, r0 - qq * r1
        s0, s1 = s1, s0 - qq * s1
    num, den = r1, s1
    if den < 0:
        num, den = -num, -den
    if den == 0 or den > bound or math.gcd(num, den) != 1:
        return None
    return Fraction(num, den)


def _certified(W: list[int], M: int, scale: int) -> Optional[tuple[int, list[int]]]:
    """(D, X) with X = D W mod M in (-M/2, M/2] and M > scale max|X| + D, or None.

    From D = 1, each failed certificate multiplies D by the denominator that
    rational reconstruction gives for the candidate, the first entry of X
    too large to be an integer (|x| > isqrt(M/2)); that at least doubles D,
    until D reaches M.  Each D scans the entries of X in order and stops once
    one entry has failed scale |x| + D < M and the candidate is known, so a
    failing D usually reads a few entries; X is built only for the D that
    is accepted.
    """
    half = M // 2
    bound = math.isqrt(half)
    D = 1
    while True:
        lim = (M - D - 1) // scale  # scale |x| + D < M exactly when |x| <= lim
        failed, big = False, None
        for w in W:
            x = D * w % M
            if x > half:
                x -= M
            if big is None and abs(x) > bound:
                big = x
                if failed:
                    break
            if abs(x) > lim:
                failed = True
                if big is not None:
                    break
        if not failed:
            return D, [x - M if x > half else x for x in (D * w % M for w in W)]
        f = rational_reconstruct(big, M) if big is not None and D < M else None
        if f is None:
            return None
        D *= f.denominator


def _garner_digit(T: np.ndarray, digits: list[np.ndarray], primes: list[int],
                  p: int) -> np.ndarray:
    """The next mixed-radix digit d, of size at most p/2 + 1, with W + M d = T (mod p).

    W = d_1 + p_1 (d_2 + p_2 (... + p_{j-1} d_j)) for the earlier digits d_i
    and primes p_i, M = p_1 ... p_j, and T holds residues of size at most
    p/2 + 1.  W mod p is taken by Horner from d_j down, then
    d = (T - W mod p) (1/M mod p); the module docstring bounds every value.
    T itself is the first digit.
    """
    if not digits:
        return T
    r = digits[-1].copy()
    for d, q in zip(digits[-2::-1], primes[-2::-1]):
        _reduce(r, p)
        r *= q % p
        r += d
    _reduce(r, p)
    r -= T
    r *= -pow(math.prod(primes), -1, p)  # (T - W mod p) (1/M mod p)
    return _reduce(r, p)


def _gram_solve(loop_mat: np.ndarray, N: int, V: np.ndarray) -> tuple[int, list[int]]:
    """(D, X) with G X = D V exactly for G = N**loop_mat, X a flat row-major list.

    Draws at most MAX_PRIMES primes from prime_stream().  For each prime p,
    G mod p is the lookup of N**l mod p indexed by loop_mat; p is skipped
    when a leading minor of G vanishes mod p.  The kernel's T mod p gives
    the next Garner digit d of W = G^{-1} V mod M.  The digits are kept, one
    float64 array per prime, for the next prime's Horner step; W is one flat
    row-major list of Python ints, updated to W + M d, a representative of
    each entry mod M that is not reduced into [0, M).  The loop returns once
    _certified accepts D and X = D W mod M, which the module docstring shows
    proves G X = D V.  Raises SingularMatrixError when the primes run out.
    """
    max_loops = int(loop_mat.max())
    scale = loop_mat.shape[0] * N ** max_loops  # n max|G|
    W, M, digits, primes = [0] * V.size, 1, [], []
    for p in itertools.islice(prime_stream(), MAX_PRIMES):
        pows = np.array([pow(N, l, p) for l in range(max_loops + 1)], dtype=np.float64)
        # G mod p goes straight into the kernel, which frees it once [G | V] is built.
        T = _solve_mod_prime(pows[loop_mat], V, p)
        if T is None:
            continue  # p divides a leading minor; skip
        d = _garner_digit(T, digits, primes, p)
        del T  # free it before _certified, where a table build peaks
        # Plain ints, not numpy object arrays: small numpy buffers made here,
        # between two eliminations, raised the peak RSS of order-14 moment
        # runs by about 0.25 MB.
        W = [w + M * x for w, x in zip(W, map(int, d.ravel().tolist()))]
        digits.append(d)
        primes.append(p)
        M *= p
        found = _certified(W, M, scale)
        if found is not None:
            return found
    raise SingularMatrixError(f"no exact result within {MAX_PRIMES} primes")


def fraction_free_inverse(loop_mat: np.ndarray, N: int) -> tuple[list[list[int]], int]:
    """Invert G = N**loop_mat exactly; returns (X, D) with G^{-1} = X/D, reduced.

    The certified solve with V = I proves G X = D I.  Dividing by gcd(D, X)
    leaves D the least common denominator.
    """
    n = loop_mat.shape[0]
    D, X = _gram_solve(loop_mat, N, np.eye(n))
    g = math.gcd(D, *X)
    return [[x // g for x in X[i:i + n]] for i in range(0, n * n, n)], D // g


def bilinear_solve(loop_mat: np.ndarray, N: int, u_idx: Sequence[int],
                   v_idx: Sequence[int]) -> Fraction:
    """Exact u^T G^{-1} v for G = N**loop_mat, u/v 0-1 indicators.

    u_idx and v_idx index the rows of loop_mat.  The certified solve with
    V = v proves G X = D v, so the value is sum(X[r] for r in u_idx) / D.
    """
    v = np.zeros((loop_mat.shape[0], 1))
    v[list(v_idx), 0] = 1
    D, X = _gram_solve(loop_mat, N, v)
    return Fraction(sum(X[r] for r in u_idx), D)
