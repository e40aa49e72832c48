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
residues by CRT into W = A^{-1} V mod M.  After each prime it tries one
certificate, ``_certified``: rational reconstruction proposes a denominator
D, and X = D W mod M (symmetric residues) is accepted only when
M > n max|A| max|X| + D.  Proof: A W = V (mod M), so A X = D V (mod M), and
every entry of A X - D V is at most n max|A| max|X| + D < M in absolute
value (V is a 0-1 matrix), so it is 0: A X = D V exactly, however D was
found.  The primes come from ``prime_stream``, which finds them by trial
division, exact for every candidate.

The kernel works in float64 BLAS, after FFLAS-FFPACK (Dumas, Giorgi and
Pernet, ACM TOMS 35, 2008).  Per prime it takes [A mod p | V] to
[I | A^{-1} V mod p] by Gauss-Jordan elimination in blocks of BLOCK: copy
the diagonal block out, invert it in place by scalar Gauss-Jordan, normalize
its block row by that inverse, and subtract multiples of that row from every
other row, mod p.

Exactness: every factor of every product is a residue of size below p <
2**23.  The scalar inverse reduces only the pivot row and column at each
step, so each other entry of the block takes at most BLOCK rank-1 updates
between reductions; every matmul has inner dimension at most BLOCK.  So
every partial sum is an integer below BLOCK*(p-1)**2 + p < 2**52, which
float64 holds exactly.  Reducing such an X as X - rint(X*(1/p))*p is then
exact too, and leaves a residue of size at most p/2 + 1 with no correction
step.

No pivoting: the Gram matrix N**loops of non-crossing pairings is positive
definite for N >= 2 (Temperley-Lieb at delta = N >= 2; a coloured Gram
matrix is a principal submatrix of it), so every leading minor is a nonzero
integer.  A prime is skipped when a leading minor of A vanishes mod p, since
the pivot-free elimination then meets a zero pivot; only the finitely many
primes dividing a leading minor do that, and a skipped prime never changes
the result.
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
# Primes drawn before giving up.
MAX_PRIMES = 162


def prime_stream():
    """Descending primes from PRIME_START: odd n with no odd divisor d <= isqrt(n)."""
    for n in range(PRIME_START, 3, -2):
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            yield n


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


def _solve_mod_prime(A: np.ndarray, V: np.ndarray, p: int) -> Optional[np.ndarray]:
    """A^{-1} V mod p for float64 matrices A (n x n) and V (n x m) of residues mod p.

    Blocked pivot-free Gauss-Jordan elimination of [A | V], in place on one
    copy: each diagonal block is inverted mod p, its block row is normalized
    to R = inv [A12 | V1] mod p, and every other row loses its multiple of R.
    The result has entries of size at most p/2 + 1.  Returns None if a
    leading minor of A vanishes mod p.
    """
    n = A.shape[0]
    M = np.concatenate([A, V], axis=1)
    del A  # the caller's residue matrix: hold only [A | V] while eliminating
    for j0 in range(0, n, BLOCK):
        j1 = min(j0 + BLOCK, n)
        B = M[j0:j1, j0:j1].copy()
        for k in range(j1 - j0):  # invert B in place
            row = _reduce(B[k], p)
            pivot = int(row[k])
            if pivot == 0:
                return None
            col = _reduce(B[:, k].copy(), p)
            col[k] = 0  # row k is the normalized pivot row; leave it
            # Row k of the inverse is row / pivot with 1 / pivot at k, and
            # column k is -col / pivot: clear column k, then one update.
            B[:, k] = 0
            row[k] = 1
            row *= pow(pivot, -1, p)
            _reduce(row, p)
            B -= col[:, None] * row
        # With the block row set to [-I | 0], one update of all rows leaves
        # R in the block row and eliminates the block column everywhere else.
        R = _reduce(_reduce(B, p) @ M[j0:j1, j1:], p)
        M[j0:j1, j0:j1] = -np.eye(j1 - j0)
        M[j0:j1, j1:] = 0
        rest = M[:, j1:]
        rest -= M[:, j0:j1] @ R
        _reduce(rest, p)
    return M[:, n:].copy()  # not a view: M is freed on return


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


def _certified(W: np.ndarray, M: int, scale: int) -> Optional[tuple[int, np.ndarray]]:
    """(D, X) with X = D W mod M in (-M/2, M/2] and M > scale max|X| + D, or None.

    From D = 1, each failed certificate multiplies D by the denominator that
    rational reconstruction gives for the first entry of X too large to be
    an integer; that at least doubles D, until D reaches M.
    """
    bound = math.isqrt(M // 2)
    D = 1
    while True:
        X = D * W % M
        X[X > M // 2] -= M
        # Scanned entry by entry: an array of |X| would hold a second set of
        # bigints at the peak memory of a table build.
        if M > scale * max(map(abs, X.flat)) + D:
            return D, X
        big = next((x for x in X.flat if abs(x) > bound), None)
        f = rational_reconstruct(big, M) if big is not None and D < M else None
        if f is None:
            return None
        D *= f.denominator


def _gram_solve(loop_mat: np.ndarray, N: int, V: np.ndarray) -> tuple[int, np.ndarray]:
    """(D, X) with G X = D V exactly for G = N**loop_mat, X shaped like V.

    Draws at most MAX_PRIMES primes from prime_stream().  For each prime p,
    G mod p is the lookup of N**l mod p indexed by loop_mat; p is skipped
    when a leading minor of G vanishes mod p.  The kernel's T mod p is
    combined by CRT into W = G^{-1} V mod M (a flat row-major list of ints in
    [0, M)), and the loop returns once _certified accepts D and X = D W mod
    M, which the module docstring shows proves G X = D V.  Raises
    SingularMatrixError when the primes run out.
    """
    max_loops = int(loop_mat.max())
    scale = loop_mat.shape[0] * N ** max_loops  # n max|G|
    W, M = [0] * V.size, 1
    for p in itertools.islice(prime_stream(), MAX_PRIMES):
        pows = np.array([pow(N, l, p) for l in range(max_loops + 1)], dtype=np.float64)
        # G mod p goes straight into the kernel, which frees it once [G | V] is built.
        T = _solve_mod_prime(pows[loop_mat], V, p)
        if T is None:
            continue  # p divides a leading minor; skip
        # w + M ((w - t) c mod p), c = -1/M mod p, is w mod M and t mod p.
        # Plain ints, not numpy object arrays: small numpy buffers made here,
        # between two eliminations, raised the peak RSS of order-14 moment
        # runs by about 0.25 MB.
        c = -pow(M, -1, p) % p
        W = [w + M * ((w - t) * c % p) for w, t in zip(W, map(int, T.ravel().tolist()))]
        del T  # free it before _certified, where a table build peaks
        M *= p
        found = _certified(np.array(W, dtype=object).reshape(V.shape), M, scale)
        if found is not None:
            return found
    raise SingularMatrixError(f"no exact result within {MAX_PRIMES} primes")


def fraction_free_inverse(loop_mat: np.ndarray, N: int) -> tuple[list[list[int]], int]:
    """Invert G = N**loop_mat exactly; returns (X, D) with G^{-1} = X/D, reduced.

    The certified solve with V = I proves G X = D I.  Dividing by gcd(D, X)
    leaves D the least common denominator.
    """
    D, X = _gram_solve(loop_mat, N, np.eye(loop_mat.shape[0]))
    g = math.gcd(D, *X.flat)
    return [[int(x) // g for x in row] for row in X], D // g


def bilinear_solve(loop_mat: np.ndarray, N: int, u_idx: Sequence[int],
                   v_idx: Sequence[int]) -> Fraction:
    """Exact u^T G^{-1} v for G = N**loop_mat, u/v 0-1 indicators.

    u_idx and v_idx index the rows of loop_mat.  The certified solve with
    V = v proves G X = D v, so the value is sum(X[r] for r in u_idx) / D.
    """
    v = np.zeros((loop_mat.shape[0], 1))
    v[list(v_idx), 0] = 1
    D, X = _gram_solve(loop_mat, N, v)
    return Fraction(sum(X[r, 0] for r in u_idx), D)
