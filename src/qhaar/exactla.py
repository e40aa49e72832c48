"""Exact linear algebra: fraction-free inversion and modular bilinear solves.

Two routes are provided for Gram-matrix work:

* ``fraction_free_inverse`` -- Bareiss/Montante fraction-free Gauss-Jordan
  over big integers.  Returns the inverse as (integer matrix, determinant);
  intermediate entries are minors of the input, so everything stays integral.
  Used for full Weingarten tables up to the configured k_max.

* ``bilinear_solve`` -- exact evaluation of u^T A^{-1} v for an integer
  matrix given as N**loops, modulo primes below 2**23, then CRT and rational
  reconstruction.  Used for single large-k moments where the full table is
  out of reach.

The modular route works in float64 BLAS, after FFLAS-FFPACK (Dumas, Giorgi
and Pernet, ACM TOMS 35, 2008).  Per prime it eliminates the bordered matrix
[[A mod p, v], [u^T, 0]] in blocks of BLOCK: invert the diagonal block mod p,
form L = A21 inv mod p, update A22 <- A22 - L A12 mod p.  The last 1x1 Schur
complement is -u^T A^{-1} v mod p, so no back substitution is needed.

Exactness: residues are kept below p < 2**23 in size, and every product has
inner dimension at most BLOCK, so every partial sum is an integer below
BLOCK*(p-1)**2 + p < 2**52, which float64 holds exactly.  Reducing such an X
as X - rint(X*(1/p))*p is then exact too, and leaves a residue of size at
most p/2 + 1 with no correction step.

No pivoting: the Gram matrix N**loops of non-crossing pairings is positive
definite for N >= 2 (Temperley-Lieb at delta = N >= 2; a coloured Gram
matrix is a principal submatrix of it), so every leading minor is a nonzero
integer.  A prime is skipped when a leading minor of A vanishes mod p, since
the pivot-free elimination then meets a zero pivot; only the finitely many
primes dividing a leading minor do that, and a skipped prime never changes
the result.

Acceptance: a reconstruction is a candidate once two successive moduli give
the same rational; it is returned once further primes whose product reaches
VERIFY_MODULUS all agree with it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import SingularMatrixError

# First candidate prime: BLOCK*(p-1)**2 + p < 2**52 keeps float64 matmuls exact.
PRIME_START = (1 << 23) - 1
# Side of the diagonal blocks in the modular elimination.
BLOCK = 64
# CRT primes combined before bilinear_solve gives up (a 3720-bit budget).
MAX_PRIMES = 162
# Product of the primes that must confirm a stable reconstruction.
VERIFY_MODULUS = 1 << 31


def fraction_free_inverse(A: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Invert an integer matrix exactly; returns (M, det) with inv = M/det.

    Fraction-free Gauss-Jordan (Montante): every division is exact and every
    intermediate entry is a minor of A.  No pivoting is performed; intended
    for positive definite inputs whose leading minors are nonzero.
    """
    n = len(A)
    M = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(A)]
    prev = 1
    for col in range(n):
        pivot = M[col][col]
        if pivot == 0:
            raise SingularMatrixError(f"zero pivot at step {col}")
        row_p = M[col]
        for i in range(n):
            if i == col:
                continue
            row_i = M[i]
            f = row_i[col]
            M[i] = [(pivot * row_i[j] - f * row_p[j]) // prev for j in range(2 * n)]
        prev = pivot
    det = M[n - 1][n - 1]
    inv_num = [M[i][n:] for i in range(n)]
    return inv_num, det


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid well beyond 2**32."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_stream():
    """Descending primes from PRIME_START."""
    n = PRIME_START
    while n > 3:
        if _is_prime(n):
            yield n
        n -= 2


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


def _inverse_mod_prime(D: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Inverse of a square block of residues mod p by pivot-free Gauss-Jordan.

    Only the pivot row and the pivot column are reduced at each step; every
    other entry takes at most BLOCK unreduced rank-1 updates.  Returns None if
    a pivot vanishes mod p.
    """
    b = D.shape[0]
    W = np.concatenate([D, np.eye(b)], axis=1)
    for k in range(b):
        row = _reduce(W[k], p)
        pivot = int(row[k])
        if pivot == 0:
            return None
        row *= pow(pivot, -1, p)
        _reduce(row, p)
        col = _reduce(W[:, k].copy(), p)
        col[k] = 0  # row k is the normalized pivot row; leave it
        W -= col[:, None] * row
    return _reduce(W[:, b:], p)


def _bilinear_mod_prime(A: np.ndarray, u_idx: Sequence[int], v_idx: Sequence[int],
                        p: int) -> Optional[int]:
    """u^T A^{-1} v mod p for a float64 matrix A of residues mod p.

    Blocked Schur-complement elimination of the bordered matrix
    [[A, v], [u^T, 0]]: its last Schur complement is -u^T A^{-1} v.  Returns
    None if a leading minor of A vanishes mod p.
    """
    n = A.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[n, list(u_idx)] = 1
    M[list(v_idx), n] = 1
    for j0 in range(0, n, BLOCK):
        j1 = min(j0 + BLOCK, n)
        inv = _inverse_mod_prime(M[j0:j1, j0:j1], p)
        if inv is None:
            return None
        L = _reduce(M[j1:, j0:j1] @ inv, p)
        trailing = M[j1:, j1:]
        trailing -= L @ M[j0:j1, j1:]
        _reduce(trailing, p)
    return int(-M[n, n]) % p


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


def bilinear_solve(loop_mat: np.ndarray, N: int, u_idx: Sequence[int],
                   v_idx: Sequence[int]) -> Fraction:
    """Exact u^T A^{-1} v for A[i,j] = N**loop_mat[i,j], u/v 0-1 indicators.

    loop_mat is a small-integer numpy array; u_idx and v_idx index its rows.
    """
    max_loops = int(loop_mat.max())
    residue, modulus, combined = 0, 1, 0
    last: Optional[Fraction] = None
    candidate: Optional[Fraction] = None
    verified = 1
    for p in prime_stream():
        pows = np.array([pow(N, l, p) for l in range(max_loops + 1)], dtype=np.float64)
        h_p = _bilinear_mod_prime(pows[loop_mat], u_idx, v_idx, p)
        if h_p is None:
            continue  # p divides a leading minor; skip
        if candidate is not None:
            # Verification primes for the stable candidate.
            if (candidate.numerator - h_p * candidate.denominator) % p == 0:
                verified *= p
                if verified >= VERIFY_MODULUS:
                    return candidate
                continue
            candidate = None
        # CRT combine.
        inv = pow(modulus % p, -1, p)
        residue = residue + modulus * ((h_p - residue) * inv % p)
        modulus *= p
        residue %= modulus
        guess = rational_reconstruct(residue, modulus)
        if guess is not None and guess == last:
            candidate, verified = guess, 1
        last = guess
        combined += 1
        if combined >= MAX_PRIMES:
            raise SingularMatrixError("rational reconstruction did not converge")
    raise SingularMatrixError("prime stream exhausted")
