"""Exact linear algebra: fraction-free inversion and modular bilinear solves.

Two routes are provided for Gram-matrix work:

* ``fraction_free_inverse`` -- Bareiss/Montante fraction-free Gauss-Jordan
  over big integers.  Returns the inverse as (integer matrix, determinant);
  intermediate entries are minors of the input, so everything stays integral.
  Used for full Weingarten tables up to the configured k_max.

* ``bilinear_solve`` -- exact evaluation of u^T A^{-1} v for an integer
  matrix given as N**loops, via mod-p elimination (numpy), CRT and rational
  reconstruction.  Used for single large-k moments where the full table is
  out of reach.  The reconstruction is accepted only once it is stable
  across two successive moduli and verified against one further prime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import SingularMatrixError

# First candidate prime: residue products stay below 2**62 and fit in int64.
PRIME_START = (1 << 31) - 1
# CRT primes combined before bilinear_solve gives up on reconstruction.
MAX_PRIMES = 120


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


def _solve_mod_prime(A: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Solve A x = b over GF(p); A, b are int64 arrays reduced mod p.

    Returns None if A is singular mod p.
    """
    n = A.shape[0]
    A = A.copy()
    b = b.copy()
    for col in range(n):
        piv_rows = np.nonzero(A[col:, col])[0]
        if piv_rows.size == 0:
            return None
        r = col + int(piv_rows[0])
        if r != col:
            A[[col, r]] = A[[r, col]]
            b[[col, r]] = b[[r, col]]
        inv = pow(int(A[col, col]), -1, p)
        A[col, col:] = A[col, col:] * inv % p
        b[col] = b[col] * inv % p
        f = A[col + 1:, col].copy()  # view would be zeroed by the A update
        if f.size:
            A[col + 1:, col:] = (A[col + 1:, col:] - f[:, None] * A[col, col:]) % p
            b[col + 1:] = (b[col + 1:] - f * b[col]) % p
    x = np.zeros(n, dtype=object)
    for row in range(n - 1, -1, -1):
        acc = int(np.dot(A[row, row + 1:], x[row + 1:]) % p) if row + 1 < n else 0
        x[row] = (int(b[row]) - acc) % p
    return x


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
    n = loop_mat.shape[0]
    max_loops = int(loop_mat.max())
    residue, modulus, combined = 0, 1, 0
    last: Optional[Fraction] = None
    candidate: Optional[Fraction] = None
    for p in prime_stream():
        pows = np.array([pow(N, l, p) for l in range(max_loops + 1)], dtype=np.int64)
        A = pows[loop_mat]
        b = np.zeros(n, dtype=np.int64)
        b[list(v_idx)] = 1
        x = _solve_mod_prime(A, b, p)
        if x is None:
            continue  # p divides det; skip
        h_p = int(sum(int(x[i]) for i in u_idx) % p)
        if candidate is not None:
            # Verification prime for the stable candidate.
            if (candidate.numerator - h_p * candidate.denominator) % p == 0:
                return candidate
            candidate = None
        # CRT combine.
        inv = pow(modulus % p, -1, p)
        residue = residue + modulus * ((h_p - residue) * inv % p)
        modulus *= p
        residue %= modulus
        guess = rational_reconstruct(residue, modulus)
        if guess is not None and guess == last:
            candidate = guess
        last = guess
        combined += 1
        if combined >= MAX_PRIMES:
            raise SingularMatrixError("rational reconstruction did not converge")
    raise SingularMatrixError("prime stream exhausted")
