"""Quantum integers, q-factorials, quantum dimensions and fusion rules.

All arithmetic is at a fixed integer dimension N >= 2, where the deformation
parameter q in (0, 1] is determined by q + 1/q = N.  Quantum integers [a]_q
are then ordinary integers and are computed by the exact Chebyshev-type
recursion [a+1] = N*[a] - [a-1]; the real q itself is only ever needed as a
rigorously bracketed value for tail estimates elsewhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import InvalidDimensionError

# The one working precision for every floating step: outputs print 25 decimal
# digits (about 83 bits), and below about 100 bits those digits go wrong.
PRECISION_BITS = 128


def q_of_N(N: int, precision_bits: int = PRECISION_BITS) -> tuple[Fraction, Fraction]:
    """Bracket the root of q^2 - N*q + 1 = 0 lying in (0, 1].

    Returns (q_lower, q_upper) with q_upper - q_lower <= 2**-precision_bits.
    For N = 2 the root is exactly 1.
    """
    if N < 2:
        raise InvalidDimensionError(f"need N >= 2, got {N}")
    if N == 2:
        one = Fraction(1)
        return one, one
    # q = (N - sqrt(N^2 - 4)) / 2; bracket the square root on the grid 2**-s.
    s = precision_bits + 3
    lo = Fraction(isqrt((N * N - 4) << 2 * s), 1 << s)
    hi = lo + Fraction(1, 1 << s)
    q_lower = (N - hi) / 2
    q_upper = (N - lo) / 2
    return q_lower, min(q_upper, Fraction(1))


def q_int(a: int, N: int) -> int:
    """Exact value of [a]_q at q + 1/q = N, via the integer recursion."""
    if N < 2:
        raise InvalidDimensionError(f"need N >= 2, got {N}")
    if a < 0:
        raise ValueError(f"need a >= 0, got {a}")
    prev, cur = 0, 1  # [0], [1]
    if a == 0:
        return 0
    for _ in range(a - 1):
        prev, cur = cur, N * cur - prev
    return cur


def q_factorial(a: int, N: int) -> int:
    """[a]_q! = [a]_q [a-1]_q ... [1]_q, with [0]_q! = 1."""
    if N < 2:
        raise InvalidDimensionError(f"need N >= 2, got {N}")
    out = 1
    prev, cur = 0, 1
    for _ in range(a):
        out *= cur
        prev, cur = cur, N * cur - prev
    return out


def dim_irrep(k: int, N: int) -> int:
    """Dimension of the k-th irreducible: [k+1]_q."""
    return q_int(k + 1, N)


def fusion_summands(n: int, k: int) -> list[int]:
    """Labels in the decomposition of the (n, k) tensor product.

    Returns [n+k, n+k-2, ..., |n-k|], one copy each.
    """
    if n < 0 or k < 0:
        raise ValueError("labels must be non-negative")
    return list(range(n + k, abs(n - k) - 1, -2))
