"""Rapid-decay constants D_N, and the rapid-decay norm bound.

The constant D_N is the supremum over admissible triples (n, k, l) of

    sqrt([k+1][n+1] / ([l+1][r+1]^2)) * inverse-squared-three-vertex-norm,

with r = (n + k - l) / 2.  It is reported as a bracket: a scanned maximum
over a finite truncation of the parameter space (a lower estimate, computed
at working precision) together with a rigorous rational upper bound built
from the closed-form product bounds, evaluated with the directed bracket of
q so that every downstream inequality is one-sided safe.  The scan evaluates
the objective by one formula, objective_squares, in the factors 1 - q^(2e);
the tests check it against exact q-integer oracles.  N = 2 is rejected
throughout this module (q = 1 makes the tail products diverge).

The scan's values are raw mpf tuples (mpmath's `_mpf_`) at the caller's
precision, combined by mpmath.libmp's mpf_mul, mpf_div and mpf_gt with
round-to-nearest: the mpf object wrappers cost more than the arithmetic.
The order of every operation is pinned (see objective_rows), because the
reported argmax is decided by exact ties between rounded values.

Every factor 1 - q^(2e) with e at or past the saturation index e0 rounds to
exactly 1 (e0 = 13 at N = 57, 53 at N = 3), so the objective takes one value
on all points past that edge.  dn_constant skips the rows and the r-tails
that only repeat values already seen, and the first strict maximum sits at
the edge: at a = b = r = e0 - 1 at most large N (24/24/24 at N = 57,
14/14/14 at N = 1000), and inf/inf/inf when e0 - 1 exceeds nk_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import fone, fzero, mpf_div, mpf_gt, mpf_mul, mpf_pow_int, mpf_sub, round_nearest

from . import qnum
from .errors import InvalidArgumentError, InvalidDimensionError, ResourceLimitError

# rigorous_upper_bound stops once its tail multiplier is below 1 + TAIL_TOL.
TAIL_TOL = Fraction(1, 10 ** 12)

# dn_constant refuses a grid with more points than this, counted as declared,
# (nk_max+2)^2 (r_max+1); the default truncation has 75,140.  The scan skips
# the points past the saturation index e0, so the time depends on N through
# e0: a grid of 10^7 points takes about 1 s at N = 3 (e0 = 53) and 0.02 s at
# N = 57 (e0 = 13).
MAX_SCAN_POINTS = 10 ** 7


def _require_n(N: int):
    if N < 3:
        raise InvalidDimensionError(f"rapid decay requires N >= 3, got {N}")


@dataclass(frozen=True)
class TruncationLimits:
    """Scan truncation for dn_constant: r <= r_max, and n-r, k-r in 0..nk_max or infinite."""

    r_max: int = 64
    nk_max: int = 32

    def __post_init__(self):
        if self.r_max < 0 or self.nk_max < 0:
            raise InvalidArgumentError(
                f"need r_max, nk_max >= 0, got {self.r_max}, {self.nk_max}")


@dataclass(frozen=True)
class RDBound:
    """Bracketed D_N: scanned lower estimate plus rigorous rational upper."""

    N: int
    value: mpmath.mpf
    argmax: tuple  # (n, k, l) with math.inf for limiting entries
    truncation: TruncationLimits
    tail_error: Fraction  # multiplicative tail slack minus 1, at q_upper
    rigorous_upper: Fraction


def _round_up(x: Fraction) -> Fraction:
    scaled = x * (1 << 96)
    return Fraction(-((-scaled.numerator) // scaled.denominator), 1 << 96)


def rigorous_upper_bound(N: int) -> tuple[Fraction, Fraction]:
    """Rational upper bound for D_N and the tail multiplier slack.

    Bound: (1-q^2)^-1 * prod_{s<=S} (1-q^{2s})^-3 * tail, with S grown until
    the tail multiplier is below 1 + TAIL_TOL.  All factors use the upper end
    of the q bracket and are rounded upward, so the result is a true bound.
    """
    _require_n(N)
    _, q_hi = qnum.q_of_N(N)
    Q = _round_up(q_hi * q_hi)
    acc = _round_up(1 / (1 - Q))  # sqrt(radicand) <= (1 - q^2)^-1
    Qs = Fraction(1)
    S = 0
    while True:
        S += 1
        Qs = _round_up(Qs * Q)
        acc = _round_up(acc * _round_up(1 / (1 - Qs)) ** 3)
        # -log of the remaining product is at most y below; exp(3y) <= 1/(1-3y).
        y = _round_up(Qs * Q / ((1 - Qs * Q) * (1 - Q)))
        if 3 * y < 1:
            tail = Fraction(1, 1) / (1 - 3 * y) - 1
            if tail < TAIL_TOL:
                return _round_up(acc * (1 + tail)), tail
        if S > 10000:
            raise ArithmeticError(f"tail bound did not converge for N={N}")


def factor_table(N: int, length: int) -> list:
    """[1 - q^(2e) for e < length] as raw mpf tuples at the caller's precision.

    q is the midpoint of its bracket.  Each power of q^2 is the previous one
    times q^2, as the scan reads them.
    """
    prec = mpmath.mp.prec
    lo, hi = qnum.q_of_N(N)
    q = (mpmath.mpf(lo.numerator) / lo.denominator
         + mpmath.mpf(hi.numerator) / hi.denominator) / 2
    Q = (q * q)._mpf_
    Qe = fone
    omq = []
    for _ in range(length):
        omq.append(mpf_sub(fone, Qe, prec, round_nearest))
        Qe = mpf_mul(Qe, Q, prec, round_nearest)
    return omq


def _saturation(omq: list) -> int:
    """The first index e0 from which every entry of omq is exactly fone."""
    e0 = len(omq)
    while e0 and omq[e0 - 1] == fone:
        e0 -= 1
    return e0


def objective_squares(omq: list, a: int, b: int, r_max: int) -> list:
    """The squared D_N objective at (n, k, l) = (a + r, b + r, a + b), r = 0..r_max.

    That is radicand * prod**2: the radicand [k+1][n+1] / ([l+1][r+1]^2) and
    the inverse squared three-vertex norm
    prod = prod_{s<=r} [1+s][a+s][b+s] / ([l+1+s][s]^2), each in the form
    prod (1 - q^(2e)) read from omq[e] (the powers of q cancel).  The product
    is carried from one r to the next.  omq holds raw mpf tuples, as
    factor_table returns them, and so does the result; arithmetic is at the
    caller's precision (mpmath.mp.prec), rounded to nearest, in the fixed
    order objective_rows gives.
    """
    return next(objective_rows(omq, a, (b,), r_max))


def objective_rows(omq: list, a: int, bs, r_max: int):
    """Yield objective_squares(omq, a, b, r_max) for each b in bs.

    Each value is computed as

        prod_r    = prod_{r-1} * ((omq[r+1] omq[a+r]) omq[b+r]) / (omq[l+1+r] omq[r]^2)
        radicand  = ((omq[1] omq[a+r+1]) omq[b+r+1]) / (omq[r+1]^2 omq[l+1])
        objective = (radicand * prod_r) * prod_r

    with prod_0 = 1 and l = a + b, one rounding per operation.  The order is
    pinned: dn_constant's argmax is decided by exact ties between rounded
    values (at large N it reports 24/24/24 from a tie), so reassociating one
    product can move the reported argmax.  The squares and the products that
    do not depend on b are computed once per call, not once per b; they are
    the same operations on the same operands, so no value changes.
    """
    prec, rnd = mpmath.mp.prec, round_nearest
    mul, div = mpf_mul, mpf_div
    sq = [mpf_pow_int(x, 2, prec, rnd) for x in omq[:r_max + 2]]
    lead = [mul(omq[r + 1], omq[a + r], prec, rnd) for r in range(r_max + 1)]
    lead_rad = [mul(omq[1], omq[a + r + 1], prec, rnd) for r in range(r_max + 1)]
    for b in bs:
        ab1 = a + b + 1
        top = omq[ab1]
        prod = fone
        row = []
        for r in range(r_max + 1):
            if r:
                prod = mul(prod, div(mul(lead[r], omq[b + r], prec, rnd),
                                     mul(omq[ab1 + r], sq[r], prec, rnd), prec, rnd),
                           prec, rnd)
            radicand = div(mul(lead_rad[r], omq[b + r + 1], prec, rnd),
                           mul(sq[r + 1], top, prec, rnd), prec, rnd)
            row.append(mul(mul(radicand, prod, prec, rnd), prod, prec, rnd))
        yield row


def dn_constant(N: int, truncation: TruncationLimits = TruncationLimits()) -> RDBound:
    """Scanned maximum of the D_N objective over the truncated parameter space.

    The scan runs over r <= r_max and a = n-r, b = k-r on {0..nk_max, INF}
    and takes the first strict maximum of objective_rows, whose factor table
    holds the supremum 1 for every exponent e >= INF; the argmax reports
    such entries as math.inf.  A grid of more than MAX_SCAN_POINTS points
    raises ResourceLimitError before any arithmetic.  The scan is a lower
    estimate; rigorous comparisons must use `rigorous_upper`.

    Past the saturation index e0, the first index from which every table
    entry is exactly 1, values only repeat, and two cuts skip them.  Row
    (a, b) reads the table at a+r, a+r+1, b+r, b+r+1, a+b+1, a+b+1+r, r,
    r+1 and 1, so a row with a >= e0 reads the same operands as the row
    with a replaced by top, the first grid value >= e0, which comes earlier
    in scan order (a-major, b ascending); the same holds for b.  And for
    r >= e0 every factor is 1, so each value repeats the one before.  As
    the first strict maximum never moves to a repeat, value and argmax are
    those of the full grid.  That argmax sits at the saturation edge:
    a = b = r = e0 - 1 at most large N (24/24/24 at N = 57, e0 = 13;
    14/14/14 at N = 1000, e0 = 8), at a = e0 - 2 where rounding ties a
    step earlier (N = 9, 14, 35, 36, 46 and 47 among N <= 60 at the default
    truncation), and inf/inf/inf when e0 - 1 exceeds nk_max (N = 3 and 4
    at the default truncation).
    """
    _require_n(N)
    rmax, amax = truncation.r_max, truncation.nk_max
    points = (amax + 2) ** 2 * (rmax + 1)
    if points > MAX_SCAN_POINTS:
        raise ResourceLimitError(
            f"the D_N scan at r_max={rmax}, nk_max={amax} has {points} points, "
            f"above {MAX_SCAN_POINTS}")
    INF = 2 * amax + rmax + 2  # above every finite exponent
    with mpmath.workprec(qnum.PRECISION_BITS + 16):
        omq = factor_table(N, INF) + [fone] * (INF + rmax + 2)
        e0 = _saturation(omq)  # in 1..INF: omq[0] is 0, and the padding is 1
        grid = list(range(amax + 1)) + [INF]
        top = next(g for g in grid if g >= e0)
        keep = [g for g in grid if g < e0 or g == top]
        best2 = fzero
        best_arg = (0, 0, 0)
        for a in keep:
            for b, row in zip(keep, objective_rows(omq, a, keep, min(rmax, e0))):
                for r, v2 in enumerate(row):
                    if mpf_gt(v2, best2):
                        best2 = v2
                        best_arg = tuple(math.inf if x >= INF else x
                                         for x in (a + r, b + r, a + b))
        value = mpmath.sqrt(mpmath.mp.make_mpf(best2))
    upper, tail = rigorous_upper_bound(N)
    return RDBound(N=N, value=value, argmax=best_arg, truncation=truncation,
                   tail_error=tail, rigorous_upper=upper)


def d_star_upper() -> Fraction:
    """Upper bound for sup_{N >= 3} D_N: exactly rigorous_upper_bound(3)[0].

    Proof.  B(Q) = (1-Q)^-1 prod_{s>=1} (1-Q^s)^-3 increases in Q on [0, 1),
    D_N <= B(q(N)^2), and rigorous_upper_bound(N) evaluates B at some
    Q >= q(N)^2.  As q(N) decreases in N, every N >= 3 has
    D_N <= B(q(N)^2) <= B(q(3)^2) <= rigorous_upper_bound(3)[0].
    """
    return rigorous_upper_bound(3)[0]


def select_p(degree: int, epsilon, d_star: Fraction) -> tuple[int, int, mpmath.mpf]:
    """Smallest m with d_star^(1/2m) * (2*degree*m + 1)^(3/4m) <= 1 + epsilon.

    Returns (m, p, achieved) with p = 4m.  Such an m always exists since the
    expression tends to 1.  It does not increase in m, because
    x/(1+x) < ln(1+x), so m is found by doubling and then bisection.
    """
    if degree < 0:
        raise InvalidArgumentError("degree must be >= 0")
    with mpmath.workprec(qnum.PRECISION_BITS):
        eps = mpmath.mpf(epsilon.numerator) / epsilon.denominator \
            if isinstance(epsilon, Fraction) else mpmath.mpf(epsilon)
        if not 1 + eps > 1:  # also NaN, and an eps for which doubling never ends
            raise InvalidArgumentError(f"epsilon must exceed 2^-{qnum.PRECISION_BITS}")
        D = mpmath.mpf(d_star.numerator) / d_star.denominator
        if not D >= 1:
            raise InvalidArgumentError("d_star must be >= 1")

        def achieved(m):
            return D ** (mpmath.mpf(1) / (2 * m)) \
                * mpmath.mpf(2 * degree * m + 1) ** (mpmath.mpf(3) / (4 * m))

        lo, hi = 0, 1  # invariant once doubling stops: lo fails (or is 0), hi fits
        while achieved(hi) > 1 + eps:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if achieved(mid) <= 1 + eps else (mid, hi)
        return hi, 4 * hi, achieved(hi)


def rd_bound(d_upper: Fraction, degree: int, l2: mpmath.mpf) -> mpmath.mpf:
    """RD bound D_upper * (degree + 1)^(3/2) * ||P||_2, above every ||P||_p."""
    return (mpmath.mpf(d_upper.numerator) / d_upper.denominator) \
        * mpmath.power(degree + 1, mpmath.mpf(3) / 2) * l2

