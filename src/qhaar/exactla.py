"""Exact linear algebra mod primes: certified inverses and bilinear solves.

Both are one certified solve of A X = D V, modulo primes below 2**23, for
the Gram matrix A = N**loops taken as (loop_mat, N), loop_mat from
pairings.loop_matrix; no bigint A exists.  Each prime solves the rotation
blocks of A (below).

* ``fraction_free_inverse`` -- V the indicator columns of the rotation
  orbits' representatives: those columns X/D of the exact inverse of A,
  which determine all of it by the rotation (below).  Used for Weingarten
  tables.

* ``bilinear_solve`` -- V = v, a 0-1 indicator column: the exact value of
  u^T A^{-1} v = sum(X[r] for r in u) / D.  Used for single large-k moments
  where the full table is out of reach.

Both go through one prime loop, ``_gram_solve``: for each prime it builds
the rotation blocks of A mod p, runs the kernel on them, skips the primes
described below, and combines the residues T = A^{-1} V mod p into
W = A^{-1} V mod M, M the product of the primes used.  The combination is
Garner's mixed-radix CRT (Garner, IRE Trans. Electronic Computers EC-8,
1959), in float64: W = d_1 + p_1 (d_2 + p_2 (... d_j)), and for a new prime
p, ``_garner_digit`` takes W mod p by Horner over the earlier digits, then
the new digit d = (T - W mod p) (1/M mod p), both with ``_reduce``.
Exactness: every digit and residue has size at most p/2 + 1 for its own
prime, and every prime is at most P = PRIME_START.  A Horner value is a
reduced value times a residue in [0, p), plus a digit: at most
(P/2 + 1)(P - 1) + P/2 + 1.  T - W mod p has size at most p + 1, and times
1/M mod p in [0, p) at most (P + 1)(P - 1).  Both are below
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
trial division, exact for every candidate, testing only the candidates
p = 1 (mod r) that the rotation blocks need, once per process and class.

Rotation blocks.  Turning the k points by the pattern's smallest period d
(d = 1 without colours) maps the pairings fitting it to themselves and keeps
every loop count, so G[rho a, rho b] = G[a, b] for the induced permutation
rho of the pairings, and r = k/d turns make the identity
(pairings.rotation_orbits).  Work mod p = 1 (mod r), so r is invertible and
a primitive r-th root of unity w exists (``_root_of_unity``).  For an orbit
of s pairings with representative a, and j < r, let
f_ja = sum_{t<r} w^(jt) e_(rho^t a); it is 0 unless w^(js) = 1, and the
nonzero ones, s for each orbit, are a basis (n vectors with disjoint
supports across orbits, and independent within one since w^(js) = 1 picks
distinct characters of the orbit's cyclic group).  Write f^H for the
transpose with w -> 1/w.  Then
f_ia^H G f_jb = sum_{t<r} w^((j-i)t) sum_{u<r} w^(ju) G[a, rho^u b],
which vanishes for i != j (w is primitive) and, for i = j, is r G_j[a, b]
with G_j[a, b] = sum_{u<r} w^(ju) G[rep_a, rho^u rep_b], i.e.
G_j = F_j^H G F_j / r over the block-j vectors F_j.  So A x = v splits into
the r systems G_j z_j = b_j, b_j[a] = sum_t w^(-jt) v[rho^t rep_a], and
x = sum_j F_j z_j / r, that is x[rho^t rep_a] = (1/s) sum_j w^(jt) z_j[a].
``_block_solve`` gathers only the representatives' rows G[rep_a, rho^u rep_b],
transforms them by the r x r matrix of powers of w, pads each block with
identity rows to one size (their rows and columns of G_j are 0 mod p), and
solves all r blocks in one stacked kernel call.  An aperiodic colour
pattern has r = 1, one orbit per pairing, and its stack of one is A itself.
Blocks have at most about n/r rows: 14 systems of 34 rows instead of 429 at
k = 14, 16 of 95 instead of 1430 at k = 16.

Representative columns.  A table solves and keeps only the m columns of
the orbit representatives, V = [e_rep_a], and reads every other entry
through the rotation.  With P the permutation matrix of rho,
G[rho a, rho b] = G[a, b] says P A = A P, so P A^{-1} = A^{-1} P, and
column rho^t rep_a of A^{-1} is column rep_a with its rows turned:
A^{-1}[i, rho^t rep_a] = A^{-1}[rho^-t i, rep_a].  The certificate proves
A X = D V on the columns solved, and P^t times that is
A (P^t X) = D P^t V, the same identity on the turned columns; so every
entry read is proven.  Every entry of A^{-1} is an entry of the columns
solved, so the gcd that reduces X/D over them is the gcd over A^{-1}.

Why the blocks need no pivoting either: over C, with w = exp(2 pi i/r),
each G_j is F_j^H G F_j / r for nonzero vectors with disjoint supports and
G positive definite, so it is Hermitian positive definite and its leading
minors are nonzero elements of Z[w].  Reducing Z[w] mod p sends w to a
primitive r-th root mod p (a root of the r-th cyclotomic polynomial mod p,
p not dividing r), and each block mod p is the image of G_j; an identity
row leaves the leading minors those of the unpadded block.  A leading
minor's image vanishes only when p divides its nonzero norm, so as for A
itself (below) only finitely many primes are skipped, each when a leading
minor of any block vanishes, and a skipped prime never changes the result.
The certificate sees only T = A^{-1} V mod p, so it proves every result
however the blocks found T.  Exactness: w's powers are residues in [0, p),
and each transform is a matmul of inner dimension r over reduced residues,
so with r <= BLOCK every partial sum stays below BLOCK p**2 < 2**52.
_gram_solve refuses r > BLOCK, which no pairing list reaches: r <= k, and
loop matrices need k <= 32 (pairings._walk).

The kernel works in float64 BLAS, after FFLAS-FFPACK (Dumas, Giorgi and
Pernet, ACM TOMS 35, 2008), on a stack of systems at once.  Per prime it
solves A T = V mod p by blocked LU without pivoting, then back
substitution, on one copy of [A mod p | V] in blocks of BLOCK columns.
Forward elimination, block by block: copy the diagonal block out and invert
it in place by Gauss-Jordan in steps of S pivots, each step inverting its
S x S pivot block (pivot-free, pivot by pivot in column order, across
the stack in numpy) and carrying
that to the rest of the diagonal block by one rank-S update; normalize the
block row by the inverse, to [I | R], and subtract multiples of R from the
rows below only.
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

from .errors import InvalidArgumentError, SingularMatrixError

# First candidate prime: BLOCK*(p-1)**2 + p < 2**52 keeps float64 matmuls exact.
PRIME_START = (1 << 23) - 1
# Side of the diagonal blocks in the modular elimination.
BLOCK = 64
# Pivots per step when a diagonal block is inverted.
S = 4
# Primes drawn before giving up.
MAX_PRIMES = 162


# The primes prime_stream has found so far in each class n = 1 (mod m), keyed by m,
# in the order it yields them.
_primes: dict[int, list[int]] = {}


def prime_stream(r: int = 1):
    """Descending primes p = 1 (mod r) from PRIME_START: odd n with no odd divisor d <= isqrt(n).

    Only the n = 1 (mod m) are tested, m = lcm(2, r), which are the odd n in
    the class.  Each prime is found once per process, by trial division,
    and kept in _primes[m]; a later stream of the class reads it from there.
    """
    m = math.lcm(2, r)
    found = _primes.setdefault(m, [])
    for i in itertools.count():
        if i == len(found):
            start = found[-1] - m if found else PRIME_START - (PRIME_START - 1) % m
            p = next((n for n in range(start, 3, -m)
                      if all(n % d for d in range(3, math.isqrt(n) + 1, 2))), None)
            if p is None:
                return
            found.append(p)
        yield found[i]


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


def _inverse_small(P: np.ndarray, p: int) -> Optional[np.ndarray]:
    """P^{-1} mod p for a stack P (r x s x s) of small float64 residue blocks, or None.

    Pivot-free Gauss-Jordan, pivot by pivot in column order, each pivot
    across the whole stack in numpy, on a copy: row k becomes row / pivot
    with 1 / pivot at k, and every other row i loses P[i][k] times it, with
    -P[i][k] / pivot left at k.  Every entry is reduced after each pivot, so
    each product has two factors of size at most p/2 + 1 or below p.
    Returns float64 residues; None if any block of the stack meets a zero
    pivot.
    """
    P = P.copy()
    for k in range(P.shape[1]):
        try:
            inv = np.array([pow(int(x), -1, p) for x in P[:, k, k].tolist()], dtype=np.float64)
        except ValueError:  # a pivot is 0 mod p
            return None
        row = _reduce(P[:, k] * inv[:, None], p)
        row[:, k] = inv
        col = P[:, :, k].copy()
        col[:, k] = 0
        P[:, :, k] = 0
        P -= col[:, :, None] * row[:, None, :]
        _reduce(P, p)
        P[:, k] = row
    return P


def _solve_mod_prime(A: np.ndarray, V: np.ndarray, p: int) -> Optional[np.ndarray]:
    """A^{-1} V mod p for float64 residues mod p: A (n x n) and V (n x m), or stacks of them.

    A stack has a leading axis, A (r x n x n) and V (r x n x m), and each
    system is solved on its own; a 2-D call is a stack of one.  Blocked LU
    without pivoting, in place on one copy of [A | V], then back
    substitution (see the module docstring).  Forward, per diagonal block:
    invert it mod p in steps of S pivots, normalize its block row to
    R = inv [A12 | V1] mod p, and subtract multiples of R from the rows
    below.  Back, from the last block up: the V part of each block row is
    final, and its multiples are subtracted from the V parts above.  The
    result has entries of size at most p/2 + 1.  Returns None if a leading
    minor of A, or of any matrix of the stack, vanishes mod p.
    """
    flat = A.ndim == 2
    n = A.shape[-1]
    M = np.concatenate([A[None], V[None]] if flat else [A, V], axis=2)
    del A  # the caller's residue matrix: hold only [A | V] while eliminating
    for j0 in range(0, n, BLOCK):
        j1 = min(j0 + BLOCK, n)
        B = M[:, j0:j1, j0:j1].copy()
        b = j1 - j0
        for s0 in range(0, b, S):  # invert B in place, S pivots a step
            s1 = min(s0 + S, b)
            rows = _reduce(B[:, s0:s1], p)
            P = _inverse_small(rows[:, :, s0:s1], p)
            if P is None:
                return None
            col = _reduce(B[:, :, s0:s1].copy(), p)
            col[:, s0:s1] = 0  # rows s0:s1 become the normalized pivot rows; leave them
            # Rows s0:s1 of the inverse are P^-1 rows with P^-1 at the pivot
            # block, and its columns there are -col P^-1: clear those
            # columns, then one rank-S update.
            B[:, :, s0:s1] = 0
            rows[:] = _reduce(P @ rows, p)
            rows[:, :, s0:s1] = P
            B -= col @ rows
        R = M[:, j0:j1, j1:]
        R[:] = _reduce(_reduce(B, p) @ R, p)
        below = M[:, j1:, j1:]
        below -= M[:, j1:, j0:j1] @ R
        _reduce(below, p)
    X = M[:, :, n:]
    for j0 in reversed(range(BLOCK, n, BLOCK)):
        j1 = min(j0 + BLOCK, n)
        above = X[:, :j0]
        above -= M[:, :j0, j0:j1] @ X[:, j0:j1]
        _reduce(above, p)
    return (X[0] if flat else X).copy()  # not a view: M is freed on return


def _root_of_unity(r: int, p: int) -> int:
    """The first primitive r-th root of unity mod p among g**((p-1)/r), g = 2, 3, ...

    p = 1 (mod r), else InvalidArgumentError: there is no such root, and the search would not
    end.  w = g**((p-1)/r) has w**r = 1, and its order is r unless w**(r/q) = 1 for a prime q
    dividing r.
    """
    if (p - 1) % r:
        raise InvalidArgumentError(f"no primitive {r}-th root of unity mod {p}: "
                                   f"{p} is not 1 (mod {r})")
    factors = [q for q in range(2, r + 1) if r % q == 0 and all(q % d for d in range(2, q))]
    for g in itertools.count(2):
        w = pow(g, (p - 1) // r, p)
        if all(pow(w, r // q, p) != 1 for q in factors):
            return w


def _block_solve(G: np.ndarray, V: np.ndarray, orbits: np.ndarray, p: int
                 ) -> Optional[np.ndarray]:
    """G^{-1} V mod p, from one stacked kernel call on the rotation blocks of G.

    orbits is pairings.rotation_orbits (m x r) and p = 1 (mod r).  G and V
    are the float64 residues mod p of the rows of the orbit representatives:
    G[u, a, b] = G[rep_a, rho^u rep_b] (r x m x m) and V[u, a] = V[rho^u rep_a]
    (r x m x c).  Block j is G_j = sum_u w^(ju) G[u], and its right-hand side
    sum_u w^(-ju) V[u], w a primitive r-th root of unity mod p; an orbit of
    s positions has a row in block j only when w^(js) = 1, and elsewhere an
    identity row keeps the stack square.  The block solutions z_j give
    x[rho^t rep_a] = (1/s) sum_j w^(jt) z_j[a]; the module docstring proves
    that this is G^{-1} V mod p.  Returns an n x c array with entries of size
    at most p/2 + 1, or None if a leading minor of a block vanishes mod p.
    """
    r = orbits.shape[1]
    w = _root_of_unity(r, p)
    powers = [pow(w, e, p) for e in range(r)]
    F = np.array([[powers[j * t % r] for t in range(r)] for j in range(r)], dtype=np.float64)
    Fc = np.array([[powers[-j * t % r] for t in range(r)] for j in range(r)], dtype=np.float64)
    sizes = [len(set(row)) for row in orbits.tolist()]
    blank = [(j, a) for a, s in enumerate(sizes) for j in range(r) if j * s % r]
    G = _reduce((F @ G.reshape(r, -1)).reshape(G.shape), p)
    if blank:
        j, a = zip(*blank)
        G[j, a, a] = 1  # the rest of that row and column is 0 mod p already
    Z = _solve_mod_prime(G, _reduce((Fc @ V.reshape(r, -1)).reshape(V.shape), p), p)
    if Z is None:
        return None
    X = _reduce((F @ Z.reshape(r, -1)).reshape(Z.shape), p)
    X *= np.array([pow(s, -1, p) for s in sizes], dtype=np.float64)[:, None]
    T = np.empty((sum(sizes), X.shape[2]))
    T[orbits.T] = _reduce(X, p)
    return T


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
    failing D usually reads a few entries; the scan keeps each x, and X is
    the scan of the D that is accepted.
    """
    half = M // 2
    bound = math.isqrt(half)
    D = 1
    while True:
        lim = (M - D - 1) // scale  # scale |x| + D < M exactly when |x| <= lim
        failed, big, X = False, None, []
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
            X.append(x)
        if not failed:
            return D, X
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


def _gram_solve(loop_mat: np.ndarray, N: int, V: np.ndarray,
                orbits: np.ndarray) -> tuple[int, list[int]]:
    """(D, X) with G X = D V exactly for G = N**loop_mat, X a flat row-major list.

    orbits is pairings.rotation_orbits of loop_mat's pairings (m x r).  The
    loop counts and V are gathered once on the orbit representatives' rows,
    and each of at most MAX_PRIMES primes p = 1 (mod r) from prime_stream(r)
    solves the rotation blocks by _block_solve; with r = 1, one orbit per
    pairing, that is one stacked system, G itself.  A prime is skipped when
    a leading minor of a block vanishes mod p.  T = G^{-1} V mod p gives the
    next Garner digit d of W = G^{-1} V mod M.  The digits are kept, one
    float64 array per prime, for the next prime's Horner step; W is one flat
    row-major list of Python ints, updated to W + M d, a representative of
    each entry mod M that is not reduced into [0, M).  The loop returns once
    _certified accepts D and X = D W mod M, which the module docstring shows
    proves G X = D V.  Raises InvalidArgumentError when r > BLOCK, past the
    transforms' exactness bound, and SingularMatrixError when the primes run
    out.
    """
    r = orbits.shape[1]
    if r > BLOCK:
        raise InvalidArgumentError(f"{r} rotations exceed BLOCK = {BLOCK}")
    max_loops = int(loop_mat.max())
    scale = loop_mat.shape[0] * N ** max_loops  # n max|G|
    W, M, digits, primes = [0] * V.size, 1, [], []
    # The representatives' rows: loop_mat[rep_a, rho^u rep_b], V[rho^u rep_a].
    loop_mat = loop_mat[orbits[:, :1], orbits.T[:, None, :]]
    V = V[orbits.T]
    for p in itertools.islice(prime_stream(r), MAX_PRIMES):
        pows = np.array([pow(N, l, p) for l in range(max_loops + 1)], dtype=np.float64)
        T = _block_solve(pows[loop_mat], V, orbits, p)
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


def fraction_free_inverse(loop_mat: np.ndarray, N: int, orbits: np.ndarray
                          ) -> tuple[list[list[int]], int]:
    """The representative columns of G^{-1} for G = N**loop_mat, exactly: (X, D), reduced.

    orbits is pairings.rotation_orbits of loop_mat's pairings (m x r), and
    X[a][i] / D = G^{-1}[i, rep_a] for rep_a = orbits[a, 0].  The certified
    solve takes V the indicator columns of the m representatives and proves
    G X = D V on them.  Every other entry is a turn of these (module
    docstring): G^{-1}[rho^t i, rho^t rep_a] = G^{-1}[i, rep_a], where
    rho^t orbits[b, u] = orbits[b, u + t], indices mod r.  So dividing by
    gcd(D, X) leaves D the least common denominator of all of G^{-1}.
    """
    n, m = loop_mat.shape[0], orbits.shape[0]
    V = np.zeros((n, m))
    V[orbits[:, 0], np.arange(m)] = 1
    D, X = _gram_solve(loop_mat, N, V, orbits)
    g = math.gcd(D, *X)
    return [[x // g for x in X[a::m]] for a in range(m)], D // g


def bilinear_solve(loop_mat: np.ndarray, N: int, u_idx: Sequence[int],
                   v_idx: Sequence[int], orbits: np.ndarray) -> Fraction:
    """Exact u^T G^{-1} v for G = N**loop_mat, u/v 0-1 indicators.

    u_idx and v_idx index the rows of loop_mat, and orbits is
    pairings.rotation_orbits of its pairings, by whose blocks each prime
    solves.  The certified solve with V = v proves G X = D v, so the value
    is sum(X[r] for r in u_idx) / D.
    """
    v = np.zeros((loop_mat.shape[0], 1))
    v[list(v_idx), 0] = 1
    D, X = _gram_solve(loop_mat, N, v, orbits)
    return Fraction(sum(X[r] for r in u_idx), D)
