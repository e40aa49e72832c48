"""Noncommutative *-polynomials over generator letters, states and L^p norms.

Coefficients are Gaussian rationals (a + b*i with exact rational a, b); each
part stays a Python int while it is integral and becomes a Fraction only when
it is not, so expanding an integer polynomial does no Fraction arithmetic.  The
sqrt(N) normalization of generators is carried symbolically as an integer
power of sqrt(N) attached to each word, so every state evaluation is an
exact rational times an explicit power of N; floating point enters only when
a root is taken at the reporting boundary (lp_norm).

L^p norms take one of two routes at finite N.  A linear form
a = Σ C_ij u_ij of one colour goes through linear_state, which sums the
Weingarten formula over the cycle types λ of pairs of pairings before
expanding anything (its docstring gives the derivation):

    h((a* a)^m) = N^(m h0) Σ_λ S_λ(2m, N) Π_{L in λ} tr((C* C)^L).

The sums S_λ come from one Weingarten table, its representative columns
only, at every k = 2m up to kmax.  Every other polynomial and the free
limit go word by word without expanding (a* a)^m: with b = a* a,
state_eval takes the pairs of words of b^floor(m/2) and b^ceil(m/2), one
moment each.

Text format accepted by parse_poly: terms separated by + / -, monomials as
products of letters x[i,j], v[i,j], v*[i,j] joined by '*', optional '^n'
powers, coefficients as rational literals p/q with an optional 'i' suffix.
Example: ``x[1,1]*x[1,2] - 1/2*x[2,2]``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Union

import mpmath

from . import freelimit, qnum, weingarten
from .errors import InvalidArgumentError, InvalidIndexError, ModelMismatchError, PolyParseError
from .weingarten import Letter

TermKey = tuple[tuple[Letter, ...], int]  # (word, power of sqrt(N))


def _part(x) -> Union[int, Fraction]:
    """x as an int when it is integral, else as a Fraction."""
    if x.__class__ is int:
        return x
    if x.__class__ is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class GaussianRational:
    """Exact complex rational a + b*i; immutable by convention.

    Each part is an int while it is integral and a Fraction only when it is
    not, so the integral coefficients of an expansion cost C-level int
    arithmetic.  Equality, hashing and str() depend on the values alone.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _part(re)
        self.im = _part(im)

    @classmethod
    def of(cls, value) -> "GaussianRational":
        if value.__class__ is GaussianRational:
            return value
        return cls(value)

    def __add__(self, other):
        other = GaussianRational.of(other)
        if not (self.im or other.im):  # real-only fast path
            return GaussianRational(self.re + other.re)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.of(other))

    def __mul__(self, other):
        other = GaussianRational.of(other)
        if not (self.im or other.im):  # real-only fast path
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        return f"{self.re}+{self.im}i"


ZERO = GaussianRational()
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


class NCPolynomial:
    """Formal *-polynomial; immutable by convention.

    The constructor takes ownership of the term dict and drops its zero terms in place.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model: str, terms: Optional[dict[TermKey, GaussianRational]] = None):
        if model not in ("o+", "u+"):
            raise ValueError(f"unknown model {model!r}")
        self.model = model
        terms = {} if terms is None else terms
        for key in [key for key, c in terms.items() if not c]:
            del terms[key]
        self.terms: dict[TermKey, GaussianRational] = terms

    # -- constructors -----------------------------------------------------
    @classmethod
    def constant(cls, value, model: str = "o+") -> "NCPolynomial":
        return cls(model, {((), 0): GaussianRational.of(value)})

    @classmethod
    def generator(cls, i: int, j: int, model: str = "o+", star: bool = False) -> "NCPolynomial":
        if i < 1 or j < 1:
            raise InvalidIndexError(f"indices must be >= 1: ({i},{j})")
        if star and model == "o+":
            star = False  # orthogonal generators are self-adjoint
        letter: Letter = (i, j, "*" if star else "1")
        return cls(model, {((letter,), 0): ONE})

    # -- ring structure ---------------------------------------------------
    def _check(self, other: "NCPolynomial"):
        if self.model != other.model:
            raise ModelMismatchError(f"cannot combine {self.model} with {other.model}")

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ZERO) + c
        return NCPolynomial(self.model, out)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + other.scale(GaussianRational(-1))

    def scale(self, value) -> "NCPolynomial":
        c0 = GaussianRational.of(value)
        return NCPolynomial(self.model, {k: c0 * c for k, c in self.terms.items()})

    def __mul__(self, other: Union["NCPolynomial", int, Fraction, GaussianRational]):
        if not isinstance(other, NCPolynomial):
            return self.scale(other)
        self._check(other)
        out: dict[TermKey, GaussianRational] = {}
        for (w1, h1), c1 in self.terms.items():
            for (w2, h2), c2 in other.terms.items():
                key = (w1 + w2, h1 + h2)
                out[key] = out.get(key, ZERO) + c1 * c2
        return NCPolynomial(self.model, out)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "NCPolynomial":
        """Square and multiply: about 2 log2(m) products instead of m."""
        if m < 0:
            raise ValueError("negative powers are not defined")
        out = NCPolynomial.constant(1, self.model)
        base = self
        while m:
            if m & 1:
                out = out * base
            m >>= 1
            if m:
                base = base * base
        return out

    def adjoint(self) -> "NCPolynomial":
        """Reverse words, flip stars (unitary model), conjugate coefficients."""
        out: dict[TermKey, GaussianRational] = {}
        for (word, h), c in self.terms.items():
            if self.model == "u+":
                new = tuple((i, j, "*" if eps == "1" else "1") for i, j, eps in reversed(word))
            else:
                new = tuple(reversed(word))
            out[(new, h)] = out.get((new, h), ZERO) + c.conjugate()
        return NCPolynomial(self.model, out)

    @property
    def degree(self) -> int:
        """Max word length; 0 for the zero polynomial by convention."""
        return max((len(w) for (w, _) in self.terms), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCPolynomial)
            and self.model == other.model
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"NCPolynomial({self.model!r}, {len(self.terms)} terms, deg {self.degree})"


def scaled_generators(P: NCPolynomial, N: int) -> NCPolynomial:
    """Substitute X_ij -> sqrt(N) * u_ij, dropping letters beyond dimension N.

    The sqrt(N) factors are tracked symbolically per word; any term using an
    index above N becomes 0.
    """
    out: dict[TermKey, GaussianRational] = {}
    for (word, h), c in P.terms.items():
        if any(i > N or j > N for i, j, _ in word):
            continue
        key = (word, h + len(word))
        out[key] = out.get(key, ZERO) + c
    return NCPolynomial(P.model, out)


def state_eval(a: NCPolynomial, N: Optional[int] = None,
               kmax: int = weingarten.DEFAULT_KMAX,
               right: Optional[NCPolynomial] = None) -> GaussianRational:
    """Haar state (finite N) or free limit state (N=None) of a * right, extended linearly.

    right=None is the unit, so state_eval(a, N) is the state of a.  The
    product is never expanded: the sum runs over the pairs of terms c_u u of
    a and c_v v of right, one moment call on the word u v each, and c_u c_v
    is formed only when that moment is nonzero.  The letters of both factors
    are checked once (finite N), and a sqrt(N) power in either factor refuses
    the limit state before any moment is taken.

    By linearity this is the state of the expanded product.  When the terms
    of a share one word length and one sqrt(N) power, distinct pairs give
    distinct terms, so each term of the product gets one moment call;
    otherwise a term may come from several pairs and is evaluated once per
    pair.  A word whose coefficients cancel in the product is still
    evaluated: past kmax it is refused (possibly naming another required_k
    than the expansion would), and an odd sqrt(N) power on a nonzero moment
    raises.
    """
    right = NCPolynomial.constant(1, a.model) if right is None else right
    a._check(right)
    if not (a.terms and right.terms):
        return ZERO
    if N is None:
        if any(h for poly in (a, right) for _, h in poly.terms):
            raise ValueError("sqrt(N)-scaled terms cannot be evaluated in the limit state")
        if a.model == "o+":  # a letter (i, j, "1") is its own label
            moment = freelimit.semicircular_moment
        else:
            def moment(word):
                return freelimit.circular_moment([((i, j), eps) for i, j, eps in word])
    else:
        letters = dict.fromkeys(x for poly in (a, right) for word, _ in poly.terms for x in word)
        weingarten.check_letters(letters, a.model)
        weingarten.check_dimension(letters, N)
        unitary = a.model == "u+"

        def moment(word):
            return weingarten._moment([i for i, _, _ in word], [j for _, j, _ in word],
                                      tuple(eps for _, _, eps in word) if unitary else None,
                                      N, kmax)
    total = ZERO
    right_terms = list(right.terms.items())
    for (w1, h1), c1 in a.terms.items():
        for (w2, h2), c2 in right_terms:
            mom = moment(w1 + w2)
            if not mom:
                continue
            h = h1 + h2
            if h % 2:
                raise ValueError("odd sqrt(N) power with nonzero moment is irrational")
            if h:
                mom = mom * Fraction(N) ** (h // 2)
            total = total + c1 * c2 * mom
    return total


def _matmul(A: list, B: list) -> list:
    """The product of two matrices given as lists of rows."""
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*B)] for row in A]


def linear_state(a: NCPolynomial, m: int, N: int,
                 kmax: int = weingarten.DEFAULT_KMAX) -> Optional[GaussianRational]:
    """h((a* a)^m) at dimension N for a linear form a of one colour; None for any other a.

    The route covers a = sqrt(N)^h0 Σ C_ij u_ij: a nonzero polynomial whose
    terms are single letters with one star flag and one sqrt(N) power h0,
    with k = 2m at most kmax.  Then

        h((a* a)^m) = N^(m h0) Σ_λ S_λ(k, N) Π_{L in λ} τ_L,  τ_L = tr((C* C)^L),

    with S_λ from weingarten.cycle_type_sums.  Derivation: the Weingarten
    formula writes h((a* a)^m) as Σ_{p,q} Wg(p, q) times the sum, over
    indices constant on the pairs of p (rows) and of q (columns), of the
    product of conj(C) at the a* positions and C at the a positions.  A
    pair of either pairing joins points an odd distance apart, so one a*
    to one a, and each cycle of p ∪ q alternates a* and a.  Around a cycle
    of 2L points, summing the shared row of each p pair gives (C* C) between
    consecutive shared columns, and summing those columns gives τ_L.  So
    the (p, q) term depends only on the cycle half-lengths of p ∪ q, and on
    C only through C* C.  With one-letter forms, U_N^+ of either star flag
    gives the same alternating pattern, hence the same uncoloured sums.

    Everything else returns None, and lp_norm then goes word by word:
    products of letters, constants, mixed star flags or powers, and k past
    kmax (where the per-word route refuses).  The letters are checked as
    state_eval checks them.
    """
    k = 2 * m
    if not a.terms or k > kmax:
        return None
    h0 = next(iter(a.terms))[1]
    letters = [word[0] for word, h in a.terms if len(word) == 1 and h == h0]
    if (len(letters) < len(a.terms) or len({eps for _, _, eps in letters}) > 1
            or letters[0][2] not in (("1", "*") if a.model == "u+" else ("1",))):
        return None
    weingarten.check_letters(letters, a.model)
    weingarten.check_dimension(letters, N)
    coeffs = {word[0][:2]: c for (word, _), c in a.terms.items()}
    rows, cols = sorted({i for i, _ in coeffs}), sorted({j for _, j in coeffs})
    C = [[coeffs.get((i, j), ZERO) for j in cols] for i in rows]
    powers = [_matmul([[x.conjugate() for x in col] for col in zip(*C)], C)]  # (C* C)^L
    while len(powers) < m:
        powers.append(_matmul(powers[-1], powers[0]))
    tau = [ZERO] + [sum((P[s][s] for s in range(len(cols))), ZERO) for P in powers]
    total = ZERO
    for lam, S in weingarten.cycle_type_sums(k, N, kmax):
        term = GaussianRational(S)
        for L in lam:
            term = term * tau[L]
        total = total + term
    return total * N ** (m * h0)


def lp_norm(a: NCPolynomial, p: int, N: Optional[int] = None,
            kmax: int = weingarten.DEFAULT_KMAX) -> mpmath.mpf:
    """||a||_p = state((a* a)^(p/2))^(1/p) for even p >= 2.

    The inner moment is exact; only the final root is floating, computed at
    the working precision qnum.PRECISION_BITS.  At finite N a linear form
    takes linear_state, with no word expansion.  Every other case makes one
    state_eval call on L = b^floor(m/2) with right factor R = b^ceil(m/2),
    b = a* a, so (a* a)^m = L R is never expanded: at p = 10 a three-letter
    form gives 81 + 729 terms in L and R, not 59,049 words.
    """
    if p < 2 or p % 2:
        raise InvalidArgumentError(f"p must be an even integer >= 2, got {p}")
    m = p // 2
    value = None if N is None else linear_state(a, m, N, kmax)
    if value is None:
        b = a.adjoint() * a
        value = state_eval(b ** (m // 2), N, kmax=kmax, right=b ** (m - m // 2))
    if not value.is_real or value.re < 0:
        raise ValueError(f"(a* a)^m moment must be real nonnegative, got {value}")
    with mpmath.workprec(qnum.PRECISION_BITS):
        x = mpmath.mpf(value.re.numerator) / value.re.denominator
        return mpmath.root(x, 2 * m) if x else mpmath.mpf(0)


# -- text format ---------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<letter>[xv]\*?\[\d+,\d+\])|(?P<num>\d+(?:/\d+)?)|(?P<imag>i)"
    r"|(?P<op>[+\-*^]))"
)
_LETTER = re.compile(r"(?P<kind>[xv])(?P<star>\*?)\[(?P<i>\d+),(?P<j>\d+)\]")


def _int(digits: str) -> int:
    """int(digits), with PolyParseError for a literal int() rejects as too long."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError(f"integer literal of {len(digits)} digits is too long") from None


def parse_poly(text: str) -> NCPolynomial:
    """Parse the CLI text format into a polynomial.

    x-letters imply the orthogonal model, v-letters the unitary one; mixing
    both kinds is an error, and letter-free input is orthogonal.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise PolyParseError(f"unexpected input at {text[pos:]!r}")
            break
        pos = m.end()
        tokens.append(m)

    kinds = {(_LETTER.match(t.group("letter")).group("kind"))
             for t in tokens if t.group("letter")}
    if len(kinds) > 1:
        raise PolyParseError("cannot mix x- and v-letters in one polynomial")
    inferred = "u+" if kinds == {"v"} else "o+"

    poly = NCPolynomial(inferred)
    idx = 0

    def factor():
        nonlocal idx
        if idx >= len(tokens):
            raise PolyParseError("unexpected end of input")
        t = tokens[idx]
        if t.group("letter"):
            lm = _LETTER.match(t.group("letter"))
            base = NCPolynomial.generator(
                _int(lm.group("i")), _int(lm.group("j")), inferred, star=bool(lm.group("star"))
            )
            idx += 1
        elif t.group("num"):
            a, _, b = t.group("num").partition("/")
            a, b = _int(a), _int(b or "1")
            if not b:
                raise PolyParseError(f"zero denominator in {t.group('num')!r}")
            base = NCPolynomial.constant(Fraction(a, b), inferred)
            idx += 1
            if idx < len(tokens) and tokens[idx].group("imag"):
                base = base.scale(I)
                idx += 1
        elif t.group("imag"):
            base = NCPolynomial.constant(I, inferred)
            idx += 1
        else:
            raise PolyParseError(f"expected a factor near token {idx}")
        if idx < len(tokens) and tokens[idx].group("op") == "^":
            idx += 1
            if idx >= len(tokens) or not tokens[idx].group("num") or "/" in tokens[idx].group("num"):
                raise PolyParseError("'^' must be followed by an integer")
            base = base ** _int(tokens[idx].group("num"))
            idx += 1
        return base

    def term():
        nonlocal idx
        out = factor()
        while idx < len(tokens) and tokens[idx].group("op") == "*":
            idx += 1
            out = out * factor()
        return out

    if not tokens:
        raise PolyParseError("empty polynomial text")
    while idx < len(tokens):
        sign = 1
        while idx < len(tokens) and tokens[idx].group("op") in ("+", "-"):
            if tokens[idx].group("op") == "-":
                sign = -sign
            idx += 1
        if idx >= len(tokens):
            raise PolyParseError("dangling sign at end of input")
        poly = poly + term().scale(sign)
        if idx < len(tokens) and tokens[idx].group("op") not in ("+", "-"):
            raise PolyParseError(f"expected '+', '-' or the end near token {idx}")
    return poly
