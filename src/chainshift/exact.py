"""Exact algebra: integer characteristic polynomials, Sturm-sequence root
isolation, algebraic reals with decidable ordering, and one fraction-free
integer solve.

Polynomials are tuples of coefficients in descending degree order. The
characteristic polynomial of an integer matrix is computed division-free, so
everything stays in exact integer arithmetic; ``Fraction``s appear only where
a caller reads an interval end or a rational value, floats only as final
approximations.

Polynomials are evaluated on integers only: the sign of p at n/d is the sign
of d^deg(p) p(n/d), one homogeneous Horner pass over integer coefficients.
Sturm chains, squarefree parts and gcds share one integer pseudo-division,
the primitive remainder sequence of Collins (JACM 14, 1967): lc(b)^e a mod b,
negated when lc(b)^e < 0 and divided by its content, is the rational
remainder times a positive constant. Each Sturm chain member is thus the
rational one scaled to coprime integer coefficients, with every sign
variation kept.

An ``AlgebraicReal`` holds a rational root (an integer, since the polynomial
is monic) as an ``int`` and compares it by integer comparison. An irrational
root is isolated by bisecting integer numerators a, b over 2^k, at the dyadic
midpoints of (lo, hi], with one Sturm sign-variation count per halving; once
it is isolated, refinement pays one evaluation of the squarefree part per
halving. Comparing with an ``int`` or a ``Fraction`` halves in the same
integers, so no comparison builds a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index

from .errors import InternalInvariantError


def charpoly(mat) -> tuple[int, ...]:
    """Monic characteristic polynomial det(xI - M) of an integer matrix.

    Berkowitz recursion: extend the polynomial of the leading principal
    submatrix one row/column at a time through a Toeplitz convolution. No
    divisions, so integer inputs give integer coefficients.
    """
    n = len(mat)
    if n == 0:
        return (1,)
    poly = [1, -mat[0][0]]
    for k in range(1, n):
        row = mat[k][:k]
        vec = [mat[r][k] for r in range(k)]
        items = [1, -mat[k][k], -sum(row[r] * vec[r] for r in range(k))]
        for _ in range(k - 1):
            vec = [sum(mat[r][c] * vec[c] for c in range(k)) for r in range(k)]
            items.append(-sum(row[r] * vec[r] for r in range(k)))
        new = []
        for i in range(k + 2):
            acc = 0
            for j, pj in enumerate(poly):
                t = i - j
                if 0 <= t < len(items):
                    acc += items[t] * pj
            new.append(acc)
        poly = new
    return tuple(poly)


def _hom_eval(p: tuple[int, ...], num: int, den: int) -> int:
    """den^deg(p) * p(num/den) for integer coefficients, in integers only.

    With den > 0 its sign is the sign of p(num/den).
    """
    acc, scale = p[0], 1
    for c in p[1:]:
        scale *= den
        acc = acc * num + c * scale
    return acc


def _primitive(p) -> tuple[int, ...]:
    """p without leading zeros, divided by the gcd of its coefficients."""
    i = next((i for i, c in enumerate(p) if c), len(p) - 1)
    p = tuple(p[i:])
    g = gcd(*p)
    return tuple(c // g for c in p) if g > 1 else p


def _deriv(p: tuple[int, ...]) -> tuple[int, ...]:
    n = len(p) - 1
    return tuple(c * (n - i) for i, c in enumerate(p[:-1])) or (0,)


def _prem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The remainder of a mod b times a positive rational, primitive.

    Pseudo-division: lc(b)^e a = q b + r with e = deg a - deg b + 1 leaves an
    integer r, which is negated when lc(b)^e < 0.
    """
    lc, tail = b[0], b[1:]
    e = len(a) - len(b) + 1
    r = list(a)
    for _ in range(e):
        f = r[0]
        r = [lc * x - f * y for x, y in zip(r[1:], tail)] + [lc * x for x in r[len(b) :]]
    if lc < 0 and e > 0 and e % 2:
        r = [-x for x in r]
    return _primitive(r or (0,))


def poly_gcd(a, b) -> tuple[int, ...]:
    """Gcd over the rationals, as a primitive integer polynomial with positive
    leading coefficient."""
    a, b = _primitive(a), _primitive(b)
    while b != (0,):
        a, b = b, _prem(a, b)
    return a if a[0] >= 0 else tuple(-c for c in a)


def squarefree_part(p) -> tuple[int, ...]:
    """p / gcd(p, p'), primitive, with the sign of p's leading coefficient."""
    p = _primitive(p)
    if len(p) <= 2:
        return p
    g = poly_gcd(p, _deriv(p))
    if len(g) == 1:
        return p
    # Exact division: g is primitive, so by Gauss's lemma the quotient is
    # integral and every step leaves a zero leading coefficient.
    r, q = list(p), []
    for i in range(len(p) - len(g) + 1):
        q.append(r[i] // g[0])
        for j, y in enumerate(g, i):
            r[j] -= q[-1] * y
    if any(r):
        raise InternalInvariantError(f"gcd {g} does not divide {p}")
    return tuple(q)


def sturm_chain(p) -> list[tuple[int, ...]]:
    """Sturm chain of p, each member a positive multiple of the rational one
    with coprime integer coefficients."""
    chain = [_primitive(p), _primitive(_deriv(p))]
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if r == (0,):
            break
        chain.append(tuple(-c for c in r))
    return chain


def _variations(chain: list[tuple[int, ...]], num: int, den: int) -> int:
    """Sign variations of the chain at num/den (den > 0), in integers only."""
    signs = []
    for p in chain:
        v = _hom_eval(p, num, den)
        if v != 0:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class AlgebraicReal:
    """The largest real root of a monic integer polynomial.

    Comparisons are exact. A rational root of a monic integer polynomial is
    an integer, so it is held as an ``int`` and compared with an ``int``, a
    ``Fraction`` or another rational root by integer comparison. An
    irrational root is held by its isolating interval (lo, hi] = (a/2^k,
    b/2^k] with integer numerators; a rational value inside it is passed by
    halving while the value lies in (lo, hi], and two irrational roots are
    equal iff a gcd of their squarefree parts has a root in the intersection
    of their intervals. Interval refinement only ever narrows, so instances
    behave as immutable values.
    """

    __slots__ = ("poly", "_sf", "_chain", "rational", "_a", "_b", "_k", "_hi_positive")

    def __init__(self, poly, search_range: tuple[int, int] | None = None):
        self.poly = tuple(map(int, poly))
        self._chain = sturm_chain(squarefree_part(self.poly))
        self._sf = self._chain[0]
        self._hi_positive = None
        if search_range is None:
            bound = 1 + max(abs(c) for c in self.poly)
            search_range = (-bound, bound)
        a, b = search_range[0] - 1, search_range[1] + 1
        # Sign variations V at the endpoints, carried from step to step: the
        # roots in (lo, hi] number V(lo) - V(hi), so a halving costs one V(mid).
        v_lo, v_hi = _variations(self._chain, a, 1), _variations(self._chain, b, 1)
        if v_lo - v_hi < 1:
            raise InternalInvariantError(f"no real root of {self.poly} in ({a}, {b}]")
        # Exact rational roots of a monic integer polynomial are integers;
        # scan the search range for the largest one.
        self.rational: int | None = None
        best = None
        for r in range(b, a, -1):
            if _hom_eval(self.poly, r, 1) == 0:
                best = r
                break
        if best is not None:
            v_best = _variations(self._chain, best, 1)
            if v_best == v_hi:
                self.rational = self._a = self._b = best
                self._k = 0
                return
            a, v_lo = best, v_best
        # Largest root is irrational: bisect (a/2^k, b/2^k] down to an
        # isolating interval. Dyadic midpoints can never hit it, so Sturm
        # counts are safe.
        k = 0
        while v_lo - v_hi > 1:
            k += 1
            mid = a + b  # (a + b) / 2^k; a and b double to stay over 2^k
            v_mid = _variations(self._chain, mid, 1 << k)
            if v_mid > v_hi:
                a, b, v_lo = mid, 2 * b, v_mid
            else:
                a, b, v_hi = 2 * a, mid, v_mid
        self._a, self._b, self._k = a, b, k

    @classmethod
    def integer_root(cls, poly, r: int) -> "AlgebraicReal":
        """The integer r as the largest real root of ``poly``, without Sturm chains.

        The caller vouches that no real root exceeds r, as for the Perron root
        of a nonnegative matrix whose rows all sum to r (Perron-Frobenius:
        every eigenvalue lies within the row-sum range). One integer
        evaluation checks that r is a root; the value compares exactly like
        one built by the constructor.
        """
        self = cls.__new__(cls)
        self.poly = tuple(map(int, poly))
        if _hom_eval(self.poly, r, 1):
            raise InternalInvariantError(f"{r} is not a root of {self.poly}")
        self._sf = self._chain = self._hi_positive = None  # only irrational values consult them
        self.rational = self._a = self._b = r
        self._k = 0
        return self

    @property
    def lo(self) -> int | Fraction:
        """Lower end of the isolating interval; the value itself if rational."""
        return self.rational if self.rational is not None else Fraction(self._a, 1 << self._k)

    @property
    def hi(self) -> int | Fraction:
        """Upper end of the isolating interval; the value itself if rational."""
        return self.rational if self.rational is not None else Fraction(self._b, 1 << self._k)

    def _halve(self) -> None:
        """Keep the half of the isolating interval (lo, hi] that holds the root.

        (lo, hi] holds exactly one root of the squarefree part sf, simple and
        irrational, so no dyadic midpoint is a root, and the root lies in
        (mid, hi] iff sf(mid) and sf(hi) differ in sign: the decision of the
        Sturm count, in one evaluation. hi only ever moves to a midpoint of
        its own sign, so sf(hi) is evaluated once per value.
        """
        if self._hi_positive is None:
            self._hi_positive = _hom_eval(self._sf, self._b, 1 << self._k) > 0
        self._k += 1
        mid = self._a + self._b
        if (_hom_eval(self._sf, mid, 1 << self._k) > 0) != self._hi_positive:
            self._a, self._b = mid, 2 * self._b
        else:
            self._a, self._b = 2 * self._a, mid

    def refine(self, width: Fraction) -> None:
        """Halve the isolating interval (lo, hi] until it is at most ``width`` wide."""
        if self.rational is not None:
            return
        wn, wd = width.numerator, width.denominator
        while (self._b - self._a) * wd > wn << self._k:
            self._halve()

    def __float__(self) -> float:
        if self.rational is not None:
            return float(self.rational)
        self.refine(Fraction(1, 2**48))
        return float(Fraction(self._a + self._b, 1 << (self._k + 1)))

    def as_integer(self) -> int | None:
        return self.rational

    def compare(self, other) -> int:
        if isinstance(other, AlgebraicReal):
            if other.rational is None:
                if self.rational is None:
                    return self._compare_irrational(other)
                return -other.compare(self.rational)
            other = other.rational
        if isinstance(other, int):
            num, den = other, 1
        elif isinstance(other, Fraction):
            num, den = other.numerator, other.denominator
        else:
            return NotImplemented
        if self.rational is not None:
            diff = self.rational * den - num
            return (diff > 0) - (diff < 0)
        # num/den in (a/2^k, b/2^k] iff a den < num 2^k <= b den
        if self._a * den < num << self._k <= self._b * den and _hom_eval(self._sf, num, den) == 0:
            return 0
        while self._a * den < num << self._k <= self._b * den:
            self._halve()
        return 1 if num << self._k <= self._a * den else -1

    def _compare_irrational(self, other: "AlgebraicReal") -> int:
        g = poly_gcd(self._sf, other._sf)
        if len(g) > 1:
            # the intersection of the two intervals, over the finer 2^k
            k = max(self._k, other._k)
            s, t = k - self._k, k - other._k
            lo = max(self._a << s, other._a << t)
            hi = min(self._b << s, other._b << t)
            if lo < hi:
                chain = sturm_chain(g)
                if _variations(chain, lo, 1 << k) - _variations(chain, hi, 1 << k) >= 1:
                    return 0
        # x / 2^j < y / 2^l iff x 2^l < y 2^j: halve both while they overlap
        while (self._a << other._k < other._b << self._k
               and other._a << self._k < self._b << other._k):
            self._halve()
            other._halve()
        return 1 if other._b << self._k <= self._a << other._k else -1

    def __eq__(self, other) -> bool:
        r = self.compare(other)
        return False if r is NotImplemented else r == 0

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other) -> bool:
        return self.compare(other) >= 0

    def __hash__(self):
        raise TypeError("AlgebraicReal is not hashable")

    def __repr__(self) -> str:
        return f"AlgebraicReal({float(self):.12g}, poly={self.poly})"


def solve_linear(A, b) -> tuple[list[int], int]:
    """Solve a square nonsingular integer system A x = b without fractions.

    Returns ``(y, det)`` with ``A y = det * b`` and ``det = |det A| > 0``, so
    x = y / det. Fraction-free (Bareiss) elimination brings ``[A | b]`` to
    upper triangular form: after each pivot every entry below it is an
    integer minor of the row-permuted input, so each division by the previous
    pivot is exact (Bareiss, Math. Comp. 22, 1968). A column without a
    nonzero pivot means A is singular (``ZeroDivisionError``). Elimination and
    back-substitution run on integers only; a non-integer entry of A or b
    raises ``TypeError``.
    """
    n = len(A)
    if n == 0:
        return [], 1
    M = [[index(a) for a in row] + [index(v)] for row, v in zip(A, b)]
    prev = 1
    for col in range(n):
        p = next((i for i in range(col, n) if M[i][col]), None)
        if p is None:
            raise ZeroDivisionError("singular system")
        M[col], M[p] = M[p], M[col]
        top = M[col][col:]
        piv = top[0]
        for row in M[col + 1 :]:
            f = row[col]
            row[col:] = [(piv * u - f * v) // prev for u, v in zip(row[col:], top)]
        prev = piv
    # By Cramer's rule det * x is integral; the last pivot is +-det.
    det = prev
    y = [0] * n
    for k in range(n - 1, -1, -1):
        row = M[k]
        acc = det * row[n] - sum(row[j] * y[j] for j in range(k + 1, n))
        y[k] = acc // row[k]
    if det < 0:
        return [-v for v in y], -det
    return y, det
