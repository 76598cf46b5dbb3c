"""Exact algebra: integer characteristic polynomials, Sturm-sequence root
isolation, algebraic reals with decidable ordering, and fraction-free
integer linear solves.

Polynomials are tuples of coefficients in descending degree order. The
characteristic polynomial of an integer matrix is computed division-free, so
everything stays in exact integer and Fraction arithmetic; floats appear only
as final approximations.

Polynomials are evaluated on integers only: the sign of p at n/d is the sign
of d^deg(p) p(n/d), one homogeneous Horner pass over integer coefficients.
Sturm chains are built in Fraction arithmetic and each member is then scaled
by a positive constant to coprime integer coefficients, which keeps every
sign variation. Once a root is isolated, refinement keeps both endpoints as
integer numerators over 2^k and pays one evaluation of the squarefree part
per halving.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index

Poly = tuple[Fraction, ...]


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


def poly_deriv(p) -> Poly:
    n = len(p) - 1
    return tuple(Fraction(c) * (n - i) for i, c in enumerate(p[:-1]))


def _strip(p) -> Poly:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return tuple(Fraction(c) for c in p[i:])


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    rem = list(_strip(num))
    den = _strip(den)
    if den == (Fraction(0),):
        raise ZeroDivisionError("polynomial division by zero")
    dn, dd = len(rem) - 1, len(den) - 1
    if dn < dd:
        return (Fraction(0),), tuple(rem)
    q = [Fraction(0)] * (dn - dd + 1)
    for i in range(dn - dd + 1):
        coef = rem[i] / den[0]
        q[i] = coef
        if coef != 0:
            for j in range(dd + 1):
                rem[i + j] -= coef * den[j]
    tail = tuple(rem[dn - dd + 1 :])
    return _strip(tuple(q)), _strip(tail if tail else (Fraction(0),))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals."""
    a, b = _strip(a), _strip(b)
    while b != (Fraction(0),):
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a[0] != 0:
        a = tuple(c / a[0] for c in a)
    return a


def squarefree_part(p) -> Poly:
    p = _strip(p)
    if len(p) <= 2:
        return p
    g = poly_gcd(p, poly_deriv(p))
    if len(g) == 1:
        return p
    q, r = poly_divmod(p, g)
    if r != (Fraction(0),):
        raise RuntimeError(f"gcd {g} does not divide {p}")
    return q


def _integer_multiple(p: Poly) -> tuple[int, ...]:
    """p times a positive rational, with coprime integer coefficients."""
    den = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def sturm_chain(p) -> list[tuple[int, ...]]:
    """Sturm chain of p, each member scaled to coprime integer coefficients."""
    chain = [_strip(p), _strip(poly_deriv(p))]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        if r == (Fraction(0),):
            break
        chain.append(tuple(-c for c in r))
    return [_integer_multiple(q) for q in chain]


def _variations(chain: list[tuple[int, ...]], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _hom_eval(p, x.numerator, x.denominator)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: list[tuple[int, ...]], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of the squarefree polynomial in (lo, hi]."""
    return _variations(chain, lo) - _variations(chain, hi)


class AlgebraicReal:
    """The largest real root of a monic integer polynomial.

    Comparisons are exact: rational values are recognized outright (for a
    monic integer polynomial they are integers), and two irrational roots are
    equal iff a gcd of their squarefree parts has a root in the intersection
    of the isolating intervals. Interval refinement only ever narrows, so
    instances behave as immutable values.
    """

    __slots__ = ("poly", "_sf", "_chain", "lo", "hi", "rational")

    def __init__(self, poly, search_range: tuple[int, int] | None = None):
        self.poly = tuple(int(c) for c in poly)
        self._chain = sturm_chain(squarefree_part(self.poly))
        self._sf = self._chain[0]
        if search_range is None:
            bound = 1 + max(abs(c) for c in self.poly)
            search_range = (-bound, bound)
        lo = Fraction(search_range[0] - 1)
        hi = Fraction(search_range[1] + 1)
        # Sign variations V at the endpoints, carried from step to step: the
        # roots in (lo, hi] number V(lo) - V(hi), so a halving costs one V(mid).
        v_lo, v_hi = _variations(self._chain, lo), _variations(self._chain, hi)
        if v_lo - v_hi < 1:
            raise RuntimeError(f"no real root of {self.poly} in ({lo}, {hi}]")
        # Exact rational roots of a monic integer polynomial are integers;
        # scan the search range for the largest one.
        self.rational: Fraction | None = None
        best = None
        for r in range(search_range[1] + 1, search_range[0] - 1, -1):
            if _hom_eval(self.poly, r, 1) == 0:
                best = r
                break
        if best is not None:
            v_best = _variations(self._chain, Fraction(best))
            if v_best == v_hi:
                self.rational = self.lo = self.hi = Fraction(best)
                return
            lo, v_lo = Fraction(best), v_best
        # Largest root is irrational: bisect down to an isolating interval.
        # Dyadic midpoints can never hit it, so Sturm counts are safe.
        while v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = _variations(self._chain, mid)
            if v_mid > v_hi:
                lo, v_lo = mid, v_mid
            else:
                hi, v_hi = mid, v_mid
        self.lo, self.hi = lo, hi

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
        self.poly = tuple(int(c) for c in poly)
        if _hom_eval(self.poly, r, 1):
            raise ValueError(f"{r} is not a root of {self.poly}")
        self._sf = self._chain = None  # only irrational values consult them
        self.rational = self.lo = self.hi = Fraction(r)
        return self

    def refine(self, width: Fraction) -> None:
        """Halve the isolating interval (lo, hi] until it is at most ``width`` wide.

        (lo, hi] holds exactly one root of the squarefree part sf, simple and
        irrational, so no dyadic midpoint is a root, and the root lies in
        (mid, hi] iff sf(mid) and sf(hi) differ in sign: the decision of the
        Sturm count, in one evaluation. hi only ever moves to a midpoint of
        its own sign, so sf(hi) is evaluated once. The endpoints are kept as
        integer numerators a, b over 2^k while halving.
        """
        if self.rational is not None or self.hi - self.lo <= width:
            return
        den = max(self.lo.denominator, self.hi.denominator)  # both powers of two
        k = den.bit_length() - 1
        a = self.lo.numerator * (den // self.lo.denominator)
        b = self.hi.numerator * (den // self.hi.denominator)
        sf = self._sf
        hi_positive = _hom_eval(sf, b, den) > 0
        wn, wd = width.numerator, width.denominator
        while (b - a) * wd > wn << k:
            k += 1
            mid = a + b  # (a + b) / 2^k; a and b double to stay over 2^k
            if (_hom_eval(sf, mid, 1 << k) > 0) != hi_positive:
                a, b = mid, 2 * b
            else:
                a, b = 2 * a, mid
        self.lo, self.hi = Fraction(a, 1 << k), Fraction(b, 1 << k)

    def to_fraction(self, width: Fraction = Fraction(1, 2**48)) -> Fraction:
        if self.rational is not None:
            return self.rational
        self.refine(width)
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.to_fraction())

    def as_integer(self) -> int | None:
        if self.rational is not None and self.rational.denominator == 1:
            return int(self.rational)
        return None

    def compare(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if self.rational is not None:
                return (self.rational > q) - (self.rational < q)
            if self.lo < q <= self.hi and _hom_eval(self._sf, q.numerator, q.denominator) == 0:
                return 0
            while self.lo < q <= self.hi:
                self.refine((self.hi - self.lo) / 2)
            return 1 if q <= self.lo else -1
        if not isinstance(other, AlgebraicReal):
            return NotImplemented
        if self.rational is not None and other.rational is not None:
            return (self.rational > other.rational) - (self.rational < other.rational)
        if self.rational is not None:
            return -other.compare(self.rational)
        if other.rational is not None:
            return self.compare(other.rational)
        g = poly_gcd(self._sf, other._sf)
        if len(g) > 1:
            lo = max(self.lo, other.lo)
            hi = min(self.hi, other.hi)
            if lo < hi and count_roots(sturm_chain(g), lo, hi) >= 1:
                return 0
        while self.lo < other.hi and other.lo < self.hi:
            self.refine((self.hi - self.lo) / 2)
            other.refine((other.hi - other.lo) / 2)
        return 1 if other.hi <= self.lo else -1

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


def _bareiss(M: list[list[int]], cols: int) -> list[int]:
    """Fraction-free (Bareiss) forward elimination of an integer matrix, in place.

    Brings the first ``cols`` columns to row echelon form; further columns (a
    right-hand side) are carried along. After each pivot every entry below it
    is an integer minor of the row-permuted input, so each division by the
    previous pivot is exact (Bareiss, Math. Comp. 22, 1968). Returns the pivot
    column of each nonzero row, in row order.
    """
    n = len(M)
    pivots: list[int] = []
    prev = 1
    for col in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, n) if M[i][col]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        top = M[r][col:]
        piv = top[0]
        for i in range(r + 1, n):
            row = M[i]
            f = row[col]
            row[col:] = [(piv * a - f * b) // prev for a, b in zip(row[col:], top)]
        pivots.append(col)
        prev = piv
    return pivots


def solve_linear(A, b) -> list[Fraction]:
    """Solve a square nonsingular integer system with a rational right-hand side.

    The right-hand side is scaled to integers by its common denominator, so
    elimination and back-substitution run on integers only. A non-integer
    matrix entry raises ``TypeError``.
    """
    n = len(A)
    if n == 0:
        return []
    rhs = [Fraction(v) for v in b]
    scale = lcm(*(v.denominator for v in rhs))
    M = [
        [index(a) for a in row] + [v.numerator * (scale // v.denominator)]
        for row, v in zip(A, rhs)
    ]
    if len(_bareiss(M, n)) < n:
        raise ZeroDivisionError("singular system")
    # By Cramer's rule det * x is integral; the last pivot is +-det.
    det = M[n - 1][n - 1]
    y = [0] * n
    for k in range(n - 1, -1, -1):
        row = M[k]
        acc = det * row[n] - sum(row[j] * y[j] for j in range(k + 1, n))
        y[k] = acc // row[k]
    return [Fraction(v, det * scale) for v in y]


def nullspace_vector(A) -> list[int]:
    """A primitive integer kernel vector of a square integer matrix whose
    kernel is 1-dimensional (unique up to sign). A non-integer entry raises
    ``TypeError``."""
    n = len(A)
    M = [[index(a) for a in row] for row in A]
    pivots = _bareiss(M, n)
    free = sorted(set(range(n)) - set(pivots))
    if len(free) != 1:
        raise ZeroDivisionError(f"kernel is {len(free)}-dimensional, expected 1")
    # Setting the free coordinate to the last pivot (+-the pivot minor)
    # makes every pivot coordinate integral, by Cramer's rule.
    x = [0] * n
    x[free[0]] = M[len(pivots) - 1][pivots[-1]] if pivots else 1
    for k in range(len(pivots) - 1, -1, -1):
        row, col = M[k], pivots[k]
        acc = -sum(row[j] * x[j] for j in range(col + 1, n))
        x[col] = acc // row[col]
    g = gcd(*x)
    return [v // g for v in x]
