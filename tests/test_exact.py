import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from chainshift import exact
from chainshift.errors import InternalInvariantError
from chainshift.exact import (
    AlgebraicReal,
    charpoly,
    poly_gcd,
    squarefree_part,
    sturm_chain,
)


def test_charpoly_small_cases():
    assert charpoly([[5]]) == (1, -5)
    assert charpoly([[1, 1], [1, 0]]) == (1, -1, -1)
    assert charpoly([[4, 0, 0], [1, 3, 0], [0, 1, 2]]) == (1, -9, 26, -24)


def test_charpoly_matches_sympy_on_random_matrices():
    rng = random.Random(5)
    x = sympy.symbols("x")
    for _ in range(30):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-3, 6) for _ in range(n)] for _ in range(n)]
        expected = sympy.Matrix(mat).charpoly(x).all_coeffs()
        assert list(charpoly(mat)) == [int(c) for c in expected]


def test_sturm_counts_roots():
    # (x-1)(x-2)(x-4) has one root in (1.5, 3] and none in (5, 9]
    poly = squarefree_part((1, -7, 14, -8))
    chain = sturm_chain(poly)
    assert oracles.count_roots(chain, Fraction(3, 2), Fraction(3)) == 1
    assert oracles.count_roots(chain, Fraction(5), Fraction(9)) == 0
    assert oracles.count_roots(chain, Fraction(0), Fraction(9)) == 3


def test_algebraic_real_integer_detection():
    two = AlgebraicReal(charpoly([[1, 1], [1, 1]]), (2, 2))
    assert two.as_integer() == 2
    six = AlgebraicReal(charpoly([[3, 3], [1, 5]]), (6, 6))
    assert six.as_integer() == 6


def test_algebraic_real_irrational_value():
    phi = AlgebraicReal((1, -1, -1), (1, 2))
    assert phi.as_integer() is None
    assert abs(float(phi) - (1 + 5**0.5) / 2) < 1e-12


def test_algebraic_real_equality_through_different_polynomials():
    phi1 = AlgebraicReal((1, -1, -1), (1, 2))
    # (x^2 - x - 1)(x - 1): same dominant root, different polynomial
    phi2 = AlgebraicReal((1, -2, 0, 1), (1, 2))
    assert phi1 == phi2
    assert not phi1 < phi2 and not phi1 > phi2


def test_algebraic_real_orderings():
    phi = AlgebraicReal((1, -1, -1), (1, 2))
    two = AlgebraicReal((1, -2), (2, 2))
    sqrt2 = AlgebraicReal((1, 0, -2), (1, 2))
    assert phi > 1 and phi < 2 and phi.compare(Fraction(8, 5)) > 0
    assert two == 2 and two > phi
    assert sqrt2 < phi and sqrt2 > Fraction(7, 5)
    assert phi != sqrt2


def test_algebraic_real_close_roots_separated():
    # roots of (x - 2)(x - 2 - 1/64) scaled to integers: 128x^2 - 513x + 514
    # keep it monic with distinct nearby irrationals instead
    a = AlgebraicReal((1, 0, -2), (1, 2))      # sqrt(2)
    b = AlgebraicReal((1, 0, 0, -3), (1, 2))   # cbrt(3) ~ 1.4422
    assert a < b


def test_integer_root_checks_the_root_and_compares_exactly():
    with pytest.raises(InternalInvariantError):
        AlgebraicReal.integer_root((1, -3), 2)
    two = AlgebraicReal.integer_root((1, -1, -2), 2)  # (x - 2)(x + 1)
    assert two.as_integer() == 2 and float(two) == 2.0
    assert two == AlgebraicReal((1, -1, -2)) and two == 2 and two > Fraction(3, 2)
    phi = AlgebraicReal((1, -1, -1))
    assert phi < two and two > phi and phi != two


def test_solve_linear_and_nullspace():
    # the fraction-free solve and the dense Fraction references
    assert oracles.solve_linear([[3, -2], [-1, 2]], [Fraction(1), Fraction(1)]) == [1, 1]
    # det = 4, so y = 4 * (1, 1); a negative determinant is turned positive
    assert exact.solve_linear([[3, -2], [-1, 2]], [1, 1]) == ([4, 4], 4)
    assert exact.solve_linear([[0, 1], [1, 0]], [2, 3]) == ([3, 2], 1)
    vec = oracles.nullspace_vector([[-2, 2], [1, -1]])
    assert vec[0] == vec[1] != 0
    for impl in (exact, oracles):
        with pytest.raises(ZeroDivisionError):
            impl.solve_linear([[1, 1], [1, 1]], [0, 0])


def test_fraction_free_kernels_reject_rational_matrices():
    # floor division on Fraction entries would round silently; refuse instead
    with pytest.raises(TypeError):
        exact.solve_linear([[Fraction(1, 2), 0], [0, 1]], [1, 1])
    with pytest.raises(TypeError):
        exact.solve_linear([[1, 0], [0, 1]], [Fraction(1, 2), 1])
    assert exact.solve_linear([[True, 0], [0, 1]], [1, 1]) == ([1, 1], 1)


def test_phi_isolating_interval_literals():
    phi = AlgebraicReal((1, -1, -1), (1, 2))
    assert (phi.lo, phi.hi) == (0, 3)
    float(phi)
    assert (phi.lo, phi.hi) == (
        Fraction(1821744317201703, 2**50),
        Fraction(910872158600853, 2**49),
    )


def test_refine_costs_one_sign_per_halving(monkeypatch):
    # x^3 - 2x - 1 = (x + 1)(x^2 - x - 1): a three-member chain above the
    # squarefree part, none of which refinement may evaluate.
    theta = AlgebraicReal((1, 0, -2, -1))
    width = theta.hi - theta.lo
    evaluated = []
    hom_eval = exact._hom_eval

    def counted(p, num, den):
        evaluated.append(p)
        return hom_eval(p, num, den)

    monkeypatch.setattr(exact, "_hom_eval", counted)
    float(theta)
    halvings = (width / (theta.hi - theta.lo)).numerator.bit_length() - 1
    assert len(theta._chain) >= 3 and halvings >= 48
    assert len(evaluated) <= halvings + 1
    assert all(p is theta._sf for p in evaluated)


@pytest.mark.parametrize(
    "poly, ends, width",
    [
        # (x + 1)(x^2 - x - 1): the integer root -1 starts the bisection at (-1, 4]
        ((1, 0, -2, -1), [-4, 4, -1], 5),
        # x^3 - 3x + 1: three irrational roots, bisection from (-5, 5]
        ((1, 0, -3, 1), [-5, 5], 10),
    ],
)
def test_isolation_costs_one_chain_evaluation_per_halving(monkeypatch, poly, ends, width):
    evaluated = []
    variations = exact._variations

    def counted(chain, num, den):  # the hook takes the point as integers num / den
        evaluated.append(Fraction(num, den))
        return variations(chain, num, den)

    monkeypatch.setattr(exact, "_variations", counted)
    theta = AlgebraicReal(poly)
    halvings = (width / (theta.hi - theta.lo)).numerator.bit_length() - 1
    assert halvings >= 1
    # the ends of the search range and the integer root, then one midpoint per halving
    assert evaluated[: len(ends)] == ends and len(evaluated) == halvings + len(ends)


def test_invariant_raises_under_optimize():
    # No real root in the search range must raise explicitly, also where
    # ``python -O`` strips asserts.
    script = (
        "from chainshift.errors import InternalInvariantError\n"
        "from chainshift.exact import AlgebraicReal\n"
        "try:\n"
        "    AlgebraicReal((1, 0, 1))\n"
        "except InternalInvariantError as exc:\n"
        "    print('raised', exc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised no real root"), proc.stdout


def test_poly_gcd_shared_factor():
    p = (1, -1, -1)  # x^2 - x - 1
    q = (1, -2, 0, 1)  # (x^2-x-1)(x-1)
    g = poly_gcd(p, q)
    assert g == p


# -- the fraction-free solve against the dense Fraction oracle -----------------

entries = st.integers(min_value=-4, max_value=6)


@st.composite
def square_systems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    rhs = draw(st.lists(st.integers(min_value=-20, max_value=20), min_size=n, max_size=n))
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(square_systems())
def test_solve_linear_matches_oracle(system):
    A, b = system
    try:
        expected = oracles.solve_linear(A, b)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            exact.solve_linear(A, b)
        return
    y, det = exact.solve_linear(A, b)
    assert det > 0 and all(isinstance(v, int) for v in y)
    assert [Fraction(v, det) for v in y] == expected
    assert det == abs(sympy.Matrix(A).det())


# -- integer Sturm chains and dyadic refinement against Fraction Sturm counts --


@st.composite
def irrational_top_polys(draw):
    """Monic squarefree integer polynomials of degree 2..6 whose largest real
    root is irrational."""
    degree = draw(st.integers(min_value=2, max_value=6))
    coeffs = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=degree, max_size=degree))
    p = (1, *coeffs)
    assume(oracles.irrational_largest_root(p))
    return p


@settings(max_examples=80, deadline=None)
@given(irrational_top_polys())
def test_refine_matches_sturm_bisection(p):
    theta = AlgebraicReal(p)
    chain = oracles.sturm_chain(p)
    lo, hi = theta.lo, theta.hi
    # (lo, hi] isolates the largest root, and is the interval of the
    # two-count bisection
    assert (lo, hi) == oracles.sturm_isolate(p)
    assert oracles.sturm_count(chain, lo, hi) == 1
    assert oracles.sturm_count(chain, hi, Fraction(oracles.root_bound(p))) == 0
    for width in (Fraction(1, 2**48), Fraction(1, 2**80)):
        theta.refine(width)
        assert (theta.lo, theta.hi) == oracles.sturm_refine(chain, lo, hi, width)


@st.composite
def root_pairs(draw):
    """Two such polynomials; often the second shares the first's largest root."""
    p = draw(irrational_top_polys())
    kind = draw(st.sampled_from(["same", "multiple", "other"]))
    if kind == "same":
        return p, p
    if kind == "multiple":  # p * (x - c) with c below every root of p
        c = -oracles.root_bound(p) - draw(st.integers(min_value=0, max_value=3))
        return p, tuple(a - c * b for a, b in zip((*p, 0), (0, *p)))
    return p, draw(irrational_top_polys())


@settings(max_examples=150, deadline=None)
@given(root_pairs())
def test_compare_matches_sturm_oracle(pair):
    p, q = pair
    expected = oracles.compare_largest_roots(p, q)
    assert AlgebraicReal(p).compare(AlgebraicReal(q)) == expected
    assert AlgebraicReal(q).compare(AlgebraicReal(p)) == -expected


def _oracle_sign(p, q) -> int:
    """Sign of r - q for the irrational largest real root r of p and a rational q."""
    top = Fraction(max(q, oracles.root_bound(p)))
    return 1 if oracles.sturm_count(oracles.sturm_chain(p), Fraction(q), top) >= 1 else -1


@settings(max_examples=150, deadline=None)
@given(irrational_top_polys(), st.integers(min_value=-8, max_value=8), st.data())
def test_compare_with_rationals_halves_like_the_fraction_oracle(p, r, data):
    theta = AlgebraicReal(p)
    lo, hi = theta.lo, theta.hi
    chain = oracles.sturm_chain(p)
    where = data.draw(st.sampled_from(["int", "below", "lo", "inside", "near", "hi", "above"]))
    t = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=97))
    if where == "int":  # below, inside, at the ends of or above (lo, hi]
        q = data.draw(st.integers(min_value=int(lo) - 2, max_value=int(hi) + 2))
    elif where == "near":  # close to the root, so that many halvings are needed
        j = data.draw(st.integers(min_value=1, max_value=40))
        a, b = oracles.sturm_refine(chain, lo, hi, (hi - lo) / 2**j)
        q = a + (b - a) * t
    else:
        q = {
            "below": lo - Fraction(1, 64) - t,
            "lo": lo,
            "inside": lo + (hi - lo) * t,
            "hi": hi,
            "above": hi + Fraction(1, 64) + t,
        }[where]
    expected = _oracle_sign(p, q)
    a, b = lo, hi
    while a < q <= b:
        a, b = oracles.sturm_refine(chain, a, b, (b - a) / 2)
    assert theta.compare(q) == expected
    assert (theta.lo, theta.hi) == (a, b)
    assert (theta > q) == (expected > 0) and (theta < q) == (expected < 0) and theta != q

    # A rational root is held as an int, from integer_root and from the
    # constructor: (x - r)(x^2 + 1) has r as its only real root.
    poly = (1, -r, 1, -r)
    for rational in (AlgebraicReal.integer_root(poly, r), AlgebraicReal(poly)):
        assert type(rational.rational) is int and rational.rational == r
        assert type(rational.lo) is int and type(rational.hi) is int
        assert rational.as_integer() == r and float(rational) == float(r)
        assert [rational.compare(v) for v in (r - 1, r, r + 1)] == [1, 0, -1]
        third = Fraction(1, 3)
        assert [rational.compare(v) for v in (r - third, Fraction(r), r + third)] == [1, 0, -1]
        sign = _oracle_sign(p, r)
        assert rational.compare(theta) == -sign and theta.compare(rational) == sign
        assert rational.compare(AlgebraicReal(poly)) == 0


@settings(max_examples=150, deadline=None)
@given(
    irrational_top_polys(),
    st.fractions(min_value=-8, max_value=8, max_denominator=64),
    st.fractions(min_value=-8, max_value=8, max_denominator=64),
)
def test_integer_sturm_chains_count_like_fraction_chains(p, x, y):
    lo, hi = min(x, y), max(x, y)
    chain = sturm_chain(squarefree_part(p))
    assert all(type(c) is int for member in chain for c in member)
    assert oracles.count_roots(chain, lo, hi) == oracles.sturm_count(oracles.sturm_chain(p), lo, hi)


# -- the integer polynomial core against the Fraction oracle -------------------


def _primitive_multiple(p) -> tuple:
    """An oracle polynomial times the positive rational that makes its
    coefficients coprime integers."""
    den = lcm(*(Fraction(c).denominator for c in p))
    ints = [Fraction(c).numerator * (den // Fraction(c).denominator) for c in p]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _times(a, b) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


monic = st.builds(
    lambda coeffs: (1, *coeffs),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=7),
)


@st.composite
def polynomial_pairs(draw):
    """Two monic integer polynomials; half the time p = f^2 g and q = f h, so
    p has a squared factor and shares it with q."""
    if draw(st.booleans()):
        return draw(monic), draw(monic)
    small = st.integers(min_value=-4, max_value=4)
    f = (1, *draw(st.lists(small, min_size=1, max_size=2)))
    g, h = ((1, *draw(st.lists(small, max_size=3))) for _ in range(2))
    return _times(_times(f, f), g), _times(f, h)


@settings(max_examples=300, deadline=None)
@given(polynomial_pairs())
# x^4 + x + 1: the member -3x - 4 divides 4x^3 + 1 with an odd power of its
# negative leading coefficient; x^2 + 1 ends on the constant -1
@example(((1, 0, 0, 1, 1), (1, 0, 1)))
@example(((1, -2, -1, 2, 1), (1, -2, 0, 1)))  # (x^2 - x - 1)^2 and (x^2 - x - 1)(x - 1)
def test_integer_core_is_the_fraction_oracle_scaled(pair):
    p, q = pair
    sf = squarefree_part(p)
    chain = sturm_chain(sf)
    g = poly_gcd(p, q)
    for value in (sf, g, *chain):
        assert all(type(c) is int for c in value)
    expected = oracles.sturm_chain(p)
    assert sf == _primitive_multiple(expected[0])
    assert chain == [_primitive_multiple(member) for member in expected]
    assert g == _primitive_multiple(oracles.poly_gcd(p, q))
