import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from chainshift import (
    DomainError,
    InternalInvariantError,
    LambdaNotDominant,
    Substitution,
    ThetaNotAboveOne,
    block_eigenvalues,
    build_auxiliary,
    auxiliary_matrix,
    component_chain,
    limit_data,
    pf_vectors,
)
from chainshift.exact import AlgebraicReal
from chainshift.spectral import _check_eigenvector, _pf_right
from chainshift.structure import mat_pow
from conftest import CORPUS_RULES, make, tower
from test_pipeline_fuzz import chain_systems

GOLDEN = (1 + 5**0.5) / 2


def _spec(name: str):
    sub = make(name)
    chain = component_chain(sub)
    return sub, chain, block_eigenvalues(sub, chain)


def _proportional(values: dict, expected: dict, tol=1e-9):
    scale = None
    for w, target in expected.items():
        got = float(values[w])
        if target == 0:
            assert got == 0, f"{w}: expected exact zero, got {got}"
            continue
        if scale is None:
            scale = got / target
            assert scale > 0
        assert abs(got - scale * target) <= tol * max(1.0, abs(scale * target)), (w, got, target)


def test_theta_quartic():
    _, _, sp = _spec("quartic")
    assert [float(sp.theta(i)) for i in (1, 2, 3)] == [4.0, 3.0, 2.0]
    assert sp.i_min == sp.i_max == 1
    assert float(sp.lam) == 4.0
    assert sp.eq_classes() == [[1], [2], [3]]


def test_theta_mid_dominant():
    _, _, sp = _spec("mid_dominant")
    assert [float(sp.theta(i)) for i in (1, 2, 3)] == [2.0, 6.0, 2.0]
    assert sp.i_min == sp.i_max == 2
    assert sp.eq_classes() == [[1, 3], [2]]


def test_theta_golden_tower():
    _, _, sp = _spec("golden_tower")
    thetas = [float(sp.theta(i)) for i in (1, 2, 3)]
    assert abs(thetas[0] - GOLDEN) < 1e-9
    assert thetas[1] == thetas[2] == 2.0
    assert sp.eq_classes() == [[1], [2, 3]]
    assert sp.i_min == 2 and sp.i_max == 3
    assert sp.theta(1).as_integer() is None


def test_theta_within_row_bounds(corpus_sub):
    chain = component_chain(corpus_sub)
    sp = block_eigenvalues(corpus_sub, chain)
    for ls in sp.levels:
        lo, hi = ls.row_bounds
        assert ls.theta.compare(Fraction(lo)) >= 0
        assert ls.theta.compare(Fraction(hi)) <= 0


def test_theta_one_iff_unit_block(corpus_sub):
    chain = component_chain(corpus_sub)
    sp = block_eigenvalues(corpus_sub, chain)
    for i in range(1, chain.n + 1):
        assert sp.theta_is_one(i) == (sp.levels[i - 1].block == ((1,),))


def test_running_maxima(corpus_sub):
    # the finite levels are the strict records of theta: their thetas rise,
    # and every other level is at most the last record below it
    chain = component_chain(corpus_sub)
    sp = block_eigenvalues(corpus_sub, chain)
    assert sp.level_is_finite(1)
    record = 1
    for i in range(2, chain.n + 1):
        if sp.level_is_finite(i):
            assert sp.theta(record).compare(sp.theta(i)) < 0, i
            record = i
        else:
            assert sp.theta(i).compare(sp.theta(record)) <= 0, i


def _golden_bottom(rs):
    """A golden-ratio bottom level under a tower: level i adds x_i -> x_{i-1} x_i^r."""
    rules = {"a": "ab", "b": "a"}
    below = "b"
    for i, r in enumerate(rs):
        x = chr(0x4E00 + i)
        rules[x] = below + x * r
        below = x
    return rules


# tied: every level has theta 2; mixed: integer levels above and below each
# other; golden: an irrational bottom under levels with theta 1, 2 and 3
SPECTRAL_SYSTEMS = {
    **CORPUS_RULES,
    "tied": tower([2] * 24),
    "mixed": tower([2, 3, 1, 3, 2, 4, 1, 4, 4, 2, 3, 1] * 2, [True, False] * 12),
    "golden": _golden_bottom([1, 2, 1, 1, 3, 2, 1, 2, 3, 3, 1]),
}


def _scanned_upto(sp, i: int) -> int:
    """The first level attaining the maximum theta over levels 1..i, by a scan."""
    best = 1
    for j in range(2, i + 1):
        if sp.theta(j) > sp.theta(best):
            best = j
    return best


@pytest.mark.parametrize("name", sorted(SPECTRAL_SYSTEMS))
def test_running_maxima_lookups_match_the_scan(name):
    sub = Substitution.from_rules(SPECTRAL_SYSTEMS[name])
    chain = component_chain(sub)
    sp = block_eigenvalues(sub, chain)
    finite = []
    for i in range(1, chain.n + 1):
        scanned = i == 1 or sp.theta(i).compare(sp.theta(_scanned_upto(sp, i - 1))) > 0
        assert sp.level_is_finite(i) == scanned
        finite.append(scanned)
    # i_min and i_max: the first and last level whose theta equals the maximum
    top = sp.theta(_scanned_upto(sp, chain.n))
    tied = [i for i in range(1, chain.n + 1) if sp.theta(i) == top]
    assert (sp.i_min, sp.i_max) == (tied[0], tied[-1])
    if name in ("mixed", "golden"):
        assert True in finite[1:] and False in finite[1:]
    if name == "tied":
        assert finite == [True] + [False] * (chain.n - 1)
        assert (sp.i_min, sp.i_max) == (1, chain.n)
    with pytest.raises(DomainError):
        sp.level_is_finite(chain.n + 1)


def _assert_theta_matches_sturm(sp):
    """Constant row sums take the integer path, which must build the value the
    Sturm constructor builds; other levels are the Sturm constructor's, whose
    intervals the profile's comparisons may have narrowed since."""
    for ls in sp.levels:
        sturm = AlgebraicReal(ls.char_poly, ls.row_bounds)
        assert ls.theta.poly == sturm.poly and ls.theta.compare(sturm) == 0
        if ls.row_bounds[0] == ls.row_bounds[1]:
            assert ls.theta.as_integer() == ls.row_bounds[0]
            assert (ls.theta.rational, ls.theta.lo, ls.theta.hi) == (
                sturm.rational, sturm.lo, sturm.hi,
            )


@pytest.mark.parametrize("name", sorted(SPECTRAL_SYSTEMS))
def test_integer_theta_matches_sturm(name):
    sub = Substitution.from_rules(SPECTRAL_SYSTEMS[name])
    _assert_theta_matches_sturm(block_eigenvalues(sub, component_chain(sub)))


@settings(max_examples=60, deadline=None)
@given(chain_systems())
def test_integer_theta_matches_sturm_on_chain_systems(rules):
    sub = Substitution.from_rules(rules)
    _assert_theta_matches_sturm(block_eigenvalues(sub, component_chain(sub)))


def test_vectors_quartic_window_one():
    sub, chain, sp = _spec("quartic")
    pair = pf_vectors(sub, chain, 1, sp)
    assert pair.exact
    _proportional(pair.alpha, {"a": 2, "b": 2, "c": 1})
    _proportional(pair.beta, {"a": 1, "b": 0, "c": 0})


def test_vectors_quartic_window_two():
    sub, chain, sp = _spec("quartic")
    pair = pf_vectors(sub, chain, 2, sp)
    _proportional(
        pair.alpha, {"aa": 2, "ab": 2, "ba": 2, "bb": 2, "bc": 2, "ca": 1, "cb": 1}
    )
    _proportional(
        pair.beta, {"aa": 1, "ab": 0, "ba": 0, "bb": 0, "bc": 0, "ca": 0, "cb": 0}
    )


def test_vectors_mid_dominant_window_one():
    sub, chain, sp = _spec("mid_dominant")
    pair = pf_vectors(sub, chain, 1, sp)
    _proportional(pair.alpha, {"a": 0, "b": 2, "c": 2, "d": 1})
    _proportional(pair.beta, {"a": 1, "b": 1, "c": 3, "d": 0})


def test_vectors_mid_dominant_window_two():
    sub, chain, sp = _spec("mid_dominant")
    pair = pf_vectors(sub, chain, 2, sp)
    _proportional(
        pair.alpha,
        {"aa": 0, "ab": 0, "bb": 2, "bc": 2, "ca": 2, "cc": 2, "cd": 2, "da": 1, "dd": 1},
    )
    _proportional(
        pair.beta,
        {"aa": 1, "ab": 2, "bb": 1, "bc": 2, "ca": 2, "cc": 7, "cd": 0, "da": 0, "dd": 0},
    )


def test_vector_sign_supports(corpus_sub):
    """Zero sets follow the block structure on both sides.

    The right vector vanishes exactly on the windows whose head letter lies
    below the last dominating level (the row equation forces zero there even
    for windows outside the level language of that block), and the left
    vector is positive exactly on the language of the first dominating level.
    """
    chain = component_chain(corpus_sub)
    sp = block_eigenvalues(corpus_sub, chain)
    if sp.lam.compare(1) <= 0:
        return
    for m in (1, 2):
        pair = pf_vectors(corpus_sub, chain, m, sp)
        aux = pair.aux
        low_heads = set(chain.alphabet_at(sp.i_max - 1)) if sp.i_max >= 2 else set()
        # words of the dominating level i_max headed by a letter below it
        dead = {
            w for w, e in aux.word_level.items()
            if e <= sp.i_max and chain.level_of(w[0]) < sp.i_max
        }
        for w in aux.words:
            if w[0] in low_heads:
                assert float(pair.alpha[w]) == 0
            else:
                assert float(pair.alpha[w]) > 0
        # the block-coordinate description coincides whenever every
        # low-headed window already lives in the dominating level language
        if all(w in dead for w in aux.words if w[0] in low_heads):
            assert dead == {w for w in aux.words if float(pair.alpha[w]) == 0}
        alive = {w for w, e in aux.word_level.items() if e <= sp.i_min}
        for w in aux.words:
            if w in alive:
                assert float(pair.beta[w]) > 0
            else:
                assert float(pair.beta[w]) == 0


def test_lambda_not_dominant():
    sub = Substitution.from_rules({"a": "a", "b": "ab"})
    chain = component_chain(sub)
    with pytest.raises(LambdaNotDominant):
        pf_vectors(sub, chain, 1)


def test_limit_quartic_level_two():
    sub, chain, sp = _spec("quartic")
    ld = limit_data(sub, chain, 2, 2, sp)
    assert ld.mode == "divergent" and ld.i_prime == 2 and ld.exact
    assert ld.restricted_words == ("ab", "ba", "bb")
    assert ld.gamma == {"ab": 0, "ba": 1, "bb": 1}
    assert ld.delta == {"ab": Fraction(1, 3), "ba": Fraction(1, 3), "bb": Fraction(2, 3)}
    assert ld.infinite_words == frozenset({"aa"})


def test_limit_quartic_level_three():
    sub, chain, sp = _spec("quartic")
    ld = limit_data(sub, chain, 2, 3, sp)
    assert ld.mode == "divergent" and ld.i_prime == 3
    assert ld.infinite_words == frozenset({"aa", "ab", "ba", "bb"})
    assert ld.gamma == {"bc": 0, "ca": 1, "cb": 1}
    assert ld.delta == {"bc": Fraction(1, 2) * 2, "ca": Fraction(1, 2), "cb": Fraction(1, 2)}


def test_limit_golden_tower_level_three_divergence_flags():
    sub, chain, sp = _spec("golden_tower")
    ld = limit_data(sub, chain, 1, 3, sp)
    assert ld.mode == "divergent" and ld.i_prime == 3
    assert ld.infinite_words == frozenset({"a", "b", "c", "d"})
    assert ld.delta == {"e": 1}


def test_limit_golden_tower_level_two_convergent():
    sub, chain, sp = _spec("golden_tower")
    ld = limit_data(sub, chain, 1, 2, sp)
    assert ld.mode == "convergent" and ld.exact
    # left vector proportional to (4, 2, 1, 1) over a, b, c, d
    _proportional(ld.beta, {"a": 4, "b": 2, "c": 1, "d": 1})


def test_limit_requires_theta_above_one():
    sub, chain, sp = _spec("tower_of_quasi")
    with pytest.raises(ThetaNotAboveOne):
        limit_data(sub, chain, 2, 2, sp)


def test_gamma_depends_only_on_first_letter(corpus_sub):
    chain = component_chain(corpus_sub)
    sp = block_eigenvalues(corpus_sub, chain)
    for i in range(2, chain.n + 1):
        if sp.theta_is_one(i) or sp.level_is_finite(i):
            continue
        for m in (1, 2):
            ld = limit_data(corpus_sub, chain, m, i, sp)
            by_first: dict[str, float] = {}
            for w in ld.restricted_words:
                if float(ld.gamma[w]) == 0:
                    continue
                val = float(ld.gamma[w])
                assert abs(by_first.setdefault(w[0], val) - val) <= 1e-9


def test_scaled_powers_converge_to_outer_product():
    sub, chain, sp = _spec("quartic")
    ld = limit_data(sub, chain, 2, 2, sp)
    aux = build_auxiliary(*chain.restrict(2), 2)
    matrix = auxiliary_matrix(aux)
    words = ld.restricted_words
    idx = {w: aux.words.index(w) for w in words}
    power = mat_pow(matrix.entries, 30)
    for u in words:
        for v in words:
            scaled = Fraction(power[idx[u]][idx[v]], 3**30)
            assert abs(float(scaled) - float(ld.gamma[u] * ld.delta[v])) <= 1e-9


def test_exact_eigen_identity_rejects_what_the_float_residual_accepts():
    # rows ((3, 0), (1, 2)) by their nonzero entries: right eigenvector
    # (1, 1) and left (1, 0) for 3
    rows = {"u": {"u": 3}, "v": {"u": 1, "v": 2}}
    order = ("u", "v")
    right = {"u": Fraction(1), "v": Fraction(1)}
    left = {"u": Fraction(1), "v": Fraction(0)}
    for side, values in (("right", right), ("left", left)):
        _check_eigenvector(rows, order, values, 3, side, "vector")
    # integer numerators at any common scale pass as they are
    _check_eigenvector(rows, order, {"u": 7, "v": 7}, 3, "right", "vector")
    near = {"u": 1.0, "v": 1 + 1e-12}
    _check_eigenvector(rows, order, near, 3.0, "right", "vector")
    with pytest.raises(InternalInvariantError, match="residual"):
        _check_eigenvector(rows, order, {"u": 1.0, "v": 1.001}, 3.0, "right", "vector")
    near = {"u": Fraction(1), "v": 1 + Fraction(1, 10**12)}
    with pytest.raises(InternalInvariantError, match="exact right eigen identity"):
        _check_eigenvector(rows, order, near, 3, "right", "vector")
    with pytest.raises(InternalInvariantError, match="exact left eigen identity"):
        _check_eigenvector(rows, order, right, 3, "left", "vector")
    # restricted to the words of ``order``: v alone is an eigenvector for 2
    _check_eigenvector(rows, ("v",), {"v": 5}, 2, "right", "vector")
    _check_eigenvector(rows, ("v",), {"v": 5}, 2, "left", "vector")


@st.composite
def constant_row_sum_blocks(draw):
    """Irreducible nonnegative integer k x k blocks whose rows all sum to r,
    or their transposes: r is the Perron root of both."""
    k = draw(st.integers(min_value=1, max_value=6))
    cycle = draw(st.permutations(range(k)))
    rows = [draw(st.lists(st.integers(min_value=0, max_value=3), min_size=k, max_size=k)) for _ in range(k)]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        rows[a][b] += 1  # a cycle through every index makes the block irreducible
    r = max(map(sum, rows)) + draw(st.integers(min_value=0, max_value=2))
    for c, row in enumerate(rows):
        row[c] += r - sum(row)
    if draw(st.booleans()):
        rows = [list(col) for col in zip(*rows)]
    return rows, r


@settings(max_examples=200, deadline=None)
@given(constant_row_sum_blocks())
def test_perron_vector_from_the_minor_solve(case):
    block, r = case
    vec = _pf_right(block, r)
    assert all(isinstance(v, int) and v > 0 for v in vec) and gcd(*vec) == 1
    assert [sum(c * v for c, v in zip(row, vec)) for row in block] == [r * v for v in vec]
    expected = oracles.perron_vector(block, r, True)
    k = len(block)
    assert all(vec[i] * expected[j] == vec[j] * expected[i] for i in range(k) for j in range(k))


def test_perron_vector_of_a_singular_minor_is_refused():
    # a reducible block: fixing the first coordinate leaves 1 I - [1] singular
    with pytest.raises(InternalInvariantError, match="Perron minor"):
        _pf_right([[1, 0], [0, 1]], 1)


def test_window_and_limit_invariants_survive_optimize():
    # Each broken invariant of the window-substitution build, of the
    # divergent limit data, of the Perron vectors and of the lifted gamma an
    # irrational level's cylinder table reads must raise explicitly, also
    # under ``python -O``, which strips assert statements, as the typed
    # InternalInvariantError.
    script = (
        "from chainshift import *\n"
        "from chainshift import auxiliary, spectral, structure\n"
        "def expect(fn, *args):\n"
        "    try:\n"
        "        fn(*args)\n"
        "    except InternalInvariantError as exc:\n"
        "        print('raised', type(exc).__name__, exc)\n"
        "sub = Substitution.from_rules({'a': 'aaaa', 'b': 'abbb', 'c': 'cbc'})\n"
        "level_words = structure.level_words\n"
        "structure.level_words = lambda sub, new_letters, m: [list('abcz'), [], []]\n"
        "expect(build_auxiliary, sub, component_chain(sub), 1)\n"
        "structure.level_words = lambda sub, new_letters, m: [[], ['b'], []]\n"
        "expect(build_auxiliary, sub, component_chain(sub), 1)\n"
        "structure.level_words = level_words\n"
        "chain = component_chain(sub)\n"
        "i_prime = spectral.SpectralProfile.i_prime\n"
        "spectral.SpectralProfile.i_prime = lambda self, i: 1\n"
        "expect(limit_data, sub, chain, 1, 2, block_eigenvalues(sub, chain))\n"
        "spectral.SpectralProfile.i_prime = i_prime\n"
        "blocks = auxiliary.AuxiliarySubstitution.blocks_in_order\n"
        "auxiliary.AuxiliarySubstitution.blocks_in_order = lambda self: blocks(self) + [('G', 2, ())]\n"
        "expect(limit_data, sub, chain, 2, 2, block_eigenvalues(sub, chain))\n"
        "auxiliary.AuxiliarySubstitution.blocks_in_order = blocks\n"
        "left = spectral._left_vector\n"
        "spectral._left_vector = lambda *args: {w: -v for w, v in left(*args).items()}\n"
        "expect(limit_data, sub, chain, 3, 2, block_eigenvalues(sub, chain))\n"
        "spectral._left_vector = left\n"
        "perron = spectral._pf_right\n"
        "spectral._pf_right = lambda *args: [-v for v in perron(*args)]\n"
        "expect(limit_data, sub, chain, 2, 3, block_eigenvalues(sub, chain))\n"
        "golden = Substitution.from_rules({'a': 'aaa', 'b': 'abc', 'c': 'b'})\n"
        "golden_chain = component_chain(golden)\n"
        "expect(cylinder_measure, golden, golden_chain, block_eigenvalues(golden, golden_chain), 2, 'bc')\n"
        "spectral._pf_right = perron\n"
        "spectral.solve_linear = lambda A, b: ([-1] * len(A), 1)\n"
        "mid = Substitution.from_rules({'a': 'aa', 'b': 'abbbccc', 'c': 'abccccc', 'd': 'abcdd'})\n"
        "expect(pf_vectors, mid, component_chain(mid), 2)\n"
        "np = spectral.np\n"
        "np.linalg.eig = lambda arr: (np.ones(len(arr)), np.array([[(-1.0) ** r] * len(arr) for r in range(len(arr))]))\n"
        "fib = Substitution.from_rules({'a': 'ab', 'b': 'a', 'c': 'abc'})\n"
        "expect(pf_vectors, fib, component_chain(fib), 2)\n"
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
        lines = proc.stdout.splitlines()
        assert len(lines) == 9, proc.stdout
        assert "window blocks at m=1 do not partition the language" in lines[0]
        assert "an image window of 'b' is not a language word at m=1" in lines[1]
        assert "divergent mode without a dominating lower level" in lines[2]
        assert "the level block is not last in the restriction" in lines[3]
        assert "the left limit vector is not positive" in lines[4]
        assert "level 3: the lifted right limit vector is not positive" in lines[5]
        assert "InternalInvariantError level 2: the lifted right limit vector is not positive" in lines[6]
        assert all(" InternalInvariantError " in line for line in lines)
        # the exact Perron vector (integer theta), then the float one
        assert "Perron vector must be positive" in lines[7]
        assert "Perron vector must be positive" in lines[8]


# -- the integer vector engine against the dense Fraction reference ---------


def _normalized(values: dict) -> dict:
    scale = min(v for v in values.values() if v > 0)
    return {w: v / scale for w, v in values.items()}


def _oracle_blocks(aux, blocks):
    """Entry function and word blocks of the window matrix, for the oracle."""
    matrix = auxiliary_matrix(aux)
    pos = {w: j for j, w in enumerate(aux.words)}
    return (lambda u, v: matrix.entries[pos[u]][pos[v]]), [ws for _, _, ws in blocks]


def _anchor_of(blocks, level):
    return next(j for j, (kind, lvl, _) in enumerate(blocks) if kind == "Q" and lvl == level)


def _assert_vectors_match_oracle(rules: dict, ms) -> None:
    """Exact alpha, beta, gamma and delta equal the Fraction reference after
    normalisation; a float gamma agrees with it to 1e-12 relative."""
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    sp = block_eigenvalues(sub, chain)
    for i in range(1, chain.n + 1):
        if sp.theta_is_one(i):
            continue
        sub_i, chain_i = chain.restrict(i)
        sp_i = block_eigenvalues(sub_i, chain_i)
        lam, theta = sp_i.lam.as_integer(), sp.theta(i).as_integer()
        for m in ms:
            if lam is not None:
                pair = pf_vectors(sub_i, chain_i, m, sp_i)
                blocks = pair.aux.blocks_in_order()
                entry, words = _oracle_blocks(pair.aux, blocks)
                right, left = _anchor_of(blocks, sp_i.i_max), _anchor_of(blocks, sp_i.i_min)
                alpha = oracles.block_vector(words, entry, lam, right, "right")
                beta = oracles.block_vector(words, entry, lam, left, "left")
                assert pair.exact
                assert pair.alpha == _normalized(alpha) and pair.beta == _normalized(beta)
            if sp.level_is_finite(i):
                continue
            ld = limit_data(sub, chain, m, i, sp)
            aux = build_auxiliary(sub_i, chain_i, m)
            ip = sp.i_prime(i)
            blocks = [
                (kind, lvl, ws)
                for kind, lvl, ws in aux.blocks_in_order()
                if lvl >= ip - (kind == "G")
            ]
            entry, words = _oracle_blocks(aux, blocks)
            anchor = _anchor_of(blocks, i)
            assert ld.restricted_words == tuple(w for ws in words for w in ws)
            if theta is None:
                approx = float(sp.theta(i))
                gamma = oracles.block_vector(words, entry, approx, anchor, "right", False)
                assert not ld.exact
                scale = min(gamma[w] for w in words[anchor])
                for w in ld.restricted_words:
                    want = gamma[w] / scale if w in words[anchor] else 0.0
                    assert abs(ld.gamma[w] - want) <= 1e-12 * abs(want), (w, ld.gamma[w], want)
                continue
            gamma = _normalized(oracles.block_vector(words, entry, theta, anchor, "right"))
            delta = oracles.block_vector(words, entry, theta, anchor, "left")
            pairing = sum(gamma[w] * delta[w] for w in ld.restricted_words)
            assert ld.exact and ld.gamma == gamma
            assert ld.delta == {w: v / pairing for w, v in delta.items()}


@pytest.mark.parametrize("name", sorted(CORPUS_RULES))
def test_vectors_match_fraction_oracle_on_corpus(name):
    _assert_vectors_match_oracle(CORPUS_RULES[name], range(1, 7))


# divergent levels with two new letters: theta = 3 below 5, and the golden
# ratio (irrational) below 4
@example({"a": "aaaaa", "b": "abcc", "c": "bbc"})
@example({"a": "aaaa", "b": "bca", "c": "b"})
@settings(max_examples=60, deadline=None)
@given(chain_systems())
def test_vectors_match_fraction_oracle(rules):
    _assert_vectors_match_oracle(rules, range(1, 7))


# finite levels: an integer bottom (quartic), and a golden-ratio bottom under
# a finite integer level, with an infinite level above (golden_tower) or not
@example(CORPUS_RULES["quartic"])
@example(CORPUS_RULES["golden_tower"])
@example(CORPUS_RULES["fib_expanding_tail"])
@settings(max_examples=60, deadline=None)
@given(chain_systems())
def test_convergent_limit_data_equals_the_window_eigen_pair(rules):
    # The convergent limit data lift the right vector from the level's letter
    # block, as the divergent ones do; the reference solves it over the
    # windows (``oracles.convergent_limit``). Integer theta: equal Fractions;
    # irrational: within 1e-12 relative, zeros exactly.
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    sp = block_eigenvalues(sub, chain)
    for i in range(1, chain.n + 1):
        if sp.theta_is_one(i) or not sp.level_is_finite(i):
            continue
        for m in range(1, 5):
            ld = limit_data(sub, chain, m, i, sp)
            assert ld.mode == "convergent" and ld.i_prime is None and not ld.restricted_words
            for got, want in zip((ld.alpha, ld.beta), oracles.convergent_limit(sub, chain, i, m)):
                assert got.keys() == want.keys()
                if ld.exact:
                    assert got == want, (rules, i, m)
                    continue
                for w, x in want.items():
                    assert abs(got[w] - x) <= 1e-12 * abs(x), (rules, i, m, w, got[w], x)


def test_no_corpus_level_is_divergent_with_irrational_theta():
    # Every divergent corpus level has an integer theta, so lifting gamma from
    # the letter block leaves every float of the golden CLI outputs unchanged.
    for name in sorted(CORPUS_RULES):
        sub = make(name)
        chain = component_chain(sub)
        sp = block_eigenvalues(sub, chain)
        for i in range(2, chain.n + 1):
            if not sp.theta_is_one(i) and not sp.level_is_finite(i):
                assert sp.theta(i).as_integer() is not None, (name, i)
