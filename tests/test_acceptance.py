"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import math
import random
import time
from fractions import Fraction

import oracles
from chainshift import (
    Substitution,
    apply,
    auxiliary_matrix,
    block_eigenvalues,
    build_auxiliary,
    component_chain,
    count_occurrences,
    cylinder_measure,
    decomposition_report,
    empirical_frequency,
    incidence_matrix,
    language,
    limit_data,
    pf_vectors,
)
from chainshift.structure import mat_pow
from conftest import make

SQRT5 = math.sqrt(5)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def _setup(name):
    sub = make(name)
    chain = component_chain(sub)
    return sub, chain, block_eigenvalues(sub, chain)


def test_criterion_1_incidence_matrices():
    with criterion(1, "incidence matrices, < 1 ms"):
        quartic, mid = make("quartic"), make("mid_dominant")
        best = math.inf
        for _ in range(20):
            start = time.perf_counter()
            m1 = incidence_matrix(quartic)
            m2 = incidence_matrix(mid)
            best = min(best, time.perf_counter() - start)
        assert m1.entries == ((4, 0, 0), (1, 3, 0), (0, 1, 2))
        assert m2.entries == ((2, 0, 0, 0), (1, 3, 3, 0), (1, 1, 5, 0), (1, 1, 1, 2))
        assert best < 1e-3, f"took {best * 1e3:.3f} ms"


def test_criterion_2_languages():
    with criterion(2, "two-letter languages"):
        assert language(make("quartic"), 2) == {"aa", "ab", "ba", "bb", "bc", "ca", "cb"}
        assert language(make("mid_dominant"), 2) == {
            "aa", "ab", "bb", "bc", "ca", "cc", "cd", "da", "dd",
        }


def test_criterion_3_window_substitutions():
    with criterion(3, "window substitutions and matrices"):
        sub, chain, _ = _setup("quartic")
        aux = build_auxiliary(sub, chain, 2)
        expected = {
            "aa": ("aa", "aa", "aa", "aa"),
            "ab": ("aa", "aa", "aa", "aa"),
            "ba": ("ab", "bb", "bb", "ba"),
            "bb": ("ab", "bb", "bb", "ba"),
            "bc": ("ab", "bb", "bb", "bc"),
            "ca": ("cb", "bc", "ca"),
            "cb": ("cb", "bc", "ca"),
        }
        for word, image in expected.items():
            assert aux.images[word] == image
        assert auxiliary_matrix(aux).entries == (
            (4, 0, 0, 0, 0, 0, 0),
            (4, 0, 0, 0, 0, 0, 0),
            (0, 1, 1, 2, 0, 0, 0),
            (0, 1, 1, 2, 0, 0, 0),
            (0, 1, 0, 2, 1, 0, 0),
            (0, 0, 0, 0, 1, 1, 1),
            (0, 0, 0, 0, 1, 1, 1),
        )
        sub2, chain2, _ = _setup("mid_dominant")
        aux2 = build_auxiliary(sub2, chain2, 2)
        expected2 = {
            "aa": ("aa", "aa"),
            "ab": ("aa", "aa"),
            "bb": ("ab", "bb", "bb", "bc", "cc", "cc", "ca"),
            "bc": ("ab", "bb", "bb", "bc", "cc", "cc", "ca"),
            "ca": ("ab", "bc", "cc", "cc", "cc", "cc", "ca"),
            "cc": ("ab", "bc", "cc", "cc", "cc", "cc", "ca"),
            "cd": ("ab", "bc", "cc", "cc", "cc", "cc", "ca"),
            "da": ("ab", "bc", "cd", "dd", "da"),
            "dd": ("ab", "bc", "cd", "dd", "da"),
        }
        for word, image in expected2.items():
            assert aux2.images[word] == image
        assert auxiliary_matrix(aux2).entries == (
            (2, 0, 0, 0, 0, 0, 0, 0, 0),
            (2, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 1, 2, 1, 1, 2, 0, 0, 0),
            (0, 1, 2, 1, 1, 2, 0, 0, 0),
            (0, 1, 0, 1, 1, 4, 0, 0, 0),
            (0, 1, 0, 1, 1, 4, 0, 0, 0),
            (0, 1, 0, 1, 1, 4, 0, 0, 0),
            (0, 1, 0, 1, 0, 0, 1, 1, 1),
            (0, 1, 0, 1, 0, 0, 1, 1, 1),
        )


def test_criterion_4_spectra():
    with criterion(4, "spectra and exact equality classes"):
        _, _, sp1 = _setup("quartic")
        assert [float(sp1.theta(i)) for i in (1, 2, 3)] == [4.0, 3.0, 2.0]
        _, _, sp2 = _setup("mid_dominant")
        assert [float(sp2.theta(i)) for i in (1, 2, 3)] == [2.0, 6.0, 2.0]
        assert sp2.eq_classes() == [[1, 3], [2]]
        _, _, sp3 = _setup("golden_tower")
        thetas = [float(sp3.theta(i)) for i in (1, 2, 3)]
        assert abs(thetas[0] - (1 + SQRT5) / 2) <= 1e-9
        assert thetas[1] == thetas[2] == 2.0
        assert sp3.eq_classes() == [[1], [2, 3]]
        # the equality classes come from the polynomial path, not floats: the
        # bottom eigenvalue carries an irrational certificate
        assert sp3.theta(1).as_integer() is None
        assert sp3.theta(2).as_integer() == 2


def _match_up_to_scalar(values, expected, order):
    scale = None
    for w in order:
        got, want = float(values[w]), expected[w]
        if want == 0:
            assert got == 0, (w, got)
            continue
        if scale is None:
            scale = got / want
            assert scale > 0
        assert abs(got - scale * want) <= 1e-9 * max(1.0, abs(scale * want)), (w, got, want)


def test_criterion_5_eigenvectors():
    with criterion(5, "eigenvectors up to one positive scalar"):
        sub, chain, sp = _setup("quartic")
        pair = pf_vectors(sub, chain, 1, sp)
        _match_up_to_scalar(pair.alpha, {"a": 2, "b": 2, "c": 1}, "abc")
        _match_up_to_scalar(pair.beta, {"a": 1, "b": 0, "c": 0}, "abc")
        pair = pf_vectors(sub, chain, 2, sp)
        order = pair.aux.words
        _match_up_to_scalar(
            pair.alpha,
            {"aa": 2, "ab": 2, "ba": 2, "bb": 2, "bc": 2, "ca": 1, "cb": 1},
            order,
        )
        _match_up_to_scalar(
            pair.beta,
            {"aa": 1, "ab": 0, "ba": 0, "bb": 0, "bc": 0, "ca": 0, "cb": 0},
            order,
        )
        sub, chain, sp = _setup("mid_dominant")
        pair = pf_vectors(sub, chain, 1, sp)
        _match_up_to_scalar(pair.alpha, {"a": 0, "b": 2, "c": 2, "d": 1}, "abcd")
        _match_up_to_scalar(pair.beta, {"a": 1, "b": 1, "c": 3, "d": 0}, "abcd")
        pair = pf_vectors(sub, chain, 2, sp)
        order = pair.aux.words
        _match_up_to_scalar(
            pair.alpha,
            {"aa": 0, "ab": 0, "bb": 2, "bc": 2, "ca": 2, "cc": 2, "cd": 2, "da": 1, "dd": 1},
            order,
        )
        _match_up_to_scalar(
            pair.beta,
            {"aa": 1, "ab": 2, "bb": 1, "bc": 2, "ca": 2, "cc": 7, "cd": 0, "da": 0, "dd": 0},
            order,
        )


def test_criterion_6_measures():
    with criterion(6, "cylinder measures, < 1 s"):
        start = time.perf_counter()
        setup1 = _setup("quartic")
        expect1 = {
            (2, "b"): Fraction(1), (2, "ab"): Fraction(1, 3), (2, "ba"): Fraction(1, 3),
            (2, "bb"): Fraction(2, 3),
            (3, "c"): Fraction(1), (3, "bc"): Fraction(1),
            (3, "ca"): Fraction(1, 2), (3, "cb"): Fraction(1, 2),
        }
        for (i, w), want in expect1.items():
            cv = cylinder_measure(*setup1, i, w)
            assert not cv.infinite and cv.exact == want, (i, w)
        for (i, w) in [(2, "a"), (2, "aa"), (3, "a"), (3, "b"), (3, "bb")]:
            assert cylinder_measure(*setup1, i, w).infinite, (i, w)
        setup2 = _setup("golden_tower")
        mu1 = {
            "a": (SQRT5 - 1) / 2, "b": (3 - SQRT5) / 2, "aa": SQRT5 - 2,
            "ab": (3 - SQRT5) / 2, "ba": (3 - SQRT5) / 2,
        }
        for w, want in mu1.items():
            cv = cylinder_measure(*setup2, 1, w)
            assert not cv.infinite and abs(cv.value - want) <= 1e-9, w
        mu2 = {
            "a": Fraction(1, 2), "b": Fraction(1, 4), "c": Fraction(1, 8),
            "d": Fraction(1, 8), "aa": Fraction(1, 8), "ab": Fraction(1, 4),
            "ba": Fraction(1, 4), "ac": Fraction(1, 16), "ad": Fraction(1, 16),
            "ca": Fraction(1, 16), "cd": Fraction(1, 16), "da": Fraction(1, 16),
            "dc": Fraction(1, 16),
        }
        for w, want in mu2.items():
            cv = cylinder_measure(*setup2, 2, w)
            assert cv.exact == want, w
        nu3 = {
            "e": Fraction(1), "dd": Fraction(1, 4), "ce": Fraction(1, 2),
            "de": Fraction(1, 2), "ea": Fraction(1, 2), "ec": Fraction(1, 2),
        }
        for w, want in nu3.items():
            cv = cylinder_measure(*setup2, 3, w)
            assert cv.exact == want, w
        for w in ("a", "b", "c", "d", "aa", "ab", "ba", "ac", "ad", "ca", "cd", "da", "dc"):
            assert cylinder_measure(*setup2, 3, w).infinite, w
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_7_classification():
    with criterion(7, "classification and unique ergodicity"):
        expectations = {
            "fib_tail": True,
            "two_limit_orbits": True,
            "almost_min_tower": False,
            "quasi_and_limits": True,
            "tower_of_quasi": True,
            "quartic": True,
            "golden_tower": False,
            "fib_expanding_tail": False,
        }
        for name, verdict in expectations.items():
            sub, chain, sp = _setup(name)
            assert decomposition_report(sub, chain, sp).minimal.uniquely_ergodic == verdict, name
        # periodic-seed counts
        sub, chain, sp = _setup("two_limit_orbits")
        report = decomposition_report(sub, chain, sp)
        assert len(report.levels[1].point_seeds) == 2
        sub, chain, sp = _setup("quasi_and_limits")
        report = decomposition_report(sub, chain, sp)
        level2 = report.levels[1]
        assert level2.quasi_fixed is not None and level2.quasi_fixed.primitive_type
        assert len(level2.point_seeds) == 2
        # almost minimal level with a unique fixed point
        sub, chain, sp = _setup("almost_min_tower")
        report = decomposition_report(sub, chain, sp)
        assert report.levels[1].case == "almost_minimal"
        assert [p.kind for p in report.levels[1].point_seeds] == ["fixed_letter_power"]
        assert report.minimal.census == ["s_infinity"]


def test_criterion_8a_occurrence_matrix_powers():
    with criterion(8, "a: occurrence counts = matrix powers, 200 random systems"):
        rng = random.Random(20240809)
        failures = 0
        for _ in range(200):
            rules = oracles.random_substitution(rng, max_letters=5, max_image=4)
            sub = Substitution.from_rules(rules)
            matrix = incidence_matrix(sub)
            k = rng.randint(1, 6)
            power = matrix.power(k)
            for ai, a in enumerate(matrix.letters):
                image = apply(sub, a, k)
                for bi, b in enumerate(matrix.letters):
                    if count_occurrences(b, image).count != power[ai][bi]:
                        failures += 1
        assert failures == 0


def test_criterion_8b_cylinder_consistency():
    with criterion(8, "b: Kolmogorov consistency and shift invariance"):
        for name in ("quartic", "golden_tower", "mid_dominant", "chacon",
                     "fib_expanding_tail", "constant_reenters"):
            sub, chain, sp = _setup(name)
            for i in range(1, chain.n + 1):
                from chainshift import measure_type

                if measure_type(sub, chain, sp, i).kind not in (
                    "finite_ergodic", "infinite_radon",
                ):
                    continue
                sub_i = sub.restrict(chain.alphabet_at(i))
                for m in (1, 2):
                    ext = language(sub_i, m + 1)
                    for v in language(sub_i, m):
                        base = cylinder_measure(sub, chain, sp, i, v)
                        for words in (
                            [a + v for a in sub_i.alphabet if a + v in ext],
                            [v + a for a in sub_i.alphabet if v + a in ext],
                        ):
                            parts = [cylinder_measure(sub, chain, sp, i, w) for w in words]
                            if base.infinite:
                                assert any(p.infinite for p in parts)
                            else:
                                total = sum(p.value for p in parts)
                                assert abs(total - base.value) <= 1e-9


def test_criterion_8c_scaled_power_limits():
    with criterion(8, "c: scaled matrix powers at k=40 within 1e-6"):
        sub, chain, sp = _setup("quartic")
        for level in (2, 3):
            ld = limit_data(sub, chain, 2, level, sp)
            theta = int(float(ld.theta))
            aux = build_auxiliary(*chain.restrict(level), 2)
            matrix = auxiliary_matrix(aux)
            power = mat_pow(matrix.entries, 40)
            for u in ld.restricted_words:
                for v in ld.restricted_words:
                    scaled = Fraction(power[aux.words.index(u)][aux.words.index(v)], theta**40)
                    want = float(ld.gamma[u] * ld.delta[v])
                    assert abs(float(scaled) - want) <= 1e-6, (level, u, v)
            # entries over the cut language diverge after scaling
            anchor = next(w for w in ld.restricted_words if float(ld.gamma[w]) > 0)
            blown = max(
                Fraction(power[aux.words.index(anchor)][aux.words.index(v)], theta**40)
                for v in ld.infinite_words
            )
            assert float(blown) > 1e3
        # the bottom level dominates everything: its convergent limit data is
        # exact at every power
        ld1 = limit_data(sub, chain, 2, 1, sp)
        assert ld1.mode == "convergent"
        aux1 = build_auxiliary(*chain.restrict(1), 2)
        matrix1 = auxiliary_matrix(aux1)
        power1 = mat_pow(matrix1.entries, 40)
        for u in aux1.words:
            for v in aux1.words:
                scaled = Fraction(power1[aux1.words.index(u)][aux1.words.index(v)], 4**40)
                want = float(ld1.alpha[u] * ld1.beta[v])
                assert abs(float(scaled) - want) <= 1e-6, (u, v)


def test_criterion_8d_empirical_frequencies():
    """KNOWN RED (spec defect, see the decisions ledger).

    Level-1 frequencies converge far inside the tolerance, but every length
    ~10^6 window of the level-2 system misses its letter frequencies by about
    2e-3: the subdominant eigenvalue (the golden ratio) forces relative
    fluctuations of order L^(log2(phi/2)) ~ 0.1 * L^(-0.306), confirmed by
    exact integer counts over full power images. Meeting 1e-3 needs L ~ 10^7.
    The criterion is asserted as stated rather than loosened.
    """
    with criterion(8, "d: empirical frequencies at L=10^6 within 1e-3, < 10 s"):
        start = time.perf_counter()
        sub, chain, sp = _setup("golden_tower")
        deviations = {}
        for level, words in ((1, ("a", "b", "ab")), (2, ("a", "b", "c", "d", "cd"))):
            for w in words:
                freq = empirical_frequency(sub, chain, sp, level, w, 10**6)
                exact = cylinder_measure(sub, chain, sp, level, w).value
                deviations[(level, w)] = abs(freq.ratio - exact)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"
        for (level, w), dev in deviations.items():
            if level == 1:
                assert dev <= 1e-3, (level, w, dev)
        offenders = {key: f"{dev:.2e}" for key, dev in deviations.items() if dev > 1e-3}
        assert not offenders, f"level-2 windows fluctuate beyond 1e-3: {offenders}"


def test_criterion_8d_deviation_decays_at_the_predicted_rate():
    """Why 8d is red, as a prediction: on golden_tower level 2 (theta = 2 over
    a Fibonacci bottom with dominant root phi) the letter frequencies in a
    length-L prefix deviate from the measure like L^(log2(phi) - 1).

    For each letter of the level, the least-squares slope of log10|ratio - mu|
    against log10 L over L = 10^(k/2), k = 8..22, lies within 0.05 of that
    exponent. The counts are exact, so the slope does not depend on rounding.
    """
    sub, chain, sp = _setup("golden_tower")
    exponent = math.log2((1 + SQRT5) / 2) - 1
    xs = [k / 2 for k in range(8, 23)]
    mx = sum(xs) / len(xs)
    for v in chain.alphabet_at(2):
        mu = cylinder_measure(sub, chain, sp, 2, v).value
        ys = [
            math.log10(abs(empirical_frequency(sub, chain, sp, 2, v, round(10**x)).ratio - mu))
            for x in xs
        ]
        my = sum(ys) / len(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        assert abs(slope - exponent) <= 0.05, (v, slope, exponent)
