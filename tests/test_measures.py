import copy
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings

import oracles
from chainshift import (
    BudgetExceeded,
    DomainError,
    InternalInvariantError,
    MeasureTypeCounting,
    Substitution,
    WordNotInLevelLanguage,
    block_eigenvalues,
    component_chain,
    cylinder_measure,
    empirical_frequency,
    language,
    level_measure_table,
    measure_type,
    uniformity_check,
)
from chainshift import classify, measures, words
from conftest import CORPUS_RULES, make
from test_pipeline_fuzz import chain_systems

SQRT5 = math.sqrt(5)


def _setup(name: str):
    sub = make(name)
    chain = component_chain(sub)
    return sub, chain, block_eigenvalues(sub, chain)


def _value(setup, i, w):
    cv = cylinder_measure(*setup, i, w)
    if cv.infinite:
        return "inf"
    return cv.exact if cv.exact is not None else cv.value


# -- typing -------------------------------------------------------------------


def test_types_quartic():
    setup = _setup("quartic")
    kinds = [measure_type(*setup, i).kind for i in (1, 2, 3)]
    assert kinds == ["finite_ergodic", "infinite_radon", "infinite_radon"]
    assert measure_type(*setup, 2).anchor == "b"
    assert measure_type(*setup, 3).i_prime == 3


def test_types_golden_tower():
    setup = _setup("golden_tower")
    kinds = [measure_type(*setup, i).kind for i in (1, 2, 3)]
    assert kinds == ["finite_ergodic", "finite_ergodic", "infinite_radon"]
    assert measure_type(*setup, 3).i_prime == 3


def test_types_chacon():
    setup = _setup("chacon")
    assert measure_type(*setup, 1).kind == "empty"
    assert measure_type(*setup, 2).kind == "finite_ergodic"


def test_types_counting_and_empty():
    setup = _setup("tower_of_quasi")
    for i in (2, 3):
        desc = measure_type(*setup, i)
        assert desc.kind == "counting"
        assert desc.infinite_orbits == 1 and desc.finite_atoms == 0
    setup2 = _setup("fib_tail")
    assert measure_type(*setup2, 2).kind == "empty"
    setup3 = _setup("left_tail")
    desc = measure_type(*setup3, 2)
    assert desc.kind == "counting" and desc.finite_atoms == 1


# -- published cylinder values --------------------------------------------------


def test_level_two_values_quartic():
    setup = _setup("quartic")
    assert _value(setup, 2, "a") == "inf"
    assert _value(setup, 2, "aa") == "inf"
    assert _value(setup, 2, "b") == 1
    assert _value(setup, 2, "ab") == Fraction(1, 3)
    assert _value(setup, 2, "ba") == Fraction(1, 3)
    assert _value(setup, 2, "bb") == Fraction(2, 3)


def test_level_three_values_quartic():
    setup = _setup("quartic")
    for w in ("a", "b", "aa", "ab", "ba", "bb"):
        assert _value(setup, 3, w) == "inf"
    assert _value(setup, 3, "c") == 1
    assert _value(setup, 3, "bc") == 1
    assert _value(setup, 3, "ca") == Fraction(1, 2)
    assert _value(setup, 3, "cb") == Fraction(1, 2)


def test_bottom_values_golden_tower():
    setup = _setup("golden_tower")
    targets = {
        "a": (SQRT5 - 1) / 2,
        "b": (3 - SQRT5) / 2,
        "aa": SQRT5 - 2,
        "ab": (3 - SQRT5) / 2,
        "ba": (3 - SQRT5) / 2,
    }
    for w, target in targets.items():
        cv = cylinder_measure(*setup, 1, w)
        assert cv.exact is None and cv.algebraic is not None
        assert abs(cv.value - target) <= 1e-9


def test_cylinder_note_edits_do_not_leak_into_the_table():
    setup = _setup("golden_tower")
    first = cylinder_measure(*setup, 1, "a").as_json()
    expected = copy.deepcopy(first["algebraic"])
    first["algebraic"]["char_poly"].append(99)
    first["algebraic"]["isolating_interval"][0] = "0"
    for w in ("a", "b"):
        assert cylinder_measure(*setup, 1, w).as_json()["algebraic"] == expected


def test_middle_values_golden_tower():
    setup = _setup("golden_tower")
    targets = {
        "a": Fraction(1, 2), "b": Fraction(1, 4), "c": Fraction(1, 8), "d": Fraction(1, 8),
        "aa": Fraction(1, 8), "ab": Fraction(1, 4), "ba": Fraction(1, 4),
        "ac": Fraction(1, 16), "ad": Fraction(1, 16), "ca": Fraction(1, 16),
        "cd": Fraction(1, 16), "da": Fraction(1, 16), "dc": Fraction(1, 16),
    }
    for w, target in targets.items():
        assert _value(setup, 2, w) == target


def test_top_values_golden_tower():
    setup = _setup("golden_tower")
    infinite = ["a", "b", "c", "d", "aa", "ab", "ba", "ac", "ad", "ca", "cd", "da", "dc"]
    for w in infinite:
        assert _value(setup, 3, w) == "inf"
    assert _value(setup, 3, "e") == 1
    assert _value(setup, 3, "dd") == Fraction(1, 4)
    for w in ("ce", "de", "ea", "ec"):
        assert _value(setup, 3, w) == Fraction(1, 2)


def test_point_mass_bottom():
    setup = _setup("quartic")
    assert _value(setup, 1, "a") == 1
    assert _value(setup, 1, "aaaa") == 1


# -- errors ---------------------------------------------------------------------


def test_word_not_in_level_language():
    setup = _setup("quartic")
    with pytest.raises(WordNotInLevelLanguage):
        cylinder_measure(*setup, 2, "c")
    with pytest.raises(WordNotInLevelLanguage):
        cylinder_measure(*setup, 3, "cc")


def test_counting_levels_have_no_values():
    setup = _setup("tower_of_quasi")
    with pytest.raises(MeasureTypeCounting):
        cylinder_measure(*setup, 2, "ab")


def test_empty_levels_have_no_values():
    setup = _setup("chacon")
    with pytest.raises(DomainError):
        cylinder_measure(*setup, 1, "a")


# -- the eigenvalue criterion ---------------------------------------------------


def _sympy_thetas(rules: dict[str, str], levels) -> list:
    """Largest real root of each diagonal block's characteristic polynomial,
    as an exact sympy number."""
    x = sympy.symbols("x")
    letters = list(rules)
    full = oracles.incidence(rules)
    thetas, below = [], set()
    for level in levels:
        new = [c for c in level if c not in below]
        idx = [letters.index(c) for c in new]
        block = sympy.Matrix([[full[r][c] for c in idx] for r in idx])
        thetas.append(max(sympy.Poly(block.charpoly(x).as_expr(), x).real_roots()))
        below.update(new)
    return thetas


def _assert_kinds_follow_the_spectrum(rules: dict[str, str]) -> None:
    """A level with theta > 1 is finite exactly when theta_i > theta_j for
    every j < i; its anchor is the one the full level report names."""
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    sp = block_eigenvalues(sub, chain)
    thetas = _sympy_thetas(rules, chain.levels)
    fresh = component_chain(sub)
    fresh_sp = block_eigenvalues(sub, fresh)
    for i in range(2, chain.n + 1):
        theta = thetas[i - 1]
        if theta == 1:
            continue
        dominant = all(bool(theta > lower) for lower in thetas[: i - 1])
        desc = measure_type(sub, chain, sp, i)
        assert desc.kind == ("finite_ergodic" if dominant else "infinite_radon"), (rules, i)
        assert desc.anchor == classify._classify_level(fresh, fresh_sp, i).anchor, (rules, i)


@pytest.mark.parametrize("name", sorted(CORPUS_RULES))
def test_kinds_follow_the_spectrum_on_corpus(name):
    _assert_kinds_follow_the_spectrum(CORPUS_RULES[name])


@settings(max_examples=60, deadline=None)
@given(chain_systems())
def test_kinds_follow_the_spectrum_on_chain_systems(rules):
    _assert_kinds_follow_the_spectrum(rules)


# -- structural properties --------------------------------------------------------


def _measured_levels(sub, chain, sp):
    for i in range(1, chain.n + 1):
        kind = measure_type(sub, chain, sp, i).kind
        if kind in ("finite_ergodic", "infinite_radon"):
            yield i, kind


def test_shift_invariance_and_consistency(corpus_sub):
    """Left and right one-letter extensions both resum to the word's value."""
    chain = component_chain(corpus_sub)
    sp = block_eigenvalues(corpus_sub, chain)
    for i, _ in _measured_levels(corpus_sub, chain, sp):
        sub_i = corpus_sub.restrict(chain.alphabet_at(i))
        for m in (1, 2):
            lang_ext = language(sub_i, m + 1)
            for v in sorted(language(sub_i, m)):
                base = cylinder_measure(corpus_sub, chain, sp, i, v)
                lefts = [a + v for a in sub_i.alphabet if a + v in lang_ext]
                rights = [v + a for a in sub_i.alphabet if v + a in lang_ext]
                for exts in (lefts, rights):
                    vals = [cylinder_measure(corpus_sub, chain, sp, i, w) for w in exts]
                    if base.infinite:
                        assert any(cv.infinite for cv in vals)
                        continue
                    assert not any(cv.infinite for cv in vals)
                    assert abs(sum(cv.value for cv in vals) - base.value) <= 1e-9


def test_probability_normalization(corpus_sub):
    chain = component_chain(corpus_sub)
    sp = block_eigenvalues(corpus_sub, chain)
    for i, kind in _measured_levels(corpus_sub, chain, sp):
        if kind != "finite_ergodic":
            continue
        sub_i = corpus_sub.restrict(chain.alphabet_at(i))
        for m in (1, 2, 3):
            total = sum(
                cylinder_measure(corpus_sub, chain, sp, i, w).value
                for w in language(sub_i, m)
            )
            assert abs(total - 1.0) <= 1e-9


def test_window_independence_for_infinite_levels(corpus_sub):
    """Values computed at window m agree with marginals of window m+1."""
    chain = component_chain(corpus_sub)
    sp = block_eigenvalues(corpus_sub, chain)
    for i, kind in _measured_levels(corpus_sub, chain, sp):
        if kind != "infinite_radon":
            continue
        sub_i = corpus_sub.restrict(chain.alphabet_at(i))
        lang_ext = language(sub_i, 2)
        for v in sorted(language(sub_i, 1)):
            base = cylinder_measure(corpus_sub, chain, sp, i, v)
            if base.infinite:
                continue
            exts = [v + a for a in sub_i.alphabet if v + a in lang_ext]
            total = sum(cylinder_measure(corpus_sub, chain, sp, i, w).value for w in exts)
            assert abs(total - base.value) <= 1e-9


# -- cylinder tables by desubstitution --------------------------------------------


def _exact_levels(sub, chain, sp):
    return [i for i, _ in _measured_levels(sub, chain, sp) if sp.theta(i).as_integer() is not None]


@settings(max_examples=100, deadline=None)
@given(chain_systems())
@example(CORPUS_RULES["chacon"])  # a -> a: the m = 2 straddle map has self-loops
@example({"a": "aaaaa", "b": "abcc", "c": "bbc"})  # infinite Radon, two new letters
@example({"a": "aaaa", "b": "ac", "c": "abbbbbbc"})  # infinite, Perron vector (1, 3)
@example(CORPUS_RULES["constant_reenters"])
@example({"c": "c", "a": "acbb", "b": "a"})  # a fixed letter and p = 2
@example({"a": "a", "b": "bbac", "c": "ccab"})  # same-length ancestors on a 2-cycle
def test_ancestor_tables_match_window_solves_on_chain_systems(rules):
    """An integer-theta level's table at every m, letters and pairs
    included, comes from its letter values by desubstitution. It equals the
    window solve's table (``oracles.window_table``) exactly, every value and
    every infinite flag, and holds exactly the level's words."""
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    sp = block_eigenvalues(sub, chain)
    for i in _exact_levels(sub, chain, sp):
        level = measures._level(chain, sp, i)
        for m in range(1, 11):
            table = level.table(chain, sp, m)
            assert table == oracles.window_table(sub, chain, sp, i, m), (rules, i, m)
            assert set(table) == {w for w, e in chain.word_levels(m).items() if e <= i}
        assert level.ancestors is not None


# infinite levels with an irrational theta: a bottom a -> a^r under a
# Fibonacci-like block whose golden root lies below r
FIBONACCI_OVER_POWERS = [
    {"a": "a" * r, "b": b, "c": c}
    for r in (2, 3, 4)
    for b, c in (("abc", "b"), ("bca", "b"), ("bac", "ab"), ("cab", "ba"))
]


def _irrational_cases():
    cases = []
    for name in sorted(CORPUS_RULES):
        sub, chain, sp = _setup(name)
        levels = [i for i, _ in _measured_levels(sub, chain, sp)]
        cases += [(CORPUS_RULES[name], i, 10) for i in levels if sp.theta(i).as_integer() is None]
    for rules in FIBONACCI_OVER_POWERS:
        sub, chain, sp = _setup_rules(rules)
        assert not sp.level_is_finite(2) and sp.theta(2).as_integer() is None, rules
        cases.append((rules, 2, 6))
    return cases


def _setup_rules(rules):
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    return sub, chain, block_eigenvalues(sub, chain)


IRRATIONAL = _irrational_cases()


@pytest.mark.parametrize("rules, i, max_m", IRRATIONAL, ids=[f"{r}-{i}" for r, i, _ in IRRATIONAL])
def test_irrational_tables_equal_the_window_oracle_bit_for_bit(rules, i, max_m):
    """An irrational level's table, float values and algebraic notes, is
    the window solve's (``oracles.window_table``, on a fresh chain) bit for
    bit: the finite values from ``pf_vectors`` on the level's chain with its
    own profile, the infinite ones from ``limit_data``."""
    sub, chain, sp = _setup_rules(rules)
    level = measures._level(chain, sp, i)
    for m in range(1, max_m + 1):
        table = level.table(chain, sp, m)
        assert table == oracles.window_table(*_setup_rules(rules), i, m), (rules, i, m)
        assert set(table) == {w for w, e in chain.word_levels(m).items() if e <= i}
        assert all(e[1] is None and (e[0] or isinstance(e[2], float)) for e in table.values())
    assert level.ancestors is None


# level 2 is infinite with theta the golden ratio, below the top level
@example({"a": "aaa", "b": "abc", "c": "b", "d": "dbd"})
@settings(max_examples=40, deadline=None)
@given(chain_systems())
def test_lower_levels_read_their_own_chains(rules):
    """Every table of a level below the top, window vectors and limit data
    included, is read on the level's chain: its listing is the top level's
    of the system restricted to the level's letters."""
    sub, chain, sp = _setup_rules(rules)
    for i in range(1, chain.n):
        own = _setup_rules(oracles.restrict(rules, chain.alphabet_at(i)))
        got = json.dumps(level_measure_table(sub, chain, sp, i, max_m=4))
        assert got == json.dumps(level_measure_table(*own, i, max_m=4)), (rules, i)


def test_ancestor_tables_stop_at_the_letter_budget(monkeypatch):
    # ``language`` and the ancestor tables share one budget
    assert words.LANGUAGE_BUDGET is measures.LANGUAGE_BUDGET
    setup = _setup("golden_tower")
    rules = {c: CORPUS_RULES["golden_tower"][c] for c in "abcd"}
    word = oracles.power(rules, "c", 5)[:40]
    expected = cylinder_measure(*_setup("golden_tower"), 2, word[:5]).exact
    monkeypatch.setattr(measures, "LANGUAGE_BUDGET", 5000)
    with pytest.raises(BudgetExceeded, match="exceed 5000 letters"):
        cylinder_measure(*setup, 2, word)
    # the lengths finished before the refusal still answer
    assert cylinder_measure(*setup, 2, word[:5]).exact == expected


_CORRUPT_ANCESTORS = """
from chainshift import InternalInvariantError, Substitution, block_eigenvalues
from chainshift import component_chain, cylinder_measure
sub = Substitution.from_rules({"a": "aaaa", "b": "abbb", "c": "cbc"})
chain = component_chain(sub)
profile = block_eigenvalues(sub, chain)
cylinder_measure(sub, chain, profile, 2, "abb")
state = chain._memo[("level", 2)].ancestors
word = next(w for w, x in state.nums[3].items() if x)
state.nums[3][word] += 1
try:
    cylinder_measure(sub, chain, profile, 2, "abbb")
except InternalInvariantError as exc:
    print("raised", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["debug", "optimized"])
def test_corrupted_ancestor_table_fails_kolmogorov_under_optimize(flags):
    # each new length is checked against the one below it by an explicit
    # typed raise, which ``python -O`` keeps
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _CORRUPT_ANCESTORS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised m=4: extensions of"), proc.stdout


_BROKEN_LETTER_BASE = """
from chainshift import InternalInvariantError, Substitution, block_eigenvalues
from chainshift import component_chain, cylinder_measure, spectral
left = spectral._left_vector
def negated(*args):
    return {c: -x for c, x in left(*args).items()}
def skewed(*args):
    values = left(*args)
    c = min(values)
    return {**values, c: values[c] + 1}
finite = {"a": "a", "b": "bbab"}  # chacon, level 2 on two letters
infinite = {"a": "aaaaa", "b": "abcc", "c": "bbc"}  # level 2 on its two new letters
for broken in (negated, skewed):
    spectral._left_vector = broken
    for rules in (finite, infinite):
        sub = Substitution.from_rules(rules)
        chain = component_chain(sub)
        try:
            cylinder_measure(sub, chain, block_eigenvalues(sub, chain), 2, "b")
        except InternalInvariantError as exc:
            print("raised", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["debug", "optimized"])
def test_broken_letter_base_raises_under_optimize(flags):
    # the letter values every integer-theta table starts from are checked by
    # the exact eigen identity and for positivity, by explicit typed raises
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _BROKEN_LETTER_BASE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised level 2: the left letter vector is not positive",
        "raised level 2: the left letter vector is not positive",
        "raised level 2 letter vector fails the exact left eigen identity for 3",
        "raised level 2 letter vector fails the exact left eigen identity for 3",
    ], proc.stdout


# -- streaming -------------------------------------------------------------------


def test_empirical_frequency_fibonacci_bottom():
    setup = _setup("golden_tower")
    freq = empirical_frequency(*setup, 1, "a", 10_000)
    assert abs(freq.ratio - (SQRT5 - 1) / 2) <= 5e-3


def test_empirical_frequency_scaled_count(monkeypatch):
    setup = _setup("quartic")
    monkeypatch.setattr(measures, "POWER_BUDGET", 2 * 10**12)
    freq = empirical_frequency(*setup, 2, "ab", 10_000)
    assert freq.scaled_power == 20
    assert abs(freq.scaled_value - 1 / 3) <= 1e-3
    monkeypatch.setattr(measures, "POWER_BUDGET", 10**9)
    freq_b = empirical_frequency(*setup, 2, "b", 10_000)
    assert abs(freq_b.scaled_value - 1.0) <= 1e-3


def test_empirical_frequency_guards():
    setup = _setup("quartic")
    with pytest.raises(WordNotInLevelLanguage):
        empirical_frequency(*setup, 2, "ccc", 100)
    from chainshift import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        empirical_frequency(*setup, 1, "a", 10**12 + 1)
    setup2 = _setup("tower_of_quasi")
    with pytest.raises(DomainError):
        empirical_frequency(*setup2, 2, "ac", 100)


def test_uniformity_quartic_small():
    setup = _setup("quartic")
    result = uniformity_check(*setup, 2, "bb", 2000, offsets=(0, 257))
    assert abs(result.target - 2 / 3) < 1e-12
    assert result.max_deviation <= 5e-2


def test_uniformity_quartic_full_scale():
    setup = _setup("quartic")
    result = uniformity_check(*setup, 2, "bb", 10_000, offsets=(0, 1_000, 10_000))
    assert abs(result.target - 2 / 3) < 1e-12
    assert result.max_deviation <= 2e-2


def test_uniformity_single_window_passthrough():
    # windows are inclusive on both endpoints, so one return interval sees
    # the new letter twice
    setup = _setup("quartic")
    result = uniformity_check(*setup, 2, "b", 1, offsets=(0,))
    assert result.ratios[0] == 2.0
    shifted = uniformity_check(*setup, 2, "b", 1, offsets=(5,))
    assert shifted.ratios[5] == 2.0


def test_uniformity_requires_new_letter():
    setup = _setup("quartic")
    with pytest.raises(DomainError):
        uniformity_check(*setup, 2, "aa", 10)


def test_uniformity_refuses_theta_one_without_the_census():
    # a theta = 1 level has no frequency target, whether or not it holds a
    # quasi-fixed point: the refusal runs neither the census nor the seed search
    refused = 0
    for name in sorted(CORPUS_RULES):
        sub, chain, spectral = _setup(name)
        for i in range(2, chain.n + 1):
            if not spectral.theta_is_one(i):
                continue
            with pytest.raises(DomainError, match=f"level {i} has eigenvalue 1; no frequency target"):
                uniformity_check(sub, chain, spectral, i, chain.new_letters(i)[0], 10)
            assert ("point_seeds", i) not in chain._memo, (name, i)
            assert ("seed_pair", i) not in chain._memo, (name, i)
            refused += 1
    assert refused == 8


def test_uniformity_rejects_bad_windows():
    setup = _setup("quartic")
    for n, offsets in ((0, (0,)), (5, (-1, 0)), (5, ())):
        with pytest.raises(DomainError, match="window size"):
            uniformity_check(*setup, 2, "b", n, offsets)


def test_uniformity_chacon_shrinks():
    setup = _setup("chacon")
    wide = uniformity_check(*setup, 2, "ba", 3000, offsets=(0, 100, 1000))
    narrow = uniformity_check(*setup, 2, "ba", 300, offsets=(0, 100, 1000))
    assert wide.max_deviation <= narrow.max_deviation + 1e-3
    assert wide.max_deviation <= 0.1


def _uniformity_levels():
    out = []
    for name in sorted(CORPUS_RULES):
        sub, chain, sp = _setup(name)
        out += [(name, i) for i in range(2, chain.n + 1) if not sp.theta_is_one(i)]
    return out


UNIFORMITY_LEVELS = _uniformity_levels()


@pytest.mark.parametrize(
    "name, i", UNIFORMITY_LEVELS, ids=[f"{n}-{i}" for n, i in UNIFORMITY_LEVELS]
)
def test_uniformity_refuses_words_outside_the_level(name, i):
    # membership is a key test on the level's cylinder table: a word with a
    # new letter that L_m(i) lacks is refused, over the level's letters or
    # with a letter of a higher level or none
    setup = _setup(name)
    sub, chain, _ = setup
    new = set(chain.new_letters(i))
    outside = []
    for letters in (chain.alphabet_at(i), sub.alphabet.letters + ("z",)):
        for m in (2, 3):
            level = {w for w, e in chain.word_levels(m).items() if e <= i}
            words = ("".join(w) for w in itertools.product(letters, repeat=m))
            outside += [w for w in words if new & set(w) and w not in level][:1]
    assert outside
    for v in outside:
        with pytest.raises(WordNotInLevelLanguage, match=f"not in the level-{i} language"):
            uniformity_check(*setup, i, v, 10)


@pytest.mark.parametrize(
    "name, i", UNIFORMITY_LEVELS, ids=[f"{n}-{i}" for n, i in UNIFORMITY_LEVELS]
)
def test_uniformity_target_is_a_ratio_of_cylinder_values(name, i):
    # mu(v) over the total mu of the |v|-words that start with a new letter,
    # bit for bit: exact where the values are, else correctly rounded sums
    setup = _setup(name)
    sub, chain, _ = setup
    new = set(chain.new_letters(i))
    for m in (1, 2, 3):
        level_words = sorted(w for w, e in chain.word_levels(m).items() if e <= i)
        values = {w: cylinder_measure(*setup, i, w) for w in level_words}
        starts = [cv for w, cv in values.items() if w[0] in new]
        for v in (w for w in level_words if new & set(w)):
            target = uniformity_check(*setup, i, v, 1).target
            if values[v].exact is not None:
                assert target == float(values[v].exact / sum(cv.exact for cv in starts)), v
            else:
                assert target == values[v].value / math.fsum(cv.value for cv in starts), v
