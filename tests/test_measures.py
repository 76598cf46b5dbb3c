import math
from fractions import Fraction

import pytest

from chainshift import (
    DomainError,
    MeasureTypeCounting,
    WordNotInLevelLanguage,
    block_eigenvalues,
    component_chain,
    cylinder_measure,
    empirical_frequency,
    language,
    measure_type,
    uniformity_check,
)
from conftest import make

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


# -- streaming -------------------------------------------------------------------


def test_empirical_frequency_fibonacci_bottom():
    setup = _setup("golden_tower")
    freq = empirical_frequency(*setup, 1, "a", 10_000)
    assert abs(freq.ratio - (SQRT5 - 1) / 2) <= 5e-3


def test_empirical_frequency_scaled_count():
    setup = _setup("quartic")
    freq = empirical_frequency(*setup, 2, "ab", 10_000, power_budget=2 * 10**12)
    assert freq.scaled_power == 20
    assert abs(freq.scaled_value - 1 / 3) <= 1e-3
    freq_b = empirical_frequency(*setup, 2, "b", 10_000, power_budget=10**9)
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
