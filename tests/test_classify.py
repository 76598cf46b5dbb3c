import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import oracles
from chainshift import (
    DomainError,
    NoPrimitiveChainError,
    Substitution,
    apply,
    arbitrarily_long_s_powers,
    block_eigenvalues,
    classify_level,
    component_chain,
    decomposition_report,
    find_seed_pair,
    language,
    minimal_sets,
    positively_recurrent,
)
from chainshift.classify import (
    _letter_cycles,
    _pair_seeds,
    left_run_unbounded,
    right_run_unbounded,
)
from conftest import make, tower
from test_pipeline_fuzz import chain_systems


def _setup(name: str):
    sub = make(name)
    chain = component_chain(sub)
    return sub, chain, block_eigenvalues(sub, chain)


def _report(name: str):
    sub, chain, sp = _setup(name)
    return sub, chain, sp, decomposition_report(sub, chain, sp)


# -- seed pairs -------------------------------------------------------------


def test_seed_chacon():
    sub, chain, _ = _setup("chacon")
    seed = find_seed_pair(sub, chain, 2)
    assert (seed.a, seed.b, seed.k) == ("a", "b", 1)
    assert seed.orientation == "forward"
    assert seed.u == "" and seed.v == "bab"
    assert apply(sub, "ab", 1) == "ab" + seed.v


def test_seed_tower_of_quasi_level_two():
    sub, chain, _ = _setup("tower_of_quasi")
    seed = find_seed_pair(sub, chain, 2)
    assert (seed.a, seed.b, seed.u, seed.v) == ("a", "c", "ab", "b")


def test_seed_quartic_level_three():
    sub, chain, _ = _setup("quartic")
    seed = find_seed_pair(sub, chain, 3)
    assert seed.orientation == "forward"
    assert (seed.a, seed.b) == ("b", "c")
    assert apply(sub, "bc", seed.k) == seed.u + "bc" + seed.v


def test_seed_reverse_orientation():
    sub, chain, _ = _setup("left_tail")
    seed = find_seed_pair(sub, chain, 2)
    assert seed.orientation == "reverse"
    assert apply(sub, seed.b + seed.a, seed.k) == seed.v + seed.b + seed.a + seed.u


def test_seed_identity_on_whole_corpus(corpus_sub):
    chain = component_chain(corpus_sub)
    for i in range(2, chain.n + 1):
        seed = find_seed_pair(corpus_sub, chain, i)
        lower = set(chain.alphabet_at(i - 1))
        assert seed.a in lower and seed.b in chain.new_letters(i)
        if seed.orientation == "forward":
            assert apply(corpus_sub, seed.a + seed.b, seed.k) == seed.u + seed.a + seed.b + seed.v
        else:
            assert apply(corpus_sub, seed.b + seed.a, seed.k) == seed.v + seed.b + seed.a + seed.u
        assert set(seed.u) <= lower


def test_seed_rejects_bottom_level():
    sub, chain, _ = _setup("chacon")
    with pytest.raises(DomainError):
        find_seed_pair(sub, chain, 1)


# -- s-run machinery ---------------------------------------------------------


def test_arbitrarily_long_powers():
    assert not arbitrarily_long_s_powers(make("chacon"), "a")
    assert arbitrarily_long_s_powers(make("almost_min_tower"), "a")
    assert arbitrarily_long_s_powers(make("constant_reenters"), "a")
    sub2 = make("constant_reenters").restrict(("a", "b"))
    assert not arbitrarily_long_s_powers(sub2, "a")


def test_run_unboundedness_matches_bounded_language_scan(corpus_sub):
    """Cycle-based run analysis agrees with direct language membership."""
    chain = component_chain(corpus_sub)
    bottom = chain.alphabet_at(1)
    if len(bottom) != 1 or corpus_sub.image(bottom[0]) != bottom[0]:
        return
    s = bottom[0]
    for i in range(2, chain.n + 1):
        sub_i = corpus_sub.restrict(chain.alphabet_at(i))
        for c in chain.alphabet_at(i):
            if c == s:
                continue
            for p in (4, 7):
                in_lang = (s * p + c) in language(sub_i, p + 1)
                if left_run_unbounded(sub_i, s, c):
                    assert in_lang, (i, c, p)
            for p in (4, 7):
                in_lang = (c + s * p) in language(sub_i, p + 1)
                if right_run_unbounded(sub_i, s, c):
                    assert in_lang, (i, c, p)


def test_left_run_detects_junction_growth():
    # trailing runs of one letter feed the run before a cycle letter
    sub = make("almost_min_tower")
    chain = component_chain(sub)
    sub4 = sub.restrict(chain.alphabet_at(4))
    sub3 = sub.restrict(chain.alphabet_at(3))
    assert left_run_unbounded(sub4, "a", "d")
    assert not left_run_unbounded(sub3, "a", "d")


# -- level classification ----------------------------------------------------


def test_chacon_level_is_minimal():
    _, _, _, rep = _report("chacon")
    level2 = rep.levels[1]
    assert level2.case == "minimal"
    assert level2.point_seeds == []
    assert level2.quasi_fixed is not None and not level2.quasi_fixed.isolated_orbit


def test_fib_tail_level_two_is_empty():
    _, _, _, rep = _report("fib_tail")
    level2 = rep.levels[1]
    assert level2.case == "no_two_sided_excursion"
    assert level2.point_seeds == [] and not level2.x_i_nonempty


def test_two_limit_orbits_seeds():
    _, _, _, rep = _report("two_limit_orbits")
    level2 = rep.levels[1]
    assert level2.case == "no_two_sided_excursion"
    pairs = {(p.gamma, p.delta) for p in level2.point_seeds}
    assert pairs == {("a", "a"), ("b", "b")}
    assert all(p.form == "pair" and not p.shift_periodic for p in level2.point_seeds)


def test_quasi_and_limits_level_two():
    sub, chain, sp, rep = _report("quasi_and_limits")
    level2 = rep.levels[1]
    assert level2.case == "isolated_quasi_fixed"
    assert level2.quasi_fixed.primitive_type and level2.quasi_fixed.isolated_orbit
    assert not level2.quasi_fixed.positively_recurrent
    pairs = {(p.gamma, p.delta) for p in level2.point_seeds}
    assert pairs == {("a", "a"), ("c", "c")}


def test_almost_min_tower_reports():
    _, _, _, rep = _report("almost_min_tower")
    level2 = rep.levels[1]
    assert level2.case == "almost_minimal"
    assert [p.kind for p in level2.point_seeds] == ["fixed_letter_power"]
    assert level2.point_seeds[0].shift_periodic
    level4 = rep.levels[3]
    assert level4.case == "no_two_sided_excursion"
    assert [(p.form, p.gamma) for p in level4.point_seeds] == [("s_left", "d")]
    assert not level4.point_seeds[0].shift_periodic


def test_left_tail_single_fixed_point():
    _, _, _, rep = _report("left_tail")
    level2 = rep.levels[1]
    assert level2.case == "single_fixed_point"
    assert [p.kind for p in level2.point_seeds] == ["fixed_letter_power"]


def test_tower_of_quasi_levels():
    _, _, _, rep = _report("tower_of_quasi")
    for lr in rep.levels[1:]:
        assert lr.case == "isolated_quasi_fixed"
        assert lr.quasi_fixed.primitive_type
        assert lr.point_seeds == []


def test_quartic_levels_dense():
    _, _, _, rep = _report("quartic")
    for lr in rep.levels[1:]:
        assert lr.case == "dense_excursions"
        assert lr.x_i_nonempty and lr.quasi_fixed.positively_recurrent
        assert lr.point_seeds == []


def test_constant_reenters_level_three():
    _, _, _, rep = _report("constant_reenters")
    level3 = rep.levels[2]
    assert level3.case == "dense_excursions"
    assert [p.kind for p in level3.point_seeds] == ["fixed_letter_power"]


def test_bilateral_seed_invariants(corpus_sub):
    """Every emitted pair seed satisfies its defining fixed-letter conditions."""
    chain = component_chain(corpus_sub)
    sp = block_eigenvalues(corpus_sub, chain)
    rep = decomposition_report(corpus_sub, chain, sp)
    for i in range(2, chain.n + 1):
        lr = rep.levels[i - 1]
        lang2_below = language(corpus_sub.restrict(chain.alphabet_at(i - 1)), 2)
        for p in lr.point_seeds:
            if p.kind != "bilateral_limit":
                continue
            if p.form in ("pair", "s_right", "s_middle"):
                left = p.gamma if p.form == "pair" else p.delta
                assert apply(corpus_sub, left, p.q).endswith(left)
            if p.form in ("pair", "s_left", "s_middle"):
                right = p.delta if p.form == "pair" else p.gamma
                assert apply(corpus_sub, right, p.q).startswith(right)
            if p.form == "pair":
                assert p.gamma + p.delta not in lang2_below


def test_positively_recurrent_examples():
    sub, chain, _ = _setup("tower_of_quasi")
    seed = find_seed_pair(sub, chain, 2)
    assert not positively_recurrent(sub, chain, seed)
    sub2, chain2, _ = _setup("fib_expanding_tail")
    seed2 = find_seed_pair(sub2, chain2, 2)
    assert positively_recurrent(sub2, chain2, seed2)
    with pytest.raises(DomainError):
        positively_recurrent(sub, chain, seed.__class__(
            level=2, a="a", b="c", k=1, u="ab", v="", orientation="forward"))


# -- census and unique ergodicity ---------------------------------------------


UE_EXPECTATIONS = {
    "fib_tail": (True, "i", ["X_sigma_1"]),
    "two_limit_orbits": (True, "i", ["X_sigma_1"]),
    "quasi_and_limits": (True, "i", ["X_sigma_1"]),
    "tower_of_quasi": (True, "i", ["X_sigma_1"]),
    "quartic": (True, "i", ["X_sigma_1"]),
    "chacon": (True, "ii", ["X_sigma_2"]),
    "golden_tower": (False, None, ["X_sigma_1"]),
    "fib_expanding_tail": (False, None, ["X_sigma_1"]),
    "almost_min_tower": (False, None, ["s_infinity"]),
    "constant_reenters": (False, None, ["X_sigma_2", "s_infinity"]),
    "fibonacci": (True, "i", ["X_sigma_1"]),
    "left_tail": (True, "iii", ["s_infinity"]),
}


@pytest.mark.parametrize("name", sorted(UE_EXPECTATIONS))
def test_unique_ergodicity_verdicts(name):
    sub, chain, sp = _setup(name)
    result = minimal_sets(sub, chain, sp)
    verdict, clause, census = UE_EXPECTATIONS[name]
    assert result.uniquely_ergodic == verdict
    assert result.clause == clause
    assert result.census == census
    assert 1 <= len(result.census) <= 2


def test_verdict_matches_probability_class_count(corpus_sub):
    """Uniquely ergodic iff exactly one ergodic probability class exists:
    one per strictly dominating level plus the constant point when present."""
    chain = component_chain(corpus_sub)
    sp = block_eigenvalues(corpus_sub, chain)
    result = minimal_sets(corpus_sub, chain, sp)
    classes = 0
    for i in range(1, chain.n + 1):
        if not sp.theta_is_one(i) and sp.level_is_finite(i):
            classes += 1
    if sp.theta_is_one(1):
        s = chain.alphabet_at(1)[0]
        if arbitrarily_long_s_powers(corpus_sub, s):
            classes += 1
    assert result.uniquely_ergodic == (classes == 1)


def test_classify_level_rejects_bottom():
    sub, chain, sp = _setup("chacon")
    with pytest.raises(DomainError):
        classify_level(sub, chain, sp, 1)


def test_middle_run_seed_form():
    """A gap of fixed letters between two self-renewing letters yields the
    middle-run bilateral form alongside the plain pair form."""
    sub = Substitution.from_rules({"a": "a", "b": "bab", "c": "cbaab"})
    chain = component_chain(sub)
    sp = block_eigenvalues(sub, chain)
    rep = decomposition_report(sub, chain, sp)
    level3 = rep.levels[2]
    forms = sorted((p.form, p.gamma, p.delta, p.middle_s) for p in level3.point_seeds)
    assert forms == [("pair", "b", "b", 0), ("s_middle", "b", "b", 2)]
    assert all(not p.shift_periodic for p in level3.point_seeds)


def test_power_two_seed_pipeline():
    """Two new letters whose first-letter trace alternates give a k=2 seed;
    classification, measures and streaming must all step by the power."""
    from fractions import Fraction

    from chainshift import cylinder_measure, uniformity_check

    sub = Substitution.from_rules({"a": "ab", "b": "a", "c": "adc", "d": "acd"})
    chain = component_chain(sub)
    sp = block_eigenvalues(sub, chain)
    seed = find_seed_pair(sub, chain, 2)
    assert seed.k == 2
    assert apply(sub, seed.a + seed.b, 2) == seed.u + seed.a + seed.b + seed.v
    rep = decomposition_report(sub, chain, sp)
    assert rep.levels[1].case == "dense_excursions"
    assert any("power 2" in note for note in rep.levels[1].notes)
    assert cylinder_measure(sub, chain, sp, 2, "c").exact == Fraction(1, 8)
    assert cylinder_measure(sub, chain, sp, 2, "cd").exact == Fraction(1, 16)
    result = uniformity_check(sub, chain, sp, 2, "c", 2000, offsets=(0, 100))
    assert abs(result.target - 0.5) < 1e-12
    assert result.max_deviation <= 2e-2


def test_junction_growth_tower():
    """Five-level tower whose fixed-letter runs grow only through junctions.

    Trailing runs of y feed the letters g and z across image boundaries, so
    the constant-point neighbour seeds enter one level apart, and the top
    level contributes a plain bilateral pair created by a power-two junction.
    """
    sub = Substitution.from_rules(
        {"a": "a", "y": "ya", "g": "gy", "z": "gz", "t": "tyz"}
    )
    chain = component_chain(sub)
    sp = block_eigenvalues(sub, chain)
    rep = decomposition_report(sub, chain, sp)
    expected = {
        2: [("fixed_letter_power", None, "a", "a")],
        3: [("bilateral_limit", "s_left", "y", None)],
        4: [("bilateral_limit", "s_left", "g", None)],
        5: [("bilateral_limit", "pair", "z", "y")],
    }
    for level, seeds in expected.items():
        got = [(p.kind, p.form, p.gamma, p.delta) for p in rep.levels[level - 1].point_seeds]
        assert got == seeds, level
    # the gamma=g run already grows at level 4 (the image of z feeds it), so
    # nothing new appears for it at level 5
    sub4 = sub.restrict(chain.alphabet_at(4))
    sub3 = sub.restrict(chain.alphabet_at(3))
    assert left_run_unbounded(sub4, "a", "g")
    assert not left_run_unbounded(sub3, "a", "g")
    assert rep.minimal.census == ["s_infinity"] and rep.minimal.clause == "iii"


def test_open_question_note_over_periodic_middle_level():
    """A third level over a finite periodic second-level closure carries the
    unresolved period-three question as a note, never an answer."""
    sub = Substitution.from_rules({"a": "a", "b": "bab", "c": "cbab"})
    chain = component_chain(sub)
    sp = block_eigenvalues(sub, chain)
    rep = decomposition_report(sub, chain, sp)
    assert rep.levels[1].case == "minimal"
    level3 = rep.levels[2]
    assert any("unresolved" in note for note in level3.notes)
    assert [(p.form, p.gamma, p.delta) for p in level3.point_seeds] == [("pair", "b", "b")]
    assert not level3.point_seeds[0].shift_periodic
    assert rep.minimal.uniquely_ergodic and rep.minimal.clause == "ii"
    # no note when the middle level closure is infinite
    sub2, chain2, sp2 = _setup("tower_of_quasi")
    rep2 = decomposition_report(sub2, chain2, sp2)
    assert not any("unresolved" in note for lr in rep2.levels for note in lr.notes)


# -- the sweep against the per-level references ------------------------------


def _fixed_bottom(sub, chain):
    bottom = chain.alphabet_at(1)
    return bottom[0] if len(bottom) == 1 and sub.image(bottom[0]) == bottom[0] else None


def _assert_cycles_and_pairs_match(rules, expected_pairs=None):
    """Letter-map cycles and pair seeds of every level against the oracles.

    ``expected_pairs`` maps a level to its oracle pair seeds when the caller
    has them already; other levels are rebuilt from scratch here.
    """
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    f_cycles, g_cycles = _letter_cycles(chain)
    s = _fixed_bottom(sub, chain)
    for i in range(1, chain.n + 1):
        rules_i = oracles.restrict(rules, chain.alphabet_at(i))
        for cycles, step in ((f_cycles, oracles.first_map(rules_i)),
                             (g_cycles, oracles.last_map(rules_i))):
            for c in rules_i:
                on_cycle, length = oracles.cycle_info(step, c)
                assert (c in cycles) == on_cycle
                assert cycles.get(c, length) == length
        if i >= 2:
            got = [(p.gamma, p.delta, p.q) for p in _pair_seeds(chain, i, s)]
            if expected_pairs is None or i not in expected_pairs:
                assert got == oracles.pair_seeds(rules, chain.levels, i, s)
            else:
                assert got == expected_pairs[i]


def test_cycles_and_pair_seeds_match_oracles_on_corpus(corpus_sub):
    _assert_cycles_and_pairs_match({c: corpus_sub.image(c) for c in corpus_sub.alphabet})


MIXED = [i % 3 != 1 for i in range(64)]


@pytest.mark.parametrize("before", (True, False, MIXED), ids=("before", "after", "mixed"))
def test_cycles_and_pair_seeds_match_oracles_on_towers(before):
    # Level i is the same system in every tower of height >= i, so one
    # from-scratch pair-seed oracle per level serves heights 2..64.
    rs = [2] + [1 + i % 3 for i in range(1, 64)]
    full = tower(rs, before)
    levels = [tuple(full)[:i] for i in range(1, 65)]
    expected = {i: oracles.pair_seeds(full, levels, i, None) for i in range(2, 65)}
    assert any(expected.values())  # runs of length one make pair seeds
    for n in range(2, 65):
        _assert_cycles_and_pairs_match(tower(rs[:n], before), expected)


@settings(max_examples=60, deadline=None)
@given(chain_systems())
def test_cycles_and_pair_seeds_match_oracles_on_chain_systems(rules):
    _assert_cycles_and_pairs_match(rules)


def test_sweep_invariants_survive_optimize():
    # Each broken invariant must raise RuntimeError explicitly, also under
    # ``python -O``, which strips assert statements.
    script = (
        "from chainshift import *\n"
        "from chainshift import classify, spectral, structure\n"
        "from chainshift.exact import AlgebraicReal\n"
        "def expect(fn, *args):\n"
        "    try:\n"
        "        fn(*args)\n"
        "    except RuntimeError as exc:\n"
        "        print('raised', exc)\n"
        "sub = Substitution.from_rules({'a': 'aaaa', 'b': 'abbb', 'c': 'cbc'})\n"
        "chain = component_chain(sub)\n"
        "real = AlgebraicReal.integer_root\n"
        "AlgebraicReal.integer_root = classmethod(lambda cls, poly, r: AlgebraicReal((1, -1)))\n"
        "expect(block_eigenvalues, sub, chain)\n"
        "AlgebraicReal.integer_root = real\n"
        "languages = structure.level_languages\n"
        "structure.level_languages = lambda sub, levels, m: [frozenset()] * len(levels)\n"
        "expect(find_seed_pair, sub, chain, 2)\n"
        "structure.level_languages = languages\n"
        "sub = Substitution.from_rules({'a': 'abca', 'b': 'bacb', 'c': 'cbac', 'd': 'abbcad'})\n"
        "chain = component_chain(sub)\n"
        "windows = classify._make_windows\n"
        "def doubled(sub, letters, s, seeds, cap):\n"
        "    windows(sub, letters, s, seeds, cap)\n"
        "    for seed in seeds:\n"
        "        seed.window += seed.window\n"
        "classify._make_windows = doubled\n"
        "expect(classify._periodic_point_seeds, sub, chain, 2)\n"
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
        assert len(lines) == 3, proc.stdout
        assert "theta = 1 must hold exactly when the block is [1]" in lines[0]
        assert "no crossing pair" in lines[1]
        assert "is not unique in its window" in lines[2]


def _forward_seed_levels(rules: dict[str, str]) -> int:
    """Check that every level with theta > 1 has a lower-then-new word in its
    two-letter language and a forward seed; return how many of them carry a
    quasi-fixed point."""
    sub = Substitution.from_rules(rules)
    try:
        chain = component_chain(sub)
    except NoPrimitiveChainError:
        return 0
    sp = block_eigenvalues(sub, chain)
    quasi_fixed = 0
    for i in range(2, chain.n + 1):
        if sp.theta_is_one(i):
            continue
        lower, new = set(chain.alphabet_at(i - 1)), set(chain.new_letters(i))
        two = oracles.language_closure(oracles.restrict(rules, chain.alphabet_at(i)), 2)
        assert any(w[0] in lower and w[1] in new for w in two), (rules, i)
        report = classify_level(sub, chain, sp, i)
        assert report.seed.orientation == "forward", (rules, i)
        quasi_fixed += report.quasi_fixed is not None
    return quasi_fixed


def test_levels_above_one_have_forward_seeds_on_corpus_and_mirrors(corpus_sub):
    rules = dict(zip(corpus_sub.alphabet.letters, corpus_sub.images))
    _forward_seed_levels(rules)
    _forward_seed_levels({c: img[::-1] for c, img in rules.items()})


def test_levels_above_one_have_forward_seeds_on_seeded_draws():
    rng = random.Random(424242)
    quasi_fixed = sum(_forward_seed_levels(oracles.random_substitution(rng)) for _ in range(3000))
    assert quasi_fixed == 373


@settings(max_examples=100, deadline=None)
@given(chain_systems())
def test_levels_above_one_have_forward_seeds_on_chain_systems(rules):
    _forward_seed_levels(rules)
