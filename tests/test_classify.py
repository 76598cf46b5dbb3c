import fractions
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from chainshift import (
    BudgetExceeded,
    ChainshiftError,
    NoPrimitiveChainError,
    Substitution,
    apply,
    block_eigenvalues,
    component_chain,
    decomposition_report,
    language,
)
from chainshift import classify, cli
from chainshift.classify import _is_single_periodic_orbit, _letter_cycles, _pair_seeds, _s_run_levels
from conftest import CORPUS_RULES, make, tower
from test_pipeline_fuzz import chain_systems


def _setup(name: str):
    sub = make(name)
    chain = component_chain(sub)
    return sub, chain, block_eigenvalues(sub, chain)


def _report(name: str):
    sub, chain, sp = _setup(name)
    return sub, chain, sp, decomposition_report(sub, chain, sp)


def _seed(sub: Substitution, i: int):
    """The seed pair of level i >= 2 on a fresh chain, through the private
    door ``measures`` reads it by."""
    chain = component_chain(sub)
    return classify._level_seed(chain, block_eigenvalues(sub, chain), i)


# -- seed pairs -------------------------------------------------------------


def test_seed_chacon():
    sub = make("chacon")
    seed = _seed(sub, 2)
    assert (seed.a, seed.b, seed.k) == ("a", "b", 1)
    assert seed.orientation == "forward"
    assert seed.u == "" and seed.v == "bab"
    assert apply(sub, "ab", 1) == "ab" + seed.v


def test_seed_tower_of_quasi_level_two():
    sub = make("tower_of_quasi")
    seed = _seed(sub, 2)
    assert (seed.a, seed.b, seed.u, seed.v) == ("a", "c", "ab", "b")


def test_seed_quartic_level_three():
    sub = make("quartic")
    seed = _seed(sub, 3)
    assert seed.orientation == "forward"
    assert (seed.a, seed.b) == ("b", "c")
    assert apply(sub, "bc", seed.k) == seed.u + "bc" + seed.v


def test_seed_reverse_orientation():
    sub = make("left_tail")
    seed = _seed(sub, 2)
    assert seed.orientation == "reverse"
    assert apply(sub, seed.b + seed.a, seed.k) == seed.v + seed.b + seed.a + seed.u


def test_seed_identity_on_whole_corpus(corpus_sub):
    chain = component_chain(corpus_sub)
    profile = block_eigenvalues(corpus_sub, chain)
    for i in range(2, chain.n + 1):
        seed = classify._level_seed(chain, profile, i)
        lower = set(chain.alphabet_at(i - 1))
        assert seed.a in lower and seed.b in chain.new_letters(i)
        if seed.orientation == "forward":
            assert apply(corpus_sub, seed.a + seed.b, seed.k) == seed.u + seed.a + seed.b + seed.v
        else:
            assert apply(corpus_sub, seed.b + seed.a, seed.k) == seed.v + seed.b + seed.a + seed.u
        assert set(seed.u) <= lower


def _pinned_systems() -> dict[str, dict[str, str]]:
    """The corpus and 25 towers, named as in ``seed_pairs.json``."""
    systems = dict(CORPUS_RULES)
    for n in (2, 3, 5, 8):
        for r in (1, 2, 3):
            for before in (True, False):
                systems[f"tower_{n}_r{r}_{'before' if before else 'after'}"] = tower([r] * n, before)
    rs = [2 + i % 2 for i in range(64)]
    systems["tower_64_mixed"] = tower(rs, [i % 3 != 1 for i in range(64)])
    return systems


def test_seed_pairs_are_pinned():
    # Every level's seed pair, field by field as recorded in seed_pairs.json:
    # a faster seed search must find the very same identities.
    path = Path(__file__).resolve().parent / "seed_pairs.json"
    pinned = json.loads(path.read_text(encoding="utf-8"))
    systems = _pinned_systems()
    assert set(pinned) == set(systems)
    for name, rules in systems.items():
        sub = Substitution.from_rules(rules)
        chain = component_chain(sub)
        profile = block_eigenvalues(sub, chain)
        seeds = [classify._level_seed(chain, profile, i) for i in range(2, chain.n + 1)]
        got = [[s.level, s.a, s.b, s.k, s.u, s.v, s.orientation] for s in seeds]
        assert got == pinned[name], name


PINNED_REPORTS = Path(__file__).resolve().parent / "pinned_reports.jsonl"


def _pinned_report_line(name: str, rules: dict[str, str]) -> str:
    """One line of ``pinned_reports.jsonl``: the ``classify`` JSON of a fresh
    chain, its ``witness_k`` and each level's theta (float, characteristic
    polynomial and integer value).

    The file holds this line for every ``_pinned_systems()`` entry, in that
    order, each followed by a newline; it was written by this function.
    """
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    report = decomposition_report(sub, chain, profile)
    thetas = [[float(ls.theta), list(ls.char_poly), ls.theta.as_integer()] for ls in profile.levels]
    entry = {
        "classification": cli._classification_json(report),
        "witness_k": chain.witness_k,
        "thetas": thetas,
    }
    return json.dumps([name, entry], ensure_ascii=False, sort_keys=True)


def test_pinned_reports_name_every_pinned_system():
    lines = PINNED_REPORTS.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)[0] for line in lines] == list(_pinned_systems())


@pytest.mark.parametrize("name", list(_pinned_systems()))
def test_full_reports_are_pinned(name):
    # The whole report byte for byte: cases, seeds, quasi-fixed flags, every
    # point seed (the s-forms of the r = 1 towers included), notes, minimal
    # sets, witness_k and theta.
    lines = PINNED_REPORTS.read_text(encoding="utf-8").splitlines()
    recorded = {json.loads(line)[0]: line for line in lines}
    assert _pinned_report_line(name, _pinned_systems()[name]) == recorded[name]


def test_seed_expansion_budget_is_exact(monkeypatch):
    # sigma(ab) on quartic is aaaaabbb: eight letters may be expanded, seven may not
    sub = make("quartic")
    monkeypatch.setattr(classify, "SEED_BUDGET", 8)
    assert _seed(sub, 2).u == "aaaa"
    monkeypatch.setattr(classify, "SEED_BUDGET", 7)
    with pytest.raises(BudgetExceeded, match="seed expansion exceeds 7 letters"):
        _seed(sub, 2)


def test_window_radius_reads_image_lengths(corpus_sub, monkeypatch):
    # twice the longest |sigma^j(c)|, j = min(2q, 8), over the level's letters,
    # from the length recurrence: equal to the expanded words, written by none
    chain = component_chain(corpus_sub)
    cases = [(i, q) for i in range(1, chain.n + 1) for q in (1, 2, 3)]
    expected = [
        2 * max(len(apply(corpus_sub, c, min(2 * q, 8))) for c in chain.alphabet_at(i)) for i, q in cases
    ]

    def expanded(*args):
        raise AssertionError("a window radius expanded a word")

    monkeypatch.setattr(classify, "apply", expanded)
    assert [classify._window_radius(corpus_sub, chain.alphabet_at(i), q, 10**9) for i, q in cases] == expected
    assert classify._window_radius(corpus_sub, chain.alphabet_at(chain.n), 3, 40) == min(expected[-1], 40)


# -- s-run machinery ---------------------------------------------------------


def _flat_runs(sub: Substitution, s: str):
    """``_s_run_levels`` with the whole alphabet as one level: each fact holds
    exactly where its entry is 1."""
    return _s_run_levels(sub, s, (sub.alphabet.letters,))


def test_arbitrarily_long_powers():
    assert _flat_runs(make("chacon"), "a")[0] != 1
    assert _flat_runs(make("almost_min_tower"), "a")[0] == 1
    assert _flat_runs(make("constant_reenters"), "a")[0] == 1
    sub2 = make("constant_reenters").restrict(("a", "b"))
    assert _flat_runs(sub2, "a")[0] != 1


def test_run_unboundedness_matches_bounded_language_scan(corpus_sub):
    """Cycle-based run analysis agrees with direct language membership."""
    chain = component_chain(corpus_sub)
    bottom = chain.alphabet_at(1)
    if len(bottom) != 1 or corpus_sub.image(bottom[0]) != bottom[0]:
        return
    s = bottom[0]
    for i in range(2, chain.n + 1):
        sub_i = corpus_sub.restrict(chain.alphabet_at(i))
        _, left, right, _ = _flat_runs(sub_i, s)
        for c in chain.alphabet_at(i):
            if c == s:
                continue
            for p in (4, 7):
                in_lang = (s * p + c) in language(sub_i, p + 1)
                if left[c] == 1:
                    assert in_lang, (i, c, p)
            for p in (4, 7):
                in_lang = (c + s * p) in language(sub_i, p + 1)
                if right[c] == 1:
                    assert in_lang, (i, c, p)


def test_left_run_detects_junction_growth():
    # trailing runs of one letter feed the run before a cycle letter
    sub = make("almost_min_tower")
    chain = component_chain(sub)
    sub4 = sub.restrict(chain.alphabet_at(4))
    sub3 = sub.restrict(chain.alphabet_at(3))
    assert _flat_runs(sub4, "a")[1]["d"] == 1
    assert _flat_runs(sub3, "a")[1]["d"] != 1


@st.composite
def fixed_bottom_chains(draw) -> dict[str, str]:
    """Rules whose chain has the fixed bottom letter s = "a".

    Primitive blocks of one to three letters are stacked on a -> a, as in
    ``chain_systems``: each block is a cycle made aperiodic by a loop or by a
    chord one shorter, and links to the block just below. Each image takes
    up to three extra letters from its block and below, s weighted twice, so
    s-runs before, after and between letters are common.
    """
    names = draw(st.permutations("bcdefg"))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: sum(s) <= 6))
    rules = {"a": "a"}
    below, last, start = ["a"], ["a"], 0
    for size in sizes:
        block = list(names[start : start + size])
        start += size
        need = {c: [block[(i + 1) % size]] for i, c in enumerate(block)}
        if size == 1 or draw(st.booleans()):
            need[block[0]].append(block[0])
        else:
            need[block[-1]].append(block[1])
        need[draw(st.sampled_from(block))].append(draw(st.sampled_from(last)))
        pool = sorted(["a"] + below + block)
        for c in block:
            extra = draw(st.lists(st.sampled_from(pool), max_size=3))
            rules[c] = "".join(draw(st.permutations(need[c] + extra)))
        below += block
        last = block
    return {c: rules[c] for c in draw(st.permutations(sorted(rules)))}


@st.composite
def mixed_towers(draw) -> dict[str, str]:
    """``conftest.tower`` of 2 to 40 levels, with r in 1..3 and ``before``
    drawn per level."""
    n = draw(st.integers(2, 40))
    rs = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return tower(rs, draw(st.lists(st.booleans(), min_size=n, max_size=n)))


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the library error it raises."""
    try:
        return fn(*args)
    except ChainshiftError as exc:
        return type(exc), str(exc)


def _fresh(sub: Substitution):
    chain = component_chain(sub)
    return sub, chain, block_eigenvalues(sub, chain)


def _entry_points_agree(sub: Substitution):
    """The report of a fresh chain, and the level report of each level on a
    fresh chain of its own (``classify._classify_level``, the door
    ``measures`` reads a level by), checked against each other and against
    the seed pair (``classify._level_seed``); failures are compared by type
    and message."""
    whole = _outcome(decomposition_report, *_fresh(sub))
    n = component_chain(sub).n
    levels = [_outcome(classify._classify_level, *_fresh(sub)[1:], i) for i in range(2, n + 1)]
    seeds = [_outcome(classify._level_seed, *_fresh(sub)[1:], i) for i in range(2, n + 1)]
    failed = [level for level in levels if isinstance(level, tuple)]
    assert whole == failed[0] if failed else whole.levels[1:] == levels
    for level, seed in zip(levels, seeds):
        assert level == seed if isinstance(seed, tuple) else isinstance(level, tuple) or level.seed == seed
    return whole, levels


def _assert_rows_and_entry_points_match(rules):
    """The rows of every level (``_two_words``), from one sweep, against the
    row rule on the independent word -> level oracle, and the report against
    the per-level reports and seed pairs on fresh chains."""
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    assert classify._two_words(chain) == oracles.two_word_rows(rules, chain.levels)
    _entry_points_agree(sub)


def test_rows_and_entry_points_match_on_corpus(corpus_sub):
    _assert_rows_and_entry_points_match({c: corpus_sub.image(c) for c in corpus_sub.alphabet})


@settings(max_examples=60, deadline=None)
@given(chain_systems())
def test_rows_and_entry_points_match_on_chain_systems(rules):
    _assert_rows_and_entry_points_match(rules)


def _with_pinned_examples(test):
    for rules in _pinned_systems().values():
        test = example(rules, 6)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(st.one_of(mixed_towers(), fixed_bottom_chains()), st.integers(1, 24))
@_with_pinned_examples
def test_report_and_level_entry_points_agree(rules, budget):
    # The report makes every level in one pass over tables read once per
    # chain; the per-level doors make one level each. They agree
    # level by level, and under a small seed budget they raise the same
    # BudgetExceeded, while the levels within it keep their full reports.
    sub = Substitution.from_rules(rules)
    whole, _ = _entry_points_agree(sub)
    assert isinstance(whole, classify.DecompositionReport)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "SEED_BUDGET", budget)
        _, levels = _entry_points_agree(sub)
    for level, full in zip(levels, whole.levels[1:]):
        assert level[0] is BudgetExceeded if isinstance(level, tuple) else level == full


@settings(max_examples=150, deadline=None)
@given(fixed_bottom_chains())
@example({"a": "a", "b": "cba", "c": "cbc", "d": "dc", "e": "bde"})  # almost_min_tower
def test_s_run_levels_match_the_restriction_oracle(rules):
    # one level per fact and letter, read as "holds on level i" iff <= i,
    # against the per-level tests run on each level's own rules
    chain = component_chain(Substitution.from_rules(rules))
    assert chain.levels[0] == ("a",)
    s_level, left, right, _ = classify._s_runs(chain)
    assert set(left) == set(right) == set(rules) - {"a"}
    for i in range(1, chain.n + 1):
        rules_i = oracles.restrict(rules, chain.alphabet_at(i))
        assert (s_level <= i) == oracles.arbitrarily_long_s_powers(rules_i, "a"), i
        for c in left:
            on_level = c in rules_i
            assert (left[c] <= i) == (on_level and oracles.left_run_unbounded(rules_i, "a", c)), (i, c)
            assert (right[c] <= i) == (on_level and oracles.right_run_unbounded(rules_i, "a", c)), (i, c)


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
    # the quasi-fixed point revisits its central window forward in time iff
    # v holds a new letter; chacon's seed has u empty, the others do not
    for name, recurrent in (("tower_of_quasi", False), ("fib_expanding_tail", True), ("chacon", True)):
        _, chain, _, report = _report(name)
        level2 = report.levels[1]
        assert level2.quasi_fixed.positively_recurrent is recurrent, name
        assert (2 in map(chain.level_of, level2.seed.v)) is recurrent, name


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
    result = _report(name)[3].minimal
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
    result = decomposition_report(corpus_sub, chain, sp).minimal
    classes = 0
    for i in range(1, chain.n + 1):
        if not sp.theta_is_one(i) and sp.level_is_finite(i):
            classes += 1
    if sp.theta_is_one(1):
        s = chain.alphabet_at(1)[0]
        if _flat_runs(corpus_sub, s)[0] == 1:
            classes += 1
    assert result.uniquely_ergodic == (classes == 1)


@pytest.mark.parametrize("gap", [2, 12, 13, 20])
def test_middle_run_seed_form(gap):
    """A gap of fixed letters between two self-renewing letters yields the
    middle-run bilateral form alongside the plain pair form, at every gap."""
    sub = Substitution.from_rules({"a": "a", "b": "bab", "c": "cb" + "a" * gap + "b"})
    chain = component_chain(sub)
    sp = block_eigenvalues(sub, chain)
    rep = decomposition_report(sub, chain, sp)
    level3 = rep.levels[2]
    forms = sorted((p.form, p.gamma, p.delta, p.middle_s) for p in level3.point_seeds)
    assert forms == [("pair", "b", "b", 0), ("s_middle", "b", "b", gap)]
    assert all(not p.shift_periodic for p in level3.point_seeds)


@settings(max_examples=60, deadline=None)
@given(fixed_bottom_chains())
@example(CORPUS_RULES["chacon"])
@example(CORPUS_RULES["almost_min_tower"])
@example(CORPUS_RULES["constant_reenters"])
@example(CORPUS_RULES["left_tail"])
@example({"a": "a", "b": "bab", "c": "cb" + "a" * 13 + "b"})
def test_s_middle_census_matches_the_word_oracle(rules):
    # (a) the s_middle triples of each level, up to gap P, are the words
    # delta s^p gamma that enter at that level, with delta and gamma below it
    # and on cycles of the last- and the first-letter map, found by expanding
    # images; (b) each seed is fixed by the gap step to the power power_step
    s = "a"
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    rep = decomposition_report(sub, chain, block_eigenvalues(sub, chain))
    level = {c: i for i in range(chain.n, 0, -1) for c in chain.alphabet_at(i)}
    on_last = {c for c in rules if c != s and oracles.cycle_info(oracles.last_map(rules), c)[0]}
    on_first = {c for c in rules if c != s and oracles.cycle_info(oracles.first_map(rules), c)[0]}
    big_p = 3 * max(map(len, rules.values()))
    want = {
        (e, w[0], w[-1], p)
        for p in range(1, big_p + 1)
        for w, e in oracles.word_levels(rules, chain.levels, p + 2).items()
        if w[1:-1] == s * p and w[0] in on_last and w[-1] in on_first and level[w[0]] < e > level[w[-1]]
    }
    listed = {(e, *t) for e, triples in classify._s_runs(chain)[3].items() for t in triples}
    assert {t for t in listed if t[3] <= big_p} == want
    census = [(lr.level, seed) for lr in rep.levels for seed in lr.point_seeds if seed.form == "s_middle"]
    assert {(i, seed.delta, seed.gamma, seed.middle_s) for i, seed in census} <= listed
    first, last, lead, trail = oracles.s_run_maps(rules, s)
    for _, seed in census:
        y, g, z = seed.delta, seed.middle_s, seed.gamma
        for _ in range(seed.q):
            y, g, z = last[y], trail[y] + g + lead[z], first[z]
        assert (y, g, z) == (seed.delta, seed.middle_s, seed.gamma)


def test_power_two_seed_pipeline():
    """Two new letters whose first-letter trace alternates give a k=2 seed;
    classification, measures and streaming must all step by the power."""
    from fractions import Fraction

    from chainshift import cylinder_measure, uniformity_check

    sub = Substitution.from_rules({"a": "ab", "b": "a", "c": "adc", "d": "acd"})
    chain = component_chain(sub)
    sp = block_eigenvalues(sub, chain)
    rep = decomposition_report(sub, chain, sp)
    seed = rep.levels[1].seed
    assert seed.k == 2
    assert apply(sub, seed.a + seed.b, 2) == seed.u + seed.a + seed.b + seed.v
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
    assert _flat_runs(sub4, "a")[1]["g"] == 1
    assert _flat_runs(sub3, "a")[1]["g"] != 1
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
    # Each broken invariant must raise InternalInvariantError explicitly, also
    # under ``python -O``, which strips assert statements.
    script = (
        "from chainshift import *\n"
        "from chainshift import classify, spectral, structure\n"
        "from chainshift.exact import AlgebraicReal\n"
        "def expect(fn, *args):\n"
        "    try:\n"
        "        fn(*args)\n"
        "    except (InternalInvariantError, DomainError) as exc:\n"
        "        print('raised', type(exc).__name__, exc)\n"
        "sub = Substitution.from_rules({'a': 'aaaa', 'b': 'abbb', 'c': 'cbc'})\n"
        "chain = component_chain(sub)\n"
        "real = AlgebraicReal.integer_root\n"
        "AlgebraicReal.integer_root = classmethod(lambda cls, poly, r: AlgebraicReal((1, -1)))\n"
        "expect(block_eigenvalues, sub, chain)\n"
        "AlgebraicReal.integer_root = real\n"
        "level_words = structure.level_words\n"
        "structure.level_words = lambda sub, new_letters, m: [[] for _ in new_letters]\n"
        "expect(decomposition_report, sub, chain, block_eigenvalues(sub, chain))\n"
        "structure.level_words = level_words\n"
        "sub = Substitution.from_rules({'a': 'abca', 'b': 'bacb', 'c': 'cbac', 'd': 'abbcad'})\n"
        "chain = component_chain(sub)\n"
        "windows = classify._make_windows\n"
        "def doubled(sub, letters, s, seeds, cap):\n"
        "    windows(sub, letters, s, seeds, cap)\n"
        "    for seed in seeds:\n"
        "        seed.window += seed.window\n"
        "classify._make_windows = doubled\n"
        "expect(classify._periodic_point_seeds, chain, 2)\n"
        "classify._make_windows = windows\n"
        "theta_is_one = SpectralProfile.theta_is_one\n"
        "SpectralProfile.theta_is_one = lambda self, i: not theta_is_one(self, i)\n"
        "for rules in ({'a': 'a', 'b': 'bbab'}, {'a': 'ab', 'b': 'a', 'c': 'abc'},\n"
        "              {'a': 'aaaa', 'b': 'abbb', 'c': 'cbc'},\n"
        "              {'a': 'abca', 'b': 'bacb', 'c': 'cbac', 'd': 'abadcac'}):\n"
        "    sub = Substitution.from_rules(rules)\n"
        "    chain = component_chain(sub)\n"
        "    expect(decomposition_report, sub, chain, block_eigenvalues(sub, chain))\n"
        "SpectralProfile.theta_is_one = theta_is_one\n"
        "classify._periodic_point_seeds = lambda chain, i: []\n"
        "sub = Substitution.from_rules({'a': 'a', 'b': 'ba'})\n"
        "chain = component_chain(sub)\n"
        "expect(decomposition_report, sub, chain, block_eigenvalues(sub, chain))\n"
        "find = classify._seed_pair\n"
        "for change in ({'u': ''}, {'v': ''}, {'v': 'a'}):\n"
        "    def changed(*args):\n"
        "        s = find(*args)\n"
        "        fields = {'level': s.level, 'a': s.a, 'b': s.b, 'k': s.k, 'u': s.u, 'v': s.v, 'orientation': s.orientation}\n"
        "        return classify.SeedPair(**{**fields, **change})\n"
        "    classify._seed_pair = changed\n"
        "    sub = Substitution.from_rules({'a': 'aaaa', 'b': 'abbb', 'c': 'cbc'})\n"
        "    chain = component_chain(sub)\n"
        "    expect(measure_type, sub, chain, block_eigenvalues(sub, chain), 2)\n"
        "classify._seed_pair = find\n"
        "thue_morse = Substitution.from_rules({'a': 'ab', 'b': 'ba'})\n"
        "expect(classify._s_run_levels, thue_morse, 'a', (('a', 'b'),))\n"
        "expect(classify._s_run_levels, thue_morse, 'b', (('a', 'b'),))\n"
        "expect(classify._s_run_levels, Substitution.from_rules({'a': 'a', 'b': 'aa'}), 'a', (('a', 'b'),))\n"
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
        assert len(lines) == 14, proc.stdout
        assert "theta = 1 must hold exactly when the block is [1]" in lines[0]
        assert "no crossing pair" in lines[1]
        assert "is not unique in its window" in lines[2]
        # each case of a level report with theta = 1 read the wrong way round
        assert "a seed with empty u needs a fixed letter and theta > 1" in lines[3]
        assert "a seed with empty v needs theta = 1" in lines[4]
        assert "excursions into new letters need theta > 1" in lines[5]
        assert "isolated quasi-fixed seed needs theta = 1 and one new letter" in lines[6]
        assert "single fixed point without a fixed-letter power seed" in lines[7]
        # the seed invariants of a theta > 1 level on the measure_type path,
        # which reads the seed pair without the level report: u = aaa, v = bb
        # on quartic's level 2, made empty or kept below the level
        assert "a seed with empty u needs a fixed letter and theta > 1" in lines[8]
        assert "a seed with empty v needs theta = 1" in lines[9]
        assert "isolated quasi-fixed seed needs theta = 1 and one new letter" in lines[10]
        # s-run facts of a letter that is not fixed, or of a collapsing image
        assert all(line.startswith("raised DomainError") for line in lines[11:])
        assert "'a' is not a fixed letter" in lines[11]  # Thue-Morse has no aaa
        assert "'b' is not a fixed letter" in lines[12]
        assert "image of 'b' collapses to the fixed letter 'a'" in lines[13]


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
        report = classify._classify_level(chain, sp, i)
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


def test_integer_towers_build_no_fractions(monkeypatch):
    # Integer eigenvalues are held and compared as ints: the spectral profile
    # and the classification of a deep tower construct no Fraction at all.
    rules = tower([2 + i % 3 for i in range(40)], [i % 2 == 0 for i in range(40)])
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    made = []
    new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counted)
    spectral = block_eigenvalues(sub, chain)
    report = decomposition_report(sub, chain, spectral)
    monkeypatch.undo()
    assert len(report.levels) == chain.n == 40
    assert made == []


PERIODIC_LEVEL_2 = {"a": "a", "b": "ab", "c": "bcc"}  # L_16 of {a, b}: a^16 and a^15 b
DECK_LEVELS = tower([3, 2, 3], [True, False, True])  # levels 1-2: x_1 -> x_1^3, x_2 -> x_2^2 x_1
FIXED_LAST = {"b": "ab", "a": "a", "c": "bcc"}  # A_2 = (b, a) ends in a fixed letter
# which branch of the probe each example runs: the bound answers False, or
# the capped closure answers after the bound counted too few windows, or
# after an iterate too short to hold a window
PROBE_BRANCHES = {
    tuple(PERIODIC_LEVEL_2.items()): "closure",
    tuple(DECK_LEVELS.items()): "bound",
    tuple(FIXED_LAST.items()): "short",
}


@settings(max_examples=100, deadline=None)
@given(chain_systems())
@example(PERIODIC_LEVEL_2)
@example(DECK_LEVELS)
@example(FIXED_LAST)
def test_capped_periodic_orbit_probe_matches_the_full_language(rules):
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    if chain.n < 2:
        return
    letters = chain.alphabet_at(2)
    probe = max(16, 2 * len(letters))
    expected = 0 < len(language(chain.restrict(2)[0], probe)) <= probe
    closed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "language", lambda *args, **kw: closed.append(args) or language(*args, **kw))
        assert _is_single_periodic_orbit(sub, letters) is expected
    branch = PROBE_BRANCHES.get(tuple(rules.items()))
    if branch == "bound":
        assert not closed and not expected
    elif branch == "closure":
        assert closed and expected and len(apply(sub, letters[-1], probe)) >= probe
    elif branch == "short":
        assert closed and expected and sub.image(letters[-1]) == letters[-1]
