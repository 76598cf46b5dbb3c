"""The eigen data and level reports are computed once per profile.

``pf_vectors``, ``limit_data``, ``classify_level``, ``level_profile`` and
``measure_type`` store their results on the ``SpectralProfile`` they are
given, keyed by window length and level, ``ComponentChain.restrict`` keeps
each level's restriction on the chain, and ``decomposition_report`` sweeps
the chain's two-letter languages once. The tests count calls of the
un-memoised bodies.
"""

from collections import Counter

import pytest

from chainshift import (
    ComponentChain,
    Substitution,
    block_eigenvalues,
    classify,
    component_chain,
    decomposition_report,
    measures,
    spectral,
    words,
)
from chainshift.measures import cylinder_measure, level_measure_table, measure_type
from chainshift.spectral import level_profile, pf_vectors
from conftest import CORPUS_RULES, make, tower

MAX_M = 3


def _fresh_profiles():
    """Forget every profile, so no memo answers from an earlier test."""
    spectral._block_eigenvalues_cached.cache_clear()


@pytest.fixture
def calls(monkeypatch):
    _fresh_profiles()
    counts: Counter = Counter()

    def count(module, name, key):
        body = getattr(module, name)

        def counted(*args):
            counts[(name, key(*args))] += 1
            return body(*args)

        monkeypatch.setattr(module, name, counted)

    count(spectral, "_pf_vectors", lambda sub, chain, m, sp: (chain.n, m))
    count(spectral, "_limit_data", lambda sub, chain, m, i, sp: (i, m))
    count(classify, "_classify_level", lambda sub, chain, sp, i: i)
    yield counts
    _fresh_profiles()


def _tables(name):
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    tables = [
        level_measure_table(sub, chain, profile, i, max_m=MAX_M) for i in range(1, chain.n + 1)
    ]
    return sub, chain, tables


@pytest.mark.parametrize("name", ["golden_tower", "mid_dominant"])
def test_one_solve_per_level_and_window(name, calls):
    _, chain, tables = _tables(name)
    measured = [t["level"] for t in tables if "cylinders" in t]
    assert measured
    # finite levels solve through pf_vectors on the level's own chain (whose
    # top level is the level), infinite ones through limit_data
    solves = sorted(key for (body, key) in calls if body != "_classify_level")
    assert solves == [(i, m) for i in measured for m in range(1, MAX_M + 1)]
    reports = sorted(key for (body, key) in calls if body == "_classify_level")
    assert reports == list(range(2, chain.n + 1))
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("name", ["golden_tower", "mid_dominant"])
def test_memoised_values_equal_fresh_profile(name):
    _fresh_profiles()
    sub, chain, tables = _tables(name)
    for table in tables:
        for word, shared in table.get("cylinders", {}).items():
            _fresh_profiles()
            fresh = block_eigenvalues(sub, chain)
            assert cylinder_measure(sub, chain, fresh, table["level"], word).as_json() == shared


def test_profile_of_another_chain_is_not_reused(calls):
    sub = make("quartic")
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    assert pf_vectors(sub, chain, 2, profile) is pf_vectors(sub, chain, 2, profile)
    assert calls[("_pf_vectors", (3, 2))] == 1
    # the level-2 chain differs from the profile's, so nothing is shared
    sub_2, chain_2 = chain.restrict(2)
    first = pf_vectors(sub_2, chain_2, 2, profile)
    second = pf_vectors(sub_2, chain_2, 2, profile)
    assert calls[("_pf_vectors", (2, 2))] == 2
    assert first is not second and first.beta == second.beta


def test_level_profile_shares_the_parent_levels():
    sub = make("quartic")
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    level_2 = level_profile(sub, chain, 2, profile)
    assert level_2 is level_profile(sub, chain, 2, profile)
    assert level_2.chain == chain.restrict(2)[1]
    assert level_2.levels == profile.levels[:2]
    assert level_profile(sub, chain, chain.n, profile) is profile
    # a profile of another chain is not consulted
    sub_2, chain_2 = chain.restrict(2)
    assert level_profile(sub_2, chain_2, 1, profile) is block_eigenvalues(*chain_2.restrict(1))


def test_restrict_is_built_once_per_level():
    sub = make("quartic")
    chain = component_chain(sub)
    fresh = ComponentChain(chain.sub, chain.levels, chain.witness_k)
    for i in range(1, chain.n + 1):
        sub_i, chain_i = chain.restrict(i)
        assert chain.restrict(i) is chain.restrict(i)
        assert chain_i == fresh.restrict(i)[1] and sub_i == fresh.restrict(i)[0]
    # the stored restrictions take no part in equality or hashing
    assert chain == ComponentChain(chain.sub, chain.levels, chain.witness_k)
    assert hash(chain) == hash(ComponentChain(chain.sub, chain.levels, chain.witness_k))


@pytest.mark.parametrize("name", sorted(CORPUS_RULES))
def test_measure_type_memo_equals_fresh_descriptor(name, monkeypatch):
    _fresh_profiles()
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    bodies = Counter()
    body = measures._measure_type

    def counted(sub, chain, spectral, i, report):
        bodies[i] += 1
        return body(sub, chain, spectral, i, report)

    monkeypatch.setattr(measures, "_measure_type", counted)
    for i in range(1, chain.n + 1):
        desc = measure_type(sub, chain, profile, i)
        assert measure_type(sub, chain, profile, i) is desc
        assert desc == body(sub, chain, profile, i, None)
    assert bodies == Counter(range(1, chain.n + 1))
    _fresh_profiles()


def test_measure_type_on_another_chain_stores_nothing():
    _fresh_profiles()
    sub = make("quartic")
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    sub_2, chain_2 = chain.restrict(2)
    keys = set(profile._memo)
    desc = measure_type(sub_2, chain_2, profile, 2)
    assert desc is not measure_type(sub_2, chain_2, profile, 2)
    assert set(profile._memo) == keys
    assert desc == measure_type(sub, chain, profile, 2)
    _fresh_profiles()


def test_decomposition_report_sweeps_each_level_once(monkeypatch):
    """One language closure per level and at most one restriction per level.

    Every window of the top two-letter language is expanded once over the
    whole sweep; each level adds a few steps (its new letter's seed and the
    seed-pair power) and the level-2 periodicity probe a fixed number once.
    Rebuilding each level's language from scratch would expand the sum of
    all levels' languages instead.
    """
    _fresh_profiles()
    words._language_cached.cache_clear()
    n = 64
    rules = tower([2 + i % 2 for i in range(n)], [i % 2 == 0 for i in range(n)])
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    top = words.level_languages(sub, chain.levels, 2)[-1]
    closures: Counter = Counter()
    restricted: list[tuple[str, ...]] = []
    steps = Counter()
    close, restrict, step = words._close, Substitution.restrict, Substitution.step

    def counted_close(sub, lang, seeds, m):
        closures[m] += 1
        return close(sub, lang, seeds, m)

    def counted_restrict(self, letters):
        restricted.append(letters)
        return restrict(self, letters)

    def counted_step(self, word):
        steps["step"] += 1
        return step(self, word)

    monkeypatch.setattr(words, "_close", counted_close)
    monkeypatch.setattr(Substitution, "restrict", counted_restrict)
    monkeypatch.setattr(Substitution, "step", counted_step)
    decomposition_report(sub, chain, profile)
    assert closures[2] == n
    assert sum(closures.values()) <= n + 1  # plus the level-2 probe at level 3
    assert len(restricted) <= n and len(set(restricted)) == len(restricted)
    assert steps["step"] <= len(top) + 4 * n
    _fresh_profiles()
