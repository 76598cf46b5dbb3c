"""The data derived from a chain is computed once per chain and lives with it.

``block_eigenvalues``, ``pf_vectors``, ``limit_data``, ``classify_level``,
``level_profile``, ``measure_type`` and ``build_auxiliary`` store their
results on the chain (``ComponentChain.memo``), keyed by window length and
level, ``ComponentChain.restrict`` keeps each level's restriction there, and
``decomposition_report`` sweeps the chain's two-letter languages once. The
tests count calls of the un-memoised bodies; a fresh chain starts with an
empty memo.
"""

import gc
import weakref
from collections import Counter

import pytest

from chainshift import (
    ComponentChain,
    DomainError,
    Substitution,
    block_eigenvalues,
    build_auxiliary,
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


@pytest.fixture
def calls(monkeypatch):
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
    return counts


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
    sub, chain, tables = _tables(name)
    for table in tables:
        for word, shared in table.get("cylinders", {}).items():
            fresh_chain = component_chain(sub)
            fresh = block_eigenvalues(sub, fresh_chain)
            got = cylinder_measure(sub, fresh_chain, fresh, table["level"], word)
            assert got.as_json() == shared


def test_profile_of_another_chain_is_not_reused(calls):
    sub = make("quartic")
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    assert pf_vectors(sub, chain, 2, profile) is pf_vectors(sub, chain, 2, profile)
    assert calls[("_pf_vectors", (3, 2))] == 1
    # the level-2 chain differs from the profile's, whose eigenvalues,
    # i_min and i_max would be wrong for it
    sub_2, chain_2 = chain.restrict(2)
    with pytest.raises(DomainError, match="describes another chain"):
        pf_vectors(sub_2, chain_2, 2, profile)
    assert calls[("_pf_vectors", (2, 2))] == 0


@pytest.mark.parametrize("name, level", [("golden_tower", 1), ("golden_tower", 2), ("mid_dominant", 1)])
def test_profile_of_a_level_chain_raises(name, level):
    # the top profile's i_min and i_max name no block of these level chains
    sub = make(name)
    chain = component_chain(sub)
    top = block_eigenvalues(sub, chain)
    with pytest.raises(DomainError, match="describes another chain"):
        pf_vectors(*chain.restrict(level), 2, top)
    with pytest.raises(DomainError, match="describes another chain"):
        level_profile(*chain.restrict(level), 1, top)


def test_chain_data_needs_the_chains_substitution():
    sub = make("quartic")
    chain = component_chain(sub)
    sub_2 = chain.restrict(2)[0]
    with pytest.raises(DomainError, match="not the one the chain was built from"):
        block_eigenvalues(sub_2, chain)
    with pytest.raises(DomainError, match="not the one the chain was built from"):
        build_auxiliary(sub_2, chain, 2)
    assert chain._memo == {("restrict", 2): chain.restrict(2)}


def test_level_profile_shares_the_parent_levels():
    sub = make("quartic")
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    level_2 = level_profile(sub, chain, 2, profile)
    assert level_2 is level_profile(sub, chain, 2, profile)
    assert level_2.chain == chain.restrict(2)[1]
    assert level_2.levels == profile.levels[:2]
    assert level_profile(sub, chain, chain.n, profile) is profile
    # the level profile is the level chain's own profile
    assert block_eigenvalues(*chain.restrict(2)) is level_2
    # a profile of another chain raises
    sub_2, chain_2 = chain.restrict(2)
    with pytest.raises(DomainError):
        level_profile(sub_2, chain_2, 1, profile)


def test_restrict_is_built_once_per_level():
    sub = make("quartic")
    chain = component_chain(sub)
    fresh = ComponentChain(chain.sub, chain.levels, chain.witness_k)
    for i in range(1, chain.n + 1):
        sub_i, chain_i = chain.restrict(i)
        assert chain.restrict(i) is chain.restrict(i)
        assert chain_i == fresh.restrict(i)[1] and sub_i == fresh.restrict(i)[0]
    # the top restriction is the chain itself, so both share one memo
    assert chain.restrict(chain.n)[0] is sub and chain.restrict(chain.n)[1] is chain
    # the stored restrictions take no part in equality or hashing
    assert chain == ComponentChain(chain.sub, chain.levels, chain.witness_k)
    assert hash(chain) == hash(ComponentChain(chain.sub, chain.levels, chain.witness_k))


@pytest.mark.parametrize("name", sorted(CORPUS_RULES))
def test_measure_type_memo_equals_fresh_descriptor(name, monkeypatch):
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


def test_measure_type_on_another_chain_stores_nothing():
    sub = make("quartic")
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    report = classify.classify_level(sub, chain, profile, 2)
    sub_2, chain_2 = chain.restrict(2)
    keys, level_keys = set(chain._memo), set(chain_2._memo)
    for given in (None, report):
        with pytest.raises(DomainError):
            measure_type(sub_2, chain_2, profile, 2, given)
    assert set(chain._memo) == keys and set(chain_2._memo) == level_keys
    assert measure_type(sub, chain, profile, 2) == measure_type(sub, chain, profile, 2, report)


def test_decomposition_report_sweeps_each_level_once(monkeypatch):
    """One language closure per level and at most one restriction per level.

    Every window of the top two-letter language is expanded once over the
    whole sweep; each level adds a few steps (its new letter's seed and the
    seed-pair power) and the level-2 periodicity probe a fixed number once.
    Rebuilding each level's language from scratch would expand the sum of
    all levels' languages instead.
    """
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


def test_chain_data_is_released_with_the_chain():
    # Nothing derived from a chain outlives it: no module keeps a cache.
    sub = make("golden_tower")
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    for i in range(1, chain.n + 1):
        level_measure_table(sub, chain, profile, i, max_m=MAX_M)
    decomposition_report(sub, chain, profile)
    refs = [weakref.ref(x) for x in (sub, chain, profile, chain.restrict(2)[1])]
    del sub, chain, profile
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4
