"""The data derived from a chain is computed once per chain and lives with it.

``block_eigenvalues``, ``pf_vectors``, ``limit_data``, the seed pairs, the
periodic-point census, the level reports and ``build_auxiliary`` store
their results on the chain (``ComponentChain.memo``), keyed by window length
and level, ``ComponentChain.restrict`` keeps each lower level's restriction
there, and ``decomposition_report`` sweeps the chain's two-letter languages
once. Nothing stored refers back to the chain, so reference counting alone
frees it.
``measures`` keeps one record per level, ``("level", i)``: the descriptor,
the cylinder tables ``tables[m]`` and the integer-theta ``ancestors`` state.
A measure on a level with theta > 1 reads the seed pair and never the
periodic-point census, and a cylinder table solves no right vector over the
window alphabet. An integer-theta level makes one letter-level solve
(``measures._letter_base``, on the k x k letter blocks) and starts its
tables there: every length, m = 1 and 2 included, comes from the record's
ancestor state, with no window substitution, restriction or
``("limit_data", m, i)`` for any table. Only an irrational level
window-solves (``spectral.window_vectors``), once per window length: the
left vector on the level's chain, or the limit data. The level listing
and the uniformity target read those tables too, and a word of a built
table is one lookup. The tests count calls of the un-memoised bodies; a
fresh chain starts with an empty memo.
"""

import gc
import json
import sys
import weakref
from collections import Counter

import pytest

from chainshift import (
    ComponentChain,
    DomainError,
    MeasureTypeCounting,
    Substitution,
    WordNotInLevelLanguage,
    block_eigenvalues,
    build_auxiliary,
    classify,
    cli,
    component_chain,
    decomposition_report,
    measures,
    spectral,
    words,
)
from chainshift.measures import cylinder_measure, level_measure_table, measure_type
from chainshift.spectral import limit_data, pf_vectors
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

    count(measures, "window_vectors", lambda chain, m, i, sp: (i, m))
    count(spectral, "_pf_vectors", lambda chain, m, sp: (chain.n, m))
    count(spectral, "_limit_data", lambda chain, m, i, sp: (i, m))
    count(measures, "_letter_base", lambda chain, sp, i, desc: i)
    count(classify, "_level_report", lambda chain, seed, one, s, pairs: seed.level)
    count(classify, "_seed_pair", lambda chain, i, row, oriented: i)
    return counts


def _solved(profile, i):
    """The window lengths up to MAX_M at which level i's tables window-solve:
    none for an integer theta, every length for an irrational one."""
    exact = profile.theta(i).as_integer() is not None
    return [] if exact else list(range(1, MAX_M + 1))


# memo keys a window solve makes: an integer level's tables make none of them
WINDOW_KEYS = ("restrict", "level_words", "word_levels", "aux", "pf_right", "limit_data")


def _tables(name):
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    tables = [
        level_measure_table(sub, chain, profile, i, max_m=MAX_M) for i in range(1, chain.n + 1)
    ]
    return sub, chain, tables


@pytest.mark.parametrize("name", ["golden_tower", "mid_dominant", "fib_tail"])
def test_one_solve_per_level_and_window(name, calls):
    sub, chain, tables = _tables(name)
    measured = [t["level"] for t in tables if "cylinders" in t]
    assert measured
    profile = block_eigenvalues(sub, chain)
    # irrational levels read the window vectors once per length: finite ones
    # solve the left vector on the level's own chain (whose top level is the
    # level), infinite ones through limit_data; no table solves the right
    # vector of pf_vectors, and an integer-theta level makes one
    # letter-level solve and no window solve
    solves = sorted(key for (body, key) in calls if body == "window_vectors")
    assert solves == [(i, m) for i in measured for m in _solved(profile, i)]
    infinite = [key for key in solves if not profile.level_is_finite(key[0])]
    assert sorted(key for (body, key) in calls if body == "_limit_data") == infinite
    assert not [key for (body, key) in calls if body == "_pf_vectors"]
    exact = [i for i in measured if profile.theta(i).as_integer() is not None]
    assert sorted(key for (body, key) in calls if body == "_letter_base") == exact
    assert [i for i in measured if chain._memo[("level", i)].ancestors is not None] == exact
    # one seed pair per level; the full report only where theta = 1
    seeds = sorted(key for (body, key) in calls if body == "_seed_pair")
    assert seeds == list(range(2, chain.n + 1))
    reports = sorted(key for (body, key) in calls if body == "_level_report")
    assert reports == [i for i in range(2, chain.n + 1) if profile.theta_is_one(i)]
    assert set(calls.values()) == {1}


def _above_one_levels():
    out = []
    for name in sorted(CORPUS_RULES):
        sub = make(name)
        chain = component_chain(sub)
        profile = block_eigenvalues(sub, chain)
        out += [(name, i) for i in range(2, chain.n + 1) if not profile.theta_is_one(i)]
    return out


ABOVE_ONE = _above_one_levels()


@pytest.mark.parametrize("name, i", ABOVE_ONE, ids=[f"{n}-{i}" for n, i in ABOVE_ONE])
def test_table_above_one_runs_no_census(name, i, monkeypatch):
    def census(*args):
        raise AssertionError("the periodic-point census ran")

    for body in ("_periodic_point_seeds", "_is_single_periodic_orbit"):
        monkeypatch.setattr(classify, body, census)
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    level_measure_table(sub, chain, profile, i, max_m=MAX_M)
    assert ("seed_pair", i) in chain._memo
    assert not [key for key in chain._memo if key[0] in ("point_seeds", "classify_level")]
    monkeypatch.undo()
    # the stored seed pair serves the full report later
    report = decomposition_report(sub, chain, profile)
    fresh = component_chain(sub)
    expected = decomposition_report(sub, fresh, block_eigenvalues(sub, fresh))
    assert report == expected  # chain, level reports and minimal sets


@pytest.mark.parametrize("name", ["golden_tower", "mid_dominant"])
def test_memoised_values_equal_fresh_profile(name):
    sub, chain, tables = _tables(name)
    for table in tables:
        for word, shared in table.get("cylinders", {}).items():
            fresh_chain = component_chain(sub)
            fresh = block_eigenvalues(sub, fresh_chain)
            got = cylinder_measure(sub, fresh_chain, fresh, table["level"], word)
            assert got.as_json() == shared


def _levels(kind):
    """(system, level) pairs of the corpus whose measure is of ``kind``."""
    out = []
    for name in sorted(CORPUS_RULES):
        sub = make(name)
        chain = component_chain(sub)
        profile = block_eigenvalues(sub, chain)
        kinds = [measure_type(sub, chain, profile, i).kind for i in range(1, chain.n + 1)]
        out += [(name, i) for i, k in enumerate(kinds, 1) if k == kind]
    return out


FINITE, INFINITE = _levels("finite_ergodic"), _levels("infinite_radon")


@pytest.fixture
def perron_calls(monkeypatch):
    """Blocks handed to the Perron solve outside a left-vector solve; a right
    vector over the window alphabet raises."""
    outside: list = []
    depth = []
    left, perron = spectral._left_vector, spectral._pf_right
    # the letter-level solve in ``measures`` runs the same level solve
    assert measures._level_vectors is spectral._level_vectors

    def counted_left(*args):
        depth.append(1)
        try:
            return left(*args)
        finally:
            depth.pop()

    def counted_perron(block, lam):
        if not depth:
            outside.append(block)
        return perron(block, lam)

    def right(*args):
        raise AssertionError("a right vector was solved over the window alphabet")

    monkeypatch.setattr(spectral, "_left_vector", counted_left)
    monkeypatch.setattr(spectral, "_pf_right", counted_perron)
    monkeypatch.setattr(spectral, "_right_vector", right)
    return outside


def _table_keys(sub, chain, profile, i):
    """Level i's listing up to MAX_M and the memo keys its tables added."""
    measure_type(sub, chain, profile, i)  # the descriptor reads the seed pair
    before = set(chain._memo)
    table = level_measure_table(sub, chain, profile, i, max_m=MAX_M)
    return table, [key for key in chain._memo if key not in before]


@pytest.mark.parametrize("name, i", FINITE, ids=[f"{n}-{i}" for n, i in FINITE])
def test_finite_table_solves_the_left_vector_only(name, i, perron_calls, monkeypatch):
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    table, added = _table_keys(sub, chain, profile, i)
    assert perron_calls == []
    solved = _solved(profile, i)
    if solved:  # irrational: the left vector over the level chain's windows
        chain_i = chain.restrict(i)[1]
        for m in solved:
            assert ("aux", m) in chain_i._memo and ("pf_right", m) not in chain_i._memo
    else:  # integer: the letter-level solve only
        assert not [key for key in added if key[0] in WINDOW_KEYS], added
    level = chain._memo[("level", i)]
    for m in range(1, MAX_M + 1):
        assert m in level.tables and ("pf_right", m) not in chain._memo
    assert (level.ancestors is not None) == (not solved)
    # a second pass reads the finished values: nothing is solved again

    def solve(*args):
        raise AssertionError("solved again")

    monkeypatch.setattr(spectral, "solve_linear", solve)
    assert level_measure_table(sub, chain, profile, i, max_m=MAX_M) == table


@pytest.mark.parametrize("name, i", INFINITE, ids=[f"{n}-{i}" for n, i in INFINITE])
def test_divergent_table_lifts_gamma_from_the_letter_block(name, i, perron_calls, monkeypatch):
    # the only Perron solve outside the left vector is the level's k x k
    # letter block: once per window length on an irrational level, once in
    # all for the letter values of an integer one
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    table, added = _table_keys(sub, chain, profile, i)
    solved = _solved(profile, i)
    assert perron_calls == [profile.levels[i - 1].block] * (len(solved) or 1)
    assert sorted(key[1] for key in chain._memo if key[0] == "limit_data") == solved
    assert not [key for key in chain._memo if key[0] == "pf_right"]
    if not solved:
        assert not [key for key in added if key[0] in WINDOW_KEYS], added

    def solve(*args):
        raise AssertionError("solved again")

    monkeypatch.setattr(spectral, "solve_linear", solve)
    assert level_measure_table(sub, chain, profile, i, max_m=MAX_M) == table


def test_divergent_table_with_two_new_letters(perron_calls):
    sub = Substitution.from_rules({"a": "aaaaa", "b": "abcc", "c": "bbc"})
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    _, added = _table_keys(sub, chain, profile, 2)
    # theta = 3: the letter block is solved once, for the letter values
    assert perron_calls == [((1, 2), (2, 1))]
    assert chain._memo[("level", 2)].ancestors is not None
    assert not [key for key in added if key[0] in WINDOW_KEYS], added


def _exact(name, i):
    sub = make(name)
    return block_eigenvalues(sub, component_chain(sub)).theta(i).as_integer() is not None


EXACT = [(n, i) for n, i in FINITE + INFINITE if _exact(n, i)]


@pytest.mark.parametrize("name, i", EXACT, ids=[f"{n}-{i}" for n, i in EXACT])
def test_long_window_reads_no_window_substitution(name, i):
    # an integer-theta level answers m >= 3, membership included, from its
    # ancestor state: no window substitution, language sweep or solve at m
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    sub_i, chain_i = chain.restrict(i)
    language = words.language(sub_i, 6)
    word = min(language)
    value = cylinder_measure(sub, chain, profile, i, word)
    outside = [word[:5] + c for c in sub_i.alphabet if word[:5] + c not in language]
    for w in outside + [word[:5] + "?"]:
        with pytest.raises(WordNotInLevelLanguage):
            cylinder_measure(sub, chain, profile, i, w)
    for c in (chain, chain_i):
        assert not [k for k in c._memo if k[0] in ("aux", "level_words", "word_levels", "pf_right") and k[1] > 2]
    assert not [k for k in chain._memo if k[0] == "limit_data" and k[1] > 2]
    fresh = component_chain(sub)
    assert value == cylinder_measure(sub, fresh, block_eigenvalues(sub, fresh), i, word)


@pytest.mark.parametrize("name, i", EXACT, ids=[f"{n}-{i}" for n, i in EXACT])
def test_level_listing_reads_the_table_keys(name, i):
    # the listing of an integer-theta level at m = 3 is its ancestor table's
    # keys: no language sweep or window substitution at m = 3
    sub = make(name)
    chain = component_chain(sub)
    level_measure_table(sub, chain, block_eigenvalues(sub, chain), i, max_m=3)
    for c in (chain, chain.restrict(i)[1]):
        assert not [k for k in c._memo if k in (("aux", 3), ("level_words", 3), ("word_levels", 3))]


UNIFORM = [(n, i) for n, i in EXACT if i >= 2]


@pytest.mark.parametrize("name, i", UNIFORM, ids=[f"{n}-{i}" for n, i in UNIFORM])
def test_uniformity_target_reads_the_table(name, i):
    # the target of a 3-letter word on an integer-theta level is a ratio of
    # ancestor-table values: no window substitution or limit data at m = 3
    sub = make(name)
    chain = component_chain(sub)
    new = set(chain.new_letters(i))
    level_words = [w for w, e in chain.word_levels(3).items() if e <= i and new & set(w)]
    assert level_words
    for word in sorted(level_words):
        chain = component_chain(sub)  # each word on an empty memo
        measures.uniformity_check(sub, chain, block_eigenvalues(sub, chain), i, word, 2)
        assert ("aux", 3) not in chain.restrict(i)[1]._memo, word
        assert ("limit_data", 3, i) not in chain._memo, word


def test_spectral_window_fills_both_sides(monkeypatch, capsys, tmp_path):
    chains = []

    def recorded(sub):
        chains.append(component_chain(sub))
        return chains[-1]

    monkeypatch.setattr(cli, "component_chain", recorded)
    path = tmp_path / "quartic.txt"
    path.write_text("".join(f"{c} -> {img}\n" for c, img in CORPUS_RULES["quartic"].items()))
    assert cli.main(["spectral", str(path), "-m", "2"]) == 0
    window = json.loads(capsys.readouterr().out)["window"]
    words = build_auxiliary(chains[0].sub, chains[0], 2).words
    assert list(window["alpha"]) == list(window["beta"]) == list(words)
    assert ("pf_right", 2) in chains[0]._memo


# Errors of ``cylinder_measure`` on a fresh chain and once every table of the
# system is built, with the types and messages the per-word solve raised: the
# kind of the level first, then the empty word, then the language.
ERRORS = [
    ("tower_of_quasi", 2, "a", MeasureTypeCounting, "level 2 carries counting measures on orbits"),
    ("tower_of_quasi", 2, "", MeasureTypeCounting, "level 2 carries counting measures on orbits"),
    ("almost_min_tower", 3, "zz", DomainError, "level 3 has no points, no measure to evaluate"),
    ("almost_min_tower", 1, "", DomainError, "level 1 has no points, no measure to evaluate"),
    ("fib_tail", 2, "ab", DomainError, "level 2 has no points, no measure to evaluate"),
    ("quartic", 4, "a", DomainError, "level 4 out of range 1..3"),
    ("quartic", 2, "", DomainError, "cylinder word must be nonempty"),
    ("quartic", 2, "ca", WordNotInLevelLanguage, "'ca' is not in the level-2 language"),
    ("quartic", 2, "c", WordNotInLevelLanguage, "'c' is not in the level-2 language"),
    ("golden_tower", 2, "ae", WordNotInLevelLanguage, "'ae' is not in the level-2 language"),
    ("mid_dominant", 1, "b", WordNotInLevelLanguage, "'b' is not in the level-1 language"),
]


@pytest.mark.parametrize("built", [False, True], ids=["fresh", "built"])
@pytest.mark.parametrize("name, i, word, error, message", ERRORS)
def test_errors_keep_their_order_once_tables_are_built(name, i, word, error, message, built):
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    for j in range(1, chain.n + 1 if built else 1):
        if measure_type(sub, chain, profile, j).kind in ("finite_ergodic", "infinite_radon"):
            level_measure_table(sub, chain, profile, j, max_m=MAX_M)
    with pytest.raises(error) as info:
        cylinder_measure(sub, chain, profile, i, word)
    assert type(info.value) is error and str(info.value).startswith(message)
    # every word here has a letter outside the level or fails before the
    # language, so on a fresh chain no table is built
    assert built or not [k for k, r in chain._memo.items() if k[0] == "level" and r.tables]


@pytest.mark.parametrize(
    "name, i, word", [("quartic", 2, "aa"), ("quartic", 3, "aaa"), ("golden_tower", 3, "ab")]
)
def test_lower_word_on_an_infinite_level_is_infinite(name, i, word):
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    level_measure_table(sub, chain, profile, i, max_m=MAX_M)
    assert len(word) in chain._memo[("level", i)].tables
    value = cylinder_measure(sub, chain, profile, i, word)
    assert value.infinite and value.exact is value.value is None
    assert value.as_json()["value"] == "inf"


KNOWN = [("golden_tower", 1, "ab"), ("golden_tower", 2, "aab"), ("quartic", 2, "aa"), ("quartic", 3, "abb")]


@pytest.mark.parametrize("name, i, word", KNOWN)
def test_known_word_is_one_lookup(name, i, word, monkeypatch):
    # once a word's table is built, its value is read from the level record:
    # no descriptor, table or ancestor state is made again, nothing is
    # stored, and neither the alphabet test nor the theta test runs
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    first = cylinder_measure(sub, chain, profile, i, word)
    keys = list(chain._memo)

    def built(*args):
        raise AssertionError("built or tested again")

    for body in ("_measure_type", "window_vectors", "_Ancestors"):
        monkeypatch.setattr(measures, body, built)
    monkeypatch.setattr(ComponentChain, "alphabet_at", built)
    monkeypatch.setattr(spectral.SpectralProfile, "theta", built)
    assert cylinder_measure(sub, chain, profile, i, word) == first
    assert list(chain._memo) == keys


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
        limit_data(*chain.restrict(level), 1, 1, top)


def test_profile_of_a_level_chain_serves_the_restricted_chain():
    # a restricted chain keeps the system's witness power, which no
    # eigenvalue depends on: the level chain's own profile describes it
    sub = make("golden_tower")
    sub_2, chain_2 = component_chain(sub).restrict(2)
    own = component_chain(sub_2)
    assert (chain_2.witness_k, own.witness_k) == (3, 2)
    got = pf_vectors(sub_2, chain_2, 2, block_eigenvalues(sub_2, own))
    fresh = ComponentChain(sub_2, chain_2.components, chain_2.witness_k)
    expected = pf_vectors(sub_2, fresh, 2, block_eigenvalues(sub_2, fresh))
    assert (got.alpha, got.beta) == (expected.alpha, expected.beta)


def test_chain_data_needs_the_chains_substitution():
    sub = make("quartic")
    chain = component_chain(sub)
    sub_2 = chain.restrict(2)[0]
    with pytest.raises(DomainError, match="not the one the chain was built from"):
        block_eigenvalues(sub_2, chain)
    with pytest.raises(DomainError, match="not the one the chain was built from"):
        build_auxiliary(sub_2, chain, 2)
    assert chain._memo == {("restrict", 2): chain.restrict(2)}


def test_restrict_is_built_once_per_level():
    sub = make("quartic")
    chain = component_chain(sub)
    fresh = ComponentChain(chain.sub, chain.components, chain.witness_k)
    for i in range(1, chain.n + 1):
        sub_i, chain_i = chain.restrict(i)
        assert all(x is y for x, y in zip(chain.restrict(i), (sub_i, chain_i)))
        assert chain_i == fresh.restrict(i)[1] and sub_i == fresh.restrict(i)[0]
    # the top restriction is the chain itself, so both share one memo; it is
    # not stored, or the chain would hold itself
    assert chain.restrict(chain.n)[0] is sub and chain.restrict(chain.n)[1] is chain
    stored = [key for key in chain._memo if key[0] == "restrict"]
    assert stored == [("restrict", i) for i in range(1, chain.n)]
    # the stored restrictions take no part in equality or hashing
    assert chain == ComponentChain(chain.sub, chain.components, chain.witness_k)
    assert hash(chain) == hash(ComponentChain(chain.sub, chain.components, chain.witness_k))


@pytest.mark.parametrize("name", sorted(CORPUS_RULES))
def test_measure_type_memo_equals_fresh_descriptor(name, monkeypatch):
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    bodies = Counter()
    body = measures._measure_type

    def counted(chain, spectral, i):
        bodies[i] += 1
        return body(chain, spectral, i)

    monkeypatch.setattr(measures, "_measure_type", counted)
    for i in range(1, chain.n + 1):
        desc = measure_type(sub, chain, profile, i)
        assert measure_type(sub, chain, profile, i) is desc
        assert desc == body(chain, profile, i)
    assert bodies == Counter(range(1, chain.n + 1))


@pytest.mark.parametrize("name", sorted(CORPUS_RULES))
def test_measure_type_reads_a_given_report(name):
    # a given report is checked against the chain's own level report and
    # changes nothing: the system's own report, made on another chain object,
    # gives the descriptor of no report
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    report = decomposition_report(sub, chain, profile)
    stored = [measure_type(sub, chain, profile, i) for i in range(1, chain.n + 1)]
    fresh = component_chain(sub)
    fresh_profile = block_eigenvalues(sub, fresh)
    for i in range(1, chain.n + 1):
        given = report.levels[i - 1]
        assert measure_type(sub, fresh, fresh_profile, i, given) == stored[i - 1]
    # a report of another level would lend its anchor
    if chain.n > 1:
        with pytest.raises(DomainError, match=f"not level {chain.n}'s report of this chain"):
            measure_type(sub, fresh, fresh_profile, chain.n, report.levels[chain.n - 2])


def test_measure_type_refuses_another_systems_report():
    # golden_tower's level-2 report would lend quartic's level 2 the anchor
    # c, which is no quartic letter; the refusal comes before any answer
    golden = make("golden_tower")
    golden_chain = component_chain(golden)
    given = decomposition_report(golden, golden_chain, block_eigenvalues(golden, golden_chain)).levels[1]
    sub = make("quartic")
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    with pytest.raises(DomainError, match="not level 2's report of this chain"):
        measure_type(sub, chain, profile, 2, given)
    assert measure_type(sub, chain, profile, 2).anchor == "b"


def test_measure_type_on_another_chain_stores_nothing():
    sub = make("quartic")
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    report = decomposition_report(sub, chain, profile).levels[1]
    sub_2, chain_2 = chain.restrict(2)
    keys, level_keys = set(chain._memo), set(chain_2._memo)
    for given in (None, report):
        with pytest.raises(DomainError):
            measure_type(sub_2, chain_2, profile, 2, given)
    assert set(chain._memo) == keys and set(chain_2._memo) == level_keys
    assert measure_type(sub, chain, profile, 2) == measure_type(sub, chain, profile, 2, report)


def test_decomposition_report_leaves_two_keys_per_level():
    # tower_64_mixed of seed_pairs.json: every other fact the sweep reads is
    # built once per chain, so a key that a later change adds per level fails;
    # the census runs inside the stored level report, and the periodicity
    # probe at level 3 builds no level chain
    n = 64
    sub = Substitution.from_rules(tower([2 + i % 2 for i in range(n)], [i % 3 != 1 for i in range(n)]))
    chain = component_chain(sub)
    decomposition_report(sub, chain, block_eigenvalues(sub, chain))
    per_chain = {
        ("spectral",),
        ("level_words", 2),  # the one L_2 sweep: the words each level adds
        ("two_words",),  # the crossing and pair-seed words of each level, read off it
        ("oriented_images", False),
        # None here, and no level has a pair-seed word: no census runs, so
        # neither ("letter_cycles",) nor ("s_runs",) is made
        ("fixed_bottom",),
    }
    per_level = {(name, i) for i in range(2, n + 1) for name in ("seed_pair", "classify_level")}
    assert set(chain._memo) == per_chain | per_level


@pytest.mark.parametrize("name", ["almost_min_tower", "constant_reenters", "chacon", "left_tail"])
def test_fixed_bottom_stores_one_s_run_record(name):
    # the s-run facts of every level come from one per-chain record; no
    # level restricts the chain or indexes words longer than two for them
    sub = make(name)
    chain = component_chain(sub)
    decomposition_report(sub, chain, block_eigenvalues(sub, chain))
    assert ("s_runs",) in chain._memo
    assert {key for key in chain._memo if key[0] == "restrict"} <= {("restrict", 2)}
    assert not [key for key in chain._memo if key[0] in ("level_words", "word_levels") and key[1] > 2]


def test_decomposition_report_checks_the_profile_once_per_level(monkeypatch):
    # the report checks the profile once for all its levels; no level, and
    # no seed pair a level reads, checks it again (tower_64_mixed of
    # seed_pairs.json, fresh chain)
    n = 64
    sub = Substitution.from_rules(tower([2 + i % 2 for i in range(n)], [i % 3 != 1 for i in range(n)]))
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    checks = Counter()
    check = spectral.SpectralProfile.check

    def counted(self, *args):
        checks["check"] += 1
        return check(self, *args)

    monkeypatch.setattr(spectral.SpectralProfile, "check", counted)
    decomposition_report(sub, chain, profile)
    assert checks["check"] == 1


def _profile_entries(i: int, word: str) -> dict:
    """The public entries that take a profile, each a call on (sub, chain,
    profile) at level i, with ``word`` where one is read."""
    return {
        "measure_type": lambda sub, chain, sp: measure_type(sub, chain, sp, i),
        "cylinder_measure": lambda sub, chain, sp: cylinder_measure(sub, chain, sp, i, word),
        "empirical_frequency": lambda sub, chain, sp: measures.empirical_frequency(sub, chain, sp, i, word, 100),
        "uniformity_check": lambda sub, chain, sp: measures.uniformity_check(sub, chain, sp, i, word, 10),
        "level_measure_table": lambda sub, chain, sp: level_measure_table(sub, chain, sp, i, max_m=2),
        "pf_vectors": lambda sub, chain, sp: pf_vectors(sub, chain, 2, sp),
        "limit_data": lambda sub, chain, sp: limit_data(sub, chain, 2, i, sp),
        "decomposition_report": lambda sub, chain, sp: decomposition_report(sub, chain, sp),
    }


ENTRY_NAMES = sorted(_profile_entries(1, "a"))


@pytest.mark.parametrize("name, i, word", [("quartic", 2, "bb"), ("fibonacci", 1, "a")])
@pytest.mark.parametrize("entry", ENTRY_NAMES)
def test_first_call_checks_the_profile_once(entry, name, i, word, monkeypatch):
    # a public entry checks its profile once, before anything reads it, and
    # the private doors it reads seeds, reports and tables through check
    # nothing again (a fresh chain, so every level is made on this call)
    sub = make(name)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    checks = []
    check = spectral.SpectralProfile.check
    monkeypatch.setattr(spectral.SpectralProfile, "check", lambda self, *args: checks.append(1) or check(self, *args))
    try:
        _profile_entries(i, word)[entry](sub, chain, profile)
    except DomainError as exc:  # uniformity windows need a level >= 2
        assert (entry, i) == ("uniformity_check", 1), exc
    assert len(checks) == 1


def _foreign_profiles() -> dict:
    """case -> (sub, chain, another chain's profile, level, word): a level
    chain under the system's profile, two levels and one, and a one-level
    system under another one-level system's."""
    quartic, golden = (component_chain(make(name)) for name in ("quartic", "golden_tower"))
    thue_morse = component_chain(Substitution.from_rules({"a": "ab", "b": "ba"}))
    fibonacci = component_chain(make("fibonacci"))
    return {
        "level-chain": (*quartic.restrict(2), block_eigenvalues(quartic.sub, quartic), 2, "bb"),
        "one-level-chain": (*golden.restrict(1), block_eigenvalues(golden.sub, golden), 1, "a"),
        "one-level-system": (fibonacci.sub, fibonacci, block_eigenvalues(thue_morse.sub, thue_morse), 1, "a"),
    }


@pytest.mark.parametrize("case", list(_foreign_profiles()))
@pytest.mark.parametrize("entry", ENTRY_NAMES)
def test_another_chains_profile_is_refused_before_anything_is_stored(entry, case):
    sub, chain, profile, i, word = _foreign_profiles()[case]
    keys = set(chain._memo)
    with pytest.raises(DomainError, match="describes another chain"):
        _profile_entries(i, word)[entry](sub, chain, profile)
    assert set(chain._memo) == keys


def test_decomposition_report_makes_few_python_calls_per_level():
    # A per-level cost guard that times nothing: the Python function calls
    # the profiler sees while the report classifies tower_64_mixed, the sweep
    # of its two-letter words included. The report makes about 14.5 per level
    # (it made 17.0 with the L_2 index built beforehand, when each level
    # re-read the chain's tables, and 42.3 when each level went through the
    # memo and profile layers of ``classify_level``); an interpreter that
    # inlines comprehensions makes fewer, so the bound stays an upper one.
    n = 64
    sub = Substitution.from_rules(tower([2 + i % 2 for i in range(n)], [i % 3 != 1 for i in range(n)]))
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    events = Counter()

    def count(frame, event, arg):
        events[event] += 1

    sys.setprofile(count)
    try:
        decomposition_report(sub, chain, profile)
    finally:
        sys.setprofile(None)
    assert events["call"] <= 16 * (n - 1)


def _counted_closures(monkeypatch) -> Counter:
    """Counts the level closures made from here on, per window length."""
    closures: Counter = Counter()
    close = words._AlignedClosure.close

    def counted_close(self, lang, letters, cap):
        closures[self.m] += 1
        return close(self, lang, letters, cap)

    monkeypatch.setattr(words._AlignedClosure, "close", counted_close)
    return closures


def test_decomposition_report_sweeps_each_level_once(monkeypatch):
    """One closure call per level at m = 2 and at most one restriction per level.

    Every window of the top two-letter language is expanded once over the
    whole sweep, from the stored image ends, without ``Substitution.step``;
    the seed pairs expand through stored tables. What steps is the level-2
    periodicity probe, a fixed number of times once, however tall the tower.
    Rebuilding each level's language from scratch would close the sum of all
    levels' languages instead.
    """
    n = 64
    rules = tower([2 + i % 2 for i in range(n)], [i % 2 == 0 for i in range(n)])
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    profile = block_eigenvalues(sub, chain)
    closures = _counted_closures(monkeypatch)
    restricted: list[tuple[str, ...]] = []
    steps = Counter()
    restrict, step = Substitution.restrict, Substitution.step

    def counted_restrict(self, letters):
        restricted.append(letters)
        return restrict(self, letters)

    def counted_step(self, word):
        steps["step"] += 1
        return step(self, word)

    monkeypatch.setattr(Substitution, "restrict", counted_restrict)
    monkeypatch.setattr(Substitution, "step", counted_step)
    decomposition_report(sub, chain, profile)
    assert closures[2] == n
    assert sum(closures.values()) <= n + 1  # plus the level-2 probe at level 3
    assert len(restricted) <= n and len(set(restricted)) == len(restricted)
    assert steps["step"] <= 16


@pytest.mark.parametrize("name, count", [("almost_min_tower", 6), ("golden_tower", 4)])
def test_check_sweeps_each_chain_once_per_window_length(name, count, tmp_path, capsys, monkeypatch):
    # the classification's rows, the window substitution and the cylinder
    # check read one two-letter sweep per chain: one closure per level of the
    # system, and per level of each level chain an irrational table solves on
    path = tmp_path / f"{name}.txt"
    path.write_text("".join(f"{c} -> {img}\n" for c, img in CORPUS_RULES[name].items()))
    closures = _counted_closures(monkeypatch)
    cli.main(["check", str(path)])
    assert json.loads(capsys.readouterr().out)["ok"]
    assert closures[2] == count


def test_top_level_frequency_sweeps_the_chain_once(monkeypatch):
    # the descriptor's seed pair and the word index read one sweep at m = 2
    sub = make("golden_tower")
    chain = component_chain(sub)
    closures = _counted_closures(monkeypatch)
    measures.empirical_frequency(sub, chain, block_eigenvalues(sub, chain), 3, "cd", 1000)
    assert closures[2] == chain.n == 3


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


def _on_profile(fn, *args):
    """``fn(sub, chain, profile, *args)`` with the chain's own profile."""
    return lambda sub, chain: fn(sub, chain, block_eigenvalues(sub, chain), *args)


GOLDEN = CORPUS_RULES["golden_tower"]
FREED = {
    "block_eigenvalues": (GOLDEN, block_eigenvalues),
    "cylinder_measure-1": (GOLDEN, _on_profile(cylinder_measure, 1, "ab")),
    "cylinder_measure-2": (GOLDEN, _on_profile(cylinder_measure, 2, "ca")),
    "cylinder_measure-infinite": (
        {"a": "aaa", "b": "abc", "c": "b"},
        _on_profile(cylinder_measure, 2, "bc"),
    ),
    "build_auxiliary": (GOLDEN, lambda sub, chain: build_auxiliary(sub, chain, 2)),
    "decomposition_report": (GOLDEN, _on_profile(decomposition_report)),
    "empirical_frequency": (GOLDEN, _on_profile(measures.empirical_frequency, 2, "c", 100)),
    "restrict": (GOLDEN, lambda sub, chain: chain.restrict(chain.n)),
}


@pytest.mark.parametrize("rules, call", FREED.values(), ids=FREED)
def test_chain_is_freed_by_reference_counting(rules, call):
    # nothing a chain stores refers back to it (no profile, window
    # substitution or top restriction holds the chain), so it is freed as
    # soon as it is dropped, without the cyclic collector
    sub = Substitution.from_rules(rules)
    enabled = gc.isenabled()
    gc.disable()
    try:
        chain = component_chain(sub)
        call(sub, chain)
        ref = weakref.ref(chain)
        del chain
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
