import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chainshift import (
    ComponentChain,
    DomainError,
    NoPrimitiveChainError,
    Substitution,
    block_eigenvalues,
    component_chain,
    decomposition_report,
    incidence_matrix,
)
from chainshift import structure
from chainshift.structure import letter_counts, mat_mul, mat_pow
from conftest import CORPUS_RULES, assert_matches_dense_oracle, make, tower
from test_classify import fixed_bottom_chains, mixed_towers


def test_incidence_quartic():
    assert incidence_matrix(make("quartic")).entries == ((4, 0, 0), (1, 3, 0), (0, 1, 2))


def test_incidence_mid_dominant():
    assert incidence_matrix(make("mid_dominant")).entries == (
        (2, 0, 0, 0),
        (1, 3, 3, 0),
        (1, 1, 5, 0),
        (1, 1, 1, 2),
    )


def test_incidence_symmetric_pair():
    sub = Substitution.from_rules({"a": "ab", "b": "ba"})
    assert incidence_matrix(sub).entries == ((1, 1), (1, 1))


def test_incidence_row_sums(corpus_sub):
    matrix = incidence_matrix(corpus_sub)
    for letter, total in zip(matrix.letters, matrix.row_sums()):
        assert total == len(corpus_sub.image(letter))


def test_incidence_power_row_sums(corpus_sub):
    from chainshift import apply

    matrix = incidence_matrix(corpus_sub)
    for k in (2, 5, 8):
        power = matrix.power(k)
        for ai, a in enumerate(matrix.letters):
            assert sum(power[ai]) == len(apply(corpus_sub, a, k))


def test_incidence_matches_oracle(corpus_sub):
    rules = {c: corpus_sub.image(c) for c in corpus_sub.alphabet}
    assert [list(r) for r in incidence_matrix(corpus_sub).entries] == oracles.incidence(rules)


def test_chain_quartic_levels():
    chain = component_chain(make("quartic"))
    assert chain.levels == (("a",), ("a", "b"), ("a", "b", "c"))
    assert chain.n == 3


def test_chain_chacon_levels():
    chain = component_chain(make("chacon"))
    assert chain.levels == (("a",), ("a", "b"))


def test_chain_golden_tower_levels():
    chain = component_chain(make("golden_tower"))
    assert chain.levels == (("a", "b"), ("a", "b", "c", "d"), ("a", "b", "c", "d", "e"))


def test_chain_single_component():
    chain = component_chain(make("fibonacci"))
    assert chain.n == 1 and chain.levels == (("a", "b"),)


def test_chain_witness_bound_and_positivity(corpus_sub):
    chain = component_chain(corpus_sub)
    n = len(corpus_sub.alphabet)
    assert 1 <= chain.witness_k <= (n - 1) ** 2 + 1 + n
    power = incidence_matrix(corpus_sub).power(chain.witness_k)
    letters = corpus_sub.alphabet.letters
    for a in letters:
        for b in letters:
            if chain.level_of(a) >= chain.level_of(b):
                assert power[letters.index(a)][letters.index(b)] > 0


def test_chain_closure(corpus_sub):
    chain = component_chain(corpus_sub)
    for i in range(1, chain.n + 1):
        level = set(chain.alphabet_at(i))
        for c in level:
            assert set(corpus_sub.image(c)) <= level


def _assert_new_letters_by_difference(chain):
    for i in range(1, chain.n + 1):
        below = set(chain.levels[i - 2]) if i >= 2 else set()
        assert chain.new_letters(i) == tuple(c for c in chain.levels[i - 1] if c not in below)


def test_new_letters_are_the_level_difference(corpus_sub):
    chain = component_chain(corpus_sub)
    _assert_new_letters_by_difference(chain)
    for i in range(1, chain.n + 1):
        _assert_new_letters_by_difference(chain.restrict(i)[1])


def test_level_of_is_the_first_level_holding_the_letter(corpus_sub):
    chain = component_chain(corpus_sub)
    for i in range(1, chain.n + 1):
        sub_chain = chain.restrict(i)[1]
        for c in chain.alphabet_at(i):
            first = next(j for j, level in enumerate(chain.levels, start=1) if c in level)
            assert chain.level_of(c) == sub_chain.level_of(c) == first
            assert c in chain.new_letters(first)
    with pytest.raises(DomainError):
        chain.level_of("?")
    if chain.n > 1:  # a sub-chain knows only its own letters
        with pytest.raises(DomainError):
            chain.restrict(1)[1].level_of(chain.new_letters(chain.n)[0])


def test_tower_new_letters_are_the_level_difference():
    for n in range(2, 65):
        rules = tower([2 + i % 3 for i in range(n)], [i % 2 == 0 for i in range(n)])
        chain = component_chain(Substitution.from_rules(rules))
        assert chain.n == n
        _assert_new_letters_by_difference(chain)
        # The stored letters take no part in equality or hashing.
        _, top = chain.restrict(n)
        assert top == chain and hash(top) == hash(chain)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    mixed_towers(), fixed_bottom_chains(), st.sampled_from(sorted(CORPUS_RULES)).map(CORPUS_RULES.get)
))
def test_chain_is_its_components(rules):
    # the chain keeps the components detection finds; every cumulative
    # alphabet, and every level's own chain, is derived from them
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    assert chain.components == tuple(oracles.components(rules))
    assert chain.n == len(chain.components)
    below: set[str] = set()
    for i, letters in enumerate(chain.components, start=1):
        below.update(letters)
        union = tuple(c for c in rules if c in below)
        assert chain.levels[i - 1] == chain.alphabet_at(i) == union
        assert chain.new_letters(i) == letters
    for i in range(1, chain.n):
        sub_i, chain_i = chain.restrict(i)
        fresh = component_chain(sub.restrict(chain.alphabet_at(i)))
        # a level's chain keeps the system's witness power, a witness for the
        # level too, and not always its least one
        assert chain_i.sub == sub_i == fresh.sub
        assert chain_i.components == fresh.components
        assert chain_i == ComponentChain(fresh.sub, fresh.components, chain.witness_k)
        assert chain_i.witness_k >= fresh.witness_k
    again = component_chain(Substitution.from_rules(rules))
    rebuilt = ComponentChain(sub, chain.components, chain.witness_k)
    assert chain == again == rebuilt and hash(chain) == hash(again) == hash(rebuilt)


def test_blocks_and_couplings_tile_the_matrix(corpus_sub):
    """The profile's diagonal blocks and the letter counts of each level's
    images in the letters of a lower level reassemble the incidence matrix."""
    chain = component_chain(corpus_sub)
    profile = block_eigenvalues(corpus_sub, chain)
    matrix = incidence_matrix(corpus_sub)
    for i in range(1, chain.n + 1):
        rows = chain.new_letters(i)
        diag = profile.levels[i - 1].block
        for r, a in enumerate(rows):
            for c, b in enumerate(rows):
                assert diag[r][c] == matrix[a, b]
        for j in range(1, i):
            cols = chain.new_letters(j)
            block = letter_counts(map(corpus_sub.image, rows), cols)
            for r, a in enumerate(rows):
                for c, b in enumerate(cols):
                    assert block[r][c] == matrix[a, b]


def test_block_zero_pattern(corpus_sub):
    chain = component_chain(corpus_sub)
    matrix = incidence_matrix(corpus_sub)
    for a in corpus_sub.alphabet:
        for b in corpus_sub.alphabet:
            if chain.level_of(a) < chain.level_of(b):
                assert matrix[a, b] == 0


def test_period_two_block_rejected():
    with pytest.raises(NoPrimitiveChainError) as err:
        component_chain(Substitution.from_rules({"a": "b", "b": "a"}))
    assert err.value.diagnostic["kind"] == "imprimitive_block"
    assert err.value.diagnostic["component"] == ["a", "b"]


def test_dead_letter_rejected():
    # c maps into the lower component and never reproduces itself
    with pytest.raises(NoPrimitiveChainError) as err:
        component_chain(Substitution.from_rules({"a": "ab", "b": "a", "c": "aa"}))
    assert err.value.diagnostic["component"] == ["c"]


def _tower_missing_its_letter(n: int, k: int) -> dict[str, str]:
    """A tower whose level k adds a letter mapped onto the level below alone."""
    rules = tower([2] * n)
    x = list(rules)
    rules[x[k - 1]] = x[k - 2]
    return rules


@pytest.mark.parametrize(
    "rules",
    [
        {"a": "b", "b": "bb"},  # the top letter
        {"a": "a", "b": "a", "c": "bcc"},  # a middle letter
        {"a": "a", "b": "a", "c": "b"},  # two such letters: the lower one is named
        {"a": "ab", "b": "a", "c": "abab", "d": "cd"},
        _tower_missing_its_letter(40, 17),
        _tower_missing_its_letter(40, 40),
    ],
    ids=("top", "middle", "two", "over_fibonacci", "tower_17", "tower_40"),
)
def test_one_letter_component_without_its_letter(rules):
    # a one-letter block is primitive iff its letter occurs in its own image;
    # the rejection names the same block as the dense search
    assert assert_matches_dense_oracle(rules) == "imprimitive_block"


def _tower_over_period_two() -> dict[str, str]:
    """41 one-letter levels over a -> b, b -> a."""
    rules = tower([2] * 41)
    x = list(rules)
    return {"a": "b", "b": "a", **rules, x[0]: "a" + x[0] * 2}


@pytest.mark.parametrize(
    "rules, lowest",
    [
        (_tower_over_period_two(), ["a", "b"]),
        # a 3-cycle, a primitive letter, a 2-cycle on top, declared top first
        ({"d": "ef", "e": "d", "f": "fa", "a": "b", "b": "c", "c": "a"}, ["a", "b", "c"]),
    ],
    ids=("tower_over_period_two", "two_cycles"),
)
def test_lowest_imprimitive_block_is_named(rules, lowest):
    # no witness turns up by the bound, and the lowest block that is not
    # full in the last power is named, as the dense search names it
    assert assert_matches_dense_oracle(rules) == "imprimitive_block"
    with pytest.raises(NoPrimitiveChainError) as err:
        component_chain(Substitution.from_rules(rules))
    assert err.value.diagnostic == {"kind": "imprimitive_block", "component": lowest}


def test_incomparable_components_rejected():
    # two primitive bottoms coupled only from above
    rules = {"a": "ab", "b": "a", "c": "cd", "d": "c", "e": "ace"}
    with pytest.raises(NoPrimitiveChainError) as err:
        component_chain(Substitution.from_rules(rules))
    diag = err.value.diagnostic
    assert diag["kind"] == "incomparable_components"
    assert sorted(map(tuple, diag["components"])) == [("a", "b"), ("c", "d")]


@pytest.mark.parametrize(
    "rules, components",
    [
        (
            {"a": "f", "b": "and", "c": "aj", "d": "g", "e": "b", "f": "mih", "g": "lh",
             "h": "h", "i": "gki", "j": "bbm", "k": "k", "l": "d", "m": "e", "n": "k"},
            [["h"], ["k"]],
        ),
        (
            {"a": "hie", "b": "bgb", "c": "b", "d": "j", "e": "e", "f": "kd", "g": "c",
             "h": "lmj", "i": "blc", "j": "f", "k": "fmm", "l": "b", "m": "cgl"},
            [["e"], ["b", "c", "g"]],
        ),
    ],
    ids=("fourteen_letters", "thirteen_letters"),
)
def test_incomparable_pair_follows_sorted_successors(rules, components):
    # Tarjan visits each letter's successors in increasing index order, and
    # that order names the pair; on these systems a walk in set order (which
    # differs from sorted order above 8 letters) names the pair the other
    # way round
    with pytest.raises(NoPrimitiveChainError) as err:
        component_chain(Substitution.from_rules(rules))
    assert err.value.diagnostic == {"kind": "incomparable_components", "components": components}


def test_sub_substitution_mid_dominant():
    sub = make("mid_dominant")
    chain = component_chain(sub)
    sub2 = chain.restrict(2)[0]
    assert sub2.alphabet.letters == ("a", "b", "c")
    assert sub2.images == ("aa", "abbbccc", "abccccc")


def test_sub_substitution_top_is_identity(corpus_sub):
    chain = component_chain(corpus_sub)
    assert chain.restrict(chain.n)[0] == corpus_sub


def test_sub_substitution_bottom_of_golden_tower():
    sub = make("golden_tower")
    chain = component_chain(sub)
    bottom = chain.restrict(1)[0]
    assert bottom.alphabet.letters == ("a", "b") and bottom.images == ("ab", "a")


def test_sub_substitution_bad_level():
    sub = make("chacon")
    chain = component_chain(sub)
    with pytest.raises(DomainError):
        chain.restrict(3)


def test_sub_language_contained(corpus_sub):
    from chainshift import language

    chain = component_chain(corpus_sub)
    for i in range(1, chain.n + 1):
        sub_i = chain.restrict(i)[0]
        assert language(sub_i, 2) <= language(corpus_sub, 2)


def test_is_empty_bottom():
    # the bottom subshift is empty iff level 1 is one letter mapped to itself
    cases = {"chacon": "bottom_empty", "quartic": "bottom_minimal", "golden_tower": "bottom_minimal"}
    for name, case in cases.items():
        sub = make(name)
        chain = component_chain(sub)
        assert decomposition_report(sub, chain, block_eigenvalues(sub, chain)).levels[0].case == case, name


def test_random_substitutions_match_partition_search():
    """Chain detection agrees with brute-force search over ordered partitions."""
    rng = random.Random(99)
    accepted = rejected = 0
    for _ in range(60):
        rules = oracles.random_substitution(rng, max_letters=4, max_image=3)
        sub = Substitution.from_rules(rules)
        n = len(rules)
        bound = (n - 1) ** 2 + 1 + n
        expected = oracles.valid_chains(rules, bound)
        try:
            chain = component_chain(sub)
        except NoPrimitiveChainError:
            assert expected == []
            rejected += 1
        else:
            assert len(expected) == 1
            assert list(chain.levels) == expected[0]
            accepted += 1
    assert accepted and rejected


def _required_missing(rules: dict[str, str], chain, k: int) -> list[tuple[str, str]]:
    """Entries on or below the block diagonal that vanish in the k-th power."""
    letters = list(rules)
    power = oracles.mat_pow(oracles.incidence(rules), k)
    return [
        (a, b)
        for i, a in enumerate(letters)
        for j, b in enumerate(letters)
        if chain.level_of(a) >= chain.level_of(b) and not power[i][j]
    ]


def _tower_rules(n: int, r: int, before: bool) -> dict[str, str]:
    """Tower of n levels: x_1 -> x_1^r, and x_i -> x_{i-1} x_i^r (or x_i^r x_{i-1})."""
    x = string.ascii_letters[:n]
    rules = {x[0]: x[0] * r}
    for i in range(1, n):
        rules[x[i]] = x[i - 1] + x[i] * r if before else x[i] * r + x[i - 1]
    return rules


def test_witness_matches_dense_oracle(corpus_sub):
    rules = {c: corpus_sub.image(c) for c in corpus_sub.alphabet}
    assert component_chain(corpus_sub).witness_k == oracles.witness_k_dense(rules)


def test_witness_is_minimal(corpus_sub):
    rules = {c: corpus_sub.image(c) for c in corpus_sub.alphabet}
    chain = component_chain(corpus_sub)
    assert _required_missing(rules, chain, chain.witness_k) == []
    assert _required_missing(rules, chain, chain.witness_k - 1)


@pytest.mark.parametrize("r", (2, 3))
@pytest.mark.parametrize("before", (True, False), ids=("before", "after"))
def test_tower_witness_matches_dense_oracle(r, before):
    for n in range(2, 41):
        rules = _tower_rules(n, r, before)
        chain = component_chain(Substitution.from_rules(rules))
        assert chain.levels == tuple(tuple(rules)[:i] for i in range(1, n + 1))
        assert chain.witness_k == oracles.witness_k_dense(rules) == n - 1


@pytest.mark.parametrize("n", (2, 3, 5, 8, 13))
def test_tower_witness_is_minimal(n):
    rules = _tower_rules(n, 2, n % 2 == 0)
    chain = component_chain(Substitution.from_rules(rules))
    assert _required_missing(rules, chain, chain.witness_k) == []
    assert _required_missing(rules, chain, chain.witness_k - 1)


def test_witness_is_exact_where_the_successor_bound_overshoots():
    # Row t of A^k is full from k = 3 on, but its successor x only from k = 4.
    # Bounding a row's finish time by 1 + its successors' would give 5 for
    # t, above the true witness power 4: the search must step the rows.
    rules = {"x": "y", "y": "z", "z": "xz", "t": "tx"}
    chain = component_chain(Substitution.from_rules(rules))
    unfinished = {k: {a for a, _ in _required_missing(rules, chain, k)} for k in range(1, 7)}
    finish = {a: min(k for k in unfinished if a not in unfinished[k]) for a in rules}
    assert finish == {"x": 4, "y": 3, "z": 2, "t": 3}
    assert 1 + finish["x"] == 5
    assert chain.witness_k == 4 == oracles.witness_k_dense(rules)


@pytest.mark.parametrize("n", range(8, 13))
def test_wielandt_extremal_block(n):
    """An n-cycle plus one chord has exponent (n-1)^2+1; the bare cycle has period n."""
    x = string.ascii_letters[:n]
    cycle = {x[i]: x[(i + 1) % n] for i in range(n)}
    chord = {**cycle, x[-1]: x[0] + x[1]}
    chain = component_chain(Substitution.from_rules(chord))
    assert chain.levels == (tuple(x),)
    assert chain.witness_k == (n - 1) ** 2 + 1 == oracles.witness_k_dense(chord)
    with pytest.raises(NoPrimitiveChainError) as err:
        component_chain(Substitution.from_rules(cycle))
    assert err.value.diagnostic == {"kind": "imprimitive_block", "component": sorted(x)}
    assert oracles.witness_k_dense(cycle) == err.value.diagnostic



@pytest.fixture
def witness_paths(monkeypatch):
    """Which witness search each ``component_chain`` call ran, in call order."""
    runs: list[str] = []
    for name in ("_row_witness", "_packed_witness"):
        def spy(*args, _search=getattr(structure, name), _name=name):
            runs.append(_name)
            return _search(*args)

        monkeypatch.setattr(structure, name, spy)
    return runs


def _shuffled(rules: dict[str, str], seed: int) -> dict[str, str]:
    """The same rules, declared in a seeded random order."""
    items = list(rules.items())
    random.Random(seed).shuffle(items)
    return dict(items)


@pytest.mark.parametrize("r", (2, 3))
@pytest.mark.parametrize("before", (True, False), ids=("before", "after"))
def test_packed_witness_on_shuffled_towers(r, before, witness_paths):
    # declared out of level order, so slots and letter indices differ; a
    # tower has 2 offsets and 2n - 1 edges, so it packs from n = 5 on
    for n in (2, 3, 4, 5, 7, 10, 16, 25, 40, 64):
        rules = _shuffled(tower([r] * n, before), seed=n)
        assert assert_matches_dense_oracle(rules) == "accepted"
    assert witness_paths == ["_row_witness"] * 3 + ["_packed_witness"] * 7


def _fibonacci_tower(levels: int, seed: int) -> dict[str, str]:
    """Two-letter Fibonacci blocks a_i -> a_(i-1) a_i b_i, b_i -> a_i, shuffled."""
    a = [chr(0x4E00 + 2 * i) for i in range(levels)]
    b = [chr(0x4E01 + 2 * i) for i in range(levels)]
    rules = {a[0]: a[0] + b[0], b[0]: a[0]}
    for i in range(1, levels):
        rules[a[i]], rules[b[i]] = a[i - 1] + a[i] + b[i], a[i]
    return _shuffled(rules, seed)


@pytest.mark.parametrize("levels", (6, 9, 16, 24, 32))
def test_packed_witness_on_fibonacci_towers(levels, witness_paths):
    rules = _fibonacci_tower(levels, seed=levels)
    assert assert_matches_dense_oracle(rules) == "accepted"
    assert witness_paths == ["_packed_witness"]


def test_packed_search_names_the_imprimitive_top(witness_paths):
    # 40 one-letter levels under p -> x_40 q, q -> p: the top block has period
    # two, so the search runs to the bound and unpacks the last power
    rules = tower([2] * 40)
    rules.update({"p": list(rules)[-1] + "q", "q": "p"})
    rules = _shuffled(rules, seed=40)
    assert assert_matches_dense_oracle(rules) == "imprimitive_block"
    assert oracles.witness_k_dense(rules) == {"kind": "imprimitive_block", "component": ["p", "q"]}
    assert witness_paths == ["_packed_witness"]


def test_witness_search_selection(witness_paths):
    # the corpus chains keep the per-row search; the benchmark's tower shape
    # (random multiplicities 2 or 3 and orientations, 24..64 levels) packs
    for name in sorted(CORPUS_RULES):
        component_chain(make(name))
    assert witness_paths == ["_row_witness"] * len(CORPUS_RULES)
    witness_paths.clear()
    rng = random.Random(24)
    for n in range(24, 65, 8):
        rs = [rng.choice((2, 3)) for _ in range(n)]
        flags = [rng.random() < 0.5 for _ in range(n)]
        component_chain(Substitution.from_rules(tower(rs, flags)))
    assert witness_paths == ["_packed_witness"] * 6


def _sparse_matrix(rows: int, cols: int):
    entry = st.sampled_from((0, 0, 0, 1, 2, 3, 17))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def _matrix_pair(draw):
    n, mid, m = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return draw(_sparse_matrix(n, mid)), draw(_sparse_matrix(mid, m))


@settings(max_examples=150, deadline=None)
@given(_matrix_pair())
def test_mat_mul_matches_oracle(pair):
    a, b = pair
    assert mat_mul(a, b) == tuple(map(tuple, oracles.mat_mul(a, b)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: _sparse_matrix(n, n)), st.integers(0, 7))
def test_mat_pow_matches_oracle(a, k):
    assert mat_pow(a, k) == tuple(map(tuple, oracles.mat_pow(a, k)))
