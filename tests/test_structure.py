import random
import string

import pytest

import oracles
from chainshift import (
    DomainError,
    NoPrimitiveChainError,
    Substitution,
    component_chain,
    incidence_matrix,
    is_empty_bottom,
    sub_substitution,
)
from conftest import make, tower


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


def test_tower_new_letters_are_the_level_difference():
    for n in range(2, 65):
        rules = tower([2 + i % 3 for i in range(n)], [i % 2 == 0 for i in range(n)])
        chain = component_chain(Substitution.from_rules(rules))
        assert chain.n == n
        _assert_new_letters_by_difference(chain)
        # The stored letters take no part in equality or hashing.
        _, top = chain.restrict(n)
        assert top == chain and hash(top) == hash(chain)


def test_blocks_and_couplings_tile_the_matrix(corpus_sub):
    """Diagonal and coupling views reassemble the full incidence matrix."""
    chain = component_chain(corpus_sub)
    matrix = incidence_matrix(corpus_sub)
    for i in range(1, chain.n + 1):
        rows = chain.new_letters(i)
        diag = chain.block(i)
        for r, a in enumerate(rows):
            for c, b in enumerate(rows):
                assert diag[r][c] == matrix[a, b]
        for j in range(1, i):
            cols = chain.new_letters(j)
            block = chain.coupling(i, j)
            for r, a in enumerate(rows):
                for c, b in enumerate(cols):
                    assert block[r][c] == matrix[a, b]
    with pytest.raises(DomainError):
        chain.coupling(1, 1)


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


def test_incomparable_components_rejected():
    # two primitive bottoms coupled only from above
    rules = {"a": "ab", "b": "a", "c": "cd", "d": "c", "e": "ace"}
    with pytest.raises(NoPrimitiveChainError) as err:
        component_chain(Substitution.from_rules(rules))
    diag = err.value.diagnostic
    assert diag["kind"] == "incomparable_components"
    assert sorted(map(tuple, diag["components"])) == [("a", "b"), ("c", "d")]


def test_sub_substitution_mid_dominant():
    sub = make("mid_dominant")
    chain = component_chain(sub)
    sub2 = sub_substitution(sub, chain, 2)
    assert sub2.alphabet.letters == ("a", "b", "c")
    assert sub2.images == ("aa", "abbbccc", "abccccc")


def test_sub_substitution_top_is_identity(corpus_sub):
    chain = component_chain(corpus_sub)
    assert sub_substitution(corpus_sub, chain, chain.n) == corpus_sub


def test_sub_substitution_bottom_of_golden_tower():
    sub = make("golden_tower")
    chain = component_chain(sub)
    bottom = sub_substitution(sub, chain, 1)
    assert bottom.alphabet.letters == ("a", "b") and bottom.images == ("ab", "a")


def test_sub_substitution_bad_level():
    sub = make("chacon")
    chain = component_chain(sub)
    with pytest.raises(DomainError):
        sub_substitution(sub, chain, 3)


def test_sub_language_contained(corpus_sub):
    from chainshift import language

    chain = component_chain(corpus_sub)
    for i in range(1, chain.n + 1):
        sub_i = sub_substitution(corpus_sub, chain, i)
        assert language(sub_i, 2) <= language(corpus_sub, 2)


def test_is_empty_bottom():
    assert is_empty_bottom(make("chacon"), component_chain(make("chacon")))
    assert not is_empty_bottom(make("quartic"), component_chain(make("quartic")))
    assert not is_empty_bottom(make("golden_tower"), component_chain(make("golden_tower")))


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

