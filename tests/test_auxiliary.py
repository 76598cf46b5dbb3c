import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chainshift import (
    Substitution,
    apply,
    auxiliary_matrix,
    build_auxiliary,
    component_chain,
    incidence_matrix,
    language,
)
from conftest import make
from test_pipeline_fuzz import chain_systems

QUARTIC_M2 = (
    (4, 0, 0, 0, 0, 0, 0),
    (4, 0, 0, 0, 0, 0, 0),
    (0, 1, 1, 2, 0, 0, 0),
    (0, 1, 1, 2, 0, 0, 0),
    (0, 1, 0, 2, 1, 0, 0),
    (0, 0, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 1, 1, 1),
)

MID_DOMINANT_M2 = (
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


def _aux(name: str, m: int):
    sub = make(name)
    chain = component_chain(sub)
    return sub, chain, build_auxiliary(sub, chain, m)


def test_quartic_window_images():
    _, _, aux = _aux("quartic", 2)
    assert aux.images["aa"] == ("aa", "aa", "aa", "aa")
    assert aux.images["ab"] == ("aa", "aa", "aa", "aa")
    assert aux.images["ba"] == ("ab", "bb", "bb", "ba")
    assert aux.images["bb"] == ("ab", "bb", "bb", "ba")
    assert aux.images["bc"] == ("ab", "bb", "bb", "bc")
    assert aux.images["ca"] == ("cb", "bc", "ca")
    assert aux.images["cb"] == ("cb", "bc", "ca")


def test_mid_dominant_window_images():
    _, _, aux = _aux("mid_dominant", 2)
    assert aux.images["aa"] == ("aa", "aa")
    assert aux.images["bb"] == ("ab", "bb", "bb", "bc", "cc", "cc", "ca")
    assert aux.images["ca"] == ("ab", "bc", "cc", "cc", "cc", "cc", "ca")
    assert aux.images["cd"] == ("ab", "bc", "cc", "cc", "cc", "cc", "ca")
    assert aux.images["da"] == ("ab", "bc", "cd", "dd", "da")
    assert aux.images["dd"] == ("ab", "bc", "cd", "dd", "da")


def test_block_coordinate_sets():
    _, _, aux = _aux("quartic", 2)
    assert aux.q_blocks == (("aa",), ("ba", "bb"), ("ca", "cb"))
    assert aux.g_blocks == (("ab",), ("bc",))


@settings(max_examples=60, deadline=None)
@given(chain_systems(), st.integers(1, 6))
def test_window_blocks_match_oracle_on_chain_systems(rules, m):
    # Q(i): level-i words headed by a letter new at level i; G(i): words new
    # at level i+1 headed by a letter of level <= i; each in letter order.
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    aux = build_auxiliary(sub, chain, m)
    langs = oracles.level_languages(rules, chain.levels, m)
    key = sub.alphabet.word_key
    q = [
        tuple(sorted((w for w in langs[i - 1] if w[0] in chain.new_letters(i)), key=key))
        for i in range(1, chain.n + 1)
    ]
    g = [
        tuple(sorted((w for w in langs[i] - langs[i - 1] if w[0] in chain.alphabet_at(i)),
                     key=key))
        for i in range(1, chain.n)
    ]
    assert aux.q_blocks == tuple(q) and aux.g_blocks == tuple(g)


def test_window_one_matches_plain_substitution(corpus_sub):
    chain = component_chain(corpus_sub)
    aux = build_auxiliary(corpus_sub, chain, 1)
    for c in corpus_sub.alphabet:
        assert aux.images[c] == tuple(corpus_sub.image(c))
    assert auxiliary_matrix(aux).entries == incidence_matrix(corpus_sub).entries


def test_window_matrices_match_published_displays():
    _, _, aux = _aux("quartic", 2)
    matrix = auxiliary_matrix(aux)
    assert matrix.letters == ("aa", "ab", "ba", "bb", "bc", "ca", "cb")
    assert matrix.entries == QUARTIC_M2
    _, _, aux2 = _aux("mid_dominant", 2)
    matrix2 = auxiliary_matrix(aux2)
    assert matrix2.letters == ("aa", "ab", "bb", "bc", "ca", "cc", "cd", "da", "dd")
    assert matrix2.entries == MID_DOMINANT_M2


def test_row_sums_follow_first_letter(corpus_sub):
    chain = component_chain(corpus_sub)
    for m in (1, 2, 3):
        aux = build_auxiliary(corpus_sub, chain, m)
        matrix = auxiliary_matrix(aux)
        for u, row in zip(matrix.letters, matrix.entries):
            assert sum(row) == len(corpus_sub.image(u[0]))


def test_zero_pattern_is_block_triangular(corpus_sub):
    chain = component_chain(corpus_sub)
    for m in (1, 2):
        aux = build_auxiliary(corpus_sub, chain, m)
        matrix = auxiliary_matrix(aux)
        rank = {w: r for r, (_, _, ws) in enumerate(aux.blocks_in_order()) for w in ws}
        for u, row in zip(matrix.letters, matrix.entries):
            for v, value in zip(matrix.letters, row):
                if rank[v] > rank[u]:
                    assert value == 0


@pytest.mark.parametrize("name", ["quartic", "chacon", "golden_tower"])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_power_semantics_against_direct_windows(name, k):
    sub, chain, aux = _aux(name, 2)
    matrix = auxiliary_matrix(aux)
    power = matrix.power(k)
    for u in aux.words:
        expanded = apply(sub, u, k)
        width = len(apply(sub, u[0], k))
        for v in aux.words:
            direct = sum(1 for j in range(width) if expanded[j : j + 2] == v)
            assert direct == power[aux.words.index(u)][aux.words.index(v)]


def test_transient_block_row_sums_stay_below_window(corpus_sub):
    chain = component_chain(corpus_sub)
    for m in (2, 3):
        aux = build_auxiliary(corpus_sub, chain, m)
        matrix = auxiliary_matrix(aux)
        for ws in aux.g_blocks:
            if not ws:
                continue
            block = tuple(
                tuple(matrix.entries[aux.words.index(u)][aux.words.index(v)] for v in ws) for u in ws
            )
            from chainshift.structure import mat_pow

            for k in range(1, 7):
                for row in mat_pow(block, k):
                    assert sum(row) <= m - 1


def _assert_empty_q_blocks_follow_the_rule(rules: dict[str, str]) -> None:
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    for m in range(1, 5):
        aux = build_auxiliary(sub, chain, m)
        for i in range(1, chain.n + 1):
            assert (not aux.q_blocks[i - 1]) == oracles.q_block_empty(rules, chain.components, i, m), (i, m)


def test_empty_q_blocks_follow_the_rule_on_corpus(corpus_sub):
    # fib_tail's c -> abc empties Q(2) from m = 2 on; tower_of_quasi's c -> acb does not
    _assert_empty_q_blocks_follow_the_rule(dict(zip(corpus_sub.alphabet.letters, corpus_sub.images)))


@settings(max_examples=60, deadline=None)
@given(chain_systems())
def test_empty_q_blocks_follow_the_rule_on_chain_systems(rules):
    _assert_empty_q_blocks_follow_the_rule(rules)


def test_blocks_partition_language(corpus_sub):
    chain = component_chain(corpus_sub)
    for m in (1, 2, 3):
        aux = build_auxiliary(corpus_sub, chain, m)
        assert set(aux.words) == language(corpus_sub, m)
        flat = [w for _, _, ws in aux.blocks_in_order() for w in ws]
        assert flat == list(aux.words)
