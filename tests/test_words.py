import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from chainshift import (
    Alphabet,
    BudgetExceeded,
    DomainError,
    Substitution,
    apply,
    component_chain,
    count_occurrences,
    incidence_matrix,
    language,
)
from chainshift import words
from conftest import CORPUS_RULES, make, tower
from test_pipeline_fuzz import chain_systems


def test_alphabet_validation():
    with pytest.raises(DomainError):
        Alphabet(("a", "a"))
    with pytest.raises(DomainError):
        Alphabet(("a", " "))
    assert len(Alphabet(("x", "y", "z"))) == 3


def test_substitution_validation():
    with pytest.raises(DomainError):
        Substitution.from_rules({"a": "", "b": "a"})
    with pytest.raises(DomainError):
        Substitution.from_rules({"a": "ab", "b": "q"})


def test_count_single_letter_identity():
    assert count_occurrences("a", "a") == (1, (1,))


def test_count_in_image():
    # occurrences of b in the image of b for the quartic system
    assert count_occurrences("b", "abbb").count == 3


def test_count_overlapping_positions():
    expected = oracles.occurrences("aba", "ababa")
    got = count_occurrences("aba", "ababa")
    assert got.count == 2 and list(got.positions) == expected == [1, 3]


def test_count_rejects_empty_pattern():
    with pytest.raises(DomainError):
        count_occurrences("", "abc")


def test_count_matches_oracle_on_random_words():
    rng = random.Random(7)
    for _ in range(200):
        v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 30)))
        u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
        assert list(count_occurrences(u, v).positions) == oracles.occurrences(u, v)


def test_apply_single_step_is_concatenation():
    chacon = make("chacon")
    assert apply(chacon, "b", 1) == "bbab"
    rng = random.Random(3)
    for _ in range(50):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
        assert apply(chacon, w, 1) == "".join(chacon.image(c) for c in w)


def test_step_rejects_letter_outside_alphabet():
    sub = make("chacon")
    for word in ("c", "abz", "ab" * 50 + "\u4e00"):
        with pytest.raises(DomainError, match="not in alphabet"):
            sub.step(word)
    assert sub.step("") == ""


def test_step_matches_letter_by_letter_join(corpus_sub):
    rules = {c: corpus_sub.image(c) for c in corpus_sub.alphabet}
    rng = random.Random(11)
    for length in (1, 2, 5, 40):
        word = "".join(rng.choice(corpus_sub.alphabet.letters) for _ in range(length))
        for _ in range(4):
            expected = oracles.power(rules, word, 1)
            assert corpus_sub.step(word) == expected
            word = expected[:300]


def test_step_on_a_non_latin1_alphabet():
    letters = [chr(0x4E00 + i) for i in range(200)]
    rng = random.Random(5)
    rules = {c: "".join(rng.choice(letters) for _ in range(rng.randint(1, 5))) for c in letters}
    sub = Substitution.from_rules(rules)
    word = "".join(letters)
    for _ in range(3):
        expected = oracles.power(rules, word, 1)
        assert sub.step(word) == expected
        word = expected
    with pytest.raises(DomainError, match="not in alphabet"):
        sub.step(word[:7] + "a" + word[7:])


def _tuple_key(alphabet: Alphabet):
    """The letter-index tuple key that ``word_key`` replaces."""
    return lambda word: tuple(alphabet.letters.index(c) for c in word)


def test_word_key_orders_corpus_languages_like_index_tuples(corpus_sub):
    alphabet = corpus_sub.alphabet
    words: list[str] = []
    for m in (1, 2, 3, 4):
        lang = sorted(language(corpus_sub, m))
        assert sorted(lang, key=alphabet.word_key) == sorted(lang, key=_tuple_key(alphabet))
        words.extend(lang)
    # Mixed lengths: a proper prefix sorts before its extensions.
    random.Random(3).shuffle(words)
    assert sorted(words, key=alphabet.word_key) == sorted(words, key=_tuple_key(alphabet))


def test_word_key_on_a_200_letter_alphabet():
    rng = random.Random(8)
    letters = [chr(0x4E00 + i) for i in range(200)]
    rng.shuffle(letters)  # declaration order differs from code point order
    alphabet = Alphabet(tuple(letters))
    words = ["".join(rng.choice(letters) for _ in range(rng.randint(0, 6))) for _ in range(2000)]
    assert sorted(words, key=alphabet.word_key) == sorted(words, key=_tuple_key(alphabet))
    with pytest.raises(DomainError, match="not in alphabet"):
        alphabet.word_key(letters[0] + "a")


def test_apply_square_of_quartic_bottom():
    quartic = make("quartic")
    assert apply(quartic, "a", 2) == oracles.power(CORPUS_RULES["quartic"], "a", 2) == "a" * 16


def test_apply_power_zero_needs_flag():
    chacon = make("chacon")
    with pytest.raises(DomainError):
        apply(chacon, "b", 0)
    with pytest.raises(DomainError):
        apply(chacon, "", 1)


def test_apply_length_formula(corpus_sub):
    # |sigma^k(w)| equals the occurrence-weighted sum of letter image lengths
    rng = random.Random(11)
    letters = corpus_sub.alphabet.letters
    for k in (1, 2, 3):
        w = "".join(rng.choice(letters) for _ in range(5))
        total = sum(
            count_occurrences(a, w).count * len(apply(corpus_sub, a, k)) for a in letters
        )
        assert len(apply(corpus_sub, w, k)) == total


def test_language_quartic_m2():
    assert language(make("quartic"), 2) == {"aa", "ab", "ba", "bb", "bc", "ca", "cb"}


def test_language_mid_dominant_m2():
    assert language(make("mid_dominant"), 2) == {
        "aa", "ab", "bb", "bc", "ca", "cc", "cd", "da", "dd",
    }


def test_language_m1_by_brute_force():
    rules = CORPUS_RULES["quartic"]
    assert language(make("quartic"), 1) == oracles.language(rules, 1) == {"a", "b", "c"}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_language_matches_deep_expansion(corpus_sub, m):
    rules = {c: corpus_sub.image(c) for c in corpus_sub.alphabet}
    assert language(corpus_sub, m) == oracles.language(rules, m)


def test_language_monotone_factors(corpus_sub):
    for m in (2, 3, 4):
        below = language(corpus_sub, m - 1)
        for w in language(corpus_sub, m):
            assert w[:-1] in below and w[1:] in below


def test_language_rejects_bad_length():
    with pytest.raises(DomainError):
        language(make("chacon"), 0)


@st.composite
def substitution_rules(draw) -> dict[str, str]:
    """Any rules over two to five letters with images of one to four letters:
    letters whose iterates stay short or cycle, and letters no image reaches,
    are drawn too."""
    letters = "abcde"[: draw(st.integers(2, 5))]
    image = st.text(alphabet=letters, min_size=1, max_size=4)
    return {c: draw(image) for c in letters}


@settings(max_examples=200, deadline=None)
@given(substitution_rules(), st.integers(1, 30))
@example({"a": "bcde", "b": "bb", "c": "cc", "d": "dd", "e": "ee"}, 4)  # ccdd: a middle seed
@example({"a": "ab", "b": "b"}, 12)  # iterates grow by one letter a step
@example({"a": "b", "b": "a"}, 3)  # iterates cycle below length m
def test_language_is_the_brute_force_closure(rules, m):
    # the aligned closure, which reads boundary text only, against the
    # closure under every window of every image
    assert language(Substitution.from_rules(rules), m) == oracles.language_closure(rules, m)


def test_language_refused_past_its_cap():
    # golden_tower has 3,931 words at m = 200: under that cap the listing is
    # whole, and a smaller cap stops the closure with more words than it
    sub = make("golden_tower")
    whole = language(sub, 200)
    assert language(sub, 200, cap=len(whole)) == whole
    partial = language(sub, 200, cap=1000)
    assert 1000 < len(partial) < len(whole) and partial < whole


def test_language_budget_holds_without_a_cap(monkeypatch):
    # every listing stops at LANGUAGE_BUDGET letters, 2,000 words at m = 200
    # here against golden_tower's 3,931; a smaller cap still stops early
    # without raising
    sub = make("golden_tower")
    monkeypatch.setattr(words, "LANGUAGE_BUDGET", 200 * 2000)
    with pytest.raises(BudgetExceeded, match="^language at m=200 exceeds 400000 letters$"):
        language(sub, 200)
    with pytest.raises(BudgetExceeded):
        language(sub, 200, cap=3000)
    partial = language(sub, 200, cap=1000)
    assert 1000 < len(partial) <= 2000
    assert language(sub, 20) == oracles.language_closure(CORPUS_RULES["golden_tower"], 20)


@pytest.mark.parametrize("m", range(1, 5))
def test_level_languages_match_per_level_oracle(corpus_sub, m):
    # L_m(i) is the set of words whose level is <= i
    rules = {c: corpus_sub.image(c) for c in corpus_sub.alphabet}
    chain = component_chain(corpus_sub)
    got = chain.word_levels(m)
    expected = oracles.level_languages(rules, chain.levels, m)
    assert [{w for w, e in got.items() if e <= i} for i in range(1, chain.n + 1)] == expected
    assert set(got) == language(corpus_sub, m)


@pytest.mark.parametrize("before", (True, False), ids=("before", "after"))
def test_level_languages_on_towers(before):
    # Level i of a tower is the same system in every tower of height >= i,
    # so one from-scratch oracle per level serves heights 2..64: the words of
    # a height-n tower are those the height-64 oracle puts on levels <= n.
    rs = [2 + i % 2 for i in range(64)]
    full = tower(rs, before)
    letters = tuple(full)
    levels = [letters[:i] for i in range(1, 65)]
    expected = {m: oracles.word_levels(full, levels, m) for m in range(1, 5)}
    for n in range(2, 65):
        sub = Substitution.from_rules(tower(rs[:n], before))
        chain = component_chain(sub)
        assert list(chain.levels) == levels[:n]
        for m in range(1, 5):
            want = {w: e for w, e in expected[m].items() if e <= n}
            assert chain.word_levels(m) == want


@settings(max_examples=60, deadline=None)
@given(chain_systems(), st.integers(1, 30))
def test_level_languages_on_chain_systems(rules, m):
    # The keys are the top language and each word maps to the least level
    # whose language holds it.
    sub = Substitution.from_rules(rules)
    chain = component_chain(sub)
    assert chain.word_levels(m) == oracles.word_levels(rules, chain.levels, m)


def test_level_languages_stop_at_the_letter_budget(monkeypatch):
    # the index holds at most LANGUAGE_BUDGET letters, as a ``language``
    # listing does: golden_tower has 33 words at m = 4, 132 letters
    sub = make("golden_tower")
    whole = component_chain(sub).word_levels(4)
    assert len(whole) == 33 and max(whole.values()) == 3
    monkeypatch.setattr(words, "LANGUAGE_BUDGET", 132)
    assert component_chain(sub).word_levels(4) == whole
    monkeypatch.setattr(words, "LANGUAGE_BUDGET", 131)
    with pytest.raises(BudgetExceeded, match="word index at m=4 exceeds 131 letters"):
        component_chain(sub).word_levels(4)
    with pytest.raises(BudgetExceeded, match="word index at m=4 exceeds 131 letters"):
        component_chain(sub).level_words(4)


def test_level_languages_reject_bad_length():
    chain = component_chain(make("chacon"))
    with pytest.raises(DomainError):
        chain.level_words(0)
    with pytest.raises(DomainError):
        chain.word_levels(0)


def test_occurrences_match_matrix_powers():
    rng = random.Random(2024)
    for _ in range(40):
        rules = oracles.random_substitution(rng)
        sub = Substitution.from_rules(rules)
        matrix = incidence_matrix(sub)
        for k in (1, 2, 4, 8):
            power = matrix.power(k)
            for ai, a in enumerate(matrix.letters):
                image = apply(sub, a, k)
                for bi, b in enumerate(matrix.letters):
                    assert count_occurrences(b, image).count == power[ai][bi]
                assert sum(power[ai]) == len(image)
