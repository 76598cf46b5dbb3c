import pytest

import oracles
from chainshift import NoPrimitiveChainError, Substitution, component_chain

# Named corpus systems used across the suite. Most come from worked examples
# with published data; a few are constructed edge cases.
CORPUS_RULES: dict[str, dict[str, str]] = {
    # two levels, bottom letter fixed, level closure minimal
    "chacon": {"a": "a", "b": "bbab"},
    # three levels, strictly decreasing block eigenvalues 4 > 3 > 2
    "quartic": {"a": "aaaa", "b": "abbb", "c": "cbc"},
    # four letters, middle block dominates: eigenvalues 2, 6, 2
    "mid_dominant": {"a": "aa", "b": "abbbccc", "c": "abccccc", "d": "abcdd"},
    # golden-ratio bottom with two equal blocks above: phi, 2, 2
    "golden_tower": {"a": "ab", "b": "a", "c": "acd", "d": "adc", "e": "dece"},
    # Fibonacci bottom plus a tail letter that never recurs two-sidedly
    "fib_tail": {"a": "ab", "b": "a", "c": "abc"},
    # primitive 3-letter bottom plus one letter, two isolated limit orbits
    "two_limit_orbits": {"a": "abca", "b": "bacb", "c": "cbac", "d": "abbcad"},
    # like the above but with a quasi-fixed orbit as well
    "quasi_and_limits": {"a": "abca", "b": "bacb", "c": "cbac", "d": "abadcac"},
    # period-two bottom and two isolated quasi-fixed levels
    "tower_of_quasi": {"a": "ab", "b": "ab", "c": "acb", "d": "cdc"},
    # fixed bottom letter, almost minimal second level, two upper levels
    "almost_min_tower": {"a": "a", "b": "cba", "c": "cbc", "d": "dc", "e": "bde"},
    # Fibonacci bottom with an expanding tail letter: not uniquely ergodic
    "fib_expanding_tail": {"a": "ab", "b": "a", "c": "acc"},
    # minimal second level plus a level where the constant point re-enters
    "constant_reenters": {"a": "a", "b": "bbab", "c": "bcca"},
    # reverse-orientation seed: the new letter extends only to the left
    "left_tail": {"a": "a", "b": "ba"},
    # plain primitive system (single component)
    "fibonacci": {"a": "ab", "b": "a"},
}


def make(name: str) -> Substitution:
    return Substitution.from_rules(CORPUS_RULES[name])


def tower(rs, before=True) -> dict[str, str]:
    """Tower of len(rs) levels over CJK letters: x_1 -> x_1^r_1, and level i adds
    x_i -> x_{i-1} x_i^r_i (``before``) or x_i^r_i x_{i-1}. ``before`` may be
    one flag for every level or one per level."""
    x = [chr(0x4E00 + i) for i in range(len(rs))]
    flags = before if isinstance(before, (list, tuple)) else [before] * len(rs)
    rules = {x[0]: x[0] * rs[0]}
    for i in range(1, len(rs)):
        run = x[i] * rs[i]
        rules[x[i]] = x[i - 1] + run if flags[i] else run + x[i - 1]
    return rules


def assert_matches_dense_oracle(rules: dict[str, str]) -> str:
    """Check witness_k, or the rejection payload, against the dense boolean search.

    Returns the verdict: ``"accepted"`` or the diagnostic's kind. Which
    incomparable pair is reported follows the SCC order, so that payload only
    has to be one of the incomparable pairs the oracle finds.
    """
    expected = oracles.witness_k_dense(rules)
    try:
        chain = component_chain(Substitution.from_rules(rules))
    except NoPrimitiveChainError as err:
        diag = err.diagnostic
        if diag["kind"] == "incomparable_components":
            assert expected["kind"] == diag["kind"]
            assert sorted(diag["components"]) in expected["pairs"]
        else:
            assert diag == expected
        return diag["kind"]
    assert chain.witness_k == expected
    return "accepted"


@pytest.fixture(params=sorted(CORPUS_RULES))
def corpus_sub(request) -> Substitution:
    return make(request.param)
