"""End-to-end robustness over randomly generated systems.

Every system that admits a chain must classify and measure without internal
assertion failures, and the measure tables must stay shift-consistent. Deep
towers are generated separately because uniform random rules rarely produce
more than three levels. A hypothesis strategy adds chain-admitting systems by
construction, checked against the brute-force chain oracles.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chainshift import (
    LambdaNotDominant,
    NoPrimitiveChainError,
    Substitution,
    block_eigenvalues,
    component_chain,
    cylinder_measure,
    decomposition_report,
    language,
    measure_type,
    pf_vectors,
)
from conftest import assert_matches_dense_oracle

LETTERS = "abcdefgh"


def _check_seeds(sub: Substitution, chain, rep) -> None:
    """Every emitted point seed must be witnessed by direct language lookups."""
    from chainshift import apply

    for i in range(2, chain.n + 1):
        sub_i = sub.restrict(chain.alphabet_at(i))
        sub_below = sub.restrict(chain.alphabet_at(i - 1))
        bottom = chain.alphabet_at(1)
        s = bottom[0] if len(bottom) == 1 and sub.image(bottom[0]) == bottom[0] else None
        for p in rep.levels[i - 1].point_seeds:
            if p.kind == "fixed_letter_power":
                assert s is not None and s * 6 in language(sub_i, 6)
                continue
            if p.form in ("pair", "s_right", "s_middle"):
                left = p.gamma if p.form == "pair" else p.delta
                assert apply(sub, left, p.q).endswith(left)
            if p.form in ("pair", "s_left", "s_middle"):
                right = p.delta if p.form == "pair" else p.gamma
                assert apply(sub, right, p.q).startswith(right)
            if p.form == "pair":
                w = p.gamma + p.delta
                assert w in language(sub_i, 2) and w not in language(sub_below, 2)
            elif p.form == "s_left":
                assert s * 5 + p.gamma in language(sub_i, 6)
            elif p.form == "s_right":
                assert p.delta + s * 5 in language(sub_i, 6)
            elif p.form == "s_middle":
                w = p.delta + s * p.middle_s + p.gamma
                assert w in language(sub_i, len(w))
                assert w not in language(sub_below, len(w))


def _exercise(sub: Substitution) -> None:
    chain = component_chain(sub)
    sp = block_eigenvalues(sub, chain)
    rep = decomposition_report(sub, chain, sp)
    assert 1 <= len(rep.minimal.census) <= 2
    _check_seeds(sub, chain, rep)
    for i in range(1, chain.n + 1):
        desc = measure_type(sub, chain, sp, i, rep.levels[i - 1])
        if desc.kind not in ("finite_ergodic", "infinite_radon"):
            continue
        sub_i = sub.restrict(chain.alphabet_at(i))
        lang_ext = language(sub_i, 2)
        for v in language(sub_i, 1):
            base = cylinder_measure(sub, chain, sp, i, v)
            exts = [
                cylinder_measure(sub, chain, sp, i, v + a)
                for a in sub_i.alphabet
                if v + a in lang_ext
            ]
            if base.infinite:
                assert any(e.infinite for e in exts)
            else:
                assert abs(sum(e.value for e in exts) - base.value) <= 1e-8
    try:
        pf_vectors(sub, chain, 2, sp)
    except LambdaNotDominant:
        pass


def test_random_systems_full_pipeline():
    rng = random.Random(424242)
    valid = 0
    attempts = 0
    while valid < 150 and attempts < 5000:
        attempts += 1
        sub = Substitution.from_rules(oracles.random_substitution(rng))
        try:
            component_chain(sub)
        except NoPrimitiveChainError:
            continue
        valid += 1
        _exercise(sub)
    assert valid == 150


def _tower(rng: random.Random) -> dict[str, str] | None:
    rules: dict[str, str] = {}
    current: list[str] = []
    for _ in range(rng.randint(2, 4)):
        room = len(LETTERS) - len(current)
        if room <= 0:
            break
        fresh = [LETTERS[len(current) + j] for j in range(min(rng.randint(1, 2), room))]
        allowed = current + fresh
        for c in fresh:
            length = rng.randint(1, 4)
            img = [rng.choice(allowed) for _ in range(length)]
            img[rng.randrange(length)] = rng.choice(fresh)
            if rng.random() < 0.6 and current:
                img[rng.randrange(length)] = rng.choice(current)
            rules[c] = "".join(img)
        current = allowed
    return {c: rules[c] for c in sorted(rules)} if len(rules) >= 2 else None


def test_tower_systems_full_pipeline():
    rng = random.Random(7777)
    valid = 0
    deep = 0
    attempts = 0
    while valid < 100 and attempts < 4000:
        attempts += 1
        rules = _tower(rng)
        if rules is None:
            continue
        sub = Substitution.from_rules(rules)
        try:
            chain = component_chain(sub)
        except NoPrimitiveChainError:
            continue
        valid += 1
        deep += chain.n >= 4
        _exercise(sub)
    assert valid == 100 and deep >= 5


def test_seeded_systems_match_dense_oracle():
    """Every system the two seeded generators above draw, accepted or not."""
    rng = random.Random(424242)
    verdicts: list[str] = []
    while verdicts.count("accepted") < 150 and len(verdicts) < 5000:
        verdicts.append(assert_matches_dense_oracle(oracles.random_substitution(rng)))
    assert verdicts.count("accepted") == 150
    assert set(verdicts) == {"accepted", "imprimitive_block", "incomparable_components"}
    rng = random.Random(7777)
    valid = attempts = 0
    while valid < 100 and attempts < 4000:
        attempts += 1
        rules = _tower(rng)
        if rules is not None:
            valid += assert_matches_dense_oracle(rules) == "accepted"
    assert valid == 100


@st.composite
def chain_systems(draw) -> dict[str, str]:
    """Rules over at most six letters that admit a chain by construction.

    Either a tower (level i adds x_i -> x_{i-1} x_i^r or x_i^r x_{i-1}), or
    primitive blocks stacked bottom up: each block is a cycle made aperiodic
    by a loop or by a chord that closes a cycle one shorter, every image may
    take extra letters from its block and the blocks below, and some letter of
    each block reaches the block just below. Declaration order is shuffled.
    """
    names = draw(st.permutations("abcdef"))
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        x = names[:n]
        rules = {x[0]: x[0] * draw(st.integers(1, 3))}
        for i in range(1, n):
            run = x[i] * draw(st.integers(1, 3))
            rules[x[i]] = x[i - 1] + run if draw(st.booleans()) else run + x[i - 1]
    else:
        blocks = st.lists(st.integers(1, 3), min_size=1, max_size=4)
        sizes = draw(blocks.filter(lambda s: 2 <= sum(s) <= 6))
        rules = {}
        below: list[str] = []
        last: list[str] = []
        start = 0
        for size in sizes:
            block = names[start : start + size]
            start += size
            need = {c: [block[(i + 1) % size]] for i, c in enumerate(block)}
            if size == 1 or draw(st.booleans()):
                need[block[0]].append(block[0])
            else:
                need[block[-1]].append(block[1])
            if last:
                need[draw(st.sampled_from(block))].append(draw(st.sampled_from(last)))
            pool = sorted(below + block)
            for c in block:
                extra = draw(st.lists(st.sampled_from(pool), max_size=2))
                rules[c] = "".join(draw(st.permutations(need[c] + extra)))
            below += block
            last = block
    return {c: rules[c] for c in draw(st.permutations(sorted(rules)))}


@settings(max_examples=100, deadline=None)
@given(chain_systems())
def test_chain_systems_match_oracles(rules):
    n = len(rules)
    chain = component_chain(Substitution.from_rules(rules))
    assert oracles.valid_chains(rules, (n - 1) ** 2 + 1 + n) == [list(chain.levels)]
    assert chain.witness_k == oracles.witness_k_dense(rules)
