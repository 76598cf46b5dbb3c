"""Exact occurrence counts against brute-force expansions.

``empirical_frequency`` counts a word in a prefix of ``sigma^k(anchor)``
by joining letter blocks ``sigma^j(x)``, each held as its length, its
occurrences and its two ends, and never expands the prefix; its scaled count
is checked against the window-matrix power entry it stands for.
``uniformity_check`` counts the word in return windows of the quasi-fixed
point by the same block descent, after locating the windows' new-letter
visits by a descent through letter-level power tables. Both are compared here with
plain ``str`` expansions counted by ``oracles.occurrences``; where new
letters are too sparse to expand, with ``oracles.quasi_fixed_skeleton``,
an expansion that keeps only the letters near new letters.
"""

import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chainshift import (
    BudgetExceeded,
    WordNotInLevelLanguage,
    block_eigenvalues,
    component_chain,
    decomposition_report,
    empirical_frequency,
    language,
    measure_type,
    measures,
    uniformity_check,
)
from conftest import CORPUS_RULES, make


def _setup(name: str):
    sub = make(name)
    chain = component_chain(sub)
    return sub, chain, block_eigenvalues(sub, chain)


def _measurable_levels() -> list[tuple[str, int]]:
    out = []
    for name in sorted(CORPUS_RULES):
        setup = _setup(name)
        for i in range(1, setup[1].n + 1):
            if measure_type(*setup, i).kind in ("finite_ergodic", "infinite_radon"):
                out.append((name, i))
    return out


MEASURABLE = _measurable_levels()


@lru_cache(maxsize=None)
def _level(name: str, i: int):
    """(setup, level substitution, its rules, anchor, power images of the
    anchor up to the first of at least 10^5 letters)."""
    setup = _setup(name)
    sub_i, _ = setup[1].restrict(i)
    rules = dict(zip(sub_i.alphabet.letters, sub_i.images))
    anchor = measure_type(*setup, i).anchor
    images = [anchor]
    while len(images[-1]) < 10**5:
        images.append(oracles.power(rules, images[-1], 1))
    return setup, sub_i, rules, anchor, images


def _expected(images: list[str], v: str, L: int) -> tuple[int, int]:
    """(power, count): the first power image of length >= L, and the
    occurrences of v in its length-L prefix."""
    k = next(j for j, img in enumerate(images) if len(img) >= L)
    return k, len(oracles.occurrences(v, images[k][:L]))


def _check(name: str, i: int, v: str, L: int) -> None:
    setup, _, _, _, images = _level(name, i)
    k, count = _expected(images, v, L)
    freq = empirical_frequency(*setup, i, v, L)
    assert (freq.power, freq.ratio) == (k, count / L), (name, i, v, L)
    assert round(freq.ratio * L) == count


@pytest.mark.parametrize("name,i", MEASURABLE, ids=[f"{n}-{i}" for n, i in MEASURABLE])
def test_prefix_counts_match_expansion(name, i, monkeypatch):
    setup, sub_i, rules, anchor, images = _level(name, i)
    # Power boundaries around the first image of at least 1000 letters.
    k = next(j for j, img in enumerate(images) if len(img) >= 1000)
    below, full = len(images[k - 1]), len(images[k])
    for m in (1, 2, 3):
        # every word of L_m(i) is counted, and below the top a word that
        # enters at level i + 1 is refused
        langs = oracles.level_languages(CORPUS_RULES[name], setup[1].levels, m)
        words = sorted(langs[i - 1])
        for v in words:
            for L in (m, m + 1, below, below + 1, full, 10**5):
                _check(name, i, v, L)
        above = sorted(langs[i] - langs[i - 1]) if i < setup[1].n else []
        for v in above[:1]:
            with pytest.raises(WordNotInLevelLanguage, match=f"not in the level-{i} language"):
                empirical_frequency(*setup, i, v, 10**5)
        # A full block counts every window of sigma^k(u) for the window u
        # that starts with the anchor: the window-matrix power entry, which
        # exceeds the prefix count by the windows straddling its end.
        u = min((w for w in words if w[0] == anchor), key=sub_i.alphabet.word_key)
        window_matrix = [
            [
                sum(1 for j in range(len(rules[x[0]])) if oracles.power(rules, x, 1)[j : j + m] == y)
                for y in words
            ]
            for x in words
        ]
        power = oracles.mat_pow(window_matrix, k)
        tail = oracles.power(rules, u, k)[full - m + 1 : full + m - 1]
        infinite = measure_type(*setup, i).kind == "infinite_radon"
        for col, v in enumerate(words):
            count = _expected(images, v, full)[1]
            entry = power[words.index(u)][col]
            assert entry == count + len(oracles.occurrences(v, tail)), (name, i, v)
            if infinite:
                # a budget of |sigma^k(anchor)| makes k the scaled power
                with monkeypatch.context() as patch:
                    patch.setattr(measures, "POWER_BUDGET", full)
                    freq = empirical_frequency(*setup, i, v, full)
                assert (freq.scaled_power, freq.scaled_count) == (k, entry), (name, i, v)


@st.composite
def _prefix_queries(draw):
    name, i = draw(st.sampled_from(MEASURABLE))
    # up to m = 40 a seam spans several short blocks: fibonacci's b -> a and
    # the fixed letters of chacon and almost_min_tower
    m = draw(st.integers(1, 40))
    v = draw(st.sampled_from(_words(name, i, m)))
    return name, i, v, draw(st.integers(m, 30_000))


@lru_cache(maxsize=None)
def _words(name: str, i: int, m: int) -> list[str]:
    return sorted(language(_level(name, i)[1], m))


@settings(max_examples=200, deadline=None)
@given(_prefix_queries())
def test_prefix_counts_match_expansion_at_any_length(query):
    _check(*query)


def test_prefix_counter_invariant_survives_optimize():
    # A prefix longer than the top block leaves letters no block covers; the
    # block table must report that by an explicit typed raise, not an assert
    # that ``python -O`` strips.
    script = (
        "from chainshift import *\n"
        "from chainshift.measures import _Blocks\n"
        "blocks = _Blocks(component_chain(Substitution.from_rules({'a': 'ab', 'b': 'a'})), 1, 'ab')\n"
        "k = blocks.reach('a', 50)\n"
        "try:\n"
        "    blocks.prefix('a', k, blocks.at(k)['a'][0] + 1)\n"
        "except InternalInvariantError as exc:\n"
        "    print('raised', exc)\n"
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
        assert proc.stdout.startswith("raised prefix blocks cover"), proc.stdout


def _quasi_fixed_levels() -> list[tuple[str, int]]:
    out = []
    for name in sorted(CORPUS_RULES):
        setup = _setup(name)
        report = decomposition_report(*setup)
        for i in range(2, setup[1].n + 1):
            if setup[2].theta_is_one(i):
                continue
            if report.levels[i - 1].quasi_fixed is not None:
                out.append((name, i))
    return out


QUASI_FIXED = _quasi_fixed_levels()


@pytest.mark.parametrize("name,i", QUASI_FIXED, ids=[f"{n}-{i}" for n, i in QUASI_FIXED])
def test_uniformity_window_counts_match_expansion(name, i):
    setup, seed, rules, new = _forward_seed(name, i)
    sub_i, _ = setup[1].restrict(i)
    # The right half of the quasi-fixed point, R = b v sigma^k(v) ...
    half, chunk = seed.b + seed.v, seed.v
    while sum(c in new for c in half) < 130:
        chunk = oracles.power(rules, chunk, seed.k)
        half += chunk
    visits = [p for p, c in enumerate(half) if c in new]
    overlapping = 0
    for m in (1, 2, 3):
        for v in sorted(language(sub_i, m)):
            if not any(c in new for c in v):
                continue
            for n, offsets in ((1, (0, 5)), (7, (0, 3)), (100, (0, 20))):
                result = uniformity_check(*setup, i, v, n, offsets)
                for j in offsets:
                    window = half[visits[j] : visits[j + n] + 1]
                    count = len(oracles.occurrences(v, window))
                    assert result.ratios[j] == count / n, (v, n, j)
                    overlapping += count != window.count(v)
    if (name, i) == ("quartic", 2):
        assert overlapping, "some query must overlap itself, like bb in bbb"


def _forward_seed(name: str, i: int):
    """(setup, seed, level rules, new letters) of a quasi-fixed level; the
    seed is forward on every level with theta > 1."""
    setup = _setup(name)
    seed = decomposition_report(*setup).levels[i - 1].quasi_fixed.seed
    assert seed.orientation == "forward", (name, i)
    sub_i, _ = setup[1].restrict(i)
    return setup, seed, dict(zip(sub_i.alphabet.letters, sub_i.images)), set(setup[1].new_letters(i))


def _deep_offsets(rules, seed, new) -> tuple[int, ...]:
    """Visit indices at and just before the starts of the third and fifth
    pieces sigma^(tk)(v) of the right half."""
    starts = [sum(c in new for c in seed.b + seed.v)]
    for t in range(1, 5):
        starts.append(starts[-1] + sum(c in new for c in oracles.power(rules, seed.v, t * seed.k)))
    return (0, starts[2] - 1, starts[2], starts[4] - 1, starts[4])


def _window_counts(half: str, new, v: str, n: int, offsets) -> dict[int, int]:
    visits = [p for p, c in enumerate(half) if c in new]
    return {j: len(oracles.occurrences(v, half[visits[j] : visits[j + n] + 1])) for j in offsets}


# Levels whose new letters are too sparse to expand 5000 visits letter by
# letter: the right half runs to 10^6..10^9 letters.
SPARSE = {("constant_reenters", 3), ("quartic", 3), ("mid_dominant", 3)}
DENSE = [level for level in QUASI_FIXED if level not in SPARSE]


@pytest.mark.parametrize("name,i", DENSE, ids=[f"{n}-{i}" for n, i in DENSE])
def test_deep_return_windows_match_expansion(name, i):
    setup, seed, rules, new = _forward_seed(name, i)
    offsets = _deep_offsets(rules, seed, new)
    half = oracles.quasi_fixed_half(rules, seed.b, seed.v, seed.k, new, max(offsets) + 5001)
    sub_i, _ = setup[1].restrict(i)
    for m in (1, 2, 3):
        words = [v for v in sorted(language(sub_i, m)) if any(c in new for c in v)]
        skeleton = oracles.quasi_fixed_skeleton(
            rules, seed.b, seed.v, seed.k, new, max(offsets) + 5001, m
        )
        for v in words[:: max(1, len(words) // 4)]:
            counts = _window_counts(half, new, v, 5000, offsets)
            # the skeleton oracle keeps every occurrence of a word with a new letter
            assert _window_counts(skeleton, new, v, 5000, offsets) == counts, v
            result = uniformity_check(*setup, i, v, 5000, offsets)
            assert result.ratios == {j: counts[j] / 5000 for j in offsets}, v


@pytest.mark.parametrize("name,i", QUASI_FIXED, ids=[f"{n}-{i}" for n, i in QUASI_FIXED])
def test_return_windows_match_skeleton_expansion(name, i):
    # On mid_dominant level 3 the 5001st visit lies about 10^9 letters into
    # the right half, beyond any letter stream; the counts are still exact.
    setup, seed, rules, new = _forward_seed(name, i)
    offsets = _deep_offsets(rules, seed, new)
    sub_i, _ = setup[1].restrict(i)
    for m in (1, 2, 3):
        skeleton = oracles.quasi_fixed_skeleton(
            rules, seed.b, seed.v, seed.k, new, max(offsets) + 5001, m
        )
        for v in sorted(language(sub_i, m)):
            if not any(c in new for c in v):
                continue
            counts = _window_counts(skeleton, new, v, 5000, offsets)
            result = uniformity_check(*setup, i, v, 5000, offsets)
            assert result.ratios == {j: counts[j] / 5000 for j in offsets}, v


@pytest.mark.parametrize("name,i", QUASI_FIXED, ids=[f"{n}-{i}" for n, i in QUASI_FIXED])
def test_short_windows_of_long_words_match_skeleton_expansion(name, i):
    # Adjacent visits leave a window shorter than the word: it counts nothing.
    setup, seed, rules, new = _forward_seed(name, i)
    sub_i, _ = setup[1].restrict(i)
    offsets = tuple(range(40))
    for m in (4, 5):
        skeleton = oracles.quasi_fixed_skeleton(rules, seed.b, seed.v, seed.k, new, 43, m)
        for v in sorted(language(sub_i, m)):
            if any(c in new for c in v):
                for n in (1, 2):
                    counts = _window_counts(skeleton, new, v, n, offsets)
                    result = uniformity_check(*setup, i, v, n, offsets)
                    assert result.ratios == {j: counts[j] / n for j in offsets}, (v, n)


def test_window_count_past_the_power_budget_raises_fast():
    for name, i, v in (("quartic", 2, "bb"), ("mid_dominant", 3, "d")):
        setup = _setup(name)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="power budget"):
            uniformity_check(*setup, i, v, 10**13)
        assert time.perf_counter() - start < 0.5


def test_reverse_seed_invariant_survives_optimize():
    # theta > 1 forces a forward seed; a reverse one reaching the counter must
    # raise the typed invariant error explicitly, also under ``python -O``.
    script = (
        "from chainshift import *\n"
        "import chainshift.classify as classify\n"
        "import chainshift.measures as measures\n"
        "sub = Substitution.from_rules({'a': 'aaaa', 'b': 'abbb', 'c': 'cbc'})\n"
        "chain = component_chain(sub)\n"
        "spectral = block_eigenvalues(sub, chain)\n"
        "def reversed_seed(*args):\n"
        "    s = classify._level_seed(*args)\n"
        "    return SeedPair(s.level, s.a, s.b, s.k, s.u, s.v, 'reverse')\n"
        "measures._level_seed = reversed_seed\n"
        "try:\n"
        "    uniformity_check(sub, chain, spectral, 2, 'b', 10)\n"
        "except InternalInvariantError as exc:\n"
        "    print('raised', exc)\n"
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
        assert proc.stdout.startswith("raised level 2: theta > 1 but the seed is not forward"), (
            proc.stdout
        )
