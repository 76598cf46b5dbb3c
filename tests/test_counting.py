"""Exact occurrence counts against brute-force expansions.

``empirical_frequency`` counts a word in a prefix of ``sigma^k(anchor)``
through window-substitution powers and never expands the prefix;
``uniformity_check`` counts it in return windows of the streamed
quasi-fixed point with array comparisons. Both are compared here with plain
``str`` expansions counted by ``oracles.occurrences``.
"""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chainshift import (
    block_eigenvalues,
    classify_level,
    component_chain,
    empirical_frequency,
    language,
    measure_type,
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
def test_prefix_counts_match_expansion(name, i):
    setup, sub_i, rules, anchor, images = _level(name, i)
    # Power boundaries around the first image of at least 1000 letters.
    k = next(j for j, img in enumerate(images) if len(img) >= 1000)
    below, full = len(images[k - 1]), len(images[k])
    for m in (1, 2, 3):
        words = sorted(language(sub_i, m))
        for v in words:
            for L in (m, m + 1, below, below + 1, full, 10**5):
                _check(name, i, v, L)
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
        for col, v in enumerate(words):
            count = _expected(images, v, full)[1]
            entry = power[words.index(u)][col]
            assert entry == count + len(oracles.occurrences(v, tail)), (name, i, v)


@st.composite
def _prefix_queries(draw):
    name, i = draw(st.sampled_from(MEASURABLE))
    m = draw(st.integers(1, 4))
    _, sub_i, _, _, _ = _level(name, i)
    v = draw(st.sampled_from(sorted(language(sub_i, m))))
    return name, i, v, draw(st.integers(m, 30_000))


@settings(max_examples=200, deadline=None)
@given(_prefix_queries())
def test_prefix_counts_match_expansion_at_any_length(query):
    _check(*query)


def test_prefix_counter_invariant_survives_optimize():
    # A prefix longer than the top block leaves windows no block covers; the
    # counter must report that by an explicit raise, not an assert that
    # ``python -O`` strips.
    script = (
        "from chainshift import *\n"
        "from chainshift.measures import _block_counts, _length_tables, _prefix_count\n"
        "sub = Substitution.from_rules({'a': 'ab', 'b': 'a'})\n"
        "aux = build_auxiliary(sub, component_chain(sub), 2)\n"
        "lengths = _length_tables(sub, 'a', 50, at_most=False)\n"
        "cols = _block_counts(aux, 'ab', len(lengths) - 1)\n"
        "try:\n"
        "    _prefix_count(aux, 'ab', cols, lengths, lengths[-1]['a'] + 1)\n"
        "except RuntimeError as exc:\n"
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
        for i in range(2, setup[1].n + 1):
            if setup[2].theta_is_one(i):
                continue
            if classify_level(*setup, i).quasi_fixed is not None:
                out.append((name, i))
    return out


QUASI_FIXED = _quasi_fixed_levels()


@pytest.mark.parametrize("name,i", QUASI_FIXED, ids=[f"{n}-{i}" for n, i in QUASI_FIXED])
def test_uniformity_window_counts_match_expansion(name, i):
    setup = _setup(name)
    chain = setup[1]
    seed = classify_level(*setup, i).quasi_fixed.seed
    sub_i, _ = chain.restrict(i)
    mirrored = seed.orientation == "reverse"
    rules = {c: img[::-1] if mirrored else img for c, img in zip(sub_i.alphabet, sub_i.images)}
    new = set(chain.new_letters(i))
    # The right half of the quasi-fixed point, as the library streams it.
    head = seed.b + (seed.v[::-1] if mirrored else seed.v)
    half, chunk = head, head[1:]
    while sum(c in new for c in half) < 130:
        chunk = oracles.power(rules, chunk, seed.k)
        half += chunk
    visits = [p for p, c in enumerate(half) if c in new]
    overlapping = 0
    for m in (1, 2, 3):
        for v in sorted(language(sub_i, m)):
            if not any(c in new for c in v):
                continue
            query = v[::-1] if mirrored else v
            for n, offsets in ((1, (0, 5)), (7, (0, 3)), (100, (0, 20))):
                result = uniformity_check(*setup, i, v, n, offsets)
                for j in offsets:
                    window = half[visits[j] : visits[j + n] + 1]
                    count = len(oracles.occurrences(query, window))
                    assert result.ratios[j] == count / n, (v, n, j)
                    overlapping += count != window.count(query)
    if (name, i) == ("quartic", 2):
        assert overlapping, "some query must overlap itself, like bb in bbb"
