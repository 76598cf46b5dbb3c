import random
import tracemalloc

import pytest

from chainshift.kernels import (
    apply_bytes,
    count_subword,
    encode_images,
    encode_word,
    expand_prefix,
)
from chainshift import Substitution, apply
from conftest import CORPUS_RULES, make


def test_count_subword_overlaps():
    assert count_subword(b"aa", b"aaaa") == 3
    assert count_subword(b"ab", b"") == 0
    assert count_subword(b"abc", b"ab") == 0
    rng = random.Random(42)
    for _ in range(300):
        hay = bytes(rng.randrange(4) for _ in range(rng.randrange(0, 64)))
        needle = bytes(rng.randrange(4) for _ in range(rng.randrange(1, 5)))
        brute = sum(
            1
            for i in range(len(hay) - len(needle) + 1)
            if hay[i : i + len(needle)] == needle
        )
        assert count_subword(needle, hay) == brute


def _wide_alphabet() -> Substitution:
    """200 letters outside latin-1, so letter indices run past 127."""
    letters = [chr(0x4E00 + i) for i in range(200)]
    rules = {
        c: letters[(3 * i + 1) % 200] + letters[(i * i + 7) % 200] + (c if i % 3 == 0 else "")
        for i, c in enumerate(letters)
    }
    return Substitution.from_rules(rules)


@pytest.mark.parametrize(
    "sub",
    [make(name) for name in sorted(CORPUS_RULES)] + [_wide_alphabet()],
    ids=sorted(CORPUS_RULES) + ["wide"],
)
def test_expand_prefix_matches_apply(sub):
    letters = sub.alphabet.letters
    images = encode_images(letters, sub.images)
    for c in letters:
        for k in range(7):
            full = encode_word(letters, apply(sub, c, k, allow_identity=True))
            for limit in (1, len(sub.image(c)) - 1, 5, 10**6):
                got = expand_prefix(images, letters.index(c), k, limit)
                assert got == full[:limit], (c, k, limit)


def test_expand_prefix_memory_ignores_image_length():
    # |sigma^k(a)| = 1, 1000, 10^6, ...: the last step rewrites a 1000-letter
    # word whose full image has 10^6 letters, but only 10^4 are asked for.
    sub = Substitution.from_rules({"a": "ab" * 500, "b": "ba" * 500})
    letters = sub.alphabet.letters
    images = encode_images(letters, sub.images)
    limit = 10**4
    tracemalloc.start()
    try:
        got = expand_prefix(images, 0, 2, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == encode_word(letters, apply(sub, "a", 2))[:limit]
    assert peak < 5 * limit


@pytest.mark.parametrize("sub", [make("quartic"), _wide_alphabet()], ids=["quartic", "wide"])
def test_apply_bytes_matches_step(sub):
    letters = sub.alphabet.letters
    images = encode_images(letters, sub.images)
    rng = random.Random(9)
    for _ in range(50):
        word = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 40)))
        encoded = encode_word(letters, word)
        assert apply_bytes(images, encoded) == encode_word(letters, sub.step(word))


def test_selected_interface_works():
    sub = make("chacon")
    letters = sub.alphabet.letters
    images = encode_images(letters, sub.images)
    prefix = expand_prefix(images, letters.index("b"), 8, 1000)
    assert len(prefix) == 1000
    assert count_subword(encode_word(letters, "ab"), prefix) > 0
    assert apply_bytes(images, encode_word(letters, "ab")) == encode_word(letters, "abbab")
