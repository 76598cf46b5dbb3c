"""Byte-level rewriting primitives behind the uniformity windows.

``measures.uniformity_check`` streams the quasi-fixed point with
``apply_bytes``; ``simulate`` counts exactly without expanding its prefix.
``expand_prefix`` and ``count_subword`` serve the benchmark probes.

Words over at most 256 letters travel as bytes whose values are letter
indices. Rewriting decodes them as latin-1, where code point = byte value =
letter index, so one substitution step is a single ``str.translate``.
"""

from __future__ import annotations

# There is no compiled implementation; the benchmark still reports this flag.
HAVE_SPEEDUPS = False


def encode_word(letters: tuple[str, ...], word: str) -> bytes:
    """Encode a word over at most 256 letters as letter-index bytes."""
    index = {c: i for i, c in enumerate(letters)}
    return bytes(index[c] for c in word)


def encode_images(letters: tuple[str, ...], images: tuple[str, ...]) -> list[bytes]:
    """Byte-encoded image table aligned with letter indices."""
    return [encode_word(letters, img) for img in images]


def _table(images: list[bytes]) -> list[str]:
    return [img.decode("latin-1") for img in images]


def count_subword(needle: bytes, hay: bytes) -> int:
    """Occurrences of ``needle`` in ``hay``, overlaps included."""
    if not needle or len(needle) > len(hay):
        return 0
    count = 0
    i = hay.find(needle)
    while i != -1:
        count += 1
        i = hay.find(needle, i + 1)
    return count


def expand_prefix(images: list[bytes], seed: int, k: int, limit: int) -> bytes:
    """First ``limit`` bytes of the k-th power image of letter id ``seed``.

    Letters are byte ids indexing into ``images``. Images are nonempty, so the
    first ``limit`` letters of an image depend only on the first ``limit``
    letters of its preimage. Each step rewrites the word in slices of
    ``limit // max|image| + 1`` letters, whose images are at most
    ``limit + max|image|`` letters long, and stops once ``limit`` letters are
    out. The working set is therefore a few times ``limit`` letters plus
    ``max|image|``, whatever the image lengths.
    """
    table = _table(images)
    step = limit // max(map(len, images)) + 1
    word = chr(seed)
    for _ in range(k):
        pieces, size = [], 0
        for i in range(0, len(word), step):
            piece = word[i : i + step].translate(table)
            size += len(piece)
            if size >= limit:
                pieces.append(piece[: len(piece) - (size - limit)])
                break
            pieces.append(piece)
        word = "".join(pieces)
    return word[:limit].encode("latin-1")


def apply_bytes(images: list[bytes], word: bytes) -> bytes:
    """One substitution step on a byte-encoded word."""
    return word.decode("latin-1").translate(_table(images)).encode("latin-1")
