"""Auxiliary substitution on the alphabet of length-m language words.

Each m-word u maps to the sequence of the first ``|image(u[0])|`` sliding
windows of the rewritten word, stored as a sequence (never concatenated) so
window boundaries stay unambiguous. Coordinates are grouped into blocks

    Q(1), G(1), Q(2), G(2), ..., G(n-1), Q(n)

where Q(i) holds the level-i words whose first letter is new at level i and
G(i) holds words of level i+1 that start with an old letter. In this order
the incidence matrix is block lower triangular. The blocks are split in one
pass over the chain's word -> level index (``chain.word_levels(m)``, read
off its one sweep): a word entering at level e whose first letter enters at
level f lies in Q(e) when f = e and in G(e-1) when f < e.
"""

from __future__ import annotations

from itertools import zip_longest
from operator import attrgetter

from .errors import DomainError, InternalInvariantError
from .structure import ComponentChain, IncidenceMatrix
from .words import FrozenRecord, Substitution


class AuxiliarySubstitution(FrozenRecord):
    """Words in block order, Q(1..n) and G(1..n-1), and each word's image sequence.
    ``components`` is the chain's own (a chain would hold itself); ``word_level``
    (``chain.word_levels(m)``) and ``images`` take no part in equality."""

    __slots__ = ("sub", "components", "m", "words", "q_blocks", "g_blocks", "word_level", "images")
    _key = attrgetter("sub", "components", "m", "words", "q_blocks", "g_blocks")

    def __init__(self, sub: Substitution, components: tuple[tuple[str, ...], ...], m: int,
                 words: tuple[str, ...], q_blocks: tuple[tuple[str, ...], ...],
                 g_blocks: tuple[tuple[str, ...], ...], word_level: dict[str, int],
                 images: dict[str, tuple[str, ...]]):
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "q_blocks", q_blocks)
        object.__setattr__(self, "g_blocks", g_blocks)
        object.__setattr__(self, "word_level", word_level)
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.components)

    def blocks_in_order(self) -> list[tuple[str, int, tuple[str, ...]]]:
        """Coordinate blocks as (kind, level, words) in matrix order."""
        out: list[tuple[str, int, tuple[str, ...]]] = []
        for i in range(1, self.n + 1):
            out.append(("Q", i, self.q_blocks[i - 1]))
            if i < self.n:
                out.append(("G", i, self.g_blocks[i - 1]))
        return out


def build_auxiliary(sub: Substitution, chain: ComponentChain, m: int) -> AuxiliarySubstitution:
    """The window substitution at length m, built once per chain and stored on it."""
    if m < 1:
        raise DomainError("window length must be >= 1")
    if sub != chain.sub:
        raise DomainError("the substitution is not the one the chain was built from")
    return chain.memo(("aux", m), _build, chain, m)


def _build(chain: ComponentChain, m: int) -> AuxiliarySubstitution:
    sub, n = chain.sub, chain.n
    word_level = chain.word_levels(m)
    # The letter index is read as a dict, not through ``level_of``: a word no
    # block can hold (a broken index) is left out and fails the partition
    # check below as an InternalInvariantError.
    first_level = chain._level_of
    q_blocks: list[list[str]] = [[] for _ in range(n)]
    g_blocks: list[list[str]] = [[] for _ in range(n)]  # G(n): only a broken index
    for w, e in word_level.items():
        f = first_level.get(w[0], e + 1)
        if f == e:
            q_blocks[e - 1].append(w)
        elif f < e:
            g_blocks[e - 2].append(w)
    key = sub.alphabet.word_key
    q = tuple(tuple(sorted(block, key=key)) for block in q_blocks)
    g = tuple(tuple(sorted(block, key=key)) for block in g_blocks[:-1])
    words = [w for pair in zip_longest(q, g, fillvalue=()) for block in pair for w in block]
    if len(words) != len(word_level):
        raise InternalInvariantError(f"window blocks at m={m} do not partition the language")

    images: dict[str, tuple[str, ...]] = {}
    for u in words:
        expanded = sub.step(u)
        width = len(sub.image(u[0]))
        seq = tuple(expanded[j : j + m] for j in range(width))
        if not all(len(w) == m and w in word_level for w in seq):
            raise InternalInvariantError(f"an image window of {u!r} is not a language word at m={m}")
        images[u] = seq
    return AuxiliarySubstitution(
        sub=sub,
        components=chain.components,
        m=m,
        words=tuple(words),
        q_blocks=q,
        g_blocks=g,
        word_level=word_level,
        images=images,
    )


def auxiliary_matrix(aux: AuxiliarySubstitution) -> IncidenceMatrix:
    """Occurrence counts of each m-word in each image sequence."""
    pos = {w: i for i, w in enumerate(aux.words)}
    size = len(aux.words)
    rows = []
    for u in aux.words:
        row = [0] * size
        for w in aux.images[u]:
            row[pos[w]] += 1
        rows.append(tuple(row))
    return IncidenceMatrix(aux.words, tuple(rows))

