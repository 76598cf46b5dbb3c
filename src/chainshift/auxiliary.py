"""Auxiliary substitution on the alphabet of length-m language words.

Each m-word u maps to the sequence of the first ``|image(u[0])|`` sliding
windows of the rewritten word, stored as a sequence (never concatenated) so
window boundaries stay unambiguous. Coordinates are grouped into blocks

    Q(1), G(1), Q(2), G(2), ..., G(n-1), Q(n)

where Q(i) holds the level-i words whose first letter is new at level i and
G(i) holds words of level i+1 that start with an old letter. In this order
the incidence matrix is block lower triangular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError
from .structure import ComponentChain, IncidenceMatrix
from .words import Substitution


@dataclass(frozen=True)
class AuxiliarySubstitution:
    sub: Substitution
    chain: ComponentChain
    m: int
    words: tuple[str, ...]
    q_blocks: tuple[tuple[str, ...], ...]  # Q(1..n)
    g_blocks: tuple[tuple[str, ...], ...]  # G(1..n-1)
    level_words: tuple[frozenset[str], ...]  # L_m of each level substitution
    images: dict[str, tuple[str, ...]] = field(hash=False, compare=False)

    @property
    def n(self) -> int:
        return self.chain.n

    def index(self, word: str) -> int:
        try:
            return self.words.index(word)
        except ValueError:
            raise DomainError(f"{word!r} is not a language word at m={self.m}") from None

    def image(self, word: str) -> tuple[str, ...]:
        return self.images[word]

    def b_words(self, i: int) -> tuple[str, ...]:
        """Words of level i+1 starting with a level <= i letter, 0 <= i < n."""
        if not 0 <= i < self.n:
            raise DomainError(f"index {i} out of range 0..{self.n - 1}")
        if i == 0:
            return ()
        lower = set(self.chain.alphabet_at(i))
        return tuple(w for w in self.words if w in self.level_words[i] and w[0] in lower)

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
    level_langs = chain.languages(m)
    full = level_langs[-1]
    key = sub.alphabet.word_key
    q_blocks = []
    g_blocks = []
    for i in range(1, n + 1):
        new = set(chain.new_letters(i))
        q_blocks.append(tuple(sorted((w for w in level_langs[i - 1] if w[0] in new), key=key)))
        if i < n:
            lower = set(chain.alphabet_at(i))
            fresh = level_langs[i] - level_langs[i - 1]
            g_blocks.append(tuple(sorted((w for w in fresh if w[0] in lower), key=key)))
    words: list[str] = []
    for i in range(n):
        words.extend(q_blocks[i])
        if i < n - 1:
            words.extend(g_blocks[i])
    if set(words) != full or len(words) != len(full):
        raise RuntimeError(f"window blocks at m={m} do not partition the language")

    images: dict[str, tuple[str, ...]] = {}
    for u in words:
        expanded = sub.step(u)
        width = len(sub.image(u[0]))
        seq = tuple(expanded[j : j + m] for j in range(width))
        if not all(len(w) == m and w in full for w in seq):
            raise RuntimeError(f"an image window of {u!r} is not a language word at m={m}")
        images[u] = seq
    return AuxiliarySubstitution(
        sub=sub,
        chain=chain,
        m=m,
        words=tuple(words),
        q_blocks=tuple(q_blocks),
        g_blocks=tuple(g_blocks),
        level_words=tuple(level_langs),
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


def level_empty_diag(aux: AuxiliarySubstitution, i: int) -> bool:
    """Whether the level-i diagonal coordinate set is empty.

    This happens exactly when m > 1, the level introduces a single letter s,
    and the image of s is a lower-level word followed by s, so no m-window in
    the system starts with s.
    """
    aux.chain.check_level(i)
    if aux.m == 1:
        empty = False
    else:
        new = aux.chain.new_letters(i)
        if len(new) != 1:
            empty = False
        else:
            s = new[0]
            img = aux.sub.image(s)
            lower = set(aux.chain.alphabet_at(i - 1)) if i >= 2 else set()
            empty = len(img) >= 2 and img[-1] == s and all(c in lower for c in img[:-1])
    if empty != (len(aux.q_blocks[i - 1]) == 0):
        raise RuntimeError(f"level {i}: the structural emptiness test does not match the block")
    return empty
