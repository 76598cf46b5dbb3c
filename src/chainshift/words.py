"""Core word combinatorics: alphabets, substitutions, occurrence counting and
language enumeration.

Words are plain ``str`` values over single-character letters; the empty word
is ``""``. Occurrence positions follow the 1-based convention, so ``w[0]`` is
position 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of letters; the order fixes matrix indexing.

    Top-level systems require at least two letters (enforced by the input
    parser); restrictions to a sub-alphabet may be singletons.
    """

    letters: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)
    _ranks: _ImageTable = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if not self.letters:
            raise DomainError("alphabet must be nonempty")
        index = {c: i for i, c in enumerate(self.letters)}
        if len(index) != len(self.letters):
            raise DomainError("alphabet has duplicate letters")
        for c in self.letters:
            if len(c) != 1 or not c.isprintable() or c.isspace():
                raise DomainError(f"letter {c!r} is not a single printable character")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_ranks", _ImageTable((ord(c), chr(i)) for c, i in index.items()))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __contains__(self, letter: object) -> bool:
        return letter in self._index

    def index(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise DomainError(f"letter {letter!r} not in alphabet") from None

    def word_key(self, word: str) -> str:
        """Sort key ordering words by declared letter order: chr(index) per letter."""
        return word.translate(self._ranks)

    def check_word(self, word: str, *, nonempty: bool = False) -> str:
        if nonempty and not word:
            raise DomainError("word must be nonempty")
        for c in word:
            if c not in self._index:
                raise DomainError(f"letter {c!r} not in alphabet")
        return word


class _ImageTable(dict):
    """``{ord(letter): image}`` for ``str.translate``, or ``{ord(letter): chr(index)}``.

    ``str.translate`` leaves a character that misses the table unchanged
    only when the lookup raises ``LookupError``; this table raises
    ``DomainError`` instead, so a letter outside the alphabet is rejected.
    """

    def __missing__(self, code: int):
        raise DomainError(f"letter {chr(code)!r} not in alphabet")


@dataclass(frozen=True)
class Substitution:
    """A map from each letter to a nonempty word over the same alphabet."""

    alphabet: Alphabet
    images: tuple[str, ...]
    _table: _ImageTable = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(self.images) != len(self.alphabet):
            raise DomainError("one image required per letter")
        for letter, img in zip(self.alphabet, self.images):
            if not img:
                raise DomainError(f"image of {letter!r} is empty")
            self.alphabet.check_word(img)
        table = _ImageTable(zip(map(ord, self.alphabet), self.images))
        object.__setattr__(self, "_table", table)

    @classmethod
    def from_rules(cls, rules: dict[str, str]) -> "Substitution":
        """Build from a letter -> image mapping; alphabet order = dict order."""
        alphabet = Alphabet(tuple(rules))
        return cls(alphabet, tuple(rules.values()))

    def image(self, letter: str) -> str:
        return self.images[self.alphabet.index(letter)]

    def step(self, word: str) -> str:
        """One application, extended to words by concatenation."""
        return word.translate(self._table)

    def restrict(self, letters: tuple[str, ...]) -> "Substitution":
        """Restriction to a sub-alphabet, which must be closed under the map."""
        sub_alpha = Alphabet(letters)
        images = []
        for c in letters:
            img = self.image(c)
            for x in img:
                if x not in sub_alpha:
                    raise DomainError(
                        f"{letters!r} is not closed: image of {c!r} leaves it"
                    )
            images.append(img)
        return Substitution(sub_alpha, tuple(images))

    def reversed(self) -> "Substitution":
        """Mirror system: every image written backwards."""
        return Substitution(self.alphabet, tuple(img[::-1] for img in self.images))

    def rules_text(self) -> str:
        """Normalized one-rule-per-line source form."""
        return "\n".join(f"{c} -> {img}" for c, img in zip(self.alphabet, self.images))


class Occurrences(NamedTuple):
    count: int
    positions: tuple[int, ...]


def count_occurrences(u: str, v: str) -> Occurrences:
    """All occurrences of ``u`` in ``v``, overlaps included, 1-based positions."""
    if not u:
        raise DomainError("pattern word must be nonempty")
    positions = []
    i = v.find(u)
    while i != -1:
        positions.append(i + 1)
        i = v.find(u, i + 1)
    return Occurrences(len(positions), tuple(positions))


def apply(sub: Substitution, word: str, k: int, *, allow_identity: bool = False) -> str:
    """The k-th power of ``sub`` applied to ``word``.

    ``k = 0`` is the identity and is rejected unless ``allow_identity`` is set.
    """
    if not word:
        raise DomainError("word must be nonempty")
    sub.alphabet.check_word(word)
    if k == 0 and allow_identity:
        return word
    if k < 1:
        raise DomainError("power must be >= 1")
    for _ in range(k):
        word = sub.step(word)
    return word


def factors(word: str, m: int) -> set[str]:
    """All length-m factors of ``word``."""
    return {word[j : j + m] for j in range(len(word) - m + 1)}


def language(sub: Substitution, m: int) -> frozenset[str]:
    """The set of length-m factors of any power image ``sub^n(a)``, n >= 1.

    Letters whose iterated images never reach length m contribute nothing,
    which matches reading the power range as n >= 1: a letter that is never
    reproduced by an image does not appear in the language.
    """
    if m < 1:
        raise DomainError("factor length must be >= 1")
    lang: set[str] = set()
    _close(sub, lang, _seed_factors(sub, sub.alphabet, m), m)
    return frozenset(lang)


def level_languages(
    sub: Substitution, levels: Sequence[tuple[str, ...]], m: int
) -> list[frozenset[str]]:
    """L_m of each level, in one sweep up nested letter sets closed under ``sub``.

    ``levels`` are cumulative, A_1 c A_2 c ..., as in a component chain.
    Entry i-1 equals ``language`` of the restriction of ``sub`` to A_i. The
    language of level i contains that of level i-1, which is already closed,
    so level i only closes the seeds of its new letters on top of it: every
    window is expanded once over the whole sweep. ``ComponentChain.languages``
    keeps one sweep per m on the chain.
    """
    if m < 1:
        raise DomainError("factor length must be >= 1")
    lang: set[str] = set()
    below: set[str] = set()
    out = []
    for level in levels:
        new = [c for c in level if c not in below]
        _close(sub, lang, _seed_factors(sub, new, m), m)
        out.append(frozenset(lang))
        below = set(level)
    return out


def _seed_factors(sub: Substitution, letters: Iterable[str], m: int) -> set[str]:
    """m-factors of the first power image of each letter that reaches length m.

    Shorter iterates can only cycle (lengths never decrease), so a repeat
    means the letter never contributes.
    """
    out: set[str] = set()
    for letter in letters:
        w = sub.step(letter)
        seen = set()
        while len(w) < m:
            if w in seen:
                w = ""
                break
            seen.add(w)
            w = sub.step(w)
        out |= factors(w, m)
    return out


def _close(sub: Substitution, lang: set[str], seeds: set[str], m: int) -> None:
    """Add ``seeds`` to ``lang`` and close it under m-factors of images, in place.

    Any m-factor of sub(x) lies in the image of some m-factor of x because
    images are nonempty, so from the seeds this reaches the full language.
    Words already in ``lang`` are taken as closed and are not expanded again.
    """
    frontier = seeds - lang
    lang |= frontier
    while frontier:
        new: set[str] = set()
        for w in frontier:
            img = sub.step(w)
            for j in range(len(img) - m + 1):
                f = img[j : j + m]
                if f not in lang:
                    lang.add(f)
                    new.add(f)
        frontier = new
