"""Core word combinatorics: alphabets, substitutions, occurrence counting and
language enumeration, and the parser that turns rule text into a
substitution (``parse_input``).

Words are plain ``str`` values over single-character letters; the empty word
is ``""``. Occurrence positions follow the 1-based convention, so ``w[0]`` is
position 1.

The languages of nested levels are nested, L_m(1) c L_m(2) c ..., so one
sweep lists the words each level adds (``level_words``). A component chain
runs it once per window length and reads its word -> level index off it
(``ComponentChain.level_words``, ``.word_levels``). The sweep and
``language`` run one aligned closure (Queffélec, LNM 1294, Ch. 5), at every m:

- Closure rule. A word x = x_0 .. x_{m-1} of L_m adds only the m-windows of
  σ(x) that start in σ(x_0) and cross its end, read from the last m-1
  letters of σ(x_0) and the first m-1 letters of the images after it, and,
  mirrored, those that end in σ(x_{m-1}) and cross its start. σ(x) is never
  built. At m = 2 both kinds are the one straddle last(σ(x_0)) first(σ(x_1)),
  so m = 2 walks the queue in a loop of its own that adds that one word per
  word, in the same order and under the same cap; at m = 1 there is none.
- Why it is complete. Let z be a word whose m-windows all lie in the
  closure, and w an m-window of σ(z). Either w lies inside one image σ(z_p),
  or it starts in σ(z_p) and crosses that image's end. If p <= |z|-m, w is a
  first-boundary window of z_p .. z_{p+m-1}. Otherwise w ends in some
  σ(z_q) with q >= p+1 >= |z|-m+2, and when q >= m-1 it is a last-boundary
  window of z_{q-m+1} .. z_q. So the rule misses only windows inside one
  image and, when |z| < 2m-3, windows that start in σ(z_p) with p > |z|-m
  and end in σ(z_q) with q < m-1; those lie in σ(z_lo .. z_{hi-1}),
  lo = max(0, |z|-m+1), hi = min(|z|, m-1).
- Seeds. For each letter c: every m-window of σ(c), and for each iterate
  y = σ^j(c), j >= 1, the m-windows of σ(y_lo .. y_{hi-1}), up to the first
  iterate of length >= 2m-3 (from there on the rule misses nothing) or the
  first repeat. By induction on j every window of every σ^j(c) is reached,
  and each word added is such a window, so the closure is exactly L_m.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, DomainError, ParseError

# letters held by one `language` listing, one level-by-level sweep
# (`level_words`) or one level's ancestor tables
LANGUAGE_BUDGET = 10**7


class Record:
    """Base of the record classes: slotted, weakly referable, with a written-out
    ``__init__``. A record equals one of its class with equal public fields and
    prints them; a ``_`` slot holds data derived from those."""

    __slots__ = ("__weakref__",)

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in self._fields().items())})"


class FrozenRecord(Record):
    """A hashable record: equal and hashed by the fields its class attribute
    ``_key``, an ``attrgetter``, reads, and closed to assignment (``__init__``
    sets fields by ``object.__setattr__``)."""

    __slots__ = ()

    def __eq__(self, other):
        if other is self:  # the common case (``sub == chain.sub``) reads no field
            return True
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):  # pickle and copy call ``__init__``, whose parameters are the public fields
        return type(self), tuple(self._fields().values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Alphabet(FrozenRecord):
    """Ordered finite set of letters; the order fixes matrix indexing.

    Top-level systems require at least two letters (enforced by the input
    parser); restrictions to a sub-alphabet may be singletons.
    """

    __slots__ = ("letters", "_index", "_ranks")
    _key = attrgetter("letters")

    def __init__(self, letters: tuple[str, ...]):
        if not letters:
            raise DomainError("alphabet must be nonempty")
        index = {c: i for i, c in enumerate(letters)}
        if len(index) != len(letters):
            raise DomainError("alphabet has duplicate letters")
        for c in letters:
            if len(c) != 1 or not c.isprintable() or c.isspace():
                raise DomainError(f"letter {c!r} is not a single printable character")
        object.__setattr__(self, "letters", letters)
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

    def check_word(self, word: str) -> str:
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


class Substitution(FrozenRecord):
    """A map from each letter to a nonempty word over the same alphabet."""

    __slots__ = ("alphabet", "images", "_table")
    _key = attrgetter("alphabet", "images")

    def __init__(self, alphabet: Alphabet, images: tuple[str, ...]):
        if len(images) != len(alphabet):
            raise DomainError("one image required per letter")
        for letter, img in zip(alphabet, images):
            if not img:
                raise DomainError(f"image of {letter!r} is empty")
            alphabet.check_word(img)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_table", _ImageTable(zip(map(ord, alphabet), images)))

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


class InputSpec(Record):
    __slots__ = ("substitution",)

    def __init__(self, substitution: Substitution):
        self.substitution = substitution


def parse_input(text: str) -> InputSpec:
    """Parse rule text into a substitution; alphabet order = declaration order.

    One rule per line, ``X -> IMAGE``; ``#`` starts a comment and blank lines
    are ignored. At least two rules, each image over declared letters.
    """
    rules: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError(f"line {ln}: expected 'X -> IMAGE'")
        left, right = line.split("->", 1)
        letter, image = left.strip(), right.strip()
        if len(letter) != 1 or not letter.isprintable() or letter.isspace():
            raise ParseError(f"line {ln}: rule letter must be one printable character")
        if letter in rules:
            raise ParseError(f"line {ln}: duplicate rule for {letter!r}")
        if not image:
            raise ParseError(f"line {ln}: empty image for {letter!r}")
        rules[letter] = image
    if len(rules) < 2:
        raise ParseError("need at least two rules")
    for letter, image in rules.items():
        for c in image:
            if c not in rules:
                raise ParseError(f"image of {letter!r} uses undeclared letter {c!r}")
    return InputSpec(Substitution.from_rules(rules))


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


def apply(sub: Substitution, word: str, k: int) -> str:
    """The k-th power of ``sub`` applied to ``word``, k >= 1."""
    if not word:
        raise DomainError("word must be nonempty")
    sub.alphabet.check_word(word)
    if k < 1:
        raise DomainError("power must be >= 1")
    for _ in range(k):
        word = sub.step(word)
    return word


def language(sub: Substitution, m: int, cap: int | None = None) -> frozenset[str]:
    """The set of length-m factors of any power image ``sub^n(a)``, n >= 1.

    Letters whose iterated images never reach length m contribute nothing,
    which matches reading the power range as n >= 1: a letter that is never
    reproduced by an image does not appear in the language.

    The listing holds at most ``LANGUAGE_BUDGET`` letters: the closure stops
    once it holds more than ``LANGUAGE_BUDGET // m`` words and raises
    ``BudgetExceeded``. With a smaller ``cap`` it stops once it holds more
    than ``cap`` words: the result is L_m when |L_m| <= cap, and otherwise
    more than ``cap`` of its words.
    """
    if m < 1:
        raise DomainError("factor length must be >= 1")
    budget = LANGUAGE_BUDGET // m
    lang: set[str] = set()
    _AlignedClosure(sub, m).close(lang, sub.alphabet, budget if cap is None else min(cap, budget))
    if len(lang) > budget:
        raise BudgetExceeded(f"language at m={m} exceeds {LANGUAGE_BUDGET} letters")
    return frozenset(lang)


def level_words(sub: Substitution, new_letters: Sequence[Iterable[str]], m: int) -> list[list[str]]:
    """Per level i, the words of L_m(i) not in L_m(i-1), in the order the
    closure adds them. ``new_letters`` lists the letters each level adds, as
    in a component chain; L_m(i) is the language of ``sub`` on levels 1..i.
    L_m(i-1) is closed, so level i closes only the seeds of its new letters
    on top of it, and every window is expanded once over the whole sweep.
    Past ``LANGUAGE_BUDGET`` letters it raises ``BudgetExceeded``."""
    if m < 1:
        raise DomainError("factor length must be >= 1")
    closure = _AlignedClosure(sub, m)
    lang: set[str] = set()
    cap = LANGUAGE_BUDGET // m
    levels = []
    for new in new_letters:
        levels.append(closure.close(lang, new, cap))
        if len(lang) > cap:
            raise BudgetExceeded(f"the word index at m={m} exceeds {LANGUAGE_BUDGET} letters")
    return levels


class _AlignedClosure:
    """The aligned closure at window length m (see the module docstring).

    Built once per sweep: every image, and its first and its last m-1
    letters.
    """

    def __init__(self, sub: Substitution, m: int):
        self.step, self.m = sub.step, m
        m1 = max(m - 1, 1)  # the tables go unread at m = 1
        self.images = dict(zip(sub.alphabet.letters, sub.images))
        self.heads = {c: img[:m1] for c, img in self.images.items()}
        self.tails = {c: img[-m1:] for c, img in self.images.items()}
        self.longest = max(map(len, self.heads.values()))  # tails are as long

    def close(self, lang: set[str], letters: Iterable[str], cap: int) -> list[str]:
        """Add the seeds of ``letters`` to ``lang`` and close it, in place.

        Words already in ``lang`` are taken as closed and are not expanded
        again. Returns the words added, in the order they were added; stops
        as soon as ``lang`` holds more than ``cap`` words.
        """
        step, m = self.step, self.m
        m1 = m - 1
        added: list[str] = []
        add, push = lang.add, added.append
        for c in letters:
            # seeds: all of σ(c), then from each iterate y shorter than 2m-3
            # the windows of σ(y_lo .. y_{hi-1}), as the module docstring says
            text = y = self.images[c]
            seen = set()
            while True:
                for j in range(len(text) - m1):
                    f = text[j : j + m]
                    if f not in lang:
                        add(f)
                        push(f)
                if len(y) >= 2 * m - 3 or y in seen or len(lang) > cap:
                    break
                seen.add(y)
                image = step(y)
                text = image if len(y) <= m1 else step(y[len(y) - m1 : m1])
                y = image
        if not m1:
            return added
        heads, tails, longest = self.heads, self.tails, self.longest
        if m1 == 1:  # at m = 2 both boundary kinds are the one straddle
            for x in added:  # the list grows while it is walked: a breadth-first queue
                if len(lang) > cap:
                    break
                f = tails[x[0]] + heads[x[1]]
                if f not in lang:
                    add(f)
                    push(f)
            return added
        for x in added:  # as above, for m >= 3
            if len(lang) > cap:
                break
            # windows that start in σ(x_0) and cross its end: the m-1 letters
            # after it come image by image, or, past four images, from about
            # as many images as cover them (``_cover``)
            right, k = heads[x[1]], 2
            while len(right) < m1:
                if k > 4:
                    right = _cover(heads, longest, x[1:], m1)
                    break
                right += heads[x[k]]
                k += 1
            text = tails[x[0]] + right
            for j in range(len(text) - len(right)):
                f = text[j : j + m]
                if f not in lang:
                    add(f)
                    push(f)
            # windows that end in σ(x_{m-1}) and cross its start, mirrored
            left, k = tails[x[-2]], -3
            while len(left) < m1:
                if k < -5:
                    left = _cover(tails, longest, x[:-1], m1, back=True)
                    break
                left = tails[x[k]] + left
                k -= 1
            text = left + heads[x[-1]]
            for j in range(len(left) - m1, len(text) - m1):
                f = text[j : j + m]
                if f not in lang:
                    add(f)
                    push(f)
        return added


def _cover(ends: dict[str, str], longest: int, letters: str, m1: int, back: bool = False) -> str:
    """The joined ``ends`` of about the fewest first (``back``: last)
    letters of ``letters`` that cover ``m1`` letters, or of all of them.

    No end is longer than ``longest``, so the first round takes the fewest
    letters that could cover; each later round adds the shortfall at the
    rate seen so far, plus an eighth.
    """
    n, text, size = 0, "", len(letters)
    while len(text) < m1 and n < size:
        short = m1 - len(text)
        k = min(size, n + (short * n // len(text) + n // 8 if n else short // longest) + 1)
        if back:
            text = "".join(map(ends.__getitem__, letters[size - k : size - n])) + text
        else:
            text += "".join(map(ends.__getitem__, letters[n:k]))
        n = k
    return text
