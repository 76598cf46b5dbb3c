"""Incidence matrix and the chain of primitive components.

A valid system decomposes the alphabet into nested levels A_1 c A_2 c ... of
letters, each level closed under the substitution, such that some uniform
power reproduces every letter of A_i inside every image of a level-i letter.
Detection works on the reachability digraph: the strongly connected
components must be totally ordered by reachability, and one search over
boolean powers then finds the uniform witness power and decides primitivity
with it. A component's diagonal block of A^k is the k-th power of its own
block, so a primitive block is full from k = (|B|-1)^2 + 1 on (Wielandt) and
an imprimitive one never is; every letter reaches each component below it in
at most n - 1 steps, so the search stops at k = n + max_B ((|B|-1)^2 + 1).
If no witness turns up by then, the lowest component whose diagonal block
is not full is named as imprimitive. Each letter's successors (the distinct
letters of its image) are built once, as a tuple of letter indices in
increasing order, and Tarjan's search, the reachability closure and the
witness rows all read them; the order fixes which components Tarjan emits
first, and so the pair an incomparability diagnostic names. Tarjan emits the
components in reverse topological order (Tarjan, SIAM J. Comput. 1, 1972),
so the order is total iff each component reaches the one emitted before it,
and the levels are then the components in emission order, bottom first.
Boolean matrices are kept as int bitsets, one bit per letter index in each
row. Once the order is total every level is closed, so row a of a power
never holds a letter above a's level, and a row is finished exactly when it
equals the mask of the letters on or below that level: one int comparison.
The search steps the powers one of two ways. Row by row, row a of A·P is the
OR of the rows P[c] over the successors c of a, so a step costs O(n·|σ|)
big-int ORs; only the rows that are not yet full are stepped, in place, from
a snapshot of the previous power. Packed, A^k is one int that holds each
letter's row at its slot, its place in level order (the components in
emission order, each sorted), n bits per slot. An edge a -> c moves row c by
the offset slot(a) - slot(c), so one step is, for each offset d, the AND of
the power with a mask of the edges' source slots, shifted by d·n bits: O(D)
big-int operations on n² bits for D distinct offsets, and the search stops
when the power equals the packed ``need`` masks. A chain with E edges is
packed when 4·D <= E and D <= 8. A tower has D = 2 and E = 2n - 1, and its
steps then cost a few shifts each where the row search ORs about n²/2 rows
in all. On small chains, and on chains with many offsets, building and
stepping D masks of n² bits costs more than the rows, so they keep the row
search (every corpus system has 4·D > E).

A chain is its components, the letters each level adds in declaration
order, and one letter -> level index built from them: ``level_of`` reads it,
"a letter lies below level i" is the test ``level_of(c) < i``, and the
alphabets A_i (``alphabet_at``, ``levels``) are derived on each read. Words
are indexed the same way, per window length, off the one sweep the chain
runs (``level_words``): a word lies in the level-i language iff its level
(``word_levels``) is <= i.
Letter counts (the incidence matrix, and the diagonal blocks the spectral
profile reads) use ``str.count`` on the images (``letter_counts``).

Everything derived from a chain (word levels, window substitutions, eigen
data, level reports) is stored on it by ``ComponentChain.memo``, the one memo
door, and lives exactly as long as the chain; no module keeps a cache, no
module but this one reads or writes the stored dict, ``_memo``, and each
public function checks its spectral profile once before it stores anything.
Nothing stored refers back to the chain, so reference counting frees it all
with the chain.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import DomainError, NoPrimitiveChainError
from .words import FrozenRecord, Substitution, level_words

IntMatrix = tuple[tuple[int, ...], ...]


def mat_mul(a, b) -> IntMatrix:
    """The integer product a·b, summed over the nonzero entries of both factors
    only: incidence and window matrices are mostly zeros."""
    m = len(b[0]) if b else 0
    b_entries = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    product = []
    for row in a:
        out = [0] * m
        for x, entries in zip(row, b_entries):
            if x:
                for j, y in entries:
                    out[j] += x * y
        product.append(tuple(out))
    return tuple(product)


def mat_identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    result = mat_identity(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if k > 1 else base
        k >>= 1
    return result


class IncidenceMatrix(FrozenRecord):
    """Integer matrix counting each letter's occurrences in each image."""

    __slots__ = ("letters", "entries")
    _key = attrgetter("letters", "entries")

    def __init__(self, letters: tuple[str, ...], entries: IntMatrix):
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, pair: tuple[str, str]) -> int:
        a, b = pair
        return self.entries[self.letters.index(a)][self.letters.index(b)]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    def power(self, k: int) -> IntMatrix:
        return mat_pow(self.entries, k)


def letter_counts(images, cols) -> IntMatrix:
    """Occurrences of each ``cols`` letter in each of ``images``, one row per image."""
    return tuple([tuple([img.count(b) for b in cols]) for img in images])


def incidence_matrix(sub: Substitution) -> IncidenceMatrix:
    letters = sub.alphabet.letters
    return IncidenceMatrix(letters, letter_counts(sub.images, letters))


def _tarjan_sccs(n: int, succ: list[tuple[int, ...]]) -> list[list[int]]:
    """Strongly connected components, iteratively, in reverse topological order.

    ``succ[v]`` lists the successors of v in increasing order; the order
    fixes which component is emitted first, and so the components named in
    an incomparability diagnostic.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


_MISSING = object()  # a memo key not yet computed


def check_level(i: int, n: int) -> int:
    """``i``, if it names one of n levels; ``DomainError`` otherwise."""
    if not 1 <= i <= n:
        raise DomainError(f"level {i} out of range 1..{n}")
    return i


class ComponentChain(FrozenRecord):
    """Nested letter levels with per-level diagonal blocks, kept as the
    letters each level adds (its component), in declaration order."""

    __slots__ = ("sub", "components", "witness_k", "_memo", "_level_of")
    _key = attrgetter("sub", "components", "witness_k")

    def __init__(self, sub: Substitution, components: tuple[tuple[str, ...], ...], witness_k: int):
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "witness_k", witness_k)
        object.__setattr__(self, "_memo", {})
        level_of = {c: i for i, letters in enumerate(components, start=1) for c in letters}
        object.__setattr__(self, "_level_of", level_of)

    def memo(self, key: tuple, compute, *args):
        """``compute(*args)`` once per ``key`` for this chain; later calls return
        the stored result, which every caller shares: treat it as read-only."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = compute(*args)
        return value

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def levels(self) -> tuple[tuple[str, ...], ...]:
        """The cumulative alphabets A_1 c ... c A_n, built on each read."""
        return tuple(map(self.alphabet_at, range(1, len(self.components) + 1)))

    def check_level(self, i: int) -> int:
        return check_level(i, len(self.components))

    def alphabet_at(self, i: int) -> tuple[str, ...]:
        """A_i, the letters of levels 1..i in declaration order, built on each read."""
        level, i = self._level_of, self.check_level(i)
        return tuple([c for c in self.sub.alphabet.letters if level[c] <= i])

    def new_letters(self, i: int) -> tuple[str, ...]:
        return self.components[self.check_level(i) - 1]

    def level_of(self, letter: str) -> int:
        """The level that adds ``letter``: it lies below level i iff this is < i."""
        try:
            return self._level_of[letter]
        except KeyError:
            raise DomainError(f"letter {letter!r} not in alphabet") from None

    def restrict(self, i: int) -> tuple[Substitution, "ComponentChain"]:
        """The level-i sub-substitution together with its own chain, built once
        per level and chain.

        The top level's restriction is the chain itself, so the level and the
        system share one memo; it is not stored, since the chain would then
        hold itself.

        A level chain keeps the system's ``witness_k``. That power is a
        witness for the level too, but not always its least one (golden_tower
        levels 1 and 2: 3 against 2), so a reader must not take it as least.
        """
        if self.check_level(i) == len(self.components):
            return self.sub, self
        return self.memo(("restrict", i), _restriction, self, i)

    def level_words(self, m: int) -> list[list[str]]:
        """Per level i, the length-m words of L_m(i) not in L_m(i-1), in the
        order the closure adds them: one ``words.level_words`` sweep per m."""
        return self.memo(("level_words", m), level_words, self.sub, self.components, m)

    def word_levels(self, m: int) -> dict[str, int]:
        """The level each length-m word enters, read off ``level_words(m)``:
        L_m(i) is the set of words with level <= i."""
        return self.memo(
            ("word_levels", m), lambda: {w: i for i, words in enumerate(self.level_words(m), 1) for w in words}
        )


def _restriction(chain: ComponentChain, i: int) -> tuple[Substitution, ComponentChain]:
    sub_i = chain.sub.restrict(chain.alphabet_at(i))
    return sub_i, ComponentChain(sub_i, chain.components[:i], chain.witness_k)


def component_chain(sub: Substitution) -> ComponentChain:
    """Detect the unique chain of primitive components.

    Raises NoPrimitiveChainError with a diagnostic when the reachability
    order on strongly connected components is not total or some diagonal
    block is imprimitive.
    """
    letters = sub.alphabet.letters
    n = len(letters)
    idx = {c: i for i, c in enumerate(letters)}
    succ = [tuple(sorted(set(map(idx.__getitem__, img)))) for img in sub.images]

    sccs = _tarjan_sccs(n, succ)
    comp_of = [0] * n
    for ci, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = ci
    ncomp = len(sccs)
    # Reachability closure on the condensation, one bitset of components each.
    reach = [0] * ncomp
    for ci in range(ncomp):  # Tarjan emits reverse topological order
        r = 1 << ci
        for v in sccs[ci]:
            for w in succ[v]:
                r |= reach[comp_of[w]]
        reach[ci] = r
    # Total iff each component reaches the one emitted before it (see the
    # module docstring). Only a failure needs the pairwise scan, which names
    # the first incomparable pair; no component reaches a later one.
    if not all((reach[ci] >> (ci - 1)) & 1 for ci in range(1, ncomp)):
        a, b = next(
            (a, b) for a in range(ncomp) for b in range(a + 1, ncomp) if not (reach[b] >> a) & 1
        )
        raise NoPrimitiveChainError(
            "strongly connected components are incomparable",
            {
                "kind": "incomparable_components",
                "components": [
                    sorted(letters[v] for v in sccs[a]),
                    sorted(letters[v] for v in sccs[b]),
                ],
            },
        )
    components = []  # the letters each level adds, in declaration order
    need = [0] * n  # bitset of the letters on or below each letter's level
    slot = [0] * n  # each letter's place in level order, bottom first
    mask = placed = 0
    for comp in map(sorted, sccs):
        for v in comp:
            mask |= 1 << v
            slot[v] = placed
            placed += 1
        for v in comp:
            need[v] = mask
        components.append(tuple([letters[v] for v in comp]))
    # Uniform witness power: the least k at which every row of A^k holds
    # every letter on or below its level. It also decides primitivity (see
    # the module docstring): past the bound, the lowest component whose
    # diagonal block of the last power is not full is imprimitive. The
    # powers are stepped whole when the edges fall into few slot offsets.
    bound = n + max((len(comp) - 1) ** 2 + 1 for comp in sccs)
    offsets = len({slot[a] - slot[c] for a in range(n) for c in succ[a]})
    if 4 * offsets <= sum(map(len, succ)) and offsets <= 8:
        k, power = _packed_witness(succ, slot, need, bound)
    else:
        k, power = _row_witness(succ, need, bound)
    if k:
        return ComponentChain(sub, tuple(components), k)
    blocks = ((comp, sum(1 << v for v in comp)) for comp in sccs)
    comp = next(comp for comp, block in blocks if any(block & ~power[v] for v in comp))
    raise NoPrimitiveChainError(
        "a diagonal block is not primitive",
        {"kind": "imprimitive_block", "component": sorted(letters[v] for v in comp)},
    )


def _row_witness(succ: list[tuple[int, ...]], need: list[int], bound: int):
    """The least k <= ``bound`` at which every row of A^k equals its ``need``
    mask, with the rows of A^k; (0, the rows of A^bound) if there is none.

    Only the unfinished rows are stepped and tested: a finished row holds
    every letter reachable from its letter, each of which has a predecessor
    among them, so the row is the same at every later power, and the
    unfinished rows can read it from the stored list.
    """
    power = [1 << v for v in range(len(succ))]  # A^0
    todo = list(range(len(succ)))
    for k in range(1, bound + 1):
        previous, unfinished = power.copy(), []
        for a in todo:
            row = 0
            for c in succ[a]:
                row |= previous[c]
            power[a] = row
            if row != need[a]:
                unfinished.append(a)
        if not unfinished:
            return k, power
        todo = unfinished
    return 0, power


def _packed_witness(succ: list[tuple[int, ...]], slot: list[int], need: list[int], bound: int):
    """``_row_witness`` on A^k held as one int, row a at bits slot[a]·n on;
    the rows are unpacked only when there is no witness.

    An edge a -> c moves row c by d = slot[a] - slot[c] slots, so one step
    ORs, over the offsets d, the rows of the edges' sources at d shifted by
    d·n bits. Row bits stay letter indices.
    """
    n = len(succ)
    full = (1 << n) - 1
    sources: dict[int, int] = {}  # offset -> bit slot[c]·n of each source c
    for a, cs in enumerate(succ):
        for c in cs:
            d = slot[a] - slot[c]
            sources[d] = sources.get(d, 0) | 1 << slot[c] * n
    moves = [(bits * full, d * n) for d, bits in sources.items()]
    power = sum(1 << v << slot[v] * n for v in range(n))  # A^0
    target = sum(need[v] << slot[v] * n for v in range(n))
    for k in range(1, bound + 1):
        step = 0
        for rows, shift in moves:
            step |= (power & rows) << shift if shift >= 0 else (power & rows) >> -shift
        power = step
        if power == target:
            return k, None
    return 0, [power >> slot[v] * n & full for v in range(n)]

