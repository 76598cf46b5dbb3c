"""Incidence matrix and the chain of primitive components.

A valid system decomposes the alphabet into nested levels A_1 c A_2 c ... of
letters, each level closed under the substitution, such that some uniform
power reproduces every letter of A_i inside every image of a level-i letter.
Detection works on the reachability digraph: the strongly connected
components must be totally ordered by reachability, each diagonal block must
be primitive, and a uniform witness power is then found by stepping boolean
powers. Boolean matrices are kept as one int bitset per row: row a of A·P is
the OR of the rows P[c] over the letters c of σ(a), so a power step costs
O(n·|σ|) big-int ORs, and a row is tested against a mask in one operation.

Everything derived from a chain (level languages, window substitutions, eigen
data, level reports) is stored on it by ``ComponentChain.memo`` and lives
exactly as long as the chain; no module keeps a cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, NoPrimitiveChainError
from .words import Substitution, count_occurrences, level_languages

IntMatrix = tuple[tuple[int, ...], ...]


def mat_mul(a, b) -> IntMatrix:
    n, mid, m = len(a), len(b), len(b[0]) if b else 0
    bt = list(zip(*b))
    return tuple(
        tuple(sum(a[i][k] * bt[j][k] for k in range(mid)) for j in range(m))
        for i in range(n)
    )


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


def _row_or_step(succ: list[list[int]], power: list[int]) -> list[int]:
    """Bitset rows of A·P, for A given by successor lists and P by bitset rows."""
    out = []
    for targets in succ:
        row = 0
        for c in targets:
            row |= power[c]
        out.append(row)
    return out


@dataclass(frozen=True)
class IncidenceMatrix:
    """Integer matrix counting each letter's occurrences in each image."""

    letters: tuple[str, ...]
    entries: IntMatrix

    def __getitem__(self, pair: tuple[str, str]) -> int:
        a, b = pair
        return self.entries[self.letters.index(a)][self.letters.index(b)]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    def power(self, k: int) -> IntMatrix:
        return mat_pow(self.entries, k)


def incidence_matrix(sub: Substitution) -> IncidenceMatrix:
    letters = sub.alphabet.letters
    entries = tuple(
        tuple(count_occurrences(b, sub.image(a)).count for b in letters)
        for a in letters
    )
    return IncidenceMatrix(letters, entries)


def _tarjan_sccs(n: int, edges: list[set[int]]) -> list[list[int]]:
    """Strongly connected components, iteratively, in reverse topological order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(sorted(edges[root])))]
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
                    work.append((w, iter(sorted(edges[w]))))
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


@dataclass(frozen=True)
class ComponentChain:
    """Nested letter levels with per-level diagonal blocks."""

    sub: Substitution
    levels: tuple[tuple[str, ...], ...]  # cumulative A_i, declaration order
    witness_k: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def memo(self, key: tuple, compute):
        """``compute()`` once per ``key`` for this chain; later calls return the
        stored result, which every caller shares: treat it as read-only."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def n(self) -> int:
        return len(self.levels)

    def check_level(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise DomainError(f"level {i} out of range 1..{self.n}")
        return i

    def alphabet_at(self, i: int) -> tuple[str, ...]:
        return self.levels[self.check_level(i) - 1]

    def new_letters(self, i: int) -> tuple[str, ...]:
        def every_level():
            below = [set()] + [set(level) for level in self.levels[:-1]]
            return tuple(tuple(c for c in lv if c not in lo) for lo, lv in zip(below, self.levels))

        return self.memo(("new_letters",), every_level)[self.check_level(i) - 1]

    def level_of(self, letter: str) -> int:
        for i, level in enumerate(self.levels, start=1):
            if letter in level:
                return i
        raise DomainError(f"letter {letter!r} not in alphabet")

    def block(self, i: int) -> IntMatrix:
        """Diagonal block Q_i: occurrence counts among the level's new letters."""
        letters = self.new_letters(i)
        return tuple(
            tuple(count_occurrences(b, self.sub.image(a)).count for b in letters)
            for a in letters
        )

    def coupling(self, i: int, j: int) -> IntMatrix:
        """Off-diagonal block R_{i,j}: counts of level-j letters in level-i images.

        Requires j < i; together with the diagonal blocks these views tile the
        lower triangle of the incidence matrix.
        """
        self.check_level(i)
        self.check_level(j)
        if not j < i:
            raise DomainError("coupling blocks sit strictly below the diagonal")
        rows = self.new_letters(i)
        cols = self.new_letters(j)
        return tuple(
            tuple(count_occurrences(b, self.sub.image(a)).count for b in cols)
            for a in rows
        )

    def restrict(self, i: int) -> tuple[Substitution, "ComponentChain"]:
        """The level-i sub-substitution together with its own chain, built once
        per level and chain.

        When the top level spells the whole alphabet in order, its restriction
        is the chain itself, so the level and the system share one memo.
        """

        def build():
            if i == self.n and self.alphabet_at(i) == self.sub.alphabet.letters:
                return self.sub, self
            sub_i = self.sub.restrict(self.alphabet_at(i))
            return sub_i, ComponentChain(sub_i, self.levels[:i], self.witness_k)

        return self.memo(("restrict", i), build)

    def languages(self, m: int) -> list[frozenset[str]]:
        """L_m of every level, from one ``words.level_languages`` sweep per m."""
        return self.memo(("languages", m), lambda: level_languages(self.sub, self.levels, m))


def component_chain(sub: Substitution) -> ComponentChain:
    """Detect the unique chain of primitive components.

    Raises NoPrimitiveChainError with a diagnostic when the reachability
    order on strongly connected components is not total or some diagonal
    block is imprimitive.
    """
    letters = sub.alphabet.letters
    n = len(letters)
    idx = {c: i for i, c in enumerate(letters)}
    edges = [set(idx[c] for c in sub.image(a)) for a in letters]

    sccs = _tarjan_sccs(n, edges)
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
            for w in edges[v]:
                r |= reach[comp_of[w]]
        reach[ci] = r
    for a in range(ncomp):
        for b in range(a + 1, ncomp):
            if not (reach[b] >> a) & 1 and not (reach[a] >> b) & 1:
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
    order = sorted(range(ncomp), key=lambda ci: reach[ci].bit_count())
    # Each diagonal block must be primitive: some boolean power all-positive.
    for ci in order:
        comp = sccs[ci]
        pos = {v: p for p, v in enumerate(comp)}
        succ = [[pos[w] for w in edges[v] if w in pos] for v in comp]
        full = (1 << len(comp)) - 1
        wielandt = (len(comp) - 1) ** 2 + 1
        power = _row_or_step(succ, [1 << p for p in range(len(comp))])
        ok = all(row == full for row in power)
        for _ in range(wielandt - 1):
            if ok:
                break
            power = _row_or_step(succ, power)
            ok = all(row == full for row in power)
        if not ok:
            raise NoPrimitiveChainError(
                "a diagonal block is not primitive",
                {
                    "kind": "imprimitive_block",
                    "component": sorted(letters[v] for v in comp),
                },
            )
    cumulative: list[tuple[str, ...]] = []
    seen: set[str] = set()
    need = [0] * n  # bitset of the letters on or below each letter's level
    mask = 0
    for ci in order:
        seen |= {letters[v] for v in sccs[ci]}
        cumulative.append(tuple(c for c in letters if c in seen))
        mask |= sum(1 << v for v in sccs[ci])
        for v in sccs[ci]:
            need[v] = mask
    levels = tuple(cumulative)
    # Uniform witness power: all entries on or below the block diagonal of
    # some boolean power are positive; bounded by Wielandt plus graph depth.
    bound = (n - 1) ** 2 + 1 + n
    succ = [list(e) for e in edges]
    power = _row_or_step(succ, [1 << v for v in range(n)])
    witness = None
    for k in range(1, bound + 1):
        if all(not row_need & ~row for row_need, row in zip(need, power)):
            witness = k
            break
        power = _row_or_step(succ, power)
    if witness is None:  # unreachable if the checks above passed
        raise NoPrimitiveChainError(
            "no uniform witness power below the bound",
            {"kind": "no_witness", "bound": bound},
        )
    return ComponentChain(sub, levels, witness)


def sub_substitution(sub: Substitution, chain: ComponentChain, i: int) -> Substitution:
    """Restriction of the substitution to the level-i alphabet."""
    chain.check_level(i)
    return sub.restrict(chain.alphabet_at(i))


def is_empty_bottom(sub: Substitution, chain: ComponentChain) -> bool:
    """True iff the bottom subshift is empty: A_1 = {s} with s mapped to itself."""
    bottom = chain.alphabet_at(1)
    return len(bottom) == 1 and sub.image(bottom[0]) == bottom[0]
