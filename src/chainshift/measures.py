"""Invariant-measure computation per level.

Levels whose block eigenvalue strictly dominates everything below carry a
finite ergodic measure; cylinder values are left-eigenvector ratios. Levels
dominated from below carry an infinite Radon measure; finite cylinder values
are products of the divergent limit vectors, normalized through the
quasi-fixed point anchored at the level's distinguished letter, and every
word already present below the cutoff level is flagged infinite. Levels with
block eigenvalue 1 only carry counting measures on orbits and expose no
cylinder evaluation.

Everything this module keeps of a level is one record, ``_Level``, stored on
the chain under ``("level", i)`` through ``ComponentChain.memo``, the one memo
door, once each public function has checked i and its profile; the private
code takes the chain alone (see ``spectral``). It holds the descriptor, the
level's letters, the cylinder tables ``tables[m]`` and, for an integer
theta, the ``_Ancestors`` state they come from. The descriptor of a level
with theta > 1 reads only the spectrum and the seed pair
(``classify._level_seed``); the census runs only for theta = 1 levels, whose
descriptors count the point seeds (``classify._classify_level``). A table maps exactly the words of L_m(i)
to ``(infinite, exact, float, algebraic note)``. ``_Level.table`` alone
builds it and every reader takes it from there: a word of a built table is
one lookup, made before any check, a word outside the language still builds
its length's table, ``level_measure_table`` lists the keys, and the
uniformity windows test membership on the keys and take their target as a
ratio of the values.

Every table reads one level solve (``spectral._level_vectors``): the left
vector over the level's blocks, and on an infinite level the right vector
lifted from the level's letter block, which depends only on the first
letter. On a level whose theta is an integer every table is exact and
starts at the letter level: the solve on the k x k letter blocks of levels
<= i (``_letter_base``) gives the letter values, and every longer length,
m = 2 included, comes from the lengths below it by desubstitution
(``_Ancestors``), checked for exact Kolmogorov consistency against the
length below. This path builds no window substitution, window eigen data or
restricted chain. Only a level with an irrational theta solves over the
windows, once per m, and reads the vectors alone
(``spectral.window_vectors``): a finite value is the left vector scaled to
total 1, an infinite one the right vector at the anchor letter times the
left one. A failed internal check raises ``InternalInvariantError``.

Occurrence counts, along the anchor's expansion and in return windows of a
quasi-fixed point, are exact and never expand a word: they join the letter
blocks sigma^j(x) of the level, held as lengths, counts and ends
(``_Blocks``, read off the chain's own images). Empirical frequencies test
membership on the word-level index of the level's own chain,
``chain.restrict(i)``; the return windows build no level substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import fsum, gcd, lcm

from .classify import LevelReport, _bottom_report, _classify_level, _level_seed
from .errors import (
    BudgetExceeded,
    DomainError,
    InternalInvariantError,
    MeasureTypeCounting,
    WordNotInLevelLanguage,
)
from .spectral import SpectralProfile, _level_vectors, window_vectors
from .structure import ComponentChain
from .words import LANGUAGE_BUDGET, Record, Substitution, count_occurrences

POWER_BUDGET = 10**12


class MeasureDescriptor(Record):
    __slots__ = ("level", "kind", "anchor", "i_prime", "finite_atoms", "infinite_orbits")

    def __init__(self, level: int, kind: str, anchor: str | None, i_prime: int | None, finite_atoms: int,
                 infinite_orbits: int):
        self.level, self.anchor, self.i_prime = level, anchor, i_prime
        self.kind = kind  # "finite_ergodic" | "infinite_radon" | "counting" | "empty"
        self.finite_atoms, self.infinite_orbits = finite_atoms, infinite_orbits


def measure_type(
    sub: Substitution,
    chain: ComponentChain,
    spectral: SpectralProfile,
    i: int,
    report: LevelReport | None = None,
) -> MeasureDescriptor:
    """The kind of invariant measure level i carries, with its anchor data:
    the descriptor in level i's record, ``("level", i)``.

    A level with theta > 1 reads its kind from the spectrum and its anchor
    from the seed pair (``classify._level_seed``); a level with theta = 1
    reads the full level report. A given ``report`` must be this chain's own
    level-i report (``decomposition_report``'s ``levels[i - 1]``), else
    ``DomainError``; it changes nothing in the answer.
    """
    chain.check_level(i)
    spectral.check(sub, chain)
    if report is not None:
        own = _bottom_report(chain) if i == 1 else _classify_level(chain, spectral, i)
        if report != own:
            raise DomainError(f"the report is not level {i}'s report of this chain")
    return _level(chain, spectral, i).desc


def _measure_type(chain: ComponentChain, spectral: SpectralProfile, i: int) -> MeasureDescriptor:
    if i == 1:
        anchor = _bottom_report(chain).anchor  # None when the bottom is empty
        return MeasureDescriptor(1, "empty" if anchor is None else "finite_ergodic", anchor, None, 0, 0)
    if not spectral.theta_is_one(i):
        kind = "finite_ergodic" if spectral.level_is_finite(i) else "infinite_radon"
        ip = spectral.i_prime(i) if kind == "infinite_radon" else None
        return MeasureDescriptor(i, kind, _level_seed(chain, spectral, i).b, ip, 0, 0)
    report = _classify_level(chain, spectral, i)
    finite_atoms = sum(1 for p in report.point_seeds if p.shift_periodic)
    infinite = sum(1 for p in report.point_seeds if not p.shift_periodic)
    if report.quasi_fixed is not None and report.quasi_fixed.isolated_orbit:
        infinite += 1
    if finite_atoms + infinite == 0:
        return MeasureDescriptor(i, "empty", report.anchor, None, 0, 0)
    return MeasureDescriptor(i, "counting", report.anchor, None, finite_atoms, infinite)


class CylinderValue(Record):
    __slots__ = ("level", "word", "infinite", "exact", "value", "anchor", "algebraic")

    def __init__(self, level: int, word: str, infinite: bool, exact: Fraction | None, value: float | None,
                 anchor: str | None, algebraic: tuple[tuple[int, ...], tuple[str, str]] | None):
        self.level, self.word, self.infinite = level, word, infinite
        self.exact, self.value, self.anchor = exact, value, anchor
        # (char poly, isolating interval) when theta is irrational; immutable,
        # since one note is shared by every value of a cylinder table
        self.algebraic = algebraic

    def as_json(self):
        if self.infinite:
            val = "inf"
        elif self.exact is not None:
            val = str(self.exact)
        else:
            val = self.value
        out = {"value": val, "float": self.value, "anchor_letter": self.anchor}
        if self.algebraic:
            poly, interval = self.algebraic
            out["algebraic"] = {"char_poly": list(poly), "isolating_interval": list(interval)}
        return out


def cylinder_measure(
    sub: Substitution,
    chain: ComponentChain,
    spectral: SpectralProfile,
    i: int,
    v: str,
) -> CylinderValue:
    """Measure of the cylinder anchored at the origin spelling ``v``.

    Two-sided cylinders reduce to one-sided ones by shift invariance, so only
    the concatenated word matters. A word of a built table is one lookup;
    any other runs the checks: the level's kind, the empty word, a letter
    outside the level (which builds no table), then the language.
    """
    chain.check_level(i)
    spectral.check(sub, chain)
    level = _level(chain, spectral, i)
    entry = level.tables.get(len(v), {}).get(v)
    if entry is None:
        kind = level.desc.kind
        if kind == "empty":
            raise DomainError(f"level {i} has no points, no measure to evaluate")
        if kind == "counting":
            raise MeasureTypeCounting(
                f"level {i} carries counting measures on orbits; cylinder values are not exposed"
            )
        if not v:
            raise DomainError("cylinder word must be nonempty")
        if level.letters.issuperset(v):
            entry = level.table(chain, spectral, len(v)).get(v)
        if entry is None:
            raise WordNotInLevelLanguage(f"{v!r} is not in the level-{i} language")
    infinite, exact, value, note = entry
    return CylinderValue(i, v, infinite, exact, value, level.desc.anchor, note)


def _level(chain: ComponentChain, spectral: SpectralProfile, i: int) -> _Level:
    """Level i's record, stored on the chain under ``("level", i)``; the
    public caller has checked i and the profile."""
    return chain.memo(("level", i), _Level, chain, spectral, i)


class _Level:
    """One level's measure data: its descriptor, its letters, the cylinder
    table of each window length asked for, and for an integer theta the
    ``_Ancestors`` state, built on first use. It holds no chain."""

    def __init__(self, chain, spectral, i):
        self.desc = _measure_type(chain, spectral, i)
        self.letters = frozenset(chain.alphabet_at(i))
        self.tables: dict[int, dict[str, tuple]] = {}
        self.ancestors: _Ancestors | None = None

    def table(self, chain, spectral, m: int) -> dict[str, tuple]:
        """``(infinite, exact, float, algebraic note)`` of every word of L_m(i):
        desubstitution from the letters for an integer theta, the window
        vectors (``spectral.window_vectors``) for an irrational one, each
        value with theta's char poly and isolating interval."""
        if m in self.tables:
            return self.tables[m]
        i, anchor = self.desc.level, self.desc.anchor
        theta = spectral.theta(i)
        if theta.as_integer() is not None:
            if self.ancestors is None:
                self.ancestors = _Ancestors(chain, spectral, i, self.desc)
            table = self.ancestors.table(m)
        else:
            theta.refine(Fraction(1, 2**48))
            note = tuple(theta.poly), (str(theta.lo), str(theta.hi))
            delta, gamma, infinite = window_vectors(chain, m, i, spectral)
            # an infinite level's values are gamma at the anchor letter times delta
            weight = 1 if gamma is None else next((gamma[w] for w in delta if w[0] == anchor), None)
            if weight is None:
                raise InternalInvariantError(
                    f"level {i}: anchor letter {anchor!r} starts no language window"
                )
            table = dict.fromkeys(infinite, (True, None, None, None))
            table.update((w, (False, None, float(weight * x), note)) for w, x in delta.items())
        self.tables[m] = table
        return table


def _letter_base(
    chain: ComponentChain, spectral: SpectralProfile, i: int, desc: MeasureDescriptor
) -> tuple[dict[str, int | None], int]:
    """The values of the letters of an integer-theta level i: integer
    numerators at one scale (None for an infinite letter), from the k x k
    letter blocks of levels <= i.

    The letter rows are the incidence counts of each image; every level is
    closed under sigma, so the chain's own images serve. This is the level
    solve of the irrational window tables (``spectral._level_vectors``) on
    letters. A finite level dominates everything below it, so the first
    level attaining the running maximum of theta is i itself: the values are
    the left vector of levels 1..i, level i's block last, with total 1. An
    infinite level is normalized through its anchor letter as in
    ``limit_data``: the solve on levels i'..i gives delta and gamma, the
    Perron vector r of level i's letter block on its new letters and 0 on the
    others, and mu(c) = r(anchor) delta(c) / <gamma, delta>; the letters
    below i' are infinite. Each vector must satisfy its exact eigen identity.
    """
    theta = spectral.theta(i).as_integer()
    first = 1 if desc.kind == "finite_ergodic" else desc.i_prime
    blocks = [chain.new_letters(j) for j in range(first, i + 1)]
    letters = tuple(c for block in blocks for c in block)
    images = map(chain.sub.image, letters)
    rows = {c: {x: img.count(x) for x in set(img)} for c, img in zip(letters, images)}
    level = None if first == 1 else spectral.levels[i - 1]
    delta, gamma = _level_vectors(blocks, rows, theta, f"level {i} letter vector", level)
    if not all(x > 0 for x in delta.values()):
        raise InternalInvariantError(f"level {i}: the left letter vector is not positive")
    if first == 1:
        weight, scale = 1, sum(delta.values())
    else:
        if desc.anchor not in blocks[-1]:
            raise InternalInvariantError(
                f"level {i}: anchor letter {desc.anchor!r} is not a new letter of the level"
            )
        weight, scale = gamma[desc.anchor], sum(gamma[c] * delta[c] for c in letters)
    g = gcd(scale, weight * gcd(*delta.values()))
    nums: dict[str, int | None] = {}
    for j in range(1, first):
        nums.update(dict.fromkeys(chain.new_letters(j)))
    nums.update((c, weight * x // g) for c, x in delta.items())
    return nums, scale // g


# ---------------------------------------------------------------------------
# cylinder tables by desubstitution (integer theta)


class _Ancestors:
    """Cylinder values of one integer-theta level, length by length.

    Let q = theta^p for the least p with ``|sigma^p(c)| >= 2`` for every
    letter c that is not fixed (c -> c); no other letter stays one letter
    long in a valid chain. An ancestor of an m-word v is a level word u with
    a position t < ``|sigma^p(u[0])|`` such that ``sigma^p(u)[t:t+m] = v``
    and ``sigma^p(u[:-1])`` is too short to cover v. The window eigen
    equation, reduced to ancestors by Kolmogorov consistency, gives
    mu(v) = (sum of mu(u) over the ancestors) / q, and an infinite ancestor
    makes v infinite (factors of sigma^p(L(i'-1)) lie in L(i'-1)).

    Ancestors are shorter than v except the same-length ones,
    ``x w y -> last(sigma^p(x)) w first(sigma^p(y))`` for w of fixed letters;
    at m = 2 w is empty, so every 2-word is a node of that straddle map. The
    map is a function, so each length's same-length equations are solved
    along its trees and cycles. Every m-word has a chain of ancestors ending
    in a shorter word, so the words generated from the shorter lengths,
    closed under that map, are exactly L_m(i).

    Values are integer numerators at one scale per length, ``nums[l][w] /
    scales[l]`` (None for an infinite word); each scale divides the next.
    The base is the level's letter values (``_letter_base``), and every
    longer length, m = 2 included, comes from the lengths below it and is
    checked against the one below it. A word u is a shorter ancestor for the
    lengths ``|sigma^p(u[1:-1])| + 2`` to ``|sigma^p(u)|`` (a letter: 2 to
    ``|sigma^p(u)|``): it waits under the first of them and is carried, with
    its image, through the rest.
    """

    def __init__(self, chain: ComponentChain, spectral: SpectralProfile, i: int, desc: MeasureDescriptor):
        base, scale = _letter_base(chain, spectral, i, desc)
        fixed = "".join(c for c in base if chain.sub.image(c) == c)
        images = {c: c for c in base}
        for p in range(1, len(base) + 1):
            images = {c: chain.sub.step(w) for c, w in images.items()}
            if all(len(w) >= 2 for c, w in images.items() if c not in fixed):
                break
        else:
            raise InternalInvariantError("a letter that is not fixed never grows")
        self.q = spectral.theta(i).as_integer() ** p
        self.fixed = fixed
        self.power = {ord(c): w for c, w in images.items()}  # sigma^p for str.translate
        self.size = {c: len(w) for c, w in images.items()}
        self.first = {c: w[0] for c, w in images.items()}
        self.last = {c: w[-1] for c, w in images.items()}
        # pending[n]: the ancestors of the n-words, each with its image once made
        self.pending: dict[int, list[tuple[str, str | None]]] = {}
        self.full: dict[str, int] = {}  # |sigma^p(w)| for the words of the last length
        self.held = 0  # letters in the words of every length so far
        self.nums: list[dict] = [{}]  # indexed by length
        self.scales = [1]
        self._add(1, base, scale, [])

    def table(self, m: int) -> dict[str, tuple]:
        """The values of length m, every length up to m finished first."""
        for n in range(len(self.nums), m + 1):
            self._add(n, *self._generate(n))
        scale = self.scales[m]
        out = {}
        for w, x in self.nums[m].items():
            if x is None:
                out[w] = (True, None, None, None)
            else:
                value = Fraction(x, scale)
                out[w] = (False, value, float(value), None)
        return out

    def _generate(self, m: int) -> tuple[dict[str, int | None], int, list]:
        """The words of length m with their numerators and scale, and the
        ancestors that serve m + 1 as well."""
        prev = self.scales[-1]
        mult = [prev // s for s in self.scales]
        nums, power, size = self.nums, self.power, self.size
        acc: dict[str, int] = {}
        infinite: set[str] = set()
        carry = []
        for u, img in self.pending.get(m, ()):
            if img is None:
                img = u.translate(power)
            if len(img) > m:
                carry.append((u, img))
            lo = max(0, len(img) - size[u[-1]] - m + 1)
            hi = min(size[u[0]], len(img) - m + 1)
            x = nums[len(u)][u]
            if x is None:
                infinite.update(img[t : t + m] for t in range(lo, hi))
                continue
            x *= mult[len(u)]
            for t in range(lo, hi):
                v = img[t : t + m]
                acc[v] = acc.get(v, 0) + x
        step = self._same_length(acc, infinite) if self.fixed or m == 2 else {}
        for w in infinite:
            acc.pop(w, None)
        scale = self.q * prev
        if step:
            y, factor = _solve_same_length(acc, step, self.q)
            acc = {w: x * (factor // self.q) for w, x in acc.items()}
            acc.update(y)
            g = gcd(factor, *acc.values())  # keeps prev | scale
            acc = {w: x // g for w, x in acc.items()}
            scale = prev * (factor // g)
        out: dict[str, int | None] = dict.fromkeys(infinite)
        out.update(acc)
        return out, scale, carry

    def _same_length(self, acc: dict[str, int], infinite: set[str]) -> dict[str, str]:
        """Close the generated words under the same-length map and return
        the map between finite words; words it adds have no shorter
        ancestor, and infinity follows the map."""
        fixed, first, last = self.fixed, self.first, self.last
        step: dict[str, str] = {}
        queue = [w for w in (*acc, *infinite) if not w[1:-1].strip(fixed)]
        for w in queue:  # grows while it is walked
            f = step[w] = last[w[0]] + w[1:-1] + first[w[-1]]
            if f not in acc and f not in infinite:
                acc[f] = 0
                queue.append(f)
        spread = [w for w in step if w in infinite]
        for w in spread:
            f = step[w]
            if f not in infinite:
                infinite.add(f)
                spread.append(f)
        return {w: f for w, f in step.items() if w not in infinite and f not in infinite}

    def _add(self, m: int, nums: dict[str, int | None], scale: int, carry: list) -> None:
        """Check length m against m - 1, then store it and file each word
        under the first longer length it is an ancestor for."""
        held = self.held + m * len(nums)
        if held > LANGUAGE_BUDGET:
            raise BudgetExceeded(f"cylinder tables up to m={m} exceed {LANGUAGE_BUDGET} letters")
        if m > 1:
            _check_kolmogorov(self.nums[m - 1], nums, scale // self.scales[m - 1], m)
        self.nums.append(nums)
        self.scales.append(scale)
        self.held = held
        pending, size, full = self.pending, self.size, self.full
        pending.pop(m, None)
        pending.setdefault(m + 1, []).extend(carry)
        lengths = {}
        for u in nums:
            a, b = size[u[0]], size[u[-1]]
            n = lengths[u] = full[u[:-1]] + b if m > 1 else a
            # u serves the lengths |sigma^p(u[1:-1])| + 2 .. |sigma^p(u)|
            first = n - a - b + 2
            if first <= m:
                first = m + 1
            if first <= n:
                pending.setdefault(first, []).append((u, None))
        self.full = lengths


def _solve_same_length(acc: dict[str, int], step: dict[str, str], q: int) -> tuple[dict, int]:
    """Solve q mu(v) = acc(v) + (sum of mu(u) over step(u) = v) on the words
    the same-length map touches, in integers: returns y and a factor F with
    mu = y / F, in the unit of ``acc``.

    The map is a function: tree words are solved from the leaves, and a
    cycle c_0 -> ... -> c_(k-1) -> c_0 from
    (q^k - 1) y(c_0) = sum_j q^(k-1-j) s(c_(-j)), s holding F acc and the
    trees' inflow. Each mu has a denominator dividing q^n (q^k - 1) over the
    n words touched, so F = q^n lcm(q^k - 1) makes every division exact.
    """
    nodes = set(step) | set(step.values())
    indegree = dict.fromkeys(nodes, 0)
    for f in step.values():
        indegree[f] += 1
    order = [w for w in nodes if not indegree[w]]
    for w in order:  # grows while it is walked
        f = step.get(w)
        if f is not None:
            indegree[f] -= 1
            if not indegree[f]:
                order.append(f)
    cycles, seen = [], set(order)
    for w in nodes:
        if w not in seen:
            cycle = [w]
            while step[cycle[-1]] != w:
                cycle.append(step[cycle[-1]])
            cycles.append(cycle)
            seen.update(cycle)
    factor = q ** len(nodes) * lcm(*(q ** len(c) - 1 for c in cycles))
    s = {w: acc[w] * factor for w in nodes}
    y: dict[str, int] = {}
    for w in order:
        y[w] = s[w] // q
        f = step.get(w)
        if f is not None:
            s[f] += y[w]
    for cycle in cycles:
        k = len(cycle)
        x = sum(q ** (k - 1 - j) * s[cycle[-j]] for j in range(k)) // (q**k - 1)
        y[cycle[0]] = x
        for c in cycle[1:]:
            x = y[c] = (s[c] + x) // q
    return y, factor


def _check_kolmogorov(
    shorter: dict[str, int | None], longer: dict[str, int | None], ratio: int, m: int
) -> None:
    """Raise unless both one-letter extension sums of every finite
    (m-1)-word equal its value, and every m-word extends (m-1)-words on both
    sides that are infinite when it is. ``ratio`` is the quotient of the two
    scales."""
    right, left = dict.fromkeys(shorter, 0), dict.fromkeys(shorter, 0)
    try:
        for w, x in longer.items():
            if x is None:
                if shorter[w[:-1]] is not None or shorter[w[1:]] is not None:
                    raise InternalInvariantError(f"m={m}: infinite {w!r} extends a finite word")
                continue
            right[w[:-1]] += x
            left[w[1:]] += x
    except KeyError:
        raise InternalInvariantError(f"m={m}: {w!r} extends no word of length {m - 1}") from None
    for w, x in shorter.items():
        if x is not None and not right[w] == left[w] == x * ratio:
            raise InternalInvariantError(f"m={m}: extensions of {w!r} do not sum to its value")


# ---------------------------------------------------------------------------
# occurrence counts


class _Blocks:
    """Occurrences of one word v in the blocks ``sigma^j(x)`` of a level's
    letters, power by power (Dumont-Thomas); nothing is expanded.

    Power j holds, for every letter x, ``(|sigma^j(x)|, occurrences of v in
    it, its first m-1 letters, its last m-1 letters)``, each end the whole
    block when it is shorter. A power-(j+1) block joins the power-j blocks of
    sigma(x); an occurrence that crosses a seam lies in ``tail + head``,
    which holds no other, so each distinct seam string is counted once. A
    prefix of ``sigma^k(x)`` joins whole blocks and goes down into one
    partial block per power.
    """

    def __init__(self, chain: ComponentChain, i: int, v: str):
        self.v, self.m1 = v, len(v) - 1
        self.images = {c: chain.sub.image(c) for c in chain.alphabet_at(i)}
        self.seams: dict[str, int] = {}
        self.powers = [{c: (1, int(c == v), c[: self.m1], c[: self.m1]) for c in self.images}]

    def at(self, j: int) -> dict[str, tuple]:
        """The blocks of power j, built up to it."""
        while len(self.powers) <= j:
            prev = self.powers[-1]
            self.powers.append({c: self._join(map(prev.get, w)) for c, w in self.images.items()})
        return self.powers[j]

    def reach(self, anchor: str, target: int) -> int:
        """The least k with ``|sigma^k(anchor)| >= target``."""
        k = stall = 0
        while (size := self.at(k)[anchor][0]) < target:
            k += 1
            stall = stall + 1 if self.at(k)[anchor][0] == size else 0
            if stall > 2 * len(self.images) + 4:
                raise BudgetExceeded("anchor expansion does not grow")
        return k

    def count(self, w: str, k: int) -> int:
        """Occurrences of v in ``sigma^k(w)``."""
        return self._join(map(self.at(k).get, w))[1]

    def prefix(self, x: str, k: int, n: int) -> int:
        """Occurrences of v inside the first n letters of ``sigma^k(x)``."""
        size = self.at(k)[x][0]
        if n > size:
            raise InternalInvariantError(f"prefix blocks cover {size} letters, expected {n}")
        pieces, taken = [], 0
        while taken < n:  # the rest of the prefix starts the power-k blocks of the word x
            level = self.at(k)
            for y in x:
                if taken + level[y][0] > n:
                    break
                pieces.append(level[y])
                taken += level[y][0]
            k, x = k - 1, self.images[y]
        return self._join(pieces)[1]

    def _join(self, blocks) -> tuple:
        m1, seams = self.m1, self.seams
        size, count, head, tail = 0, 0, "", ""
        for b in blocks:
            seam = tail + b[2]
            if seam not in seams:
                seams[seam] = count_occurrences(self.v, seam).count
            count += b[1] + seams[seam]
            head = head if size >= m1 else (head + b[2])[:m1]
            tail = b[3] if b[0] >= m1 else (tail + b[3])[-m1:]  # m1 > 0 here
            size += b[0]
        return size, count, head, tail


class EmpiricalFrequency(Record):
    __slots__ = ("level", "word", "length", "power", "ratio", "scaled_power", "scaled_count", "scaled_value")

    def __init__(self, level: int, word: str, length: int, power: int, ratio: float,
                 scaled_power: int | None = None, scaled_count: int | None = None,
                 scaled_value: float | None = None):
        self.level, self.word, self.length = level, word, length
        self.power, self.ratio = power, ratio
        self.scaled_power, self.scaled_count, self.scaled_value = scaled_power, scaled_count, scaled_value


def empirical_frequency(
    sub: Substitution,
    chain: ComponentChain,
    spectral: SpectralProfile,
    i: int,
    v: str,
    L: int,
) -> EmpiricalFrequency:
    """Occurrence statistics of ``v`` along the expansion of the anchor letter.

    Returns the frequency in the length-L prefix of the first power image of
    length >= L, and for infinite-measure levels also the occurrence count in
    a full power image scaled by the level eigenvalue (the windowed count
    differs from the plain count by less than the window length).

    Both counts are exact and never expand the prefix: they join the letter
    blocks ``sigma^j(x)`` of the level (``_Blocks``), k ~ log L powers. The
    scaled count is the window count of ``aux^k(u)``, u the least m-word that
    starts with the anchor: the occurrences in ``sigma^k(u)`` less those in
    ``sigma^k(u[1:])``.
    """
    chain.check_level(i)
    spectral.check(sub, chain)
    desc = _level(chain, spectral, i).desc
    if desc.kind not in ("finite_ergodic", "infinite_radon"):
        raise DomainError(f"level {i} has no expanding anchor to count along")
    if not v or len(v) > L:
        raise DomainError("need a nonempty word no longer than the prefix")
    m = len(v)
    sub_i, chain_i = chain.restrict(i)
    words = chain_i.word_levels(m)
    if v not in words:
        raise WordNotInLevelLanguage(f"{v!r} is not in the level-{i} language")
    if L > POWER_BUDGET:
        raise BudgetExceeded(f"prefix length {L} exceeds the power budget {POWER_BUDGET}")
    anchor = desc.anchor
    blocks = _Blocks(chain, i, v)
    k = blocks.reach(anchor, L)
    ratio = blocks.prefix(anchor, k, L) / L
    result = EmpiricalFrequency(level=i, word=v, length=L, power=k, ratio=ratio)
    if desc.kind == "infinite_radon":
        # k2 is the last power within the budget, one below the first past it
        k2 = blocks.reach(anchor, POWER_BUDGET + 1) - 1
        u = min((w for w in words if w[0] == anchor), key=sub_i.alphabet.word_key)
        count = blocks.count(u, k2) - blocks.count(u[1:], k2)
        # int / int rounds the exact quotient once: an integer theta needs no Fraction
        theta = spectral.theta(i)
        base = theta.as_integer() or float(theta)
        scaled = count / base**k2
        result.scaled_power, result.scaled_count, result.scaled_value = k2, count, scaled
    return result


class UniformityResult(Record):
    __slots__ = ("level", "word", "window_count", "target", "ratios", "max_deviation")

    def __init__(self, level: int, word: str, window_count: int, target: float, ratios: dict[int, float],
                 max_deviation: float):
        self.level, self.word, self.window_count = level, word, window_count
        self.target, self.ratios, self.max_deviation = target, ratios, max_deviation


def uniformity_check(
    sub: Substitution,
    chain: ComponentChain,
    spectral: SpectralProfile,
    i: int,
    v: str,
    n: int,
    offsets: tuple[int, ...] = (0,),
) -> UniformityResult:
    """Return-word frequency stability along the quasi-fixed point.

    Counts ``v`` in the windows of the quasi-fixed point's right half that run
    from one new-letter visit to the n-th next, and compares the frequencies
    with the ratio of cylinder values they should converge to: mu(v) over the
    total of mu(w) for the |v|-words w that start with a new letter. A
    falsification harness, not a proof.

    The forward seed gives ``sigma^k(b) = P b v`` with P over lower letters, so
    the right half ``R = b v sigma^k(v) ...`` satisfies ``sigma^k(R) = P R`` and
    ``sigma^K(b)`` ends in a prefix of R for every multiple K of k. Visits come
    from a descent through new-letter counts of ``sigma^t``, occurrences from
    the prefix counts of the letter blocks ``sigma^t(x)`` (``_Blocks``), which
    also give the lengths; nothing is expanded.
    """
    chain.check_level(i)
    spectral.check(sub, chain)
    if i < 2:
        raise DomainError("uniformity windows are defined on levels >= 2")
    if n < 1 or not offsets or min(offsets) < 0:
        raise DomainError("need a positive window size and at least one offset, all nonnegative")
    if spectral.theta_is_one(i):
        raise DomainError(f"level {i} has eigenvalue 1; no frequency target exists")
    seed = _level_seed(chain, spectral, i)
    new = set(chain.new_letters(i))
    if not any(c in new for c in v):
        raise DomainError("the word must contain a new letter of the level")
    m = len(v)
    # the table's keys are exactly L_m(i), and as in ``cylinder_measure`` a
    # letter outside the level builds none; mu(v) over the mass of the
    # m-words that start with a new letter, none of them infinite: exact
    # where the table is, else correctly rounded
    level = _level(chain, spectral, i)
    values = level.table(chain, spectral, m) if level.letters.issuperset(v) else {}
    if v not in values:
        raise WordNotInLevelLanguage(f"{v!r} is not in the level-{i} language")
    _, exact, value, _ = values[v]
    if exact is not None:
        target = float(exact / sum(e[1] for w, e in values.items() if w[0] in new))
    else:
        target = value / fsum(e[2] for w, e in values.items() if w[0] in new)
    if seed.orientation != "forward":  # theta > 1 puts a lower-new word in L_2
        raise InternalInvariantError(f"level {i}: theta > 1 but the seed is not forward")

    # New-letter counts of sigma^t, t = 0..K, beside the blocks' lengths. K
    # grows by k until sigma^K(b) = (lower prefix) R[:covered] holds the visits.
    blocks, b = _Blocks(chain, i, v), seed.b
    images = blocks.images
    visits = [{c: int(c in new) for c in images}]
    covered = 1
    while visits[-1][b] <= max(offsets) + n:
        lengths = blocks.at(len(visits) - 1)
        covered += sum(lengths[c][0] for c in seed.v)
        if covered > POWER_BUDGET:
            raise BudgetExceeded(f"return windows exceed the power budget {POWER_BUDGET}")
        for _ in range(seed.k):
            visits.append({c: sum(visits[-1][x] for x in img) for c, img in images.items()})
    K = len(visits) - 1

    def select(j: int) -> int:  # position in sigma^K(b) of R's j-th new letter, R[0] = b the 0-th
        pos, c = 0, b
        for t in range(K - 1, -1, -1):
            lengths = blocks.at(t)
            for x in images[c]:
                if visits[t][x] > j:
                    break
                j -= visits[t][x]
                pos += lengths[x][0]
            c = x
        return pos

    # The window from visit j to visit j + n, both inclusive, holds the
    # occurrences inside sigma^K(b)[:hi + 1] and not inside its [:lo + m - 1].
    ratios: dict[int, float] = {}
    for j in sorted(set(offsets)):
        lo, hi = select(j), select(j + n)
        ratios[j] = (blocks.prefix(b, K, hi + 1) - blocks.prefix(b, K, min(lo + m - 1, hi + 1))) / n
    deviation = max(abs(r - target) for r in ratios.values())
    return UniformityResult(
        level=i, word=v, window_count=n, target=target, ratios=ratios, max_deviation=deviation
    )


def level_measure_table(
    sub: Substitution,
    chain: ComponentChain,
    spectral: SpectralProfile,
    i: int,
    max_m: int,
) -> dict:
    """Descriptor plus cylinder values for all words up to length ``max_m``."""
    chain.check_level(i)
    spectral.check(sub, chain)
    level = _level(chain, spectral, i)
    desc = level.desc
    out: dict = {"level": i, "kind": desc.kind, "anchor_letter": desc.anchor}
    if desc.kind == "infinite_radon":
        out["i_prime"] = desc.i_prime
    if desc.kind == "counting":
        out["finite_atoms"] = desc.finite_atoms
        out["infinite_orbits"] = desc.infinite_orbits
    if desc.kind in ("finite_ergodic", "infinite_radon"):
        out["cylinders"] = cylinders = {}
        for m in range(1, max_m + 1):
            table = level.table(chain, spectral, m)
            for w in sorted(table, key=sub.alphabet.word_key):
                inf, exact, value, note = table[w]
                cylinders[w] = CylinderValue(i, w, inf, exact, value, desc.anchor, note).as_json()
    return out
