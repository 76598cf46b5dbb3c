"""Structural classification of the level sets of the subshift.

For each level i >= 2 a seed identity  sigma^k(ab) = u a b v  (or its mirror)
drives a case split on u and v: it decides whether the level carries a dense
locally compact piece, an isolated quasi-fixed orbit, or only periodic
points. Periodic points are enumerated as finite seeds built from letters
whose images fix their first or last letter, filtered by two-letter language
membership, and deduplicated by comparing central windows.

The bottom fixed letter s (when the first level is a single letter mapped to
itself) gets special treatment: whether arbitrarily long s-runs exist, and
which words delta s^p gamma are central words of periodic points, is decided
exactly from the first/last non-s letter maps and one closure of the words
y s^g z under a gap-weighted step, never by bounded expansion or a cap on p.
Each such fact is one number, the level at which it starts to hold.

``decomposition_report``, the one public function, checks the profile and
reads the fixed bottom letter, the two-letter word table and the oriented
images once per chain, then hands each level's row to the seed walk
(``_seed_pair``) and to ``_level_report``; ``measures`` reads one level
through ``_level_seed`` and ``_classify_level``. The letter cycles and the
s-run record need a fixed bottom letter or a pair-seed word; the seed
check's crossing test decides the case. Everything is stored on the chain:

- ``("seed_pair", i)``: the seed pair of level i (``_seed_pair``), stored
  by its first reader and checked against the level's eigenvalue on every
  read (``_level_seed``, ``_level_report``). A level with theta > 1 needs
  nothing more: ``measures`` reads its anchor here, for descriptors, cylinder
  values, empirical frequencies and uniformity windows.
- ``("classify_level", i)``: the level report (``_level_report``): the seed
  pair, the case split and the periodic-point census (none is sought
  without s or a pair-seed word), read by ``decomposition_report`` and by
  the measures of theta = 1 levels. The census runs once per level, inside it.
- ``("two_words",)``: for every level i, among the two-letter words new at
  that level (in L_2(i) but not in L_2(i-1)), the least forward crossing word
  (a letter below the level, then a new one), the least backward one (the
  mirror), in the alphabet's word order, and the sorted pair-seed words (both
  letters below the level), read off the words the chain's one sweep at
  m = 2 adds at each level (``chain.level_words(2)``); no index is built.
- ``("letter_cycles",)``: the cycle lengths of the first-letter and the
  last-letter maps, found in one O(|alphabet|) walk (``_eventual_cycles``).
- ``("s_runs",)``: with a fixed bottom letter s only, the level from which
  every power of s is a word, for each other letter c the levels from which
  s^p c and c s^p are words for every p, and the ``s_middle`` words of each
  level (``_s_run_levels``). The census tests ``== i`` (new at level i), the
  level case and the minimal sets ``<= i``.
- ``("oriented_images", mirrored)``: every image, written backwards for the
  mirror system, as a dict and as a ``str.translate`` table, with the position
  of its first letter on the letter's own level.
- ``("fixed_bottom",)``: the fixed bottom letter s (level 1 is s -> s), or None.

Every key is stored through ``ComponentChain.memo``, the one memo door;
nothing here reads the stored dict itself. ``decomposition_report`` checks
its profile once, first; the private code takes the chain alone. No level
builds a set of its letters: a letter's level is read from the chain's
letter -> level index (``chain._level_of``), and no word longer than two is
looked up. Only the periodicity probe at level 3 may need a level
substitution of its own, the restriction of the system to A_2, when its
bound on an image iterate does not decide; it builds no level chain.
"""

from __future__ import annotations

from math import lcm

from .errors import BudgetExceeded, DomainError, InternalInvariantError
from .structure import ComponentChain
from .spectral import SpectralProfile
from .words import Record, Substitution, apply, count_occurrences, language

SEED_BUDGET = 10**7  # letters in one expansion of a seed pair
WINDOW_CAP = 4096  # longest central window of a periodic-point seed


# ---------------------------------------------------------------------------
# letter-map cycle machinery


def _eventual_cycles(step: dict[str, str]) -> dict[str, frozenset[str]]:
    """The cycle each letter's forward orbit ends in, under a functional map.

    The letters whose orbits end in one cycle share its set, and a letter
    lies on its cycle iff it is in the set. Each letter is walked once, so
    this costs O(|alphabet|) however the orbits are nested.
    """
    cycle_of: dict[str, frozenset[str] | None] = {}
    for x in step:
        path: list[str] = []
        while x not in cycle_of:
            cycle_of[x] = None  # on the current walk
            path.append(x)
            x = step[x]
        cycle = cycle_of[x]
        if cycle is None:  # the walk closed a cycle no earlier walk met
            cycle = frozenset(path[path.index(x) :])
        for c in path:
            cycle_of[c] = cycle
    return cycle_of


def _letter_cycles(chain: ComponentChain) -> tuple[dict[str, int], dict[str, int]]:
    """Cycle lengths under the first-letter and the last-letter map, once per
    chain, for the letters on a cycle.

    Every level is closed under the substitution, so a letter's orbit, and
    whether and on which cycle it ends, is the same on every level that
    holds the letter.
    """
    return chain.memo(("letter_cycles",), _first_last_cycles, chain.sub)


def _first_last_cycles(sub: Substitution) -> tuple[dict[str, int], dict[str, int]]:
    first = {c: img[0] for c, img in zip(sub.alphabet, sub.images)}
    last = {c: img[-1] for c, img in zip(sub.alphabet, sub.images)}
    return tuple(
        {c: len(cycle) for c, cycle in _eventual_cycles(step).items() if c in cycle}
        for step in (first, last)
    )


def _two_words(chain: ComponentChain) -> list[tuple[str | None, str | None, list[str]]]:
    """Per level, its least forward and least backward crossing word (None if
    there is none) and its sorted pair-seed words, among the two-letter words
    new at the level, from one sweep (see the module docstring)."""
    return chain.memo(("two_words",), _level_differences, chain)


def _level_differences(chain: ComponentChain) -> list[tuple[str | None, str | None, list[str]]]:
    level = chain._level_of
    key = chain.sub.alphabet.word_key
    rows = []
    for e, new in enumerate(chain.level_words(2), start=1):
        forward = backward = None
        pairs = []
        for w in new:  # w is new at level e: no letter lies above it
            if level[w[0]] < e:
                if level[w[1]] < e:
                    pairs.append(w)
                elif forward is None or key(w) < key(forward):
                    forward = w
            elif level[w[1]] < e and (backward is None or key(w) < key(backward)):
                backward = w
        pairs.sort()
        rows.append((forward, backward, pairs))
    return rows


def _fixed_bottom(chain: ComponentChain) -> str | None:
    """The fixed bottom letter s, when level 1 is one letter mapped to itself
    (the bottom subshift is empty); None otherwise. Read once per chain."""
    bottom = chain.components[0]
    return chain.memo(("fixed_bottom",), lambda: bottom[0] if bottom == (chain.sub.image(bottom[0]),) else None)


_SRuns = tuple[int, dict[str, int], dict[str, int], dict[int, list[tuple[str, str, int]]]]


def _s_run_levels(sub: Substitution, s: str, new_letters: tuple[tuple[str, ...], ...]) -> _SRuns:
    """The level at which each s-run fact starts to hold, for the fixed letter
    s and the levels that add ``new_letters``; n + 1 where it never does.

    Returns the level from which every power of s is a language word; per
    letter c other than s, ``left[c]`` and ``right[c]``, the level from which
    s^p c, and c s^p, is one for every p; and per level i, ``middle[i]``.
    The first (last) non-s letter map sends c to the first (last) letter of
    its image other than s, weighed by the s's before (after) it. Every
    power of s is a word iff some cycle of either map has positive weight.
    s^p c is one for every p iff c lies on a cycle of the first map that has
    positive weight, or that the first map carries z to, for a word y s^g z
    with y's cycle under the last map of positive weight; c s^p mirrors it.

    A letter's maps and cycles are the same on every level that holds it,
    and a cycle's letters share one level. Only the words y s^g z between
    non-s letters depend on the level. As triples (y, z, g) they are seeded
    by the adjacencies inside images and closed under the step (y, z, g) ->
    (last y, first z, trail y + g + lead z): s is fixed, so each lies in one
    image or is the step of a triple one desubstitution down. Walking the
    seeds level by level, one path each, tags a triple with the first level
    that reaches it. The weight is never negative, so a path whose pair
    (y, z) comes back has met a triple it holds or closed a cycle of positive
    weight, beyond which every gap grows; it stops there, within |pairs| + 1
    steps. A pair's level is the least of its triples'.

    ``middle[i]``, sorted (delta, gamma, p): the triples new at level i with
    p >= 1 and both letters below i, delta on a cycle of the raw last-letter
    map and gamma on one of the raw first-letter map. Such a letter has trail
    (lead) 0 all around its cycle, so these are exactly the triples on a
    zero-weight cycle of the step, the central words of the sigma^q-periodic
    points (q the lcm of the cycle lengths), at every gap.
    """
    if sub.image(s) != s:
        raise DomainError(f"{s!r} is not a fixed letter")
    never = len(new_letters) + 1
    level: dict[str, int] = {}
    first, last = {}, {}  # the first and the last non-s letter of each image
    lead, trail = {}, {}  # the s's before the first and after the last
    seeds: list[tuple[int, str, str, int]] = []
    for i, letters in enumerate(new_letters, start=1):
        for c in letters:
            if c == s:
                continue
            img = sub.image(c)
            spots = [k for k, x in enumerate(img) if x != s]
            if not spots:
                raise DomainError(f"image of {c!r} collapses to the fixed letter {s!r}")
            level[c] = i
            first[c], last[c] = img[spots[0]], img[spots[-1]]
            lead[c], trail[c] = spots[0], len(img) - 1 - spots[-1]
            seeds.extend((i, img[j], img[k], k - j - 1) for j, k in zip(spots, spots[1:]))
    f_cycles, g_cycles = _eventual_cycles(first), _eventual_cycles(last)
    # each cycle of positive weight, at its letters' level
    f_heavy = {cyc: level[min(cyc)] for cyc in set(f_cycles.values()) if any(map(lead.get, cyc))}
    g_heavy = {cyc: level[min(cyc)] for cyc in set(g_cycles.values()) if any(map(trail.get, cyc))}
    s_level = min([*f_heavy.values(), *g_heavy.values()], default=never)
    triples: dict[tuple[str, str, int], int] = {}
    for e, y, z, g in seeds:  # level by level: a triple keeps the first level that reaches it
        path: set[tuple[str, str]] = set()  # the pairs this path has met
        while (y, z, g) not in triples and (y, z) not in path:
            triples[(y, z, g)] = e
            path.add((y, z))
            y, z, g = last[y], first[z], trail[y] + g + lead[z]
    f_level, g_level = dict(f_heavy), dict(g_heavy)  # then the cycles fed across a gap
    middle: dict[int, list[tuple[str, str, int]]] = {}
    for (y, z, g), e in sorted(triples.items()):
        fz, gy = f_cycles[z], g_cycles[y]
        if gy in g_heavy and e < f_level.get(fz, never):
            f_level[fz] = e
        if fz in f_heavy and e < g_level.get(gy, never):
            g_level[gy] = e
        if g and y in gy and z in fz and not (gy in g_heavy or fz in f_heavy) and level[y] < e > level[z]:
            middle.setdefault(e, []).append((y, z, g))
    left = {c: f_level.get(cyc, never) if c in cyc else never for c, cyc in f_cycles.items()}
    right = {c: g_level.get(cyc, never) if c in cyc else never for c, cyc in g_cycles.items()}
    return s_level, left, right, middle


def _s_runs(chain: ComponentChain) -> _SRuns:
    """``_s_run_levels`` of the chain's fixed bottom letter, once per chain."""
    return chain.memo(("s_runs",), _s_run_levels, chain.sub, _fixed_bottom(chain), chain.components)


# ---------------------------------------------------------------------------
# seed pairs


class SeedPair(Record):
    """Word identity anchoring a level: sigma^k(ab) = u a b v (forward) or
    sigma^k(ba) = v b a u (reverse), with a below the level and b new.

    Not frozen: a frozen record sets each field through
    ``object.__setattr__``, and one seed is built per level. A stored seed
    is shared by every reader of the chain memo, so it is read-only by that
    contract, as a ``LevelReport`` is.
    """

    __slots__ = ("level", "a", "b", "k", "u", "v", "orientation")

    def __init__(self, level: int, a: str, b: str, k: int, u: str, v: str, orientation: str):
        self.level, self.a, self.b = level, a, b
        self.k, self.u, self.v = k, u, v
        self.orientation = orientation  # "forward" | "reverse"


def _seed_pair(chain: ComponentChain, i: int, row: tuple, oriented: dict) -> SeedPair:
    """The seed identity of level i >= 2, read off the level's row of
    ``_two_words``.

    The search starts from the level's least forward crossing word, else its
    least backward one. The level's letters are closed under the
    substitution, so its images are read from the chain's own, stored on the
    chain for each orientation with each image's first own-level letter
    (``oriented`` keeps the tables read so far across the levels): a reverse
    seed runs on the mirror system, whose powers are the mirrored powers of
    the substitution. Expanding sigma^k(ab) may take at most ``SEED_BUDGET``
    letters.
    """
    forward, backward, _ = row
    mirrored = forward is None
    if not mirrored:
        a0, b0 = forward
    elif backward is None:
        raise InternalInvariantError(f"level {i} has no crossing pair in its two-letter language")
    else:
        b0, a0 = backward
    if mirrored not in oriented:
        oriented[mirrored] = chain.memo(("oriented_images", mirrored), _image_tables, chain, mirrored)
    images, table, first_new = oriented[mirrored]
    level = chain._level_of  # a letter lies below level i iff its level is < i

    seen: dict[tuple[str, str], int] = {}
    a_j, b_j = a0, b0
    j = 0
    while (a_j, b_j) not in seen:
        seen[(a_j, b_j)] = j
        img_b = images[b_j]
        pos = first_new[b_j]
        nxt_b = img_b[pos]
        nxt_a = img_b[pos - 1] if pos >= 1 else images[a_j][-1]
        a_j, b_j = nxt_a, nxt_b
        j += 1
    k = j - seen[(a_j, b_j)]
    a, b = a_j, b_j

    # expansion budget: |sigma^k(ab)| grows geometrically with k
    wa, wb = a, b
    for _ in range(k):
        if sum(map(len, map(images.__getitem__, wa + wb))) > SEED_BUDGET:
            raise BudgetExceeded(f"seed expansion exceeds {SEED_BUDGET} letters")
        wa, wb = wa.translate(table), wb.translate(table)
    w = wa + wb
    p_b = len(wa) + _first_new(wb, level, i)
    if w[p_b] != b or w[p_b - 1] != a:
        raise InternalInvariantError(f"level {i}: sigma^{k}({a}{b}) does not contain {a}{b} at the seed")
    u, v = w[: p_b - 1], w[p_b + 1 :]
    if max(map(level.__getitem__, u), default=0) >= i:
        raise InternalInvariantError(f"level {i}: the seed prefix leaves the levels below")
    if mirrored:
        u, v = u[::-1], v[::-1]
    return SeedPair(i, a, b, k, u, v, "reverse" if mirrored else "forward")


def _first_new(word: str, level: dict[str, int], i: int) -> int:
    """The position of the first letter of ``word`` that level i adds."""
    for p, c in enumerate(word):
        if level[c] == i:
            return p
    raise InternalInvariantError(f"level {i}: an image of a new letter holds no new letter")


def _image_tables(
    chain: ComponentChain, mirrored: bool
) -> tuple[dict[str, str], dict[int, str], dict[str, int]]:
    """Each letter's image, written backwards when ``mirrored``, as a dict and
    as a ``str.translate`` table, and the position of the first letter of
    each image that lies on the letter's own level."""
    level = chain._level_of
    images = dict(zip(chain.sub.alphabet.letters, chain.sub.images))
    if mirrored:
        images = {c: img[::-1] for c, img in images.items()}
    first_new = {c: _first_new(img, level, level[c]) for c, img in images.items()}
    return images, {ord(c): img for c, img in images.items()}, first_new


# ---------------------------------------------------------------------------
# point seeds and their windows


class PointSeed(Record):
    """``kind`` is "fixed_letter_power" or "bilateral_limit", and ``form``
    one of "pair", "s_left", "s_right" and "s_middle"."""

    __slots__ = ("kind", "form", "gamma", "delta", "q", "middle_s", "shift_periodic", "window", "center",
                 "radius")

    def __init__(self, kind: str, form: str | None = None, gamma: str | None = None, delta: str | None = None,
                 q: int = 1, middle_s: int = 0, shift_periodic: bool = False, window: str = "",
                 center: int = 0, radius: int = 0):
        self.kind, self.form, self.gamma, self.delta = kind, form, gamma, delta
        self.q, self.middle_s, self.shift_periodic = q, middle_s, shift_periodic
        self.window, self.center, self.radius = window, center, radius


def _grow(sub: Substitution, word: str, q: int, target: int, budget: int) -> str:
    while len(word) < target:
        if len(word) * 2 > budget:
            raise BudgetExceeded("window expansion budget exceeded")
        word = apply(sub, word, q)
    return word


def _window_radius(sub: Substitution, letters: tuple[str, ...], q: int, cap: int) -> int:
    """Twice the longest |sigma^j(c)|, j = min(2q, 8), capped; no word is written out."""
    length = dict.fromkeys(letters, 1)
    for _ in range(min(2 * q, 8)):
        length = {c: sum(map(length.__getitem__, sub.image(c))) for c in letters}
    return min(2 * max(length.values()), cap)


def _make_windows(
    sub: Substitution, letters: tuple[str, ...], s: str | None, seeds: list[PointSeed], cap: int
) -> None:
    """Central windows of the seeds of the level with alphabet ``letters``."""
    radii = {q: _window_radius(sub, letters, q, cap) for q in {seed.q for seed in seeds}}
    for seed in seeds:
        if seed.kind == "fixed_letter_power":
            radius = cap // 2
            seed.window, seed.center, seed.radius = s * (2 * radius), radius, radius
            continue
        radius = radii[seed.q]
        budget = 64 * radius * max(len(sub.image(c)) for c in letters) + 1024
        if seed.form in ("pair", "s_right", "s_middle"):
            left_letter = seed.gamma if seed.form == "pair" else seed.delta
            left = _grow(sub, left_letter, seed.q, radius, budget)[-radius:]
        else:
            left = s * radius
        if seed.form in ("pair", "s_left", "s_middle"):
            right_letter = seed.delta if seed.form == "pair" else seed.gamma
            right = _grow(sub, right_letter, seed.q, radius, budget)[:radius]
        else:
            right = s * radius
        middle = (s or "") * seed.middle_s
        seed.window = left + middle + right
        seed.center = len(left)
        seed.radius = radius


def _same_orbit_window(a: PointSeed, b: PointSeed) -> bool:
    h = min(a.radius, b.radius) // 2
    if h == 0:
        return a.window == b.window
    ref = b.window[b.center - h : b.center + h]
    for shift in range(-h, h + 1):
        lo = a.center - h + shift
        if lo < 0 or lo + 2 * h > len(a.window):
            continue
        if a.window[lo : lo + 2 * h] == ref:
            return True
    return False


def _pair_seeds(chain: ComponentChain, i: int, s: str | None) -> list[PointSeed]:
    """``pair`` seeds of level i, in sorted (gamma, delta) order.

    gamma delta is a two-letter word new at level i, i.e. in L_2(i) but not
    in L_2(i-1), with both letters below the level and neither the fixed
    letter s; gamma lies on a cycle of the last-letter map and delta on one
    of the first-letter map, and q is the lcm of the two cycle lengths. The
    words with both letters below the level come sorted from the chain's
    per-level table (``_two_words``); only s and the cycles are tested here.
    """
    f_cycles, g_cycles = _letter_cycles(chain)
    return [
        PointSeed(kind="bilateral_limit", form="pair", gamma=w[0], delta=w[1],
                  q=lcm(g_cycles[w[0]], f_cycles[w[1]]))
        for w in _two_words(chain)[i - 1][2]
        if s != w[0] and s != w[1] and w[0] in g_cycles and w[1] in f_cycles
    ]


def _periodic_point_seeds(chain: ComponentChain, i: int) -> list[PointSeed]:
    """Periodic-point seeds of level i, deduplicated by central windows.

    The forms around a fixed bottom letter s are new at level i where the
    chain's s-run facts (``_s_runs``) start to hold at level i; without s, a
    level with no ``pair`` seed has none at all.
    """
    s = _fixed_bottom(chain)
    seeds = _pair_seeds(chain, i, s)
    if s is not None:
        lower = chain.alphabet_at(i - 1)
        s_level, left, right, middle = _s_runs(chain)
        f_cycles, g_cycles = _letter_cycles(chain)
        f_cyclic = sorted((c, f_cycles[c]) for c in lower if c != s and c in f_cycles)
        g_cyclic = sorted((c, g_cycles[c]) for c in lower if c != s and c in g_cycles)
        if s_level == i:
            seeds.append(PointSeed(kind="fixed_letter_power", gamma=s, delta=s, shift_periodic=True))
        for gamma, pf in f_cyclic:
            if left[gamma] == i:
                seeds.append(PointSeed(kind="bilateral_limit", form="s_left", gamma=gamma, q=pf))
        for delta, pg in g_cyclic:
            if right[delta] == i:
                seeds.append(PointSeed(kind="bilateral_limit", form="s_right", delta=delta, q=pg))
        for delta, gamma, p in middle.get(i, ()):
            seeds.append(PointSeed(kind="bilateral_limit", form="s_middle", gamma=gamma,
                                   delta=delta, q=lcm(g_cycles[delta], f_cycles[gamma]), middle_s=p))
    _make_windows(chain.sub, chain.alphabet_at(i), s, seeds, WINDOW_CAP)
    kept: list[PointSeed] = []
    for seed in seeds:
        if not any(_same_orbit_window(seed, other) for other in kept):
            kept.append(seed)
    for seed in kept:
        if seed.kind == "bilateral_limit" and seed.form in ("pair", "s_middle"):
            head, tail = (seed.delta, seed.gamma) if seed.form == "s_middle" else (seed.gamma, seed.delta)
            core = head + (s or "") * seed.middle_s + tail
            if count_occurrences(core, seed.window).count != 1:
                raise InternalInvariantError(
                    f"level {i}: central word {core!r} of an isolated periodic point "
                    "is not unique in its window"
                )
    return kept


# ---------------------------------------------------------------------------
# level reports and the census


class QuasiFixedSeed(Record):
    __slots__ = ("seed", "primitive_type", "positively_recurrent", "isolated_orbit")

    def __init__(self, seed: SeedPair, primitive_type: bool, positively_recurrent: bool,
                 isolated_orbit: bool):
        self.seed, self.primitive_type = seed, primitive_type
        self.positively_recurrent, self.isolated_orbit = positively_recurrent, isolated_orbit


class LevelReport(Record):
    """One level's classification; ``point_seeds`` and ``notes`` default to
    new empty lists."""

    __slots__ = ("level", "case", "seed", "quasi_fixed", "anchor", "point_seeds", "x_i_nonempty", "notes")

    def __init__(self, level: int, case: str, seed: SeedPair | None = None,
                 quasi_fixed: QuasiFixedSeed | None = None, anchor: str | None = None,
                 point_seeds: list[PointSeed] | None = None, x_i_nonempty: bool = False,
                 notes: list[str] | None = None):
        self.level, self.case, self.seed, self.quasi_fixed = level, case, seed, quasi_fixed
        self.anchor, self.x_i_nonempty = anchor, x_i_nonempty
        self.point_seeds = [] if point_seeds is None else point_seeds
        self.notes = [] if notes is None else notes


def _bottom_report(chain: ComponentChain) -> LevelReport:
    if _fixed_bottom(chain) is not None:
        return LevelReport(level=1, case="bottom_empty")
    return LevelReport(
        level=1, case="bottom_minimal", anchor=chain.new_letters(1)[0], x_i_nonempty=True
    )


def _level_seed(chain: ComponentChain, spectral: SpectralProfile, i: int) -> SeedPair:
    """The seed pair of level i >= 2 (``("seed_pair", i)``), checked against
    the level's eigenvalue: all a theta > 1 level reads of the classification."""
    seed = chain.memo(("seed_pair", i), _seed_pair, chain, i, _two_words(chain)[i - 1], {})
    _check_seed(chain, seed, spectral.theta_is_one(i))
    return seed


def _check_seed(chain: ComponentChain, seed: SeedPair, theta_one: bool) -> bool:
    """Raise unless the seed's shape agrees with theta; return whether u and v
    are nonempty and v holds a new letter (the excursions cross)."""
    i = seed.level
    if seed.u == "":
        if chain.sub.image(seed.a) != seed.a or theta_one:
            raise InternalInvariantError(f"level {i}: a seed with empty u needs a fixed letter and theta > 1")
    elif seed.v == "":
        if not theta_one:
            raise InternalInvariantError(f"level {i}: a seed with empty v needs theta = 1")
    elif i in map(chain._level_of.get, seed.v):
        if theta_one:
            raise InternalInvariantError(f"level {i}: excursions into new letters need theta > 1")
        return True
    elif not theta_one or len(chain.components[i - 1]) != 1:
        raise InternalInvariantError(
            f"level {i}: an isolated quasi-fixed seed needs theta = 1 and one new letter")
    return False


def _classify_level(chain: ComponentChain, spectral: SpectralProfile, i: int) -> LevelReport:
    """The report of level i >= 2, stored on the chain under
    ``("classify_level", i)``, as ``decomposition_report`` makes it."""
    row = _two_words(chain)[i - 1]
    seed = chain.memo(("seed_pair", i), _seed_pair, chain, i, row, {})
    return chain.memo(
        ("classify_level", i), _level_report, chain, seed, spectral.theta_is_one(i), _fixed_bottom(chain), row[2]
    )


def _level_report(
    chain: ComponentChain, seed: SeedPair, theta_one: bool, s: str | None, pair_words: list[str]
) -> LevelReport:
    """The level of the stored ``seed``, checked as in ``_level_seed``, from
    whether its theta is 1, the fixed bottom letter s and its pair-seed words."""
    sub = chain.sub
    i, crossing = seed.level, _check_seed(chain, seed, theta_one)
    report = LevelReport(level=i, case="", seed=seed)
    if seed.k > 1:
        report.notes.append(f"analysis uses the power {seed.k} of the substitution")
    if seed.orientation == "reverse":
        report.notes.append("seed has reverse orientation; mirrored analysis applies")

    if seed.u == "":
        # The lower seed letter is the bottom fixed letter s; the level closure
        # is minimal, or almost minimal around s^infinity when s-runs grow.
        report.case = "almost_minimal" if _s_runs(chain)[0] <= i else "minimal"
        if i > 2:
            report.notes.append("single-fixed-letter seed above level 2; treated like level 2")
        # positively recurrent iff v holds a new letter
        report.quasi_fixed = QuasiFixedSeed(seed, False, i in map(chain._level_of.get, seed.v), False)
        report.anchor, report.x_i_nonempty = seed.b, True
    elif seed.v == "":
        sigma_a = sub.image(seed.a)
        if set(seed.u) == {seed.a} and set(sigma_a) == {seed.a}:
            if sigma_a == seed.a:
                report.case = "single_fixed_point"
            else:
                report.case = "level_collapses"
                report.notes.append("no new points: the level closure equals the one below")
        else:
            report.case = "no_two_sided_excursion"
            report.notes.append("new letters never extend to the right; only periodic points remain")
    else:
        report.case = "dense_excursions" if crossing else "isolated_quasi_fixed"
        report.quasi_fixed = QuasiFixedSeed(seed, not crossing, crossing, not crossing)
        report.anchor, report.x_i_nonempty = seed.b, crossing
    if report.case != "level_collapses" and (s is not None or pair_words):  # else no census
        report.point_seeds = _periodic_point_seeds(chain, i)
    if report.case == "single_fixed_point" and not any(
        p.kind == "fixed_letter_power" for p in report.point_seeds
    ):
        raise InternalInvariantError(f"level {i}: a single fixed point without a fixed-letter power seed")
    if i == 3 and _is_single_periodic_orbit(sub, chain.alphabet_at(2)):
        report.notes.append("unresolved: whether this level's closure could itself be a single "
                            "shift-periodic orbit of period three")
    return report


def _is_single_periodic_orbit(sub: Substitution, letters: tuple[str, ...]) -> bool:
    """Whether the closure of the level with alphabet ``letters`` is one
    finite shift-periodic orbit.

    Bounded word complexity (at most m words of each length m) forces
    eventual periodicity, so one probe length P suffices. Each P-window of an
    image iterate is in L_P: an iterate of the last letter (stepped while
    shorter than 2P, at most P times; shorter than P, it holds none) with more
    than P distinct ones answers False. Otherwise the closure of L_P on the
    restriction to ``letters`` stops as soon as it has more than P words.
    """
    probe = max(16, 2 * len(letters))
    word = sub.image(letters[-1])
    for _ in range(probe):
        if len(word) >= 2 * probe:
            break
        word = sub.step(word)
    if len({word[j : j + probe] for j in range(len(word) - probe + 1)}) > probe:
        return False
    lang = language(sub.restrict(letters), probe, cap=probe)
    return bool(lang) and len(lang) <= probe


class MinimalSets(Record):
    """``census`` is a subset of "X_sigma_1", "X_sigma_2" and "s_infinity";
    ``clause`` is "i", "ii" or "iii" when uniquely ergodic."""

    __slots__ = ("census", "uniquely_ergodic", "clause")

    def __init__(self, census: list[str], uniquely_ergodic: bool, clause: str | None):
        self.census, self.uniquely_ergodic, self.clause = census, uniquely_ergodic, clause


def _minimal_sets(chain: ComponentChain, spectral: SpectralProfile) -> MinimalSets:
    """Census of minimal sets plus the unique-ergodicity verdict.

    At most two minimal sets exist; the verdict matches one of three clauses:
    (i) the bottom level strictly dominates, (ii) the bottom letter is fixed,
    level 2 strictly dominates and the constant point is absent, (iii) all
    levels have eigenvalue 1.
    """
    lam = spectral.lam
    theta1 = spectral.theta(1)
    if chain.n == 1:
        return MinimalSets(["X_sigma_1"], True, "i")
    if theta1.compare(1) > 0:
        unique = lam.compare(theta1) == 0
        return MinimalSets(["X_sigma_1"], unique, "i" if unique else None)
    s_level = _s_runs(chain)[0]  # theta_1 = 1: the bottom letter is fixed
    if s_level > chain.n:
        theta2 = spectral.theta(2)
        unique = theta2.compare(1) > 0 and lam.compare(theta2) == 0
        return MinimalSets(["X_sigma_2"], unique, "ii" if unique else None)
    if s_level <= 2:
        unique = lam.compare(1) == 0
        return MinimalSets(["s_infinity"], unique, "iii" if unique else None)
    return MinimalSets(["X_sigma_2", "s_infinity"], False, None)


class DecompositionReport(Record):
    __slots__ = ("levels", "minimal")

    def __init__(self, levels: list[LevelReport], minimal: MinimalSets):
        self.levels, self.minimal = levels, minimal


def decomposition_report(
    sub: Substitution, chain: ComponentChain, spectral: SpectralProfile
) -> DecompositionReport:
    """The classification of the subshift: every level's report, level 1's
    from the bottom letter, and the census of minimal sets."""
    spectral.check(sub, chain)
    levels = [_bottom_report(chain)]
    if chain.n > 1:  # one read of the per-chain tables for every level
        s, oriented = _fixed_bottom(chain), {}
        for i, row in enumerate(_two_words(chain)[1:], start=2):
            seed, one = chain.memo(("seed_pair", i), _seed_pair, chain, i, row, oriented), spectral.theta_is_one(i)
            levels.append(chain.memo(("classify_level", i), _level_report, chain, seed, one, s, row[2]))
    return DecompositionReport(levels, _minimal_sets(chain, spectral))
