"""Structural classification of the level sets of the subshift.

For each level i >= 2 a seed identity  sigma^k(ab) = u a b v  (or its mirror)
drives a case split on u and v: it decides whether the level carries a dense
locally compact piece, an isolated quasi-fixed orbit, or only periodic
points. Periodic points are enumerated as finite seeds built from letters
whose images fix their first or last letter, filtered by two-letter language
membership, and deduplicated by comparing central windows.

The bottom fixed letter s (when the first level is a single letter mapped to
itself) gets special treatment: whether arbitrarily long s-runs exist, and on
which level they first appear, is decided exactly from the cycle structure of
the first/last non-s letter maps, never by bounded expansion.

``decomposition_report`` classifies the levels in one sweep up the chain, and
each level reuses what the levels below already built. Every level is closed
under the substitution, so its images are read from the full substitution.
Each level report is stored on the chain under ``("classify_level", i)``
(see ``spectral``), and the sweep keeps its per-system data there too, each
computed once:

- ``("fresh_two_words",)``: for every level i, the two-letter words new at
  that level (in L_2(i) but not in L_2(i-1)), from the chain's two-letter
  level languages (``ComponentChain.languages``). Seed pairs and the
  ``pair`` periodic-point seeds are read from them.
- ``("letter_cycles",)``: the cycle lengths of the first-letter and the
  last-letter maps, found in one O(|alphabet|) walk.

The ``s_middle`` periodic-point seeds test membership in the chain's level
languages of each run length. Where a function needs a level substitution of
its own (the s-run tests and the periodicity probe), it reads
``chain.restrict(i)``, which the chain builds at most once per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .errors import BudgetExceeded, DomainError
from .structure import ComponentChain, component_chain, is_empty_bottom
from .spectral import SpectralProfile, block_eigenvalues
from .words import Substitution, apply, count_occurrences, language

SEED_BUDGET = 10**7  # letters in one expansion of a seed pair
MIDDLE_CAP = 12  # longest s-run tried between the letters of an s_middle seed
WINDOW_CAP = 4096  # longest central window of a periodic-point seed


# ---------------------------------------------------------------------------
# letter-map cycle machinery


def _orbit_cycle(step: dict[str, str], x: str) -> tuple[list[str], list[str]]:
    """Split the forward orbit of x under a functional map into path + cycle."""
    seen: dict[str, int] = {}
    path: list[str] = []
    while x not in seen:
        seen[x] = len(path)
        path.append(x)
        x = step[x]
    at = seen[x]
    return path[:at], path[at:]


def _cycle_lengths(step: dict[str, str]) -> dict[str, int]:
    """Cycle length of each letter on a cycle of a functional map.

    Letters off every cycle are absent. Each letter is walked once, so this
    costs O(|alphabet|) however the orbits are nested.
    """
    lengths: dict[str, int] = {}
    done: set[str] = set()
    for x in step:
        path: dict[str, int] = {}
        while x not in done and x not in path:
            path[x] = len(path)
            x = step[x]
        if x in path:  # the walk closed a cycle no earlier walk met
            cycle = list(path)[path[x] :]
            for c in cycle:
                lengths[c] = len(cycle)
        done.update(path)
    return lengths


def _letter_cycles(chain: ComponentChain) -> tuple[dict[str, int], dict[str, int]]:
    """Cycle lengths under the first-letter and the last-letter map, once per chain.

    Every level is closed under the substitution, so a letter's orbit, and
    whether and on which cycle it ends, is the same in every restriction
    that contains the letter.
    """

    def compute():
        sub = chain.sub
        first = {c: img[0] for c, img in zip(sub.alphabet, sub.images)}
        last = {c: img[-1] for c, img in zip(sub.alphabet, sub.images)}
        return _cycle_lengths(first), _cycle_lengths(last)

    return chain.memo(("letter_cycles",), compute)


def _fresh_two_words(chain: ComponentChain, i: int) -> frozenset[str]:
    """The two-letter words of level i that level i-1 lacks: L_2(i) minus L_2(i-1).

    The per-level differences of the chain's two-letter level languages, a
    partition of the top L_2, are stored on the chain, so all levels share them.
    """

    def fresh() -> list[frozenset[str]]:
        langs = chain.languages(2)
        return [b - a for a, b in zip([frozenset()] + langs, langs)]

    return chain.memo(("fresh_two_words",), fresh)[i - 1]


def _s_run_maps(sub: Substitution, s: str):
    """First/last non-s letter maps with leading/trailing s-run lengths."""
    fprime: dict[str, str] = {}
    gprime: dict[str, str] = {}
    lead: dict[str, int] = {}
    trail: dict[str, int] = {}
    for c in sub.alphabet:
        if c == s:
            continue
        img = sub.image(c)
        nonstop = [x for x in img if x != s]
        assert nonstop, f"image of {c!r} collapses to the fixed letter"
        fprime[c] = nonstop[0]
        gprime[c] = nonstop[-1]
        lead[c] = len(img) - len(img.lstrip(s))
        trail[c] = len(img) - len(img.rstrip(s))
    return fprime, gprime, lead, trail


def arbitrarily_long_s_powers(sub: Substitution, s: str) -> bool:
    """Whether every power of the fixed letter s is a language word.

    Equivalent to some letter cycle of the first (or last) non-s letter map
    accumulating a positive count of leading (trailing) s's per lap.
    """
    assert sub.image(s) == s
    if len(sub.alphabet) == 1:
        return False  # the only power image is the letter itself
    fprime, gprime, lead, trail = _s_run_maps(sub, s)
    for step, weight in ((fprime, lead), (gprime, trail)):
        for c in step:
            path, cycle = _orbit_cycle(step, c)
            if not path and sum(weight[x] for x in cycle) > 0:
                return True
    return False


def _adjacent_pairs_mod_s(sub: Substitution, s: str) -> set[tuple[str, str]]:
    """Pairs of non-s letters separated only by s-runs somewhere in the language.

    Seeded by within-image adjacencies and closed under the deterministic
    step (last non-s of the left image, first non-s of the right image).
    """
    fprime, gprime, _, _ = _s_run_maps(sub, s)
    pairs: set[tuple[str, str]] = set()
    frontier: list[tuple[str, str]] = []
    for c in sub.alphabet:
        if c == s:
            continue
        nonstop = [x for x in sub.image(c) if x != s]
        for y, z in zip(nonstop, nonstop[1:]):
            if (y, z) not in pairs:
                pairs.add((y, z))
                frontier.append((y, z))
    while frontier:
        y, z = frontier.pop()
        nxt = (gprime[y], fprime[z])
        if nxt not in pairs:
            pairs.add(nxt)
            frontier.append(nxt)
    return pairs


def left_run_unbounded(sub: Substitution, s: str, target: str) -> bool:
    """Whether s^p followed by ``target`` is a language word for every p.

    True when the target sits on a first-non-s cycle that either accumulates
    leading s's, or is fed across a gap by a letter whose expansions grow
    unbounded trailing s-runs.
    """
    assert target != s
    fprime, gprime, lead, trail = _s_run_maps(sub, s)
    path, cycle = _orbit_cycle(fprime, target)
    if path:
        return False
    if sum(lead[x] for x in cycle) > 0:
        return True

    def trail_unbounded(y: str) -> bool:
        _, gcycle = _orbit_cycle(gprime, y)
        return sum(trail[x] for x in gcycle) > 0

    for y, z in _adjacent_pairs_mod_s(sub, s):
        if not trail_unbounded(y):
            continue
        _, zcycle = _orbit_cycle(fprime, z)
        if target in zcycle:
            return True
    return False


def right_run_unbounded(sub: Substitution, s: str, target: str) -> bool:
    """Mirror of :func:`left_run_unbounded`: s-runs after the target."""
    return left_run_unbounded(sub.reversed(), s, target)


# ---------------------------------------------------------------------------
# seed pairs


@dataclass(frozen=True)
class SeedPair:
    """Word identity anchoring a level: sigma^k(ab) = u a b v (forward) or
    sigma^k(ba) = v b a u (reverse), with a below the level and b new."""

    level: int
    a: str
    b: str
    k: int
    u: str
    v: str
    orientation: str  # "forward" | "reverse"


def find_seed_pair(sub: Substitution, chain: ComponentChain, i: int) -> SeedPair:
    """The seed identity of level i, read off the level's two-letter language.

    The level's letters are closed under ``sub``, so its images are read from
    ``sub`` itself. A reverse seed runs on the mirror system, whose powers
    are the mirrored powers of ``sub``. Expanding sigma^k(ab) may take at most
    ``SEED_BUDGET`` letters.
    """
    chain.check_level(i)
    if i < 2:
        raise DomainError("seed pairs exist for levels >= 2")
    lower = set(chain.alphabet_at(i - 1))
    new = set(chain.new_letters(i))
    key = sub.alphabet.word_key
    fresh = _fresh_two_words(chain, i)  # holds every word with a new letter
    forward = [w for w in fresh if w[0] in lower and w[1] in new]
    if forward:
        mirrored = False
        first = min(forward, key=key)
        a0, b0 = first[0], first[1]
    else:
        backward = [w for w in fresh if w[0] in new and w[1] in lower]
        if not backward:
            raise RuntimeError(f"level {i} has no crossing pair in its two-letter language")
        mirrored = True
        first = min(backward, key=key)
        a0, b0 = first[1], first[0]

    def oriented(word: str) -> str:
        return word[::-1] if mirrored else word

    def first_new(word: str) -> int:
        return next(j for j, c in enumerate(word) if c in new)

    seen: dict[tuple[str, str], int] = {}
    a_j, b_j = a0, b0
    j = 0
    while (a_j, b_j) not in seen:
        seen[(a_j, b_j)] = j
        img_b = oriented(sub.image(b_j))
        pos = first_new(img_b)
        nxt_b = img_b[pos]
        nxt_a = img_b[pos - 1] if pos >= 1 else oriented(sub.image(a_j))[-1]
        a_j, b_j = nxt_a, nxt_b
        j += 1
    k = j - seen[(a_j, b_j)]
    a, b = a_j, b_j

    # expansion budget: |sigma^k(ab)| grows geometrically with k
    probe = oriented(a + b)
    for _ in range(k):
        total = sum(len(sub.image(c)) for c in probe)
        if total > SEED_BUDGET:
            raise BudgetExceeded(f"seed expansion exceeds {SEED_BUDGET} letters")
        probe = sub.step(probe)
    w = oriented(probe)
    img_bk = oriented(apply(sub, b, k))
    pos = first_new(img_bk)
    p_b = (len(w) - len(img_bk)) + pos
    if w[p_b] != b or w[p_b - 1] != a:
        raise RuntimeError(f"level {i}: sigma^{k}({a}{b}) does not contain {a}{b} at the seed")
    u, v = w[: p_b - 1], w[p_b + 1 :]
    if not all(c in lower for c in u):
        raise RuntimeError(f"level {i}: the seed prefix leaves the levels below")
    if mirrored:
        u, v = u[::-1], v[::-1]
    return SeedPair(
        level=i, a=a, b=b, k=k, u=u, v=v,
        orientation="reverse" if mirrored else "forward",
    )


def positively_recurrent(sub: Substitution, chain: ComponentChain, seed: SeedPair) -> bool:
    """Whether the quasi-fixed point revisits its central window forward in time."""
    if not seed.v:
        raise DomainError("recurrence is defined for seeds with nonempty v")
    new = set(chain.new_letters(seed.level))
    return any(c in new for c in seed.v)


# ---------------------------------------------------------------------------
# point seeds and their windows


@dataclass
class PointSeed:
    kind: str  # "fixed_letter_power" | "bilateral_limit"
    form: str | None = None  # "pair" | "s_left" | "s_right" | "s_middle"
    gamma: str | None = None
    delta: str | None = None
    q: int = 1
    middle_s: int = 0
    shift_periodic: bool = False
    window: str = ""
    center: int = 0
    radius: int = 0


def _grow(sub: Substitution, word: str, q: int, target: int, budget: int) -> str:
    while len(word) < target:
        if len(word) * 2 > budget:
            raise BudgetExceeded("window expansion budget exceeded")
        word = apply(sub, word, q)
    return word


def _window_radius(sub: Substitution, letters: tuple[str, ...], q: int, cap: int) -> int:
    longest = max(len(apply(sub, c, min(2 * q, 8))) for c in letters)
    return min(2 * longest, cap)


def _make_windows(
    sub: Substitution, letters: tuple[str, ...], s: str | None, seeds: list[PointSeed], cap: int
) -> None:
    """Central windows of the seeds of the level with alphabet ``letters``."""
    for seed in seeds:
        if seed.kind == "fixed_letter_power":
            radius = cap // 2
            seed.window, seed.center, seed.radius = s * (2 * radius), radius, radius
            continue
        radius = _window_radius(sub, letters, seed.q, cap)
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
    of the first-letter map, and q is the lcm of the two cycle lengths.
    """
    lower = set(chain.alphabet_at(i - 1))
    lower.discard(s)
    f_cycles, g_cycles = _letter_cycles(chain)
    return [
        PointSeed(kind="bilateral_limit", form="pair", gamma=w[0], delta=w[1],
                  q=lcm(g_cycles[w[0]], f_cycles[w[1]]))
        for w in sorted(_fresh_two_words(chain, i))
        if w[0] in lower and w[1] in lower and w[0] in g_cycles and w[1] in f_cycles
    ]


def _periodic_point_seeds(sub: Substitution, chain: ComponentChain, i: int) -> list[PointSeed]:
    """Periodic-point seeds of level i, deduplicated by central windows.

    Only the forms around a fixed bottom letter s need the restrictions of
    levels i and i-1; without s the full substitution's images suffice.
    """
    lower = chain.alphabet_at(i - 1)
    bottom = chain.alphabet_at(1)
    s = bottom[0] if len(bottom) == 1 and sub.image(bottom[0]) == bottom[0] else None
    seeds = _pair_seeds(chain, i, s)
    if s is not None:
        sub_i = chain.restrict(i)[0]
        sub_below = chain.restrict(i - 1)[0]
        f_cycles, g_cycles = _letter_cycles(chain)
        f_cyclic = sorted((c, f_cycles[c]) for c in lower if c != s and c in f_cycles)
        g_cyclic = sorted((c, g_cycles[c]) for c in lower if c != s and c in g_cycles)
        if arbitrarily_long_s_powers(sub_i, s) and not arbitrarily_long_s_powers(sub_below, s):
            seeds.append(PointSeed(kind="fixed_letter_power", gamma=s, delta=s,
                                   shift_periodic=True))
        for gamma, pf in f_cyclic:
            if left_run_unbounded(sub_i, s, gamma) and not left_run_unbounded(sub_below, s, gamma):
                seeds.append(PointSeed(kind="bilateral_limit", form="s_left",
                                       gamma=gamma, q=pf))
        for delta, pg in g_cyclic:
            if right_run_unbounded(sub_i, s, delta) and not right_run_unbounded(sub_below, s, delta):
                seeds.append(PointSeed(kind="bilateral_limit", form="s_right",
                                       delta=delta, q=pg))
        for delta, pg in g_cyclic:
            for gamma, pf in f_cyclic:
                for p in range(1, MIDDLE_CAP + 1):
                    w = delta + s * p + gamma
                    langs = chain.languages(p + 2)
                    if w in langs[i - 1] and w not in langs[i - 2]:
                        seeds.append(
                            PointSeed(kind="bilateral_limit", form="s_middle",
                                      gamma=gamma, delta=delta, q=lcm(pg, pf), middle_s=p)
                        )
    _make_windows(sub, chain.alphabet_at(i), s, seeds, WINDOW_CAP)
    kept: list[PointSeed] = []
    for seed in seeds:
        if not any(_same_orbit_window(seed, other) for other in kept):
            kept.append(seed)
    for seed in kept:
        if seed.kind == "bilateral_limit" and seed.form in ("pair", "s_middle"):
            core = (seed.delta if seed.form == "s_middle" else seed.gamma) + (
                (s or "") * seed.middle_s
            ) + (seed.gamma if seed.form == "s_middle" else seed.delta)
            if count_occurrences(core, seed.window).count != 1:
                raise RuntimeError(
                    f"level {i}: central word {core!r} of an isolated periodic point "
                    "is not unique in its window"
                )
    return kept


# ---------------------------------------------------------------------------
# level reports and the census


@dataclass
class QuasiFixedSeed:
    seed: SeedPair
    primitive_type: bool
    positively_recurrent: bool
    isolated_orbit: bool


@dataclass
class LevelReport:
    level: int
    case: str
    seed: SeedPair | None = None
    quasi_fixed: QuasiFixedSeed | None = None
    anchor: str | None = None
    point_seeds: list[PointSeed] = field(default_factory=list)
    x_i_nonempty: bool = False
    notes: list[str] = field(default_factory=list)


def _bottom_report(sub: Substitution, chain: ComponentChain) -> LevelReport:
    if is_empty_bottom(sub, chain):
        return LevelReport(level=1, case="bottom_empty")
    return LevelReport(
        level=1, case="bottom_minimal", anchor=chain.alphabet_at(1)[0], x_i_nonempty=True
    )


def classify_level(
    sub: Substitution,
    chain: ComponentChain,
    spectral: SpectralProfile,
    i: int,
) -> LevelReport:
    return spectral.memo(
        sub, chain, ("classify_level", i), lambda: _classify_level(sub, chain, spectral, i)
    )


def _classify_level(
    sub: Substitution, chain: ComponentChain, spectral: SpectralProfile, i: int
) -> LevelReport:
    chain.check_level(i)
    if i < 2:
        raise DomainError("classify_level applies to levels >= 2; level 1 is the bottom report")
    seed = find_seed_pair(sub, chain, i)
    new = set(chain.new_letters(i))
    theta_one = spectral.theta_is_one(i)
    report = LevelReport(level=i, case="", seed=seed)
    if seed.k > 1:
        report.notes.append(f"analysis uses the power {seed.k} of the substitution")
    if seed.orientation == "reverse":
        report.notes.append("seed has reverse orientation; mirrored analysis applies")

    if seed.u == "":
        # The lower seed letter is the bottom fixed letter; the level closure
        # is minimal, or almost minimal around s^infinity when s-runs grow.
        s = seed.a
        assert sub.image(s) == s and not theta_one
        if arbitrarily_long_s_powers(chain.restrict(i)[0], s):
            report.case = "almost_minimal"
        else:
            report.case = "minimal"
        if i > 2:
            report.notes.append("single-fixed-letter seed above level 2; treated like level 2")
        report.quasi_fixed = QuasiFixedSeed(
            seed=seed,
            primitive_type=False,
            positively_recurrent=positively_recurrent(sub, chain, seed),
            isolated_orbit=False,
        )
        report.anchor = seed.b
        report.x_i_nonempty = True
    elif seed.v == "":
        assert theta_one
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
        crossing = any(c in new for c in seed.v)
        rec = positively_recurrent(sub, chain, seed)
        if crossing:
            assert not theta_one
            report.case = "dense_excursions"
            report.quasi_fixed = QuasiFixedSeed(
                seed=seed, primitive_type=False, positively_recurrent=rec, isolated_orbit=False
            )
        else:
            assert theta_one and len(new) == 1
            report.case = "isolated_quasi_fixed"
            report.quasi_fixed = QuasiFixedSeed(
                seed=seed, primitive_type=True, positively_recurrent=rec, isolated_orbit=True
            )
        report.anchor = seed.b
        report.x_i_nonempty = crossing
    if report.case in ("single_fixed_point", "no_two_sided_excursion", "level_collapses",
                       "minimal", "almost_minimal", "dense_excursions", "isolated_quasi_fixed"):
        if report.case != "level_collapses":
            report.point_seeds = _periodic_point_seeds(sub, chain, i)
    if report.case == "single_fixed_point":
        assert any(p.kind == "fixed_letter_power" for p in report.point_seeds)
    if i == 3 and _is_single_periodic_orbit(chain.restrict(2)[0]):
        report.notes.append(
            "unresolved: whether this level's closure could itself be a single "
            "shift-periodic orbit of period three"
        )
    return report


def _is_single_periodic_orbit(sub_i: Substitution) -> bool:
    """Whether the closure of a level, given by its restriction, is one
    finite shift-periodic orbit.

    Bounded word complexity (at most m words of each length m) forces
    eventual periodicity, so a single probe length suffices.
    """
    probe = max(16, 2 * len(sub_i.alphabet))
    lang = language(sub_i, probe)
    return bool(lang) and len(lang) <= probe


@dataclass
class MinimalSets:
    census: list[str]  # subset of {"X_sigma_1", "X_sigma_2", "s_infinity"}
    uniquely_ergodic: bool
    clause: str | None  # "i" | "ii" | "iii" when uniquely ergodic
    s_infinity_in_shift: bool | None


def minimal_sets(
    sub: Substitution, chain: ComponentChain, spectral: SpectralProfile
) -> MinimalSets:
    """Census of minimal sets plus the unique-ergodicity verdict.

    At most two minimal sets exist; the verdict matches one of three clauses:
    (i) the bottom level strictly dominates, (ii) the bottom letter is fixed,
    level 2 strictly dominates and the constant point is absent, (iii) all
    levels have eigenvalue 1.
    """
    lam = spectral.lam
    theta1 = spectral.theta(1)
    if chain.n == 1:
        return MinimalSets(["X_sigma_1"], True, "i", None)
    if theta1.compare(1) > 0:
        unique = lam.compare(theta1) == 0
        return MinimalSets(["X_sigma_1"], unique, "i" if unique else None, None)
    s = chain.alphabet_at(1)[0]
    s_in = arbitrarily_long_s_powers(sub, s)
    if not s_in:
        theta2 = spectral.theta(2)
        unique = theta2.compare(1) > 0 and lam.compare(theta2) == 0
        return MinimalSets(["X_sigma_2"], unique, "ii" if unique else None, False)
    if arbitrarily_long_s_powers(chain.restrict(2)[0], s):
        unique = lam.compare(1) == 0
        return MinimalSets(["s_infinity"], unique, "iii" if unique else None, True)
    return MinimalSets(["X_sigma_2", "s_infinity"], False, None, True)


@dataclass
class DecompositionReport:
    chain: ComponentChain
    levels: list[LevelReport]
    minimal: MinimalSets


def decomposition_report(
    sub: Substitution,
    chain: ComponentChain | None = None,
    spectral: SpectralProfile | None = None,
) -> DecompositionReport:
    chain = chain or component_chain(sub)
    spectral = spectral or block_eigenvalues(sub, chain)
    levels = [_bottom_report(sub, chain)]
    for i in range(2, chain.n + 1):
        levels.append(classify_level(sub, chain, spectral, i))
    return DecompositionReport(chain, levels, minimal_sets(sub, chain, spectral))
