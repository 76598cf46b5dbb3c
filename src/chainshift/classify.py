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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .errors import BudgetExceeded, DomainError
from .structure import ComponentChain, component_chain, is_empty_bottom
from .spectral import SpectralProfile, block_eigenvalues
from .words import Substitution, apply, count_occurrences, language


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


def _first_map(sub: Substitution) -> dict[str, str]:
    return {c: sub.image(c)[0] for c in sub.alphabet}


def _last_map(sub: Substitution) -> dict[str, str]:
    return {c: sub.image(c)[-1] for c in sub.alphabet}


def _cycle_info(step: dict[str, str], x: str) -> tuple[bool, int]:
    path, cycle = _orbit_cycle(step, x)
    return (not path, len(cycle))


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


def find_seed_pair(
    sub: Substitution, chain: ComponentChain, i: int, *, budget: int = 10**7
) -> SeedPair:
    chain.check_level(i)
    if i < 2:
        raise DomainError("seed pairs exist for levels >= 2")
    sub_i = sub.restrict(chain.alphabet_at(i))
    lower = set(chain.alphabet_at(i - 1))
    new = set(chain.new_letters(i))
    key = sub.alphabet.word_key
    lang2 = language(sub_i, 2)
    forward = sorted((w for w in lang2 if w[0] in lower and w[1] in new), key=key)
    if forward:
        mirrored = False
        system = sub_i
        a0, b0 = forward[0][0], forward[0][1]
    else:
        backward = sorted((w for w in lang2 if w[0] in new and w[1] in lower), key=key)
        assert backward, "a crossing pair must exist at every level"
        mirrored = True
        system = sub_i.reversed()
        a0, b0 = backward[0][1], backward[0][0]

    def first_new(word: str) -> int:
        return next(j for j, c in enumerate(word) if c in new)

    seen: dict[tuple[str, str], int] = {}
    a_j, b_j = a0, b0
    j = 0
    while (a_j, b_j) not in seen:
        seen[(a_j, b_j)] = j
        img_b = system.image(b_j)
        pos = first_new(img_b)
        nxt_b = img_b[pos]
        nxt_a = img_b[pos - 1] if pos >= 1 else system.image(a_j)[-1]
        a_j, b_j = nxt_a, nxt_b
        j += 1
    k = j - seen[(a_j, b_j)]
    a, b = a_j, b_j

    # expansion budget: |sigma^k(ab)| grows geometrically with k
    probe = a + b
    for _ in range(k):
        total = sum(len(system.image(c)) for c in probe)
        if total > budget:
            raise BudgetExceeded(f"seed expansion exceeds {budget} letters")
        probe = system.step(probe)
    w = probe
    img_bk = apply(system, b, k)
    pos = first_new(img_bk)
    p_b = (len(w) - len(img_bk)) + pos
    assert w[p_b] == b and w[p_b - 1] == a
    u, v = w[: p_b - 1], w[p_b + 1 :]
    assert all(c in lower for c in u), "prefix must stay below the level"
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


def _window_radius(sub: Substitution, q: int, cap: int) -> int:
    longest = max(len(apply(sub, c, min(2 * q, 8))) for c in sub.alphabet)
    return min(2 * longest, cap)


def _make_windows(sub_i: Substitution, s: str | None, seeds: list[PointSeed], cap: int) -> None:
    for seed in seeds:
        if seed.kind == "fixed_letter_power":
            radius = cap // 2
            seed.window, seed.center, seed.radius = s * (2 * radius), radius, radius
            continue
        radius = _window_radius(sub_i, seed.q, cap)
        budget = 64 * radius * max(len(img) for img in sub_i.images) + 1024
        if seed.form in ("pair", "s_right", "s_middle"):
            left_letter = seed.gamma if seed.form == "pair" else seed.delta
            left = _grow(sub_i, left_letter, seed.q, radius, budget)[-radius:]
        else:
            left = s * radius
        if seed.form in ("pair", "s_left", "s_middle"):
            right_letter = seed.delta if seed.form == "pair" else seed.gamma
            right = _grow(sub_i, right_letter, seed.q, radius, budget)[:radius]
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


def _periodic_point_seeds(
    sub: Substitution,
    chain: ComponentChain,
    i: int,
    *,
    middle_cap: int = 12,
    window_cap: int = 4096,
) -> list[PointSeed]:
    """Periodic-point seeds of level i, deduplicated by central windows."""
    sub_i = sub.restrict(chain.alphabet_at(i))
    sub_below = sub.restrict(chain.alphabet_at(i - 1))
    lower = chain.alphabet_at(i - 1)
    bottom = chain.alphabet_at(1)
    s = bottom[0] if len(bottom) == 1 and sub.image(bottom[0]) == bottom[0] else None
    first = _first_map(sub_i)
    last = _last_map(sub_i)
    lang2_i = language(sub_i, 2)
    lang2_below = language(sub_below, 2)
    seeds: list[PointSeed] = []
    g_cyclic = {
        c: info[1] for c in lower if c != s and (info := _cycle_info(last, c))[0]
    }
    f_cyclic = {
        c: info[1] for c in lower if c != s and (info := _cycle_info(first, c))[0]
    }
    for gamma, pg in sorted(g_cyclic.items()):
        for delta, pf in sorted(f_cyclic.items()):
            w = gamma + delta
            if w in lang2_i and w not in lang2_below:
                seeds.append(
                    PointSeed(kind="bilateral_limit", form="pair", gamma=gamma,
                              delta=delta, q=lcm(pg, pf))
                )
    if s is not None:
        if arbitrarily_long_s_powers(sub_i, s) and not arbitrarily_long_s_powers(sub_below, s):
            seeds.append(PointSeed(kind="fixed_letter_power", gamma=s, delta=s,
                                   shift_periodic=True))
        for gamma, pf in sorted(f_cyclic.items()):
            if left_run_unbounded(sub_i, s, gamma) and not left_run_unbounded(sub_below, s, gamma):
                seeds.append(PointSeed(kind="bilateral_limit", form="s_left",
                                       gamma=gamma, q=pf))
        for delta, pg in sorted(g_cyclic.items()):
            if right_run_unbounded(sub_i, s, delta) and not right_run_unbounded(sub_below, s, delta):
                seeds.append(PointSeed(kind="bilateral_limit", form="s_right",
                                       delta=delta, q=pg))
        for delta, pg in sorted(g_cyclic.items()):
            for gamma, pf in sorted(f_cyclic.items()):
                for p in range(1, middle_cap + 1):
                    w = delta + s * p + gamma
                    if w in language(sub_i, p + 2) and w not in language(sub_below, p + 2):
                        seeds.append(
                            PointSeed(kind="bilateral_limit", form="s_middle",
                                      gamma=gamma, delta=delta, q=lcm(pg, pf), middle_s=p)
                        )
    _make_windows(sub_i, s, seeds, window_cap)
    kept: list[PointSeed] = []
    for seed in seeds:
        if not any(_same_orbit_window(seed, other) for other in kept):
            kept.append(seed)
    for seed in kept:
        if seed.kind == "bilateral_limit" and seed.form in ("pair", "s_middle"):
            core = (seed.delta if seed.form == "s_middle" else seed.gamma) + (
                (s or "") * seed.middle_s
            ) + (seed.gamma if seed.form == "s_middle" else seed.delta)
            assert count_occurrences(core, seed.window).count == 1, (
                "central word of an isolated periodic point must be unique in its window"
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
        sub_i = sub.restrict(chain.alphabet_at(i))
        if arbitrarily_long_s_powers(sub_i, s):
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
    if i == 3 and _is_single_periodic_orbit(sub, chain, 2):
        report.notes.append(
            "unresolved: whether this level's closure could itself be a single "
            "shift-periodic orbit of period three"
        )
    return report


def _is_single_periodic_orbit(sub: Substitution, chain: ComponentChain, i: int) -> bool:
    """Whether the level-i closure is one finite shift-periodic orbit.

    Bounded word complexity (at most m words of each length m) forces
    eventual periodicity, so a single probe length suffices.
    """
    sub_i = sub.restrict(chain.alphabet_at(i))
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
    sub2 = sub.restrict(chain.alphabet_at(2))
    if arbitrarily_long_s_powers(sub2, s):
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
