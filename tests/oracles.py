"""Brute-force oracles, independent of the library's code paths.

Everything here recomputes from first principles: windows are enumerated
directly, powers are expanded letter by letter, chains are found by searching
every ordered partition of the alphabet or by dense boolean matrix products,
linear systems are solved by dense Gauss-Jordan elimination over the
rationals, real roots are isolated and refined by Sturm counts in Fraction
arithmetic, and per-level data (languages, letter-map cycles, pair seeds) is
rebuilt from scratch on each level's own rules.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from operator import and_


def occurrences(u: str, v: str) -> list[int]:
    """1-based positions of u in v by checking every window."""
    return [i + 1 for i in range(len(v) - len(u) + 1) if v[i : i + len(u)] == u]


def power(rules: dict[str, str], word: str, k: int) -> str:
    for _ in range(k):
        word = "".join(rules[c] for c in word)
    return word


def factors(word: str, m: int) -> set[str]:
    return {word[i : i + m] for i in range(len(word) - m + 1)}


def language(rules: dict[str, str], m: int, depth: int = 12) -> set[str]:
    """Length-m factors of every power image up to the given depth."""
    out: set[str] = set()
    for a in rules:
        w = a
        for _ in range(depth):
            w = power(rules, w, 1)
            out |= factors(w, m)
            if len(w) > 400_000:
                break
    return out


def incidence(rules: dict[str, str]) -> list[list[int]]:
    letters = list(rules)
    return [[rules[a].count(b) if len(b) == 1 else 0 for b in letters] for a in letters]


def mat_mul(a, b):
    n, mid, m = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(mid)) for j in range(m)] for i in range(n)]


def mat_pow(a, k):
    n = len(a)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def ordered_partitions(items: tuple):
    """All ways to split the items into a sequence of nonempty groups."""
    items = tuple(items)
    n = len(items)
    for perm in permutations(items):
        for cuts in range(1 << (n - 1)):
            groups = [[perm[0]]]
            for i in range(1, n):
                if cuts & (1 << (i - 1)):
                    groups.append([perm[i]])
                else:
                    groups[-1].append(perm[i])
            yield [frozenset(g) for g in groups]


def valid_chains(rules: dict[str, str], k_bound: int):
    """Every chain of letter sets satisfying the defining conditions.

    Checks closure and, by direct boolean matrix powers up to ``k_bound``,
    the existence of a uniform power reproducing each level.
    """
    letters = tuple(rules)
    n = len(letters)
    idx = {c: i for i, c in enumerate(letters)}
    boolean = [[int(b in rules[a]) for b in letters] for a in letters]
    powers = [None, boolean]
    for _ in range(k_bound - 1):
        nxt = mat_mul(powers[-1], boolean)
        powers.append([[int(v > 0) for v in row] for row in nxt])
    seen = set()
    found = []
    for groups in ordered_partitions(letters):
        key = tuple(groups)
        if key in seen:
            continue
        seen.add(key)
        cumulative = []
        acc: frozenset = frozenset()
        for g in groups:
            acc |= g
            cumulative.append(acc)
        if any(set(rules[a]) - level for level in cumulative for a in level):
            continue
        ok_for_some_k = False
        for k in range(1, k_bound + 1):
            ok = True
            below: frozenset = frozenset()
            for level, group in zip(cumulative, groups):
                for a in group:
                    for b in level:
                        if not powers[k][idx[a]][idx[b]]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
                below = level
            if ok:
                ok_for_some_k = True
                break
        if ok_for_some_k:
            found.append([tuple(c for c in letters if c in level) for level in cumulative])
    return found


def bool_mul(a, b):
    """Dense boolean matrix product."""
    bt = list(zip(*b))
    return [[int(any(map(and_, row, col))) for col in bt] for row in a]


def witness_k_dense(rules: dict[str, str]):
    """Least uniform witness power of the chain, by dense boolean matrix products.

    When the system has no chain, returns the ``NoPrimitiveChainError``
    diagnostic instead: the lowest imprimitive diagonal block as the library
    reports it, or, for incomparable components, the kind with every
    incomparable pair (the library reports the first one it meets).
    """
    letters = tuple(rules)
    n = len(letters)
    boolean = [[int(b in rules[a]) for b in letters] for a in letters]
    # Reflexive-transitive closure by repeated squaring.
    reach = [[int(i == j or boolean[i][j]) for j in range(n)] for i in range(n)]
    while True:
        squared = bool_mul(reach, reach)
        if squared == reach:
            break
        reach = squared
    comps: list[frozenset] = []
    for a in range(n):
        comp = frozenset(b for b in range(n) if reach[a][b] and reach[b][a])
        if comp not in comps:
            comps.append(comp)

    def names(comp):
        return sorted(letters[v] for v in comp)

    pairs = sorted(
        sorted([names(c), names(d)])
        for c, d in combinations(comps, 2)
        if not reach[min(c)][min(d)] and not reach[min(d)][min(c)]
    )
    if pairs:
        return {"kind": "incomparable_components", "pairs": pairs}
    comps.sort(key=lambda comp: sum(reach[min(comp)]))  # bottom level first
    for comp in comps:
        members = sorted(comp)
        block = [[boolean[a][b] for b in members] for a in members]
        power = block
        for _ in range((len(members) - 1) ** 2):  # Wielandt: (s-1)^2+1 powers
            if all(all(row) for row in power):
                break
            power = bool_mul(power, block)
        if not all(all(row) for row in power):
            return {"kind": "imprimitive_block", "component": names(comp)}
    level = {v: i for i, comp in enumerate(comps) for v in comp}
    bound = (n - 1) ** 2 + 1 + n
    power = boolean
    for k in range(1, bound + 1):
        if all(power[a][b] for a in range(n) for b in range(n) if level[a] >= level[b]):
            return k
        power = bool_mul(power, boolean)
    return {"kind": "no_witness", "bound": bound}


def random_substitution(rng: random.Random, max_letters: int = 5, max_image: int = 4):
    """Arbitrary substitution rules (not necessarily a valid chain)."""
    size = rng.randint(2, max_letters)
    letters = "abcde"[:size]
    return {
        c: "".join(rng.choice(letters) for _ in range(rng.randint(1, max_image)))
        for c in letters
    }


def solve_linear(A, b) -> list[Fraction]:
    """Solve a square nonsingular rational system by Gauss-Jordan elimination."""
    n = len(A)
    M = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular system")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def nullspace_vector(A) -> list[Fraction]:
    """A nonzero kernel vector of a rational matrix with 1-dimensional kernel."""
    n = len(A)
    M = [list(map(Fraction, row)) for row in A]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, n) if M[i][col] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = 1 / M[r][col]
        M[r] = [v * inv for v in M[r]]
        for i in range(n):
            if i != r and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * c for a, c in zip(M[i], M[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ZeroDivisionError(f"kernel is {len(free)}-dimensional, expected 1")
    x = [Fraction(0)] * n
    x[free[0]] = Fraction(1)
    for row_idx, col in enumerate(pivots):
        x[col] = -M[row_idx][free[0]]
    return x


def language_closure(rules: dict[str, str], m: int) -> set[str]:
    """L_m from scratch: seed with the first power image of each letter that
    reaches length m (none if the short iterates repeat), then close under
    m-factors of images."""
    lang: set[str] = set()
    for a in rules:
        w, seen = power(rules, a, 1), set()
        while len(w) < m and w not in seen:
            seen.add(w)
            w = power(rules, w, 1)
        if len(w) >= m:
            lang |= factors(w, m)
    frontier = set(lang)
    while frontier:
        images = (power(rules, w, 1) for w in frontier)
        frontier = {f for img in images for f in factors(img, m)} - lang
        lang |= frontier
    return lang


def restrict(rules: dict[str, str], letters) -> dict[str, str]:
    return {c: rules[c] for c in letters}


def level_languages(rules: dict[str, str], levels, m: int) -> list[set[str]]:
    """L_m of every level, each rebuilt from scratch on the level's rules."""
    return [language_closure(restrict(rules, level), m) for level in levels]


def orbit_cycle(step: dict[str, str], x: str) -> tuple[list[str], list[str]]:
    """Split the forward orbit of x under a functional map into path + cycle."""
    path: list[str] = []
    while x not in path:
        path.append(x)
        x = step[x]
    at = path.index(x)
    return path[:at], path[at:]


def cycle_info(step: dict[str, str], x: str) -> tuple[bool, int]:
    """Whether x lies on a cycle of the map, and the length of the cycle its orbit ends in."""
    path, cycle = orbit_cycle(step, x)
    return not path, len(cycle)


def first_map(rules: dict[str, str]) -> dict[str, str]:
    return {c: img[0] for c, img in rules.items()}


def last_map(rules: dict[str, str]) -> dict[str, str]:
    return {c: img[-1] for c, img in rules.items()}


def pair_seeds(rules: dict[str, str], levels, i: int, s: str | None) -> list[tuple[str, str, int]]:
    """(gamma, delta, q) of the level-i pair seeds by testing every pair of
    the |g| x |f| product of cyclic lower letters against both levels' L_2."""
    rules_i = restrict(rules, levels[i - 1])
    lang_i = language_closure(rules_i, 2)
    lang_below = language_closure(restrict(rules, levels[i - 2]), 2)
    first, last = first_map(rules_i), last_map(rules_i)
    lower = [c for c in levels[i - 2] if c != s]
    g_cyclic = {c: info[1] for c in lower if (info := cycle_info(last, c))[0]}
    f_cyclic = {c: info[1] for c in lower if (info := cycle_info(first, c))[0]}
    return [
        (gamma, delta, pg * pf // gcd(pg, pf))
        for gamma, pg in sorted(g_cyclic.items())
        for delta, pf in sorted(f_cyclic.items())
        if gamma + delta in lang_i and gamma + delta not in lang_below
    ]


def quasi_fixed_half(rules: dict[str, str], b: str, v: str, k: int, new, visits: int) -> str:
    """Right half ``R = b v sigma^k(v) sigma^2k(v) ...`` of a forward
    quasi-fixed point, expanded letter by letter until it holds at least
    ``visits`` new letters."""
    half, piece = b + v, v
    found = sum(c in new for c in half)
    while found < visits:
        piece = power(rules, piece, k)
        half += piece
        found += sum(c in new for c in piece)
    return half


def quasi_fixed_skeleton(
    rules: dict[str, str], b: str, v: str, k: int, new, visits: int, m: int
) -> str:
    """``quasi_fixed_half`` with every block ``sigma^t(x)`` of a lower letter x
    longer than 2(m - 1) letters cut to its first and last m - 1 letters
    around a ``|`` that is no letter.

    A word that holds a new letter lies within m - 1 letters of it, so its
    occurrences, and their order relative to the new letters, are those of
    the full half, which can run to billions of letters when new letters are
    sparse. Blocks come from truncated letter-by-letter expansions.
    """
    blocks: dict[tuple[str, int], str] = {}

    def lower_block(x: str, t: int) -> str:
        if (x, t) not in blocks:
            head = tail = short = x
            for _ in range(t):
                head = power(rules, head, 1)[: m - 1]
                tail = power(rules, tail, 1)
                tail = tail[len(tail) - (m - 1) :]
                short = power(rules, short, 1)[: 2 * m - 1]
            blocks[x, t] = short if len(short) <= 2 * (m - 1) else head + "|" + tail
        return blocks[x, t]

    def skeleton(x: str, t: int) -> str:
        if x not in new:
            return lower_block(x, t)
        if t == 0:
            return x
        return "".join(skeleton(y, t - 1) for y in rules[x])

    half, t = b + v, 0
    found = sum(c in new for c in half)
    while found < visits:
        t += k
        piece = "".join(skeleton(c, t) for c in v)
        half += piece
        found += sum(c in new for c in piece)
    return half


# -- Sturm chains over the rationals -------------------------------------------
# Polynomials are lists of Fraction coefficients in descending degree order.


def poly_value(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


def _trim(p) -> list[Fraction]:
    p = [Fraction(c) for c in p]
    while len(p) > 1 and p[0] == 0:
        p.pop(0)
    return p


def poly_divmod(num, den) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of polynomial long division."""
    rem, den = _trim(num), _trim(den)
    quot = []
    while len(rem) >= len(den):
        f = rem[0] / den[0]
        quot.append(f)
        for j, c in enumerate(den):
            rem[j] -= f * c
        rem.pop(0)
    return _trim(quot or [0]), _trim(rem or [0])


def poly_gcd(a, b) -> list[Fraction]:
    """Monic gcd by the Euclidean algorithm."""
    a, b = _trim(a), _trim(b)
    while any(b):
        a, b = b, poly_divmod(a, b)[1]
    return [c / a[0] for c in a]


def derivative(p) -> list[Fraction]:
    n = len(p) - 1
    return _trim([Fraction(c) * (n - i) for i, c in enumerate(p[:-1])] or [0])


def sturm_chain(p) -> list[list[Fraction]]:
    """Sturm chain of the squarefree part of p."""
    sf = poly_divmod(p, poly_gcd(p, derivative(p)))[0]
    chain = [sf, derivative(sf)]
    while len(chain[-1]) > 1:
        r = poly_divmod(chain[-2], chain[-1])[1]
        if not any(r):
            break
        chain.append([-c for c in r])
    return chain


def sturm_count(chain, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of the chain's first member in (lo, hi]."""

    def variations(x):
        signs = [v > 0 for v in (poly_value(p, x) for p in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


def sturm_refine(chain, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect (lo, hi] down to ``width``, keeping the half whose Sturm count
    is positive."""
    while hi - lo > width:
        mid = (lo + hi) / 2
        if sturm_count(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def sturm_isolate(p) -> tuple[Fraction, Fraction]:
    """Isolating interval (lo, hi] of the largest real root of the monic
    integer polynomial p, as ``AlgebraicReal`` builds it: start above the
    largest integer root, if any, and halve with two Sturm counts per step.
    A rational largest root (an integer) gives (r, r)."""
    chain = sturm_chain(p)
    bound = root_bound(p)
    lo, hi = Fraction(-bound - 1), Fraction(bound + 1)
    top = next((r for r in range(bound + 1, -bound - 1, -1) if poly_value(p, Fraction(r)) == 0), None)
    if top is not None:
        if sturm_count(chain, Fraction(top), hi) == 0:
            return Fraction(top), Fraction(top)
        lo = Fraction(top)
    while sturm_count(chain, lo, hi) > 1:
        mid = (lo + hi) / 2
        if sturm_count(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def root_bound(p) -> int:
    """Every real root of the monic integer polynomial p lies in (-bound, bound)."""
    return 1 + max(abs(c) for c in p)


def irrational_largest_root(p) -> bool:
    """Whether the monic integer polynomial p is squarefree and its largest
    real root exists and is irrational (its rational roots are integers)."""
    bound = root_bound(p)
    chain = sturm_chain(p)
    if len(chain[0]) != len(p) or sturm_count(chain, Fraction(-bound), Fraction(bound)) == 0:
        return False
    top = next((r for r in range(bound, -bound, -1) if poly_value(p, Fraction(r)) == 0), None)
    return top is None or sturm_count(chain, Fraction(top), Fraction(bound)) > 0


def largest_root_interval(chain, bound: int) -> tuple[Fraction, Fraction]:
    """An interval (lo, hi] holding the largest real root and no other root."""
    lo, hi = Fraction(-bound), Fraction(bound)
    while sturm_count(chain, lo, hi) > 1:
        lo, hi = sturm_refine(chain, lo, hi, (hi - lo) / 2)
    return lo, hi


def compare_largest_roots(p, q) -> int:
    """Sign of r_p - r_q for the irrational largest real roots of p and q.

    Equal iff the gcd of the two polynomials has a root in both isolating
    intervals; otherwise the intervals are halved until they part.
    """
    cp, cq = sturm_chain(p), sturm_chain(q)
    a = largest_root_interval(cp, root_bound(p))
    b = largest_root_interval(cq, root_bound(q))
    g = poly_gcd(p, q)
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if len(g) > 1 and lo < hi and sturm_count(sturm_chain(g), lo, hi) >= 1:
        return 0
    while a[0] < b[1] and b[0] < a[1]:
        a = sturm_refine(cp, *a, (a[1] - a[0]) / 2)
        b = sturm_refine(cq, *b, (b[1] - b[0]) / 2)
    return 1 if b[1] <= a[0] else -1
