"""Brute-force oracles, independent of the library's code paths.

Everything here recomputes from first principles: windows are enumerated
directly, powers are expanded letter by letter, chains are found by searching
every ordered partition of the alphabet or by dense boolean matrix products,
linear systems are solved by dense Gauss-Jordan elimination over the
rationals (structured eigenvectors too, or by numpy for an irrational
eigenvalue), real roots are isolated and refined by Sturm counts in Fraction
arithmetic, and per-level data (languages, letter-map cycles, pair seeds,
s-run facts) is rebuilt from scratch on each level's own rules.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from operator import and_

import numpy as np


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


def components(rules: dict[str, str]) -> list[tuple[str, ...]]:
    """The strongly connected components of the letter digraph, each in
    declaration order, ordered by how many letters they reach (bottom first)."""
    reach = {}
    for a in rules:
        seen, todo = {a}, [a]
        while todo:
            for c in rules[todo.pop()]:
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
        reach[a] = seen
    groups: dict[frozenset, list[str]] = {}
    for a in rules:
        groups.setdefault(frozenset(b for b in reach[a] if a in reach[b]), []).append(a)
    return sorted(map(tuple, groups.values()), key=lambda comp: len(reach[comp[0]]))


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


def perron_vector(block, lam, exact: bool) -> list:
    """Positive right eigenvector of a primitive block for its dominant value:
    a rational kernel vector for integer ``lam``, numpy's otherwise."""
    k = len(block)
    if exact:
        shifted = [[block[r][c] - (lam if r == c else 0) for c in range(k)] for r in range(k)]
        vec = nullspace_vector(shifted)
    else:
        vals, vecs = np.linalg.eig(np.array(block, dtype=float))
        vec = [float(v) for v in np.real(vecs[:, int(np.argmin(np.abs(vals - lam)))])]
    return [-v for v in vec] if sum(vec) < 0 else vec


def block_vector(words_blocks, entry, lam, anchor: int, side: str, exact: bool = True) -> dict:
    """Eigenvector of a block lower triangular matrix over its blocks.

    ``side="right"`` zeroes the blocks before the anchor, takes the anchor
    block's Perron vector and solves (lam*I - D) x = (coupling to the blocks
    already solved) for each block after it; ``side="left"`` mirrors this
    upward with the column equations. Dense ``Fraction`` elimination for an
    integer ``lam``, numpy floats otherwise; ``entry(u, v)`` is the matrix
    entry in row u and column v.
    """
    right = side == "right"
    n = len(words_blocks)

    def at(u, v):  # the entry read by the equation of u
        return entry(u, v) if right else entry(v, u)

    values: dict = {}
    for j in range(anchor) if right else range(anchor + 1, n):
        values.update(dict.fromkeys(words_blocks[j], Fraction(0) if exact else 0.0))
    words = words_blocks[anchor]
    block = [[at(u, v) for v in words] for u in words]
    values.update(zip(words, perron_vector(block, lam, exact)))
    solved = list(words)
    for j in range(anchor + 1, n) if right else range(anchor - 1, -1, -1):
        ws = words_blocks[j]
        if not ws:
            continue
        rhs = [sum(at(u, s) * values[s] for s in solved) for u in ws]
        A = [[(lam if u == v else 0) - at(u, v) for v in ws] for u in ws]
        if exact:
            x = solve_linear(A, rhs)
        else:
            x = [float(v) for v in np.linalg.solve(np.array(A, dtype=float), np.array(rhs))]
        values.update(zip(ws, x))
        solved.extend(ws)
    return values


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


def word_levels(rules: dict[str, str], levels, m: int) -> dict[str, int]:
    """Each word of the top L_m with the least i such that it lies in L_m(i)."""
    langs = level_languages(rules, levels, m)
    return {w: next(i for i, lang in enumerate(langs, 1) if w in lang) for w in langs[-1]}


def two_word_rows(rules: dict[str, str], levels) -> list[tuple]:
    """Per level i, among the two-letter words new at i (``word_levels``):
    the least forward crossing word (a letter below i, then one of level i)
    and the least backward one (the mirror), in declared letter order, or
    None, and the sorted words with both letters below i."""
    index = word_levels(rules, levels, 2)
    level = {c: next(i for i, lv in enumerate(levels, 1) if c in lv) for c in rules}
    order = {c: k for k, c in enumerate(rules)}
    rows = []
    for i in range(1, len(levels) + 1):
        new = [w for w, e in index.items() if e == i]
        forward = [w for w in new if level[w[0]] < i == level[w[1]]]
        backward = [w for w in new if level[w[0]] == i > level[w[1]]]
        pairs = sorted(w for w in new if level[w[0]] < i and level[w[1]] < i)
        least = [min(words, key=lambda w: [order[c] for c in w], default=None) for words in (forward, backward)]
        rows.append((*least, pairs))
    return rows


def q_block_empty(rules: dict[str, str], new_letters, i: int, m: int) -> bool:
    """Whether no length-m word of the level-i language starts with a letter
    the level adds, by the structural rule: m > 1, level i adds one letter s,
    and sigma(s) is a word over the lower levels followed by s. Then s occurs
    only last in its own images, and no other letter of level i reaches it.
    The word may be empty: a fixed bottom letter s -> s.
    """
    new = new_letters[i - 1]
    if m == 1 or len(new) != 1:
        return False
    img, below = rules[new[0]], {c for level in new_letters[: i - 1] for c in level}
    return img[-1] == new[0] and set(img[:-1]) <= below


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


def s_run_maps(rules: dict[str, str], s: str):
    """First/last non-s letter maps with leading/trailing s-run lengths."""
    first: dict[str, str] = {}
    last: dict[str, str] = {}
    lead: dict[str, int] = {}
    trail: dict[str, int] = {}
    for c, img in rules.items():
        if c == s:
            continue
        nonstop = [x for x in img if x != s]
        first[c], last[c] = nonstop[0], nonstop[-1]
        lead[c] = len(img) - len(img.lstrip(s))
        trail[c] = len(img) - len(img.rstrip(s))
    return first, last, lead, trail


def arbitrarily_long_s_powers(rules: dict[str, str], s: str) -> bool:
    """Whether some cycle of the first (last) non-s letter map accumulates
    leading (trailing) s's per lap, walking the orbit of every letter."""
    first, last, lead, trail = s_run_maps(rules, s)
    for step, weight in ((first, lead), (last, trail)):
        for c in step:
            path, cycle = orbit_cycle(step, c)
            if not path and sum(weight[x] for x in cycle) > 0:
                return True
    return False


def adjacent_pairs_mod_s(rules: dict[str, str], s: str) -> set[tuple[str, str]]:
    """Pairs of non-s letters separated only by s-runs somewhere in the
    language: within-image adjacencies closed under the step (last non-s of
    the left image, first non-s of the right image)."""
    first, last, _, _ = s_run_maps(rules, s)
    pairs: set[tuple[str, str]] = set()
    for c, img in rules.items():
        if c != s:
            nonstop = [x for x in img if x != s]
            pairs.update(zip(nonstop, nonstop[1:]))
    frontier = list(pairs)
    while frontier:
        y, z = frontier.pop()
        nxt = (last[y], first[z])
        if nxt not in pairs:
            pairs.add(nxt)
            frontier.append(nxt)
    return pairs


def left_run_unbounded(rules: dict[str, str], s: str, target: str) -> bool:
    """Whether s^p target is a word for every p: the target sits on a cycle
    of the first non-s map that accumulates leading s's, or that is fed
    across a gap y z by a letter y whose last-map cycle accumulates trailing
    ones. Every level is tested on its own rules."""
    first, last, lead, trail = s_run_maps(rules, s)
    path, cycle = orbit_cycle(first, target)
    if path:
        return False
    if sum(lead[x] for x in cycle) > 0:
        return True
    return any(
        sum(trail[x] for x in orbit_cycle(last, y)[1]) > 0 and target in orbit_cycle(first, z)[1]
        for y, z in adjacent_pairs_mod_s(rules, s)
    )


def right_run_unbounded(rules: dict[str, str], s: str, target: str) -> bool:
    """Whether target s^p is a word for every p: the mirror system's left run."""
    return left_run_unbounded({c: img[::-1] for c, img in rules.items()}, s, target)


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


def count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi] of the squarefree first member of an
    integer Sturm chain (``exact.sturm_chain``), counted in ``Fraction``
    arithmetic."""
    return sturm_count(chain, lo, hi)


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


def convergent_limit(sub, chain, i: int, m: int) -> tuple[dict, dict]:
    """A finite level's convergent limit data ``(alpha, beta)`` at window
    length m from the window eigen pair: ``pf_vectors`` on the level's chain
    ``chain.restrict(i)``, with that chain's own profile, whose top level is
    the level, and beta divided by its pairing with alpha.

    Like ``window_table`` it runs the library's own window solves, but the
    right vector is solved over the windows, not lifted from the letters.
    """
    from chainshift.spectral import block_eigenvalues, pf_vectors

    sub_i, chain_i = chain.restrict(i)
    pair = pf_vectors(sub_i, chain_i, m, block_eigenvalues(sub_i, chain_i))
    pairing = sum(pair.alpha[w] * pair.beta[w] for w in pair.aux.words)
    return pair.alpha, {w: v / pairing for w, v in pair.beta.items()}


def window_table(sub, chain, spectral, i: int, m: int) -> dict[str, tuple]:
    """Level i's cylinder table at window length m by a window solve:
    ``(infinite, exact, float, algebraic note)`` per word of L_m(i).

    The reference for every level's table, integer or irrational; unlike the
    rest of this module it runs the library's own window eigen solves, which
    the library keeps for ``spectral -m`` and ``check``. A finite value is
    the left vector of ``pf_vectors`` on the level's chain, with that chain's
    own profile, over its total; an infinite level's value is the divergent
    ``limit_data``'s gamma at the anchor letter times delta. An irrational
    level's values are floats, each noted with theta's char poly and its
    isolating interval.
    """
    from chainshift.measures import measure_type
    from chainshift.spectral import block_eigenvalues, limit_data, pf_vectors

    desc = measure_type(sub, chain, spectral, i)
    theta = spectral.theta(i)
    note = None
    if theta.as_integer() is None:
        theta.refine(Fraction(1, 2**48))
        note = tuple(theta.poly), (str(theta.lo), str(theta.hi))

    def entry(value):
        if note is None:
            return (False, value, float(value), None)
        return (False, None, float(value), note)

    if desc.kind == "finite_ergodic":
        sub_i, chain_i = chain.restrict(i)
        pair = pf_vectors(sub_i, chain_i, m, block_eigenvalues(sub_i, chain_i))
        assert pair.exact == (note is None)
        total = sum(pair.beta.values())
        return {w: entry(x / total) for w, x in pair.beta.items()}
    ld = limit_data(sub, chain, m, i, spectral)
    assert ld.exact == (note is None)
    anchors = [w for w in ld.restricted_words if w[0] == desc.anchor]
    assert anchors and len({ld.gamma[w] for w in anchors}) == 1
    gamma = ld.gamma[anchors[0]]
    table = dict.fromkeys(ld.infinite_words, (True, None, None, None))
    for w in ld.restricted_words:
        table[w] = entry(gamma * ld.delta[w])
    return table
