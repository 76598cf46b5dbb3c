"""Invariant-measure computation per level.

Levels whose block eigenvalue strictly dominates everything below carry a
finite ergodic measure; cylinder values are left-eigenvector ratios. Levels
dominated from below carry an infinite Radon measure; finite cylinder values
are products of the divergent limit vectors, normalized through the
quasi-fixed point anchored at the level's distinguished letter, and every
word already present below the cutoff level is flagged infinite. Levels with
block eigenvalue 1 only carry counting measures on orbits and expose no
cylinder evaluation.

All level computations run inside the restricted substitution of that level;
values are exact rationals whenever the block eigenvalue is an integer.
Occurrence counts, along the anchor's expansion and in return windows of a
quasi-fixed point, are exact and never expand a word: they descend through
powers of the level substitution and of its window substitution.

Level descriptors are stored on the chain, like the level reports and the
eigen data they are read from (see ``spectral``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .auxiliary import AuxiliarySubstitution, build_auxiliary
from .classify import LevelReport, _bottom_report, classify_level
from .errors import (
    BudgetExceeded,
    DomainError,
    MeasureTypeCounting,
    WordNotInLevelLanguage,
)
from .spectral import SpectralProfile, level_profile, limit_data, pf_vectors
from .structure import ComponentChain
from .words import Substitution

POWER_BUDGET = 10**12


@dataclass
class MeasureDescriptor:
    level: int
    kind: str  # "finite_ergodic" | "infinite_radon" | "counting" | "empty"
    anchor: str | None
    i_prime: int | None
    finite_atoms: int
    infinite_orbits: int


def measure_type(
    sub: Substitution,
    chain: ComponentChain,
    spectral: SpectralProfile,
    i: int,
    report: LevelReport | None = None,
) -> MeasureDescriptor:
    """The kind of invariant measure level i carries, with its anchor data.

    Without a ``report`` the descriptor is read from the chain's stored level
    report and stored on the chain under ``("measure_type", i)``.
    """
    chain.check_level(i)
    if report is None:
        return spectral.memo(
            sub, chain, ("measure_type", i), lambda: _measure_type(sub, chain, spectral, i, None)
        )
    spectral.check(sub, chain)
    return _measure_type(sub, chain, spectral, i, report)


def _measure_type(
    sub: Substitution,
    chain: ComponentChain,
    spectral: SpectralProfile,
    i: int,
    report: LevelReport | None,
) -> MeasureDescriptor:
    if i == 1:
        report = report or _bottom_report(sub, chain)
        if report.case == "bottom_empty":
            return MeasureDescriptor(1, "empty", None, None, 0, 0)
        return MeasureDescriptor(1, "finite_ergodic", report.anchor, None, 0, 0)
    report = report or classify_level(sub, chain, spectral, i)
    if not spectral.theta_is_one(i):
        kind = "finite_ergodic" if spectral.level_is_finite(i) else "infinite_radon"
        ip = spectral.i_prime(i) if kind == "infinite_radon" else None
        return MeasureDescriptor(i, kind, report.anchor, ip, 0, 0)
    finite_atoms = sum(1 for p in report.point_seeds if p.shift_periodic)
    infinite = sum(1 for p in report.point_seeds if not p.shift_periodic)
    if report.quasi_fixed is not None and report.quasi_fixed.isolated_orbit:
        infinite += 1
    if finite_atoms + infinite == 0:
        return MeasureDescriptor(i, "empty", report.anchor, None, 0, 0)
    return MeasureDescriptor(i, "counting", report.anchor, None, finite_atoms, infinite)


@dataclass
class CylinderValue:
    level: int
    word: str
    infinite: bool
    exact: Fraction | None
    value: float | None
    anchor: str | None
    algebraic: dict | None = None  # char poly + isolating interval when irrational

    def as_json(self):
        if self.infinite:
            val = "inf"
        elif self.exact is not None:
            val = str(self.exact)
        else:
            val = self.value
        out = {"value": val, "float": self.value, "anchor_letter": self.anchor}
        if self.algebraic:
            out["algebraic"] = self.algebraic
        return out


def _algebraic_note(theta) -> dict | None:
    if theta.as_integer() is not None:
        return None
    theta.refine(Fraction(1, 2**48))
    return {
        "char_poly": list(theta.poly),
        "isolating_interval": [str(theta.lo), str(theta.hi)],
    }


def _require_level_word(
    sub_i: Substitution, chain_i: ComponentChain, i: int, v: str
) -> None:
    """Raise unless v is in the level-i language.

    The language is read from the level's window substitution at m = |v|,
    which every caller goes on to use, so it is built once for both.
    """
    if v not in build_auxiliary(sub_i, chain_i, len(v)).level_words[-1]:
        raise WordNotInLevelLanguage(f"{v!r} is not in the level-{i} language")


def cylinder_measure(
    sub: Substitution,
    chain: ComponentChain,
    spectral: SpectralProfile,
    i: int,
    v: str,
) -> CylinderValue:
    """Measure of the cylinder anchored at the origin spelling ``v``.

    Two-sided cylinders reduce to one-sided ones by shift invariance, so only
    the concatenated word matters.
    """
    desc = measure_type(sub, chain, spectral, i)
    if desc.kind == "empty":
        raise DomainError(f"level {i} has no points, no measure to evaluate")
    if desc.kind == "counting":
        raise MeasureTypeCounting(
            f"level {i} carries counting measures on orbits; cylinder values are not exposed"
        )
    if not v:
        raise DomainError("cylinder word must be nonempty")
    m = len(v)
    sub_i, chain_i = chain.restrict(i)
    _require_level_word(sub_i, chain_i, i, v)
    if desc.kind == "finite_ergodic":
        pair = pf_vectors(sub_i, chain_i, m, level_profile(sub, chain, i, spectral))
        value, exact = pair.beta[v] / pair.beta_total, pair.exact
    else:
        ld = limit_data(sub, chain, m, i, spectral)
        if v in ld.infinite_words:
            return CylinderValue(i, v, True, None, None, desc.anchor)
        anchors = [w for w in ld.restricted_words if w[0] == desc.anchor]
        if not anchors:
            raise RuntimeError(f"level {i}: anchor letter {desc.anchor!r} starts no language window")
        gammas = [ld.gamma[w] for w in anchors]
        if ld.exact and len(set(gammas)) != 1:
            raise RuntimeError(f"level {i}: right limit vector depends on more than the first letter")
        value, exact = gammas[0] * ld.delta[v], ld.exact
    if exact:
        return CylinderValue(i, v, False, value, float(value), desc.anchor)
    note = _algebraic_note(spectral.theta(i))
    return CylinderValue(i, v, False, None, float(value), desc.anchor, note)


# ---------------------------------------------------------------------------
# occurrence counts


def _length_tables(
    sub: Substitution, anchor: str, target: int, *, at_most: bool
) -> list[dict[str, int]]:
    """Letter image lengths ``|sub^j(c)|`` for j = 0..k.

    k is the smallest power with ``|sub^k(anchor)| >= target``, or with
    ``at_most`` the largest with ``|sub^k(anchor)| <= target``.
    """
    tables = [{c: 1 for c in sub.alphabet}]
    stall = 0
    while True:
        lengths = tables[-1]
        size = lengths[anchor]
        if not at_most and size >= target:
            return tables
        nxt = {c: sum(lengths[x] for x in sub.image(c)) for c in sub.alphabet}
        if at_most and nxt[anchor] > target:
            return tables
        stall = stall + 1 if nxt[anchor] == size else 0
        if stall > 2 * len(sub.alphabet) + 4:
            raise BudgetExceeded("anchor expansion does not grow")
        tables.append(nxt)


def _block_counts(aux: AuxiliarySubstitution, v: str, k: int) -> list[dict[str, int]]:
    """Occurrences of ``v`` in each block ``aux^j(x)``, j = 0..k.

    The j-th table is the column ``M^j e_v`` of the window matrix powers,
    built by one sparse step per power.
    """
    cols = [{x: int(x == v) for x in aux.words}]
    for _ in range(k):
        prev = cols[-1]
        cols.append({x: sum(prev[y] for y in aux.image(x)) for x in aux.words})
    return cols


def _prefix_count(
    aux: AuxiliarySubstitution,
    u: str,
    cols: list[dict[str, int]],
    lengths: list[dict[str, int]],
    total: int,
) -> int:
    """Occurrences of the word counted by ``cols`` among the first ``total``
    windows of ``aux^k(u)``, with ``k = len(lengths) - 1``.

    The block ``aux^j(x)`` holds ``|sigma^j(x[0])|`` windows, so the prefix
    splits into whole blocks, each counted by one entry of ``cols``, and one
    partial block per level, into which the walk descends (Dumont-Thomas).
    """
    count = taken = 0
    children: tuple[str, ...] = (u,)
    for j in range(len(lengths) - 1, -1, -1):
        for y in children:
            size = lengths[j][y[0]]
            if taken + size > total:
                break
            count += cols[j][y]
            taken += size
        else:
            break
        if taken == total:
            break
        children = aux.image(y)
    if taken != total:
        raise RuntimeError(f"prefix blocks cover {taken} windows, expected {total}")
    return count


@dataclass
class EmpiricalFrequency:
    level: int
    word: str
    length: int
    power: int
    ratio: float
    scaled_power: int | None = None
    scaled_count: int | None = None
    scaled_value: float | None = None


def empirical_frequency(
    sub: Substitution,
    chain: ComponentChain,
    spectral: SpectralProfile,
    i: int,
    v: str,
    L: int,
    *,
    power_budget: int = POWER_BUDGET,
) -> EmpiricalFrequency:
    """Occurrence statistics of ``v`` along the expansion of the anchor letter.

    Returns the frequency in the length-L prefix of the first power image of
    length >= L, and for infinite-measure levels also the occurrence count in
    a full power image scaled by the level eigenvalue (the windowed count
    differs from the plain count by less than the window length).

    Both counts are exact and never expand the prefix: the m-windows of
    ``sigma^k(u)`` are ``aux^k(u)`` for the window substitution aux, so they
    come from O(k) sparse window-matrix steps with k ~ log L.
    """
    desc = measure_type(sub, chain, spectral, i)
    if desc.kind not in ("finite_ergodic", "infinite_radon"):
        raise DomainError(f"level {i} has no expanding anchor to count along")
    if not v or len(v) > L:
        raise DomainError("need a nonempty word no longer than the prefix")
    m = len(v)
    sub_i, chain_i = chain.restrict(i)
    _require_level_word(sub_i, chain_i, i, v)
    if L > power_budget:
        raise BudgetExceeded(f"prefix length {L} exceeds the power budget {power_budget}")
    anchor = desc.anchor
    aux = build_auxiliary(sub_i, chain_i, m)
    # Any window starting with the anchor works: the first L - m + 1 windows
    # of sigma^k(u) lie inside sigma^k(anchor).
    u = min((w for w in aux.words if w[0] == anchor), key=sub_i.alphabet.word_key)
    lengths = _length_tables(sub_i, anchor, L, at_most=False)
    k = k2 = len(lengths) - 1
    if desc.kind == "infinite_radon":
        k2 = len(_length_tables(sub_i, anchor, power_budget, at_most=True)) - 1
    cols = _block_counts(aux, v, max(k, k2))
    ratio = _prefix_count(aux, u, cols, lengths, L - m + 1) / L
    result = EmpiricalFrequency(level=i, word=v, length=L, power=k, ratio=ratio)
    if desc.kind == "infinite_radon":
        count = cols[k2][u]
        theta = spectral.theta(i)
        exact_theta = theta.as_integer()
        if exact_theta is not None:
            scaled = float(Fraction(count, exact_theta**k2))
        else:
            scaled = count / float(theta) ** k2
        result.scaled_power = k2
        result.scaled_count = count
        result.scaled_value = scaled
    return result


@dataclass
class UniformityResult:
    level: int
    word: str
    window_count: int
    target: float
    ratios: dict[int, float]
    max_deviation: float


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
    with the eigenvector ratio they should converge to. A falsification
    harness, not a proof.

    The forward seed gives ``sigma^k(b) = P b v`` with P over lower letters, so
    the right half ``R = b v sigma^k(v) ...`` satisfies ``sigma^k(R) = P R`` and
    ``sigma^K(b)`` ends in a prefix of R for every multiple K of k. Visits come
    from a descent through letter tables of ``sigma^t``, occurrences from the
    window-substitution descent of ``_prefix_count``; nothing is expanded.
    """
    chain.check_level(i)
    if i < 2:
        raise DomainError("uniformity windows are defined on levels >= 2")
    if n < 1 or not offsets or min(offsets) < 0:
        raise DomainError("need a positive window size and at least one offset, all nonnegative")
    report = classify_level(sub, chain, spectral, i)
    if report.quasi_fixed is None:
        raise DomainError(f"level {i} has no quasi-fixed point to count along")
    seed = report.quasi_fixed.seed
    new = set(chain.new_letters(i))
    if not any(c in new for c in v):
        raise DomainError("the word must contain a new letter of the level")
    m = len(v)
    sub_i, chain_i = chain.restrict(i)
    _require_level_word(sub_i, chain_i, i, v)
    # Target ratio from the eigenvector data, normalized over the windows
    # that start with a new letter.
    if spectral.theta_is_one(i):
        raise DomainError(f"level {i} has eigenvalue 1; no frequency target exists")
    if spectral.level_is_finite(i):
        data = pf_vectors(sub_i, chain_i, m, level_profile(sub, chain, i, spectral)).beta
    else:
        data = limit_data(sub, chain, m, i, spectral).delta
    target = float(data[v] / sum(val for w, val in data.items() if w[0] in new))
    if seed.orientation != "forward":  # theta > 1 puts a lower-new word in L_2
        raise RuntimeError(f"level {i}: theta > 1 but the seed is not forward")

    # Tables of sigma^t, t = 0..K: letter image lengths and new-letter counts.
    # K grows by k until sigma^K(b) = (lower prefix) R[:covered] holds the visits.
    b, letters = seed.b, sub_i.alphabet.letters
    lengths, visits = [dict.fromkeys(letters, 1)], [{c: int(c in new) for c in letters}]
    covered = 1
    while visits[-1][b] <= max(offsets) + n:
        covered += sum(lengths[-1][c] for c in seed.v)
        if covered > POWER_BUDGET:
            raise BudgetExceeded(f"return windows exceed the power budget {POWER_BUDGET}")
        for _ in range(seed.k):
            for table in (lengths, visits):
                table.append({c: sum(table[-1][x] for x in sub_i.image(c)) for c in letters})
    K, prefix = len(lengths) - 1, lengths[-1][b] - covered

    def select(j: int) -> int:  # position in R of its j-th new letter; R[0] = b is the 0-th
        pos, c = -prefix, b
        for t in range(K - 1, -1, -1):
            for x in sub_i.image(c):
                if visits[t][x] > j:
                    break
                j -= visits[t][x]
                pos += lengths[t][x]
            c = x
        return pos

    aux = build_auxiliary(sub_i, chain_i, m)
    # Any window starting with b works: every counted window ends inside sigma^K(b).
    u = next(w for w in aux.words if w[0] == b)
    cols = _block_counts(aux, v, K)

    def rank(p: int) -> int:  # occurrences of v starting before position p of R
        return _prefix_count(aux, u, cols, lengths, prefix + p)

    # The window from visit j to visit j + n, both inclusive, holds the starts lo .. hi - m + 1.
    ratios: dict[int, float] = {}
    for j in sorted(set(offsets)):
        lo, hi = select(j), select(j + n)
        ratios[j] = (rank(max(lo, hi + 2 - m)) - rank(lo)) / n
    deviation = max(abs(r - target) for r in ratios.values())
    return UniformityResult(
        level=i, word=v, window_count=n, target=target, ratios=ratios, max_deviation=deviation
    )


def level_measure_table(
    sub: Substitution,
    chain: ComponentChain,
    spectral: SpectralProfile,
    i: int,
    max_m: int = 2,
) -> dict:
    """Descriptor plus cylinder values for all words up to length ``max_m``."""
    desc = measure_type(sub, chain, spectral, i)
    out: dict = {"level": i, "kind": desc.kind, "anchor_letter": desc.anchor}
    if desc.kind == "infinite_radon":
        out["i_prime"] = desc.i_prime
    if desc.kind == "counting":
        out["finite_atoms"] = desc.finite_atoms
        out["infinite_orbits"] = desc.infinite_orbits
    if desc.kind in ("finite_ergodic", "infinite_radon"):
        sub_i, chain_i = chain.restrict(i)
        key = sub.alphabet.word_key
        cylinders: dict[str, dict] = {}
        for m in range(1, max_m + 1):
            for w in sorted(build_auxiliary(sub_i, chain_i, m).level_words[-1], key=key):
                cylinders[w] = cylinder_measure(sub, chain, spectral, i, w).as_json()
        out["cylinders"] = cylinders
    return out
