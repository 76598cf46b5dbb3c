"""Per-level dominant eigenvalues and the structured eigenvector data of the
windowed incidence matrix.

Eigenvalue comparisons (equality between levels, equality with 1) are decided
exactly through integer characteristic polynomials; floating point enters
only for eigenvector entries when the dominant root is irrational. When the
dominant root is an integer the blocks are solved by fraction-free integer
elimination and every vector must satisfy M x = lam x exactly; float vectors
are residual-checked instead.

A diagonal block whose rows all sum to r has Perron root r
(Perron-Frobenius), so its theta is the exact integer r, checked by one
integer evaluation of the characteristic polynomial and built without a Sturm
chain; the other blocks isolate their largest root by Sturm bisection. A
profile compares its levels once, when it is built, and keeps the running
maximum, so ``lambda_upto`` and ``level_is_finite`` are lookups.

The right vector is built downward from the last block attaining the global
rate: the attaining block contributes its Perron vector, coordinates above it
are zero, and each block below solves (lam*I - D) x = coupling, which is
nonsingular because every lower diagonal block has spectral radius < lam. The
left vector is built symmetrically upward from the first attaining block.

Every cylinder value of one level and window length reads the same vectors,
so they are solved once. Like everything else derived from a chain, they are
stored on the chain (``ComponentChain.memo``): ``block_eigenvalues`` under
``("spectral",)``, ``pf_vectors`` under ``("pf_vectors", m)`` and
``limit_data`` under ``("limit_data", m, i)``; ``classify`` adds seed pairs,
point seeds and level reports, ``measures`` its descriptors. A profile
belongs to one chain: ``SpectralProfile.memo`` stores on that chain, and a
profile passed with another chain raises ``DomainError``. ``level_profile`` keeps the level-i
profile as the ``("spectral",)`` entry of ``chain.restrict(i)``. The stored
data holds at most one entry per level and window length actually asked
for, and lives exactly as long as its chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .auxiliary import AuxiliarySubstitution, auxiliary_matrix, build_auxiliary
from .errors import DomainError, LambdaNotDominant, ThetaNotAboveOne
from .exact import AlgebraicReal, charpoly, nullspace_vector, solve_linear
from .structure import ComponentChain, IntMatrix
from .words import Substitution

RESIDUAL_TOL = 1e-9


@dataclass
class LevelSpectrum:
    level: int
    letters: tuple[str, ...]
    block: IntMatrix
    char_poly: tuple[int, ...]
    row_bounds: tuple[int, int]
    theta: AlgebraicReal


class SpectralProfile:
    """Exactly comparable per-level eigenvalue data."""

    def __init__(self, chain: ComponentChain, levels: list[LevelSpectrum]):
        self.chain = chain
        self.levels = levels
        best = last = 1  # first and last level attaining the maximum so far
        upto = [1]  # first level attaining the maximum over levels 1..i
        for i in range(2, len(levels) + 1):
            sign = self.theta(i).compare(self.theta(best))
            if sign > 0:
                best = i
            last = i if sign >= 0 else last
            upto.append(best)
        self._upto = upto
        self.i_min, self.i_max = best, last

    def check(self, sub: Substitution, chain: ComponentChain) -> None:
        """Raise ``DomainError`` unless the profile describes ``(sub, chain)``:
        its eigenvalues, i_min and i_max would be wrong for another chain."""
        # Identity first: every memo lookup checks, and the caller almost
        # always passes the profile's own objects.
        if not (chain is self.chain or chain == self.chain) or not (
            sub is chain.sub or sub == chain.sub
        ):
            raise DomainError("the spectral profile describes another chain")

    def memo(self, sub: Substitution, chain: ComponentChain, key: tuple, compute, *args):
        """``compute(*args)`` once per ``key``, stored on this profile's chain,
        which must be ``chain`` (see ``check``)."""
        self.check(sub, chain)
        return self.chain.memo(key, compute, *args)

    @property
    def n(self) -> int:
        return len(self.levels)

    def theta(self, i: int) -> AlgebraicReal:
        self.chain.check_level(i)
        return self.levels[i - 1].theta

    @property
    def lam(self) -> AlgebraicReal:
        return self.theta(self.i_min)

    def lambda_upto(self, i: int) -> AlgebraicReal:
        """Running maximum over levels 1..i."""
        self.chain.check_level(i)
        return self.theta(self._upto[i - 1])

    def eta_from(self, i: int) -> AlgebraicReal:
        """Running maximum over levels i..n."""
        self.chain.check_level(i)
        best = i
        for j in range(i + 1, self.n + 1):
            if self.theta(j) > self.theta(best):
                best = j
        return self.theta(best)

    def theta_is_one(self, i: int) -> bool:
        return self.theta(i).compare(1) == 0

    def level_is_finite(self, i: int) -> bool:
        """Whether the level dominates everything below it."""
        self.chain.check_level(i)
        return self._upto[i - 1] == i

    def i_prime(self, i: int) -> int:
        """First level of the maximal run below i on which theta_i dominates."""
        self.chain.check_level(i)
        j = i
        while j >= 2 and self.theta(j - 1) < self.theta(i):
            j -= 1
        return j

    def eq_classes(self) -> list[list[int]]:
        classes: list[list[int]] = []
        for i in range(1, self.n + 1):
            for cls in classes:
                if self.theta(cls[0]) == self.theta(i):
                    cls.append(i)
                    break
            else:
                classes.append([i])
        return classes


def block_eigenvalues(sub: Substitution, chain: ComponentChain) -> SpectralProfile:
    """The chain's spectral profile, built once and stored on the chain."""
    if sub != chain.sub:
        raise DomainError("the substitution is not the one the chain was built from")
    return chain.memo(("spectral",), _block_eigenvalues, chain)


def _block_eigenvalues(chain: ComponentChain) -> SpectralProfile:
    levels = []
    for i in range(1, chain.n + 1):
        block = chain.block(i)
        poly = charpoly(block)
        sums = [sum(row) for row in block]
        bounds = (min(sums), max(sums))
        if bounds[0] == bounds[1]:
            # Constant row sums r: the Perron root is r (Perron-Frobenius).
            theta = AlgebraicReal.integer_root(poly, bounds[0])
        else:
            theta = AlgebraicReal(poly, bounds)
        if (theta.compare(1) == 0) != (block == ((1,),)):
            raise RuntimeError(f"level {i}: theta = 1 must hold exactly when the block is [1]")
        levels.append(
            LevelSpectrum(
                level=i,
                letters=chain.new_letters(i),
                block=block,
                char_poly=poly,
                row_bounds=bounds,
                theta=theta,
            )
        )
    return SpectralProfile(chain, levels)


def level_profile(
    sub: Substitution, chain: ComponentChain, i: int, spectral: SpectralProfile
) -> SpectralProfile:
    """Profile of the level-i sub-chain ``chain.restrict(i)``.

    It is built from the first i levels of ``spectral``, which must describe
    ``(sub, chain)``, and stored as the sub-chain's own profile, so the
    sub-chain's characteristic polynomials are not solved again. The two
    profiles share the level eigenvalues, whose refinement only narrows the
    interval of the same root. The top level is ``spectral`` itself.
    """
    spectral.check(sub, chain)
    if i == chain.n:
        return spectral
    chain_i = chain.restrict(i)[1]
    return chain_i.memo(("spectral",), lambda: SpectralProfile(chain_i, spectral.levels[:i]))


# ---------------------------------------------------------------------------
# vector engine


def _pf_right(block, lam, exact: bool):
    """Positive right eigenvector of a primitive block for its dominant value."""
    k = len(block)
    if exact:
        A = [[block[r][c] - (lam if r == c else 0) for c in range(k)] for r in range(k)]
        vec = nullspace_vector(A)
        if all(v <= 0 for v in vec):
            vec = [-v for v in vec]
        if not all(v > 0 for v in vec):
            raise RuntimeError("Perron vector must be positive")
        return [Fraction(v) for v in vec]
    arr = np.array(block, dtype=float)
    vals, vecs = np.linalg.eig(arr)
    idx = int(np.argmin(np.abs(vals - lam)))
    vec = np.real(vecs[:, idx])
    if vec.sum() < 0:
        vec = -vec
    if not vec.min() > -1e-9 * max(1.0, vec.max()):
        raise RuntimeError("Perron vector must be positive")
    return [max(float(v), 0.0) for v in vec]


def _pf_left(block, lam, exact: bool):
    transposed = [[block[r][c] for r in range(len(block))] for c in range(len(block))]
    return _pf_right(transposed, lam, exact)


def _solve_shifted(diag, lam, rhs, exact: bool, transpose: bool):
    """Solve (lam*I - D) x = rhs, or its transpose variant for left vectors."""
    k = len(diag)
    if k == 0:
        return []
    rows = range(k)
    if exact:
        A = [
            [(lam if r == c else 0) - (diag[c][r] if transpose else diag[r][c]) for c in rows]
            for r in rows
        ]
        return solve_linear(A, rhs)
    D = np.array(diag, dtype=float)
    if transpose:
        D = D.T
    A = lam * np.eye(k) - D
    return [float(v) for v in np.linalg.solve(A, np.array(rhs, dtype=float))]


def _block_vector(
    words_blocks: list[tuple[str, ...]],
    entry,
    lam,
    anchor: int,
    exact: bool,
    side: str,
) -> dict[str, object]:
    """Structured eigenvector over concatenated blocks.

    ``side='right'`` zeroes blocks before the anchor and back-substitutes
    after it; ``side='left'`` zeroes blocks after the anchor and
    back-substitutes before it, using column equations.
    """
    values: dict[str, object] = {}
    zero = Fraction(0) if exact else 0.0
    outer = range(anchor + 1, len(words_blocks)) if side == "right" else range(anchor - 1, -1, -1)
    dead = range(anchor) if side == "right" else range(anchor + 1, len(words_blocks))
    for j in dead:
        for w in words_blocks[j]:
            values[w] = zero
    anchor_words = words_blocks[anchor]
    diag = [[entry(u, v) for v in anchor_words] for u in anchor_words]
    pf = _pf_right(diag, lam, exact) if side == "right" else _pf_left(diag, lam, exact)
    values.update(zip(anchor_words, pf))
    solved = list(anchor_words)
    for j in outer:
        ws = words_blocks[j]
        if not ws:
            continue
        diag = [[entry(u, v) for v in ws] for u in ws]
        # Window matrices are sparse: multiply the nonzero entries only.
        # Skipping exact zeros leaves every float sum unchanged.
        if side == "right":
            rhs = [sum(c * values[v] for v in solved if (c := entry(u, v))) for u in ws]
        else:
            rhs = [sum(values[u] * c for u in solved if (c := entry(u, v))) for v in ws]
        x = _solve_shifted(diag, lam, rhs, exact, transpose=(side == "left"))
        values.update(zip(ws, x))
        solved.extend(ws)
    return values


def _min_positive_normalize(values: dict[str, object], exact: bool) -> dict[str, object]:
    if exact:
        positive = [v for v in values.values() if v > 0]
        scale = min(positive)
        return {w: v / scale for w, v in values.items()}
    mx = max(abs(float(v)) for v in values.values())
    tol = 1e-9 * max(mx, 1.0)
    positive = [float(v) for v in values.values() if float(v) > tol]
    scale = min(positive)
    return {w: (float(v) / scale if float(v) > tol else 0.0) for w, v in values.items()}


def _residual(
    entries: IntMatrix, order, values: dict[str, object], lam_float: float, side: str
) -> float:
    arr = np.array(entries, dtype=float)
    x = np.array([float(values[w]) for w in order])
    r = arr @ x - lam_float * x if side == "right" else x @ arr - lam_float * x
    scale = max(np.max(np.abs(x)), 1e-300)
    return float(np.max(np.abs(r)) / scale)


def _check_eigenvector(
    entries: IntMatrix, order, values: dict[str, object], lam, exact: bool, side: str, what: str
) -> None:
    """Raise unless ``values`` is a ``side`` eigenvector of ``entries`` for ``lam``.

    Exact data (integer ``lam``, ``Fraction`` values) must satisfy the
    identity exactly, checked in integers after clearing denominators; float
    data must meet ``RESIDUAL_TOL``.
    """
    if not exact:
        res = _residual(entries, order, values, lam, side)
        if res > RESIDUAL_TOL:
            raise AssertionError(f"{what} residual {res:.3e} exceeds {RESIDUAL_TOL}")
        return
    x = [values[w] for w in order]
    scale = lcm(*(v.denominator for v in x))
    xs = [v.numerator * (scale // v.denominator) for v in x]
    lines = entries if side == "right" else zip(*entries)
    for line, xv in zip(lines, xs):
        if sum(a * v for a, v in zip(line, xs) if a) != lam * xv:
            raise AssertionError(f"{what} fails the exact {side} eigen identity for {lam}")


@dataclass
class EigenPair:
    """Right and left dominant eigenvectors over the window alphabet."""

    m: int
    aux: AuxiliarySubstitution
    lam: AlgebraicReal
    alpha: dict[str, object]
    beta: dict[str, object]
    beta_total: object  # sum of beta: the normaliser of finite cylinder values
    exact: bool
    normalization: str = "smallest positive entry = 1"

    def pairing(self):
        return sum(self.alpha[w] * self.beta[w] for w in self.aux.words)


def pf_vectors(
    sub: Substitution,
    chain: ComponentChain,
    m: int,
    spectral: SpectralProfile | None = None,
) -> EigenPair:
    spectral = spectral or block_eigenvalues(sub, chain)
    return spectral.memo(sub, chain, ("pf_vectors", m), _pf_vectors, sub, chain, m, spectral)


def _pf_vectors(
    sub: Substitution, chain: ComponentChain, m: int, spectral: SpectralProfile
) -> EigenPair:
    lam = spectral.lam
    if lam.compare(1) <= 0:
        raise LambdaNotDominant("global growth rate is <= 1; no dominant eigenvector data")
    aux = build_auxiliary(sub, chain, m)
    matrix = auxiliary_matrix(aux)
    pos = {w: i for i, w in enumerate(aux.words)}

    def entry(u: str, v: str) -> int:
        return matrix.entries[pos[u]][pos[v]]

    exact = lam.as_integer() is not None
    lam_value = lam.as_integer() if exact else float(lam)
    blocks = aux.blocks_in_order()
    words_blocks = [ws for _, _, ws in blocks]
    anchor_alpha = next(
        j for j, (kind, lvl, _) in enumerate(blocks) if kind == "Q" and lvl == spectral.i_max
    )
    anchor_beta = next(
        j for j, (kind, lvl, _) in enumerate(blocks) if kind == "Q" and lvl == spectral.i_min
    )
    alpha = _block_vector(words_blocks, entry, lam_value, anchor_alpha, exact, "right")
    beta = _block_vector(words_blocks, entry, lam_value, anchor_beta, exact, "left")
    alpha = _min_positive_normalize(alpha, exact)
    beta = _min_positive_normalize(beta, exact)
    for side, values in (("right", alpha), ("left", beta)):
        _check_eigenvector(
            matrix.entries, aux.words, values, lam_value, exact, side, "eigenvector"
        )
    return EigenPair(
        m=m, aux=aux, lam=lam, alpha=alpha, beta=beta, beta_total=sum(beta.values()), exact=exact
    )


@dataclass
class LimitData:
    """Normalized growth data of matrix powers scaled by a level's eigenvalue.

    Convergent mode (the level dominates everything below): the scaled powers
    converge entrywise to an outer product alpha * beta with pairing 1.
    Divergent mode: entries over the language below ``i_prime`` blow up; on
    the remaining coordinates the limit is gamma * delta with pairing 1.
    """

    level: int
    m: int
    mode: str  # "convergent" | "divergent"
    exact: bool
    i_prime: int | None
    theta: AlgebraicReal
    alpha: dict[str, object] | None = None
    beta: dict[str, object] | None = None
    gamma: dict[str, object] | None = None
    delta: dict[str, object] | None = None
    infinite_words: frozenset[str] = frozenset()
    restricted_words: tuple[str, ...] = ()


def limit_data(
    sub: Substitution,
    chain: ComponentChain,
    m: int,
    i: int,
    spectral: SpectralProfile | None = None,
) -> LimitData:
    spectral = spectral or block_eigenvalues(sub, chain)
    return spectral.memo(
        sub, chain, ("limit_data", m, i), _limit_data, sub, chain, m, i, spectral
    )


def _limit_data(
    sub: Substitution, chain: ComponentChain, m: int, i: int, spectral: SpectralProfile
) -> LimitData:
    chain.check_level(i)
    theta = spectral.theta(i)
    if theta.compare(1) <= 0:
        raise ThetaNotAboveOne(f"level {i} eigenvalue is 1; no scaled limit data")
    sub_i, chain_i = chain.restrict(i)
    spectral_i = level_profile(sub, chain, i, spectral)
    if spectral.level_is_finite(i):
        pair = pf_vectors(sub_i, chain_i, m, spectral_i)
        pairing = pair.pairing()
        beta = {w: v / pairing for w, v in pair.beta.items()}
        return LimitData(
            level=i,
            m=m,
            mode="convergent",
            exact=pair.exact,
            i_prime=None,
            theta=theta,
            alpha=pair.alpha,
            beta=beta,
        )
    aux = build_auxiliary(sub_i, chain_i, m)
    matrix = auxiliary_matrix(aux)
    pos = {w: j for j, w in enumerate(aux.words)}

    def entry(u: str, v: str) -> int:
        return matrix.entries[pos[u]][pos[v]]

    ip = spectral.i_prime(i)
    if ip < 2:
        raise RuntimeError(f"level {i}: divergent mode without a dominating lower level")
    blocks = [
        (kind, lvl, ws)
        for kind, lvl, ws in aux.blocks_in_order()
        if (kind == "G" and lvl >= ip - 1) or (kind == "Q" and lvl >= ip)
    ]
    words_blocks = [ws for _, _, ws in blocks]
    restricted = tuple(w for ws in words_blocks for w in ws)
    exact = theta.as_integer() is not None
    theta_value = theta.as_integer() if exact else float(theta)
    anchor = next(j for j, (kind, lvl, _) in enumerate(blocks) if kind == "Q" and lvl == i)
    if anchor != len(blocks) - 1:
        raise RuntimeError(f"level {i}: the level block is not last in the restriction")
    gamma = _block_vector(words_blocks, entry, theta_value, anchor, exact, "right")
    delta = _block_vector(words_blocks, entry, theta_value, anchor, exact, "left")
    gamma = _min_positive_normalize(gamma, exact)
    if exact and not all(v > 0 for v in delta.values()):
        raise RuntimeError(f"level {i}: the left limit vector is not positive")
    pairing = sum(gamma[w] * delta[w] for w in restricted)
    delta = {w: v / pairing for w, v in delta.items()}
    sub_entries = tuple(tuple(entry(u, v) for v in restricted) for u in restricted)
    for side, values in (("right", gamma), ("left", delta)):
        _check_eigenvector(
            sub_entries, restricted, values, theta_value, exact, side, "limit vector"
        )
    infinite = aux.level_words[ip - 2]
    return LimitData(
        level=i,
        m=m,
        mode="divergent",
        exact=exact,
        i_prime=ip,
        theta=theta,
        gamma=gamma,
        delta=delta,
        infinite_words=frozenset(infinite),
        restricted_words=restricted,
    )
