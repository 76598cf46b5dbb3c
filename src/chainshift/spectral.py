"""Per-level dominant eigenvalues and the structured eigenvector data of the
windowed incidence matrix.

Eigenvalue comparisons (equality between levels, equality with 1) are decided
exactly through integer characteristic polynomials; floating point enters
only for eigenvector entries when the dominant root is irrational, and every
computed vector is residual-checked.

The right vector is built downward from the last block attaining the global
rate: the attaining block contributes its Perron vector, coordinates above it
are zero, and each block below solves (lam*I - D) x = coupling, which is
nonsingular because every lower diagonal block has spectral radius < lam. The
left vector is built symmetrically upward from the first attaining block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .auxiliary import AuxiliarySubstitution, auxiliary_matrix, build_auxiliary
from .errors import LambdaNotDominant, ThetaNotAboveOne
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
        n = len(levels)
        best = 1
        for i in range(2, n + 1):
            if self.theta(i) > self.theta(best):
                best = i
        self.i_min = min(i for i in range(1, n + 1) if self.theta(i) == self.theta(best))
        self.i_max = max(i for i in range(1, n + 1) if self.theta(i) == self.theta(best))

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
        best = 1
        for j in range(2, i + 1):
            if self.theta(j) > self.theta(best):
                best = j
        return self.theta(best)

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
        if i == 1:
            return True
        return self.theta(i).compare(self.lambda_upto(i - 1)) > 0

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
    return _block_eigenvalues_cached(sub, chain)


@lru_cache(maxsize=None)
def _block_eigenvalues_cached(sub: Substitution, chain: ComponentChain) -> SpectralProfile:
    levels = []
    for i in range(1, chain.n + 1):
        block = chain.block(i)
        poly = charpoly(block)
        sums = [sum(row) for row in block]
        theta = AlgebraicReal(poly, (min(sums), max(sums)))
        assert (theta.compare(1) == 0) == (block == ((1,),)), "theta=1 iff the block is [1]"
        levels.append(
            LevelSpectrum(
                level=i,
                letters=chain.new_letters(i),
                block=block,
                char_poly=poly,
                row_bounds=(min(sums), max(sums)),
                theta=theta,
            )
        )
    return SpectralProfile(chain, levels)


# ---------------------------------------------------------------------------
# vector engine


def _pf_right(block, lam, exact: bool):
    """Positive right eigenvector of a primitive block for its dominant value."""
    k = len(block)
    if exact:
        A = [[Fraction(block[r][c]) - (lam if r == c else 0) for c in range(k)] for r in range(k)]
        vec = nullspace_vector(A)
        if all(v <= 0 for v in vec):
            vec = [-v for v in vec]
        assert all(v > 0 for v in vec), "Perron vector must be positive"
        return vec
    arr = np.array(block, dtype=float)
    vals, vecs = np.linalg.eig(arr)
    idx = int(np.argmin(np.abs(vals - lam)))
    vec = np.real(vecs[:, idx])
    if vec.sum() < 0:
        vec = -vec
    assert vec.min() > -1e-9 * max(1.0, vec.max()), "Perron vector must be positive"
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
            [
                (lam if r == c else Fraction(0)) - Fraction(diag[c][r] if transpose else diag[r][c])
                for c in rows
            ]
            for r in rows
        ]
        return solve_linear(A, [Fraction(v) for v in rhs])
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
        if side == "right":
            rhs = [sum(entry(u, v) * values[v] for v in solved) for u in ws]
        else:
            rhs = [sum(values[u] * entry(u, v) for u in solved) for v in ws]
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


@dataclass
class EigenPair:
    """Right and left dominant eigenvectors over the window alphabet."""

    m: int
    aux: AuxiliarySubstitution
    lam: AlgebraicReal
    alpha: dict[str, object]
    beta: dict[str, object]
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
    lam = spectral.lam
    if lam.compare(1) <= 0:
        raise LambdaNotDominant("global growth rate is <= 1; no dominant eigenvector data")
    aux = build_auxiliary(sub, chain, m)
    matrix = auxiliary_matrix(aux)
    pos = {w: i for i, w in enumerate(aux.words)}

    def entry(u: str, v: str) -> int:
        return matrix.entries[pos[u]][pos[v]]

    exact = lam.as_integer() is not None
    lam_value = Fraction(lam.as_integer()) if exact else float(lam)
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
    lam_float = float(lam)
    for side, values in (("right", alpha), ("left", beta)):
        res = _residual(matrix.entries, aux.words, values, lam_float, side)
        if res > RESIDUAL_TOL:
            raise AssertionError(f"eigenvector residual {res:.3e} exceeds {RESIDUAL_TOL}")
    return EigenPair(m=m, aux=aux, lam=lam, alpha=alpha, beta=beta, exact=exact)


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
    chain.check_level(i)
    theta = spectral.theta(i)
    if theta.compare(1) <= 0:
        raise ThetaNotAboveOne(f"level {i} eigenvalue is 1; no scaled limit data")
    sub_i, chain_i = chain.restrict(i)
    spectral_i = block_eigenvalues(sub_i, chain_i)
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
    assert ip >= 2, "divergent mode implies a dominating lower level"
    blocks = [
        (kind, lvl, ws)
        for kind, lvl, ws in aux.blocks_in_order()
        if (kind == "G" and lvl >= ip - 1) or (kind == "Q" and lvl >= ip)
    ]
    words_blocks = [ws for _, _, ws in blocks]
    restricted = tuple(w for ws in words_blocks for w in ws)
    exact = theta.as_integer() is not None
    theta_value = Fraction(theta.as_integer()) if exact else float(theta)
    anchor = next(j for j, (kind, lvl, _) in enumerate(blocks) if kind == "Q" and lvl == i)
    assert anchor == len(blocks) - 1, "the level block is last in the restriction"
    gamma = _block_vector(words_blocks, entry, theta_value, anchor, exact, "right")
    delta = _block_vector(words_blocks, entry, theta_value, anchor, exact, "left")
    gamma = _min_positive_normalize(gamma, exact)
    if exact:
        assert all(v > 0 for v in delta.values()), "left limit vector must be positive"
    pairing = sum(gamma[w] * delta[w] for w in restricted)
    delta = {w: v / pairing for w, v in delta.items()}
    sub_entries = tuple(tuple(entry(u, v) for v in restricted) for u in restricted)
    theta_float = float(theta)
    for side, values in (("right", gamma), ("left", delta)):
        res = _residual(sub_entries, restricted, values, theta_float, side)
        if res > RESIDUAL_TOL:
            raise AssertionError(f"limit vector residual {res:.3e} exceeds {RESIDUAL_TOL}")
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
