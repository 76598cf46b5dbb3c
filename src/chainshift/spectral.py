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
maximum, so ``level_is_finite`` is a lookup.

The left vector is built upward from the first block attaining the global
rate: the attaining block contributes its Perron vector, coordinates after
it are zero, and each block before it solves x (lam*I - D) = coupling, which
is nonsingular because every lower diagonal block has spectral radius < lam.
An integer lam makes a solve or a check exact: vectors stay integer
numerators at one common scale (fraction-free Bareiss solves, each returning
``(y, det)`` with x = y / det), made ``Fraction``s once per word at the end.
The right vector of ``pf_vectors`` is built symmetrically downward from the
last attaining block.

A level's invariant measure is one left vector over its blocks, its own
block last (``_level_vectors``). Its right vector needs no further solve: it
vanishes below that block, and on it a row counts the letters of
sigma(u[0]), so gamma(u) = r(u[0]) for the Perron vector r of the level's
letter block. This solve serves every cylinder table: on the k x k letter
blocks for an integer theta (``measures``), on the chain's own windows for
an irrational one (``window_vectors``), and ``limit_data`` in both modes:
on the window blocks from Q(1), or G(i'-1) on an infinite level, up to Q(i)
(``_level_windows``), as L_m(i) is closed under the window map.
``pf_vectors`` and ``limit_data`` serve ``spectral -m``, ``check`` and
library callers.

Like everything else derived from a chain, these are stored on the chain
(``ComponentChain.memo``): ``block_eigenvalues`` under ``("spectral",)``,
``pf_vectors`` under ``("pf_right", m)`` and ``limit_data`` under
``("limit_data", m, i)``; ``classify`` adds seed pairs and level reports,
``measures`` one record per level, ``("level", i)``, with its
descriptor and cylinder tables. Only ``pf_vectors`` solves the right vector
over the windows. Each public function checks once that its profile
describes its chain (``SpectralProfile.check``) before it stores anything;
the private code takes the chain alone and reads ``chain.sub``. The profile
keeps the chain's substitution and components, not the chain, so nothing
stored refers back to its chain. The stored data holds at most one entry per
level and window length asked for, and lives exactly as long as its chain.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .auxiliary import AuxiliarySubstitution, build_auxiliary
from .errors import DomainError, InternalInvariantError, LambdaNotDominant, ThetaNotAboveOne
from .exact import AlgebraicReal, charpoly, solve_linear
from .structure import ComponentChain, IntMatrix, check_level, letter_counts
from .words import Record, Substitution

RESIDUAL_TOL = 1e-9


class LevelSpectrum(Record):
    __slots__ = ("level", "letters", "block", "char_poly", "row_bounds", "theta")

    def __init__(self, level: int, letters: tuple[str, ...], block: IntMatrix, char_poly: tuple[int, ...],
                 row_bounds: tuple[int, int], theta: AlgebraicReal):
        self.level, self.letters, self.block = level, letters, block
        self.char_poly, self.row_bounds, self.theta = char_poly, row_bounds, theta


class SpectralProfile:
    """Exactly comparable per-level eigenvalue data."""

    def __init__(self, chain: ComponentChain, levels: list[LevelSpectrum]):
        # what the eigenvalues depend on (see ``check``), not the chain, whose
        # memo holds the profile
        self._chain_key = (chain.sub, chain.components)
        self.levels = levels
        best = last = 1  # first and last level attaining the maximum so far
        upto = [1]  # first level attaining the maximum over levels 1..i
        for i in range(2, len(levels) + 1):
            sign = levels[i - 1].theta.compare(levels[best - 1].theta)
            if sign > 0:
                best = i
            last = i if sign >= 0 else last
            upto.append(best)
        self._upto = upto
        self.i_min, self.i_max = best, last

    def check(self, sub: Substitution, chain: ComponentChain) -> None:
        """Raise ``DomainError`` unless the profile describes ``(sub, chain)``:
        its eigenvalues, i_min and i_max would be wrong for a chain with
        another substitution or other components; the witness power plays no part."""
        # Equal tuples compare their items by identity first: every memo
        # lookup checks, and the caller almost always passes the profile's
        # own objects.
        if (chain.sub, chain.components) != self._chain_key or not (
            sub is chain.sub or sub == chain.sub
        ):
            raise DomainError("the spectral profile describes another chain")

    @property
    def n(self) -> int:
        return len(self.levels)

    def theta(self, i: int) -> AlgebraicReal:
        check_level(i, len(self.levels))
        return self.levels[i - 1].theta

    @property
    def lam(self) -> AlgebraicReal:
        return self.theta(self.i_min)

    def theta_is_one(self, i: int) -> bool:
        return self.levels[check_level(i, len(self.levels)) - 1].theta.rational == 1

    def level_is_finite(self, i: int) -> bool:
        """Whether the level dominates everything below it."""
        check_level(i, len(self.levels))
        return self._upto[i - 1] == i

    def i_prime(self, i: int) -> int:
        """First level of the maximal run below i on which theta_i dominates."""
        check_level(i, len(self.levels))
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
    image = dict(zip(chain.sub.alphabet.letters, chain.sub.images))
    levels = []
    for i, letters in enumerate(chain.components, start=1):
        block = letter_counts(map(image.__getitem__, letters), letters)  # Q_i
        poly = charpoly(block)
        sums = [sum(row) for row in block]
        bounds = (min(sums), max(sums))
        if bounds[0] == bounds[1]:
            # Constant row sums r: the Perron root is r (Perron-Frobenius).
            theta = AlgebraicReal.integer_root(poly, bounds[0])
        else:
            theta = AlgebraicReal(poly, bounds)
        # compare, not ``theta.rational == 1``: on an irrational theta the
        # comparison narrows the isolating interval, and the printed float reads it
        if (theta.compare(1) == 0) != (block == ((1,),)):
            raise InternalInvariantError(f"level {i}: theta = 1 must hold exactly when the block is [1]")
        levels.append(LevelSpectrum(i, letters, block, poly, bounds, theta))
    return SpectralProfile(chain, levels)


# ---------------------------------------------------------------------------
# vector engine


def _pf_right(block, lam):
    """Positive right eigenvector of an irreducible block for its dominant
    value: a primitive integer vector for an integer ``lam``, floats otherwise.

    For an integer ``lam`` the first coordinate is fixed and the others solve
    (lam I - B') y = B[1:, 0], B' the block without its first row and
    column. The block is irreducible, so its proper principal submatrix B'
    has spectral radius below lam (Perron-Frobenius): lam I - B' is a
    nonsingular M-matrix, det > 0, and the vector is (det, *y) over its gcd.
    """
    k = len(block)
    if isinstance(lam, int):
        minor = [[(lam if r == c else 0) - block[r][c] for c in range(1, k)] for r in range(1, k)]
        try:
            y, det = solve_linear(minor, [block[r][0] for r in range(1, k)])
        except ZeroDivisionError:
            raise InternalInvariantError(f"the Perron minor of a {k}x{k} block is singular") from None
        g = gcd(det, *y)
        vec = [det // g, *(v // g for v in y)]
        if not all(v > 0 for v in vec):
            raise InternalInvariantError("Perron vector must be positive")
        return vec
    try:
        vals, vecs = np.linalg.eig(np.array(block, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise InternalInvariantError(f"the float eigen solve of a {k}x{k} block failed: {exc}") from None
    idx = int(np.argmin(np.abs(vals - lam)))
    vec = np.real(vecs[:, idx])
    if vec.sum() < 0:
        vec = -vec
    if not vec.min() > -1e-9 * max(1.0, vec.max()):
        raise InternalInvariantError("Perron vector must be positive")
    return [max(float(v), 0.0) for v in vec]


def _window_rows(aux: AuxiliarySubstitution) -> dict[str, dict[str, int]]:
    """The nonzero entries of the window matrix by row: row u counts the
    windows of u's image."""
    rows: dict[str, dict[str, int]] = {}
    for u in aux.words:
        row = rows[u] = {}
        for w in aux.images[u]:
            row[w] = row.get(w, 0) + 1
    return rows


def _left_vector(words_blocks: list[tuple[str, ...]], rows, lam, anchor: int):
    """Left eigenvector of a block lower triangular matrix over its blocks.

    ``rows[u]`` holds the nonzero entries of row u. Blocks after the anchor
    are zero, the anchor holds the Perron vector of its diagonal block, and
    each block before it solves the column equations x (lam*I - D) = (its
    coupling to the blocks already solved). An integer ``lam`` gives exact
    integer numerators at one common scale: a solve returns ``(y, det)``
    with x = y / det, so the values solved before it are multiplied by det.
    The right eigenvector is the left one of the transpose with the blocks in
    reverse order.
    """
    exact = isinstance(lam, int)
    values: dict[str, object] = {}
    zero = 0 if exact else 0.0
    for ws in words_blocks[anchor + 1 :]:
        values.update(dict.fromkeys(ws, zero))
    # Column entries of the rows from the anchor down, in the order they are
    # solved: a float sum adds its terms in that order.
    columns: dict[str, list[tuple[str, int]]] = {}
    for j in range(anchor, -1, -1):
        for u in words_blocks[j]:
            for w, c in rows[u].items():
                columns.setdefault(w, []).append((u, c))
    anchor_words = words_blocks[anchor]
    transposed = [[rows[v].get(u, 0) for v in anchor_words] for u in anchor_words]
    values.update(zip(anchor_words, _pf_right(transposed, lam)))
    for j in range(anchor - 1, -1, -1):
        ws = words_blocks[j]
        if not ws:
            continue
        # Rows of this block and of the zero blocks add nothing to the
        # coupling; the rows below it have no entry in its columns.
        own = set(ws)
        rhs = [sum(values[u] * c for u, c in columns.get(v, ()) if u not in own) for v in ws]
        transposed = [[rows[v].get(u, 0) for v in ws] for u in ws]
        if exact:
            shifted = [[-c for c in row] for row in transposed]
            for r, row in enumerate(shifted):
                row[r] += lam
            try:
                y, det = solve_linear(shifted, rhs)
            except ZeroDivisionError:
                raise InternalInvariantError(f"lam I - D of a {len(ws)}x{len(ws)} block is singular") from None
            if det != 1:
                for u in values:
                    values[u] *= det
            values.update(zip(ws, y))
        else:
            shifted = lam * np.eye(len(ws)) - np.array(transposed, dtype=float)
            try:
                x = np.linalg.solve(shifted, np.array(rhs, dtype=float))
            except np.linalg.LinAlgError as exc:
                raise InternalInvariantError(f"float lam I - D of a {len(ws)}x{len(ws)} block: {exc}") from None
            values.update(zip(ws, (float(v) for v in x)))
    return values


def _right_vector(words_blocks: list[tuple[str, ...]], rows, lam, anchor: int):
    """Right eigenvector: zero before the anchor, solved after it."""
    columns: dict[str, dict[str, int]] = {u: {} for u in rows}
    for u, row in rows.items():
        for w, c in row.items():
            columns[w][u] = c
    last = len(words_blocks) - 1
    return _left_vector(words_blocks[::-1], columns, lam, last - anchor)


def _min_positive_normalize(values: dict[str, object], exact: bool) -> dict[str, object]:
    """Scale so the smallest positive entry is 1: integer numerators become
    ``Fraction``s, floats within 1e-9 of the largest entry's scale become 0."""
    if exact:
        scale = min(v for v in values.values() if v > 0)
        return {w: Fraction(v, scale) for w, v in values.items()}
    mx = max(abs(float(v)) for v in values.values())
    tol = 1e-9 * max(mx, 1.0)
    positive = [float(v) for v in values.values() if float(v) > tol]
    scale = min(positive)
    return {w: (float(v) / scale if float(v) > tol else 0.0) for w, v in values.items()}


def _check_eigenvector(rows, order, values: dict[str, object], lam, side: str, what: str) -> None:
    """Raise unless ``values`` is a ``side`` eigenvector for ``lam`` of the
    matrix with nonzero entries ``rows`` restricted to the words ``order``.

    Exact data (integer ``lam``, integer or ``Fraction`` values) must satisfy
    the identity exactly; the vector engine checks its integer numerators
    directly. Float data must meet ``RESIDUAL_TOL`` relative to the largest
    entry.
    """
    inside = set(order)
    if side == "right":
        image = {u: sum(c * values[w] for w, c in rows[u].items() if w in inside) for u in order}
    else:
        image = dict.fromkeys(order, 0)
        for u in order:
            if x := values[u]:
                for w, c in rows[u].items():
                    if w in inside:
                        image[w] += x * c
    if isinstance(lam, int):
        if any(image[w] != lam * values[w] for w in order):
            raise InternalInvariantError(f"{what} fails the exact {side} eigen identity for {lam}")
        return
    scale = max(max(abs(values[w]) for w in order), 1e-300)
    res = max(abs(image[w] - lam * values[w]) for w in order) / scale
    if res > RESIDUAL_TOL:
        raise InternalInvariantError(f"{what} residual {res:.3e} exceeds {RESIDUAL_TOL}")


def _anchor(blocks, level: int) -> int:
    """Position of the Q block of ``level`` among ``blocks``."""
    return next(j for j, (kind, lvl, _) in enumerate(blocks) if kind == "Q" and lvl == level)


def _level_vectors(blocks, rows, theta, what: str, level: LevelSpectrum | None = None):
    """The left vector delta of one level for its eigenvalue ``theta`` over
    ``blocks``, the level's own block last: letters or windows, ``rows``
    counting each one's image. Exact for an integer ``theta``.

    With ``level``, the level's ``LevelSpectrum``, also the right vector
    gamma of its limit data. It vanishes below the level's block, and on it a
    row counts the letters of sigma(u[0]), so gamma(u) = r(u[0]) for the
    Perron vector r of the level's letter block; without ``level`` gamma is
    None. Each vector passes its eigen identity (``what`` names it) at the
    scale it is returned: exact ones as integer numerators, float ones with
    smallest positive entry 1, except a delta returned with gamma, which its
    pairing with gamma scales.
    """
    exact = isinstance(theta, int)
    order = [w for ws in blocks for w in ws]
    delta = _left_vector(blocks, rows, theta, len(blocks) - 1)
    if not exact and level is None:
        delta = _min_positive_normalize(delta, exact)
    _check_eigenvector(rows, order, delta, theta, "left", what)
    if level is None:
        return delta, None
    r = dict(zip(level.letters, _pf_right(level.block, theta)))
    gamma = dict.fromkeys(order, 0 if exact else 0.0)
    gamma.update((u, r[u[0]]) for u in blocks[-1])
    if not all(gamma[u] > 0 for u in blocks[-1]):
        raise InternalInvariantError(
            f"level {level.level}: the lifted right limit vector is not positive"
        )
    if not exact:
        gamma = _min_positive_normalize(gamma, exact)
    _check_eigenvector(rows, order, gamma, theta, "right", what)
    return delta, gamma


class EigenPair(Record):
    """Right and left dominant eigenvectors over the window alphabet, each
    scaled so that its smallest positive entry is 1."""

    __slots__ = ("m", "aux", "lam", "alpha", "beta", "exact")

    def __init__(self, m: int, aux: AuxiliarySubstitution, lam: AlgebraicReal, alpha: dict[str, object],
                 beta: dict[str, object], exact: bool):
        self.m, self.aux, self.lam = m, aux, lam
        self.alpha, self.beta, self.exact = alpha, beta, exact


def pf_vectors(
    sub: Substitution,
    chain: ComponentChain,
    m: int,
    spectral: SpectralProfile | None = None,
) -> EigenPair:
    """Both dominant eigenvectors over the window alphabet: the left one
    anchored at ``i_min``, the right one at ``i_max``."""
    spectral = spectral or block_eigenvalues(sub, chain)
    spectral.check(sub, chain)
    return chain.memo(("pf_right", m), _pf_vectors, chain, m, spectral)


def _pf_vectors(chain: ComponentChain, m: int, spectral: SpectralProfile) -> EigenPair:
    lam = spectral.lam
    if lam.compare(1) <= 0:
        raise LambdaNotDominant("global growth rate is <= 1; no dominant eigenvector data")
    aux = build_auxiliary(chain.sub, chain, m)
    rows = _window_rows(aux)
    exact = lam.as_integer() is not None
    lam_value = lam.as_integer() if exact else float(lam)
    blocks = aux.blocks_in_order()
    words_blocks = [ws for _, _, ws in blocks]
    beta = _left_vector(words_blocks, rows, lam_value, _anchor(blocks, spectral.i_min))
    if not exact:
        beta = _min_positive_normalize(beta, exact)
    _check_eigenvector(rows, aux.words, beta, lam_value, "left", "eigenvector")
    alpha = _right_vector(words_blocks, rows, lam_value, _anchor(blocks, spectral.i_max))
    if not exact:
        alpha = _min_positive_normalize(alpha, exact)
    _check_eigenvector(rows, aux.words, alpha, lam_value, "right", "eigenvector")
    if exact:  # Fractions from the integer numerators, once per word
        alpha, beta = _min_positive_normalize(alpha, exact), _min_positive_normalize(beta, exact)
    return EigenPair(m=m, aux=aux, lam=lam, alpha=alpha, beta=beta, exact=exact)


def _level_windows(
    chain: ComponentChain, m: int, i: int, spectral: SpectralProfile
) -> tuple[AuxiliarySubstitution, list[tuple[str, ...]]]:
    """The chain's window substitution and the blocks of it that level i's
    vectors live on, the level's block last: Q(1) .. Q(i) on a finite level,
    G(i'-1) .. Q(i) on an infinite one."""
    aux = build_auxiliary(chain.sub, chain, m)
    start = 1
    if not spectral.level_is_finite(i):
        start = spectral.i_prime(i)
        if start < 2:
            raise InternalInvariantError(f"level {i}: divergent mode without a dominating lower level")
    blocks = [(kind, lvl, ws) for kind, lvl, ws in aux.blocks_in_order() if start <= lvl + (kind == "G") <= i]
    if blocks[-1][:2] != ("Q", i):
        raise InternalInvariantError(f"level {i}: the level block is not last among its blocks")
    return aux, [ws for _, _, ws in blocks]


def window_vectors(
    chain: ComponentChain, m: int, i: int, spectral: SpectralProfile
) -> tuple[dict[str, float], dict[str, float] | None, frozenset[str]]:
    """An irrational level's vectors over the chain's windows of length m in
    its blocks (``_level_windows``): ``(delta, gamma, infinite words)``.

    On a finite level delta is the left vector scaled to total 1, and gamma
    is None. On an infinite level they are the divergent ``limit_data``'s:
    gamma depends only on the first letter, and the words below i' are
    infinite. The caller has checked the profile against the chain.
    """
    if not spectral.level_is_finite(i):
        ld = chain.memo(("limit_data", m, i), _limit_data, chain, m, i, spectral)
        return ld.delta, ld.gamma, ld.infinite_words
    aux, blocks = _level_windows(chain, m, i, spectral)
    delta, _ = _level_vectors(blocks, _window_rows(aux), float(spectral.theta(i)), "eigenvector")
    total = sum(delta.values())
    return {w: x / total for w, x in delta.items()}, None, frozenset()


class LimitData(Record):
    """Normalized growth data of matrix powers scaled by a level's eigenvalue,
    over the chain's windows in the level's blocks.

    Convergent mode (the level dominates everything below): the scaled powers
    converge entrywise to an outer product alpha * beta with pairing 1.
    Divergent mode: entries over the language below ``i_prime`` blow up; on
    the remaining coordinates the limit is gamma * delta with pairing 1. Both
    modes come from one solve (``_level_vectors``): alpha or gamma is the
    right vector lifted from the level's letter block by each window's first
    letter, with smallest positive entry 1, and beta or delta the left vector
    over its pairing with it. ``mode`` is "convergent" or "divergent".
    """

    __slots__ = ("level", "m", "mode", "exact", "i_prime", "theta", "alpha", "beta", "gamma", "delta",
                 "infinite_words", "restricted_words")

    def __init__(self, level: int, m: int, mode: str, exact: bool, i_prime: int | None, theta: AlgebraicReal,
                 alpha: dict[str, object] | None = None, beta: dict[str, object] | None = None,
                 gamma: dict[str, object] | None = None, delta: dict[str, object] | None = None,
                 infinite_words: frozenset[str] = frozenset(), restricted_words: tuple[str, ...] = ()):
        self.level, self.m, self.mode = level, m, mode
        self.exact, self.i_prime, self.theta = exact, i_prime, theta
        self.alpha, self.beta, self.gamma, self.delta = alpha, beta, gamma, delta
        self.infinite_words, self.restricted_words = infinite_words, restricted_words


def limit_data(
    sub: Substitution, chain: ComponentChain, m: int, i: int, spectral: SpectralProfile
) -> LimitData:
    spectral.check(sub, chain)
    return chain.memo(("limit_data", m, i), _limit_data, chain, m, i, spectral)


def _limit_data(chain: ComponentChain, m: int, i: int, spectral: SpectralProfile) -> LimitData:
    chain.check_level(i)
    theta = spectral.theta(i)
    if theta.compare(1) <= 0:
        raise ThetaNotAboveOne(f"level {i} eigenvalue is 1; no scaled limit data")
    aux, words_blocks = _level_windows(chain, m, i, spectral)
    exact = theta.as_integer() is not None
    theta_value = theta.as_integer() if exact else float(theta)
    level = spectral.levels[i - 1]
    delta, gamma = _level_vectors(words_blocks, _window_rows(aux), theta_value, "limit vector", level)
    if exact and not all(v > 0 for v in delta.values()):
        raise InternalInvariantError(f"level {i}: the left limit vector is not positive")
    if exact:
        gamma = _min_positive_normalize(gamma, exact)
    restricted = tuple(w for ws in words_blocks for w in ws)
    pairing = sum(gamma[w] * delta[w] for w in restricted)
    delta = {w: v / pairing for w, v in delta.items()}
    if spectral.level_is_finite(i):
        return LimitData(i, m, "convergent", exact, None, theta, alpha=gamma, beta=delta)
    ip = spectral.i_prime(i)
    infinite = frozenset(w for w, e in aux.word_level.items() if e < ip)
    return LimitData(
        i, m, "divergent", exact, ip, theta, gamma=gamma, delta=delta,
        infinite_words=infinite, restricted_words=restricted,
    )
