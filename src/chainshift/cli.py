"""Command line interface: command dispatch and JSON reports.

A rule file is read by ``words.parse_input``: one rule per line,
``X -> IMAGE``; ``#`` starts a comment, blank lines are ignored, and the
alphabet order is the rule declaration order. Exit codes: 0 ok, 2 an
unreadable file, else the ``exit_code`` of the library error raised (see
``errors``): 2 parse error, 3 no primitive component chain, 4 domain error,
5 budget exceeded, 6 internal invariant violated (every library check raises
``InternalInvariantError``). An error prints a JSON
``{"error": {code, kind, message}}`` on stdout and one line on stderr.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from collections import Counter
from fractions import Fraction

from .auxiliary import auxiliary_matrix, build_auxiliary
from .classify import DecompositionReport, decomposition_report
from .errors import BudgetExceeded, ChainshiftError, DomainError, NoPrimitiveChainError, ParseError
from .measures import cylinder_measure, empirical_frequency, level_measure_table
from .spectral import SpectralProfile, block_eigenvalues, pf_vectors
from .structure import component_chain, incidence_matrix, mat_mul
from .words import InputSpec, apply, language, parse_input


def _value_str(x):
    if isinstance(x, Fraction):
        return str(x)
    return float(x)


def _seed_json(seed):
    return {
        "a": seed.a,
        "b": seed.b,
        "k": seed.k,
        "u": seed.u,
        "v": seed.v,
        "orientation": seed.orientation,
    }


def _point_seed_json(p):
    out = {"kind": p.kind, "shift_periodic": p.shift_periodic}
    if p.kind == "bilateral_limit":
        out.update({"form": p.form, "gamma": p.gamma, "delta": p.delta, "power_step": p.q})
        if p.form == "s_middle":
            out["middle_run"] = p.middle_s
        out["window_radius"] = p.radius
    return out


def _classification_json(report: DecompositionReport) -> dict:
    levels = []
    for lr in report.levels:
        entry: dict = {"level": lr.level, "case": lr.case, "x_i_nonempty": lr.x_i_nonempty}
        if lr.anchor is not None:
            entry["anchor_letter"] = lr.anchor
        if lr.seed is not None:
            entry["seed"] = _seed_json(lr.seed)
        if lr.quasi_fixed is not None:
            qf = lr.quasi_fixed
            entry["quasi_fixed"] = {
                "primitive_type": qf.primitive_type,
                "positively_recurrent": qf.positively_recurrent,
                "isolated_orbit": qf.isolated_orbit,
            }
        entry["point_seeds"] = [_point_seed_json(p) for p in lr.point_seeds]
        if lr.notes:
            entry["notes"] = lr.notes
        levels.append(entry)
    return {
        "levels": levels,
        "minimal_sets": report.minimal.census,
        "unique_ergodicity": {
            "verdict": report.minimal.uniquely_ergodic,
            "clause": report.minimal.clause,
        },
    }


def _spectral_json(spectral: SpectralProfile) -> dict:
    levels = []
    for ls in spectral.levels:
        levels.append(
            {
                "level": ls.level,
                "letters": list(ls.letters),
                "theta": float(ls.theta),
                "char_poly": list(ls.char_poly),
                "row_bounds": list(ls.row_bounds),
                "is_one": spectral.theta_is_one(ls.level),
            }
        )
    return {
        "levels": levels,
        "lambda": float(spectral.lam),
        "i_min": spectral.i_min,
        "i_max": spectral.i_max,
        "eq_classes": spectral.eq_classes(),
    }


def _chain_json(chain) -> dict:
    return {
        "levels": [list(level) for level in chain.levels],
        "n": chain.n,
        "witness_k": chain.witness_k,
    }


def _vector_json(values: dict[str, object], order) -> dict:
    return {w: _value_str(values[w]) for w in order}


def cmd_analyze(spec: InputSpec, args) -> dict:
    sub = spec.substitution
    chain = component_chain(sub)
    spectral = block_eigenvalues(sub, chain)
    report = decomposition_report(sub, chain, spectral)
    matrix = incidence_matrix(sub)
    measures = [
        level_measure_table(sub, chain, spectral, i, max_m=2) for i in range(1, chain.n + 1)
    ]
    return {
        "alphabet": list(sub.alphabet.letters),
        "rules": sub.rules_text().splitlines(),
        "chain": _chain_json(chain),
        "matrix": {"letters": list(matrix.letters), "entries": [list(r) for r in matrix.entries]},
        "spectral": _spectral_json(spectral),
        "classification": _classification_json(report),
        "measures": measures,
    }


def cmd_language(spec: InputSpec, args) -> dict:
    sub = spec.substitution
    words = sorted(language(sub, args.m), key=sub.alphabet.word_key)
    return {"m": args.m, "count": len(words), "words": words}


def cmd_matrix(spec: InputSpec, args) -> dict:
    sub = spec.substitution
    if args.m is None:
        matrix = incidence_matrix(sub)
        return {
            "letters": list(matrix.letters),
            "entries": [list(r) for r in matrix.entries],
        }
    chain = component_chain(sub)
    aux = build_auxiliary(sub, chain, args.m)
    matrix = auxiliary_matrix(aux)
    return {
        "m": args.m,
        "letters": list(matrix.letters),
        "entries": [list(r) for r in matrix.entries],
        "blocks": [
            {"kind": kind, "level": level, "words": list(ws)}
            for kind, level, ws in aux.blocks_in_order()
        ],
    }


def cmd_spectral(spec: InputSpec, args) -> dict:
    sub = spec.substitution
    chain = component_chain(sub)
    spectral = block_eigenvalues(sub, chain)
    out = _spectral_json(spectral)
    if args.m is not None:
        if spectral.lam.compare(1) > 0:
            pair = pf_vectors(sub, chain, args.m, spectral)
            out["window"] = {
                "m": args.m,
                "alpha": _vector_json(pair.alpha, pair.aux.words),
                "beta": _vector_json(pair.beta, pair.aux.words),
                "exact": pair.exact,
            }
        else:
            out["window"] = {"m": args.m, "note": "growth rate 1: no dominant eigenvector data"}
    return out


def cmd_classify(spec: InputSpec, args) -> dict:
    sub = spec.substitution
    chain = component_chain(sub)
    spectral = block_eigenvalues(sub, chain)
    report = decomposition_report(sub, chain, spectral)
    out = _classification_json(report)
    out["chain"] = _chain_json(chain)
    return out


def cmd_measure(spec: InputSpec, args) -> dict:
    sub = spec.substitution
    chain = component_chain(sub)
    spectral = block_eigenvalues(sub, chain)
    cv = cylinder_measure(sub, chain, spectral, args.level, args.word)
    out = {"level": args.level, "word": args.word}
    out.update(cv.as_json())
    return out


def cmd_simulate(spec: InputSpec, args) -> dict:
    sub = spec.substitution
    chain = component_chain(sub)
    spectral = block_eigenvalues(sub, chain)
    freq = empirical_frequency(sub, chain, spectral, args.level, args.word, args.length)
    out = {
        "level": freq.level,
        "word": freq.word,
        "prefix_length": freq.length,
        "power": freq.power,
        "ratio": freq.ratio,
    }
    if freq.scaled_power is not None:
        out["scaled"] = {
            "power": freq.scaled_power,
            "count": freq.scaled_count,
            "value": freq.scaled_value,
        }
    return out


def _require(ok: bool, what: str) -> None:
    """Fail the running check; unlike ``assert``, this survives ``python -O``."""
    if not ok:
        raise AssertionError(what)


def _check(name: str, fn) -> dict:
    try:
        fn()
        return {"name": name, "ok": True}
    except Exception as exc:  # report, do not abort the battery
        return {"name": name, "ok": False, "detail": f"{type(exc).__name__}: {exc}"}


def cmd_check(spec: InputSpec, args) -> dict:
    sub = spec.substitution
    chain = component_chain(sub)
    spectral = block_eigenvalues(sub, chain)
    checks = []

    def row_sums():
        matrix = incidence_matrix(sub)
        for letter, total in zip(matrix.letters, matrix.row_sums()):
            _require(total == len(sub.image(letter)), f"row sum of {letter!r}")

    checks.append(_check("incidence_row_sums", row_sums))

    def chain_closure():
        for i in range(1, chain.n + 1):
            level = set(chain.alphabet_at(i))
            for c in level:
                _require(set(sub.image(c)) <= level, f"level {i} not closed at {c!r}")
        matrix, k = incidence_matrix(sub), chain.witness_k
        previous = matrix.power(k - 1)
        power = mat_mul(previous, matrix.entries)
        letters = matrix.letters
        required = [
            (r, c)
            for r, a in enumerate(letters)
            for c, b in enumerate(letters)
            if chain.level_of(a) >= chain.level_of(b)
        ]
        for r, c in required:
            _require(power[r][c] > 0, f"witness power misses {letters[r]!r} -> {letters[c]!r}")
        # the least such power: the one before it misses a required entry
        least = k == 1 or not all(previous[r][c] for r, c in required)
        _require(least, f"power {k - 1} is already a witness")

    checks.append(_check("chain_closure_and_witness", chain_closure))

    def aux_rows():
        for m in (1, 2):
            aux = build_auxiliary(sub, chain, m)
            matrix = auxiliary_matrix(aux)
            block_ord: dict[str, int] = {}
            for rank, (_, _, ws) in enumerate(aux.blocks_in_order()):
                for w in ws:
                    block_ord[w] = rank
            for u, row in zip(matrix.letters, matrix.entries):
                _require(sum(row) == len(sub.image(u[0])), f"row sum of window {u!r}")
                for v, value in zip(matrix.letters, row):
                    _require(
                        value == 0 or block_ord[v] <= block_ord[u],
                        f"window {u!r} -> {v!r} above the block diagonal",
                    )

    checks.append(_check("window_matrix_triangular", aux_rows))

    def aux_powers():
        aux = build_auxiliary(sub, chain, 2)
        power = auxiliary_matrix(aux).power(3)
        for u, row in zip(aux.words, power):
            expanded = apply(sub, u, 3)
            windows = Counter(expanded[j : j + 2] for j in range(len(apply(sub, u[0], 3))))
            for v, count in zip(aux.words, row):
                _require(windows[v] == count, f"windows {u!r} -> {v!r}")

    checks.append(_check("window_matrix_power_semantics", aux_powers))

    def vectors():
        if spectral.lam.compare(1) > 0:
            for m in (1, 2):
                pf_vectors(sub, chain, m, spectral)

    checks.append(_check("eigenvector_residuals", vectors))

    def seeds():
        report = decomposition_report(sub, chain, spectral)
        for lr in report.levels[1:]:
            seed = lr.seed
            if seed is None:
                continue
            if seed.orientation == "forward":
                ok = apply(sub, seed.a + seed.b, seed.k) == seed.u + seed.a + seed.b + seed.v
            else:
                ok = apply(sub, seed.b + seed.a, seed.k) == seed.v + seed.b + seed.a + seed.u
            _require(ok, f"seed identity of level {lr.level}")

    checks.append(_check("seed_identities", seeds))

    def measures_consistent():
        for i in range(1, chain.n + 1):
            try:
                table = level_measure_table(sub, chain, spectral, i, max_m=1)
            except (DomainError, BudgetExceeded):  # a failed invariant fails the check
                continue
            if "cylinders" not in table:
                continue
            two_words = {w for w, e in chain.word_levels(2).items() if e <= i}
            for v in sorted(w for w, e in chain.word_levels(1).items() if e <= i):
                base = cylinder_measure(sub, chain, spectral, i, v)
                if base.infinite:
                    continue
                exts = [
                    cylinder_measure(sub, chain, spectral, i, v + a)
                    for a in chain.alphabet_at(i)
                    if v + a in two_words
                ]
                if base.exact is not None and all(e.exact is not None for e in exts):
                    ok = sum(e.exact for e in exts) == base.exact
                else:
                    ok = abs(sum(e.value for e in exts) - base.value) <= 1e-9
                _require(ok, f"extensions of {v!r} at level {i}")

    checks.append(_check("cylinder_consistency", measures_consistent))

    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainshift",
        description="Analyze substitution subshifts built over a chain of primitive components.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_text: str):
        cmd = commands.add_parser(name, help=help_text)
        cmd.add_argument("file", help="substitution rule file")
        cmd.set_defaults(fn=fn)
        return cmd

    add("analyze", cmd_analyze, "full report")
    lang = add("language", cmd_language, "length-m language words")
    lang.add_argument("-m", type=int, required=True)
    matrix = add("matrix", cmd_matrix, "incidence or window matrix")
    matrix.add_argument("-m", type=int, default=None)
    spectral = add("spectral", cmd_spectral, "per-level eigenvalue data")
    spectral.add_argument("-m", type=int, default=None)
    add("classify", cmd_classify, "level decomposition and unique ergodicity")
    measure = add("measure", cmd_measure, "cylinder measure value")
    measure.add_argument("-i", type=int, required=True, dest="level")
    measure.add_argument("-v", required=True, dest="word")
    simulate = add("simulate", cmd_simulate, "empirical frequency along the anchor expansion")
    simulate.add_argument("-i", type=int, required=True, dest="level")
    simulate.add_argument("-v", required=True, dest="word")
    simulate.add_argument("-L", type=int, required=True, dest="length")
    add("check", cmd_check, "run the invariant battery on this input")
    return parser


def _freeze_heap_at_exit() -> None:
    """Register ``gc.freeze`` with ``atexit``, once per process however often
    ``main`` runs: an earlier registration is dropped first.

    At exit the interpreter would otherwise run full collections over every
    object numpy and this package made, about 45 ms of a 0.4 s CLI call on
    a 2-core container; frozen objects are skipped. No output changes: it
    is printed before the hook runs and flushed after it, as before.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    _freeze_heap_at_exit()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.file, encoding="utf-8-sig") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"rule file is not valid UTF-8: {exc}") from None
        spec = parse_input(text)
        result = args.fn(spec, args)
    except OSError as exc:
        print(json.dumps({"error": {"code": 2, "kind": "io", "message": str(exc)}}))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChainshiftError as exc:
        code = exc.exit_code
        payload = {"code": code, "kind": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NoPrimitiveChainError):
            payload["diagnostic"] = exc.diagnostic
        print(json.dumps({"error": payload}))
        print(f"error: {exc}", file=sys.stderr)
        return code
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
