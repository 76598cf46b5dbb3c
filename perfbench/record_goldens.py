"""Record the reference data the benchmark checks outputs against.

Usage (from the repository root):  python3 perfbench/record_goldens.py

Writes ``perfbench/goldens/corpus.json`` (the 13 test-corpus systems with
their level kinds, languages up to length 6, cylinder values, scaled power
counts and quasi-fixed seeds) and ``perfbench/goldens/cli.json`` (the exact
stdout of every CLI request the ``cli_oneshot`` workload can make). Run it
only to redefine the benchmark: the goldens pin the outputs of the commit
that recorded them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import CORPUS_RULES  # noqa: E402

import workloads  # noqa: E402
from chainshift import (  # noqa: E402
    BudgetExceeded,
    Substitution,
    block_eigenvalues,
    component_chain,
    cylinder_measure,
    decomposition_report,
    empirical_frequency,
    language,
    uniformity_check,
)
from chainshift.cli import main as cli_main  # noqa: E402
from chainshift.measures import measure_type  # noqa: E402

MAX_M = 6
UNIFORMITY_CANDIDATES = (10**6, 5 * 10**5, 2 * 10**5, 10**5)
MIN_VISITS = 16


def _uniformity_t_max(corpus: dict, name: str, i: int, sub, chain, spectral) -> int | None:
    """Largest candidate prefix on which uniformity_check stays inside its budget."""
    level = corpus["systems"][name]["levels"][str(i)]
    word = level["new"][0]
    for t_max in UNIFORMITY_CANDIDATES:
        level["uniformity"]["t_max"] = t_max
        reference = workloads.UniformityReference(corpus)
        item = {"system": name, "level": i, "word": word, "T": t_max, "offset_share": 0.0}
        item.update(reference.params(item))
        if item["n"] + 1 < MIN_VISITS:
            return None
        try:
            got = uniformity_check(sub, chain, spectral, i, word, item["n"], (0,))
        except BudgetExceeded:
            continue
        assert got.ratios[0] == reference.counts(item)["counts"][0] / item["n"], (name, i)
        return t_max
    return None


def record_corpus() -> dict:
    corpus: dict = {"systems": {}}
    for name, rules in CORPUS_RULES.items():
        sub = Substitution.from_rules(rules)
        chain = component_chain(sub)
        spectral = block_eigenvalues(sub, chain)
        report = decomposition_report(sub, chain, spectral)
        levels = {}
        for i in range(1, chain.n + 1):
            desc = measure_type(sub, chain, spectral, i, report.levels[i - 1])
            entry: dict = {
                "letters": list(chain.alphabet_at(i)),
                "new": list(chain.new_letters(i)),
                "kind": desc.kind,
                "anchor": desc.anchor,
            }
            if desc.kind in ("finite_ergodic", "infinite_radon"):
                sub_i, _ = chain.restrict(i)
                key = sub.alphabet.word_key
                entry["words"] = {}
                entry["values"] = {}
                for m in range(1, MAX_M + 1):
                    words = sorted(language(sub_i, m), key=key)
                    entry["words"][str(m)] = words
                    entry["values"][str(m)] = {}
                    for w in words:
                        cv = cylinder_measure(sub, chain, spectral, i, w).as_json()
                        entry["values"][str(m)][w] = [cv["value"], cv["float"]]
                if desc.kind == "infinite_radon":
                    entry["scaled"] = {}
                    for m in (1, 2, 3):
                        for w in entry["words"][str(m)]:
                            f = empirical_frequency(sub, chain, spectral, i, w, 16)
                            entry["scaled"][w] = [f.scaled_power, f.scaled_count, f.scaled_value]
            qf = report.levels[i - 1].quasi_fixed
            if qf is not None and i >= 2 and not spectral.theta_is_one(i):
                s = qf.seed
                entry["uniformity"] = {
                    "seed": {
                        "a": s.a, "b": s.b, "k": s.k, "u": s.u, "v": s.v,
                        "orientation": s.orientation,
                    },
                    "t_max": None,
                }
            levels[str(i)] = entry
        corpus["systems"][name] = {"rules": dict(rules), "levels": levels}
        for i in range(2, chain.n + 1):
            entry = levels[str(i)]
            if "uniformity" in entry:
                t_max = _uniformity_t_max(corpus, name, i, sub, chain, spectral)
                if t_max is None:
                    del entry["uniformity"]
                else:
                    entry["uniformity"]["t_max"] = t_max
        print(f"recorded {name}", file=sys.stderr)
    return corpus


def record_cli(corpus: dict) -> dict:
    goldens: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in corpus["systems"].items():
            path = Path(tmp) / f"{name}.sub"
            path.write_text(workloads.rules_text(data["rules"]), encoding="utf-8")
            argvs = [list(c) for c in workloads.CLI_COMMANDS if c[0] != "measure"]
            for i, level in data["levels"].items():
                if "words" in level:
                    for m in ("1", "2", "3"):
                        argvs += [["measure", "-i", i, "-v", w] for w in level["words"][m]]
            for argv in argvs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli_main([argv[0], str(path), *argv[1:]])
                assert code == 0, (name, argv)
                goldens[" ".join([name, *argv])] = out.getvalue()
    return goldens


def main() -> None:
    corpus = record_corpus()
    workloads.GOLDENS.mkdir(exist_ok=True)
    with open(workloads.GOLDENS / "corpus.json", "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=False)
        fh.write("\n")
    cli = record_cli(corpus)
    with open(workloads.GOLDENS / "cli.json", "w", encoding="utf-8") as fh:
        json.dump(cli, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
