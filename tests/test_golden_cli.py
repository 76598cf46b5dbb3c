"""Golden-output gate: every CLI request of the benchmark's recorded corpus
must print byte-identical stdout.

``perfbench/goldens/cli.json`` maps ``"<system> <command> [args]"`` to the
stdout recorded for it; the systems are ``conftest.CORPUS_RULES``. The test
only reads that file.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from chainshift.cli import main
from conftest import CORPUS_RULES

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens" / "cli.json"


def _goldens() -> dict[str, dict[tuple[str, ...], str]]:
    with open(GOLDENS, encoding="utf-8") as fh:
        flat = json.load(fh)
    by_system: dict[str, dict[tuple[str, ...], str]] = {}
    for key, stdout in flat.items():
        system, *argv = key.split(" ")
        by_system.setdefault(system, {})[tuple(argv)] = stdout
    return by_system


GOLDEN = _goldens()


def test_goldens_cover_the_corpus():
    assert sorted(GOLDEN) == sorted(CORPUS_RULES)
    assert sum(len(v) for v in GOLDEN.values()) == 376


@pytest.mark.parametrize("system", sorted(GOLDEN))
def test_cli_stdout_matches_golden(system, tmp_path):
    path = tmp_path / f"{system}.sub"
    path.write_text("".join(f"{c} -> {img}\n" for c, img in CORPUS_RULES[system].items()))
    wrong = []
    for argv, expected in GOLDEN[system].items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([argv[0], str(path), *argv[1:]])
        if code != 0 or out.getvalue() != expected:
            wrong.append(" ".join(argv))
    assert not wrong, f"{len(wrong)} of {len(GOLDEN[system])} outputs differ: {wrong[:10]}"
