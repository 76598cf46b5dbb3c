import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainshift import ParseError, parse_input
from chainshift.cli import main
from conftest import CORPUS_RULES


def _write(tmp_path, name, rules):
    text = "\n".join(f"{c} -> {img}" for c, img in rules.items()) + "\n"
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- parsing -------------------------------------------------------------------


def test_parse_basic_rules():
    spec = parse_input("a -> ab\nb -> a\nc -> acc\n")
    assert spec.substitution.alphabet.letters == ("a", "b", "c")
    assert spec.substitution.images == ("ab", "a", "acc")


def test_parse_comments_and_blanks():
    spec = parse_input("# bottom\n\na -> a   # fixed\nb -> bbab\n")
    assert spec.substitution.images == ("a", "bbab")


def test_parse_round_trip_normalized():
    spec = parse_input("a ->    ab\n\nb -> a\n")
    normalized = spec.substitution.rules_text()
    again = parse_input(normalized)
    assert again.substitution == spec.substitution
    assert again.substitution.rules_text() == normalized


@pytest.mark.parametrize(
    "text",
    [
        "a -> \nb -> a\n",               # empty image
        "a -> ab\na -> a\nb -> a\n",     # duplicate rule
        "a -> aq\nb -> a\n",             # undeclared letter
        "a -> a\n",                      # fewer than two rules
        "ab -> a\nb -> a\n",             # rule letter too long
        "a = ab\nb -> a\n",              # missing arrow
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_input(text)


# -- commands -------------------------------------------------------------------


def test_measure_command_exact_value(tmp_path, capsys):
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    code, out = _run(capsys, "measure", path, "-i", "2", "-v", "ab")
    assert code == 0
    assert out["value"] == "1/3"
    assert abs(out["float"] - 1 / 3) < 1e-12
    assert out["anchor_letter"] == "b"


def test_measure_command_infinite_value(tmp_path, capsys):
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    code, out = _run(capsys, "measure", path, "-i", "2", "-v", "aa")
    assert code == 0 and out["value"] == "inf"


def test_spectral_command_equality_classes(tmp_path, capsys):
    path = _write(tmp_path, "mid.sub", CORPUS_RULES["mid_dominant"])
    code, out = _run(capsys, "spectral", path)
    assert code == 0
    assert [lvl["theta"] for lvl in out["levels"]] == [2.0, 6.0, 2.0]
    assert out["eq_classes"] == [[1, 3], [2]]


def test_spectral_command_with_window(tmp_path, capsys):
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    code, out = _run(capsys, "spectral", path, "-m", "2")
    assert code == 0
    assert out["window"]["beta"]["aa"] == "1"
    assert out["window"]["alpha"]["ca"] == "1"


def test_classify_command_chacon(tmp_path, capsys):
    path = _write(tmp_path, "chacon.sub", CORPUS_RULES["chacon"])
    code, out = _run(capsys, "classify", path)
    assert code == 0
    assert out["unique_ergodicity"] == {"verdict": True, "clause": "ii"}
    assert out["minimal_sets"] == ["X_sigma_2"]


def test_language_command(tmp_path, capsys):
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    code, out = _run(capsys, "language", path, "-m", "2")
    assert code == 0
    assert out["words"] == ["aa", "ab", "ba", "bb", "bc", "ca", "cb"]


def test_matrix_command_plain_and_window(tmp_path, capsys):
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    code, out = _run(capsys, "matrix", path)
    assert code == 0
    assert out["entries"] == [[4, 0, 0], [1, 3, 0], [0, 1, 2]]
    code, out = _run(capsys, "matrix", path, "-m", "2")
    assert code == 0
    assert len(out["entries"]) == 7
    assert out["entries"][0] == [4, 0, 0, 0, 0, 0, 0]


def test_simulate_command(tmp_path, capsys):
    path = _write(tmp_path, "golden.sub", CORPUS_RULES["golden_tower"])
    code, out = _run(capsys, "simulate", path, "-i", "1", "-v", "a", "-L", "5000")
    assert code == 0
    assert abs(out["ratio"] - 0.618) < 0.01


def test_check_command(tmp_path, capsys):
    path = _write(tmp_path, "golden.sub", CORPUS_RULES["golden_tower"])
    code, out = _run(capsys, "check", path)
    assert code == 0
    assert out["ok"] and all(c["ok"] for c in out["checks"])


def test_analyze_command_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    code = main(["analyze", path])
    first = capsys.readouterr().out
    assert code == 0
    code = main(["analyze", path])
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["chain"]["levels"] == [["a"], ["a", "b"], ["a", "b", "c"]]
    assert data["measures"][1]["cylinders"]["ab"]["value"] == "1/3"


# -- exit codes -------------------------------------------------------------------


def test_exit_code_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.sub"
    path.write_text("a -> \nb -> a\n")
    code, out = _run(capsys, "analyze", str(path))
    assert code == 2 and out["error"]["code"] == 2


def test_exit_code_no_chain(tmp_path, capsys):
    path = tmp_path / "swap.sub"
    path.write_text("a -> b\nb -> a\n")
    code, out = _run(capsys, "analyze", str(path))
    assert code == 3
    assert out["error"]["diagnostic"]["kind"] == "imprimitive_block"


def test_exit_code_domain_error(tmp_path, capsys):
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    code, out = _run(capsys, "measure", path, "-i", "9", "-v", "a")
    assert code == 4
    code, out = _run(capsys, "measure", path, "-i", "2", "-v", "zz")
    assert code == 4


def test_exit_code_budget(tmp_path, capsys):
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    code, out = _run(capsys, "simulate", path, "-i", "1", "-v", "a", "-L", str(10**9))
    assert code == 5


def test_rule_file_with_utf8_bom(tmp_path, capsys):
    plain = tmp_path / "plain.sub"
    plain.write_bytes(b"a -> ab\nb -> a\n")
    bom = tmp_path / "bom.sub"
    bom.write_bytes(b"\xef\xbb\xbfa -> ab\nb -> a\n")
    assert main(["classify", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["classify", str(bom)]) == 0
    assert capsys.readouterr().out == expected


def test_python_dash_m_entry_point(tmp_path, capsys):
    path = _write(tmp_path, "chacon.sub", CORPUS_RULES["chacon"])
    assert main(["classify", path]) == 0
    expected = capsys.readouterr().out
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "chainshift", "classify", path],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected
    assert proc.stderr == ""


def test_exit_code_missing_file(capsys):
    code, out = _run(capsys, "analyze", "/nonexistent/x.sub")
    assert code == 2
