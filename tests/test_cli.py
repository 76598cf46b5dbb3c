import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from chainshift import (
    ComponentChain,
    CylinderValue,
    InternalInvariantError,
    ParseError,
    component_chain,
    parse_input,
)
from chainshift import cli, errors
from chainshift.cli import main
from conftest import CORPUS_RULES, tower


def _write(tmp_path, name, rules):
    text = "\n".join(f"{c} -> {img}" for c, img in rules.items()) + "\n"
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def _python(*args, timeout=60):
    """Run a fresh interpreter on this checkout's package."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


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


def test_language_command_budget(tmp_path, capsys):
    # Under the budget the output is the full language; past it (|L_m| > 10^7 / m)
    # the closure stops early and the command exits 5 with a JSON payload.
    path = _write(tmp_path, "golden_tower.sub", CORPUS_RULES["golden_tower"])
    code, out = _run(capsys, "language", path, "-m", "2")
    assert code == 0
    assert out == {"m": 2, "count": 14, "words": [
        "aa", "ab", "ac", "ad", "ba", "ca", "cd", "ce", "da", "dc", "dd", "de", "ea", "ec",
    ]}
    proc = _python("-m", "chainshift", "language", path, "-m", "3000", timeout=10)
    assert proc.returncode == 5
    assert json.loads(proc.stdout)["error"]["kind"] == "BudgetExceeded"


def test_language_command_long_windows(tmp_path, capsys):
    # The closure reads only boundary text, so a refusal is cheap: at
    # m = 800 the 12,500-word cap is passed in about a second, and at
    # m = 200 the full listing equals the brute-force closure.
    path = _write(tmp_path, "golden_tower.sub", CORPUS_RULES["golden_tower"])
    proc = _python("-m", "chainshift", "language", path, "-m", "800", timeout=5)
    assert proc.returncode == 5
    error = json.loads(proc.stdout)["error"]
    assert (error["code"], error["kind"]) == (5, "BudgetExceeded")
    code, out = _run(capsys, "language", path, "-m", "200")
    assert code == 0
    assert set(out["words"]) == oracles.language_closure(CORPUS_RULES["golden_tower"], 200)
    assert out["count"] == len(out["words"])


def test_main_registers_one_exit_hook(tmp_path, capsys, monkeypatch):
    # gc.freeze at exit spares the interpreter its final collections; two
    # calls in one process register it once
    registered = []

    def unregister(hook):
        registered[:] = [h for h in registered if h is not hook]

    monkeypatch.setattr(cli.atexit, "register", registered.append)
    monkeypatch.setattr(cli.atexit, "unregister", unregister)
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    assert _run(capsys, "language", path, "-m", "2")[0] == 0
    assert _run(capsys, "classify", path)[0] == 0
    assert registered == [cli.gc.freeze]


def test_measure_long_word_by_ancestors(tmp_path):
    # 128 letters on an integer-theta level: the value comes from the
    # ancestor recursion, not from a window solve over L_128 (which takes
    # seconds); 1/512 is the value that solve gives
    rules = {c: CORPUS_RULES["golden_tower"][c] for c in "abcd"}
    word = oracles.power(rules, "c", 6)[:128]
    path = _write(tmp_path, "golden_tower.sub", CORPUS_RULES["golden_tower"])
    proc = _python("-m", "chainshift", "measure", path, "-i", "2", "-v", word, timeout=10)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["word"], out["value"], out["float"]) == (word, "1/512", 1 / 512)


def test_simulate_long_word_stops_at_the_index_budget(tmp_path):
    # the word -> level index of a 4,000-letter word would hold 4,001 words
    # of 4,000 letters; its closure stops once it passes 10^7 / 4,000 =
    # 2,500 words, and a 2,000-letter word (2,001 words) still answers
    rules = CORPUS_RULES["fibonacci"]
    text = oracles.power(rules, "a", 20)
    path = _write(tmp_path, "fibonacci.sub", rules)
    proc = _python("-m", "chainshift", "simulate", path, "-i", "1", "-v", text[:4000], "-L", "10000", timeout=5)
    assert proc.returncode == 5, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert (error["code"], error["kind"]) == (5, "BudgetExceeded")
    assert "word index at m=4000" in error["message"]
    proc = _python("-m", "chainshift", "simulate", path, "-i", "1", "-v", text[:2000], "-L", "10000", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["word"] == text[:2000]


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


def test_check_on_a_tall_tower(tmp_path):
    # 64 levels: the incidence and window powers stay cheap on sparse matrices
    rules = tower([2, 3] * 32, before=[True, False] * 32)
    path = _write(tmp_path, "tower_64.sub", rules)
    proc = _python("-m", "chainshift", "check", path, timeout=5)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["ok"] and all(c["ok"] for c in out["checks"])


@pytest.mark.parametrize("name", ("golden_tower", "quartic"))
def test_check_rejects_a_witness_above_the_least(name, tmp_path, capsys, monkeypatch):
    # witness_k + 1 is a witness too, but not the least one
    def late(sub):
        chain = component_chain(sub)
        return ComponentChain(sub, chain.components, chain.witness_k + 1)

    monkeypatch.setattr(cli, "component_chain", late)
    path = _write(tmp_path, f"{name}.sub", CORPUS_RULES[name])
    code, out = _run(capsys, "check", path)
    assert code == 0 and not out["ok"]
    failed = [c for c in out["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == ["chain_closure_and_witness"]


_BROKEN_ROW_SUMS = """
import json
from chainshift import cli
from chainshift.structure import IncidenceMatrix

IncidenceMatrix.row_sums = lambda self: tuple(sum(row) + 1 for row in self.entries)
checks = cli.cmd_check(cli.parse_input("a -> ab\\nb -> a\\n"), None)["checks"]
print(json.dumps({c["name"]: c["ok"] for c in checks}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["debug", "optimized"])
def test_check_failure_reported_under_optimize(flags):
    proc = _python(*flags, "-c", _BROKEN_ROW_SUMS)
    assert proc.returncode == 0, proc.stderr
    oks = json.loads(proc.stdout)
    assert oks["incidence_row_sums"] is False
    assert oks["chain_closure_and_witness"] is True


def test_check_cylinder_consistency_is_exact(tmp_path, capsys, monkeypatch):
    # an error far below the float tolerance must still fail on exact values
    real = cli.cylinder_measure

    def skewed(*args):
        cv = real(*args)
        if cv.exact is not None and len(cv.word) == 2:
            exact = cv.exact + Fraction(1, 10**15)
            cv = CylinderValue(cv.level, cv.word, cv.infinite, exact, cv.value, cv.anchor, cv.algebraic)
        return cv

    monkeypatch.setattr(cli, "cylinder_measure", skewed)
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    code, out = _run(capsys, "check", path)
    assert code == 0 and not out["ok"]
    failed = [c["name"] for c in out["checks"] if not c["ok"]]
    assert failed == ["cylinder_consistency"]


def test_check_reports_a_failed_table_invariant(tmp_path, capsys, monkeypatch):
    # a level whose table fails its own check fails the consistency check,
    # unlike a level that has no cylinder values, which it skips
    def broken(*args, **kwargs):
        raise InternalInvariantError("eigenvector residual 1e-08 exceeds 1e-09")

    monkeypatch.setattr(cli, "level_measure_table", broken)
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    code, out = _run(capsys, "check", path)
    assert code == 0 and not out["ok"]
    failed = [c for c in out["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == ["cylinder_consistency"]
    assert failed[0]["detail"].startswith("InternalInvariantError: eigenvector residual")


@pytest.mark.parametrize("name", sorted(CORPUS_RULES))
def test_check_stdout_same_under_optimize(name, tmp_path, capsys):
    path = _write(tmp_path, f"{name}.sub", CORPUS_RULES[name])
    assert main(["check", path]) == 0
    expected = capsys.readouterr().out
    proc = _python("-O", "-m", "chainshift", "check", path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


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


def test_irrational_theta_floats_keep_their_bytes(tmp_path, capsys):
    # An irrational theta prints the midpoint of its isolating interval, first
    # refined to width 2^-48, so the float depends on the comparisons that
    # narrowed the interval before, the check against 1 in the block
    # eigenvalues among them. Level 2 here is the root 2.2695308420811426 of
    # x^3 - x^2 - 2x - 2; today's bytes differ from that by an ulp or two,
    # and differ between the two commands. This pins them until floats are
    # read from the exact value.
    path = _write(tmp_path, "six.sub", {"c": "bc", "a": "aaaa", "d": "fe", "e": "fa", "f": "ddf", "b": "aacf"})
    _, analyzed = _run(capsys, "analyze", path)
    _, spectral = _run(capsys, "spectral", path)
    assert [lv["theta"] for lv in analyzed["spectral"]["levels"]] == [4.0, 2.269530842081143, 1.6180339887498936]
    assert [lv["theta"] for lv in spectral["levels"]] == [4.0, 2.269530842081144, 1.6180339887498936]


# -- exit codes -------------------------------------------------------------------


README = Path(__file__).resolve().parent.parent / "README.md"
# the exit-code list of README's "Command line" section, by error class
README_CODES = {
    "parse error": errors.ParseError,
    "no primitive component chain": errors.NoPrimitiveChainError,
    "domain error": errors.DomainError,
    "budget exceeded": errors.BudgetExceeded,
    "internal invariant violated": errors.InternalInvariantError,
}
ERROR_CLASSES = sorted(
    (k for k in vars(errors).values() if isinstance(k, type) and issubclass(k, errors.ChainshiftError)),
    key=lambda k: k.__name__,
)


def _readme_codes() -> dict[type, int]:
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"Exit codes: 0 ok, (.*?) \(", text).group(1)
    codes = {}
    for entry in listed.split(", "):
        code, phrase = entry.split(" ", 1)
        codes[README_CODES[phrase]] = int(code)
    return codes


def test_error_classes_carry_the_readme_exit_codes():
    # each class answers the code README lists for it or for its nearest
    # listed base; a domain error's subclasses all exit 4, and so does the
    # base class, the default for a library error no other class names
    codes = _readme_codes()
    assert set(codes) == set(README_CODES.values())
    for klass in ERROR_CLASSES:
        listed = next((codes[base] for base in klass.__mro__ if base in codes), 4)
        assert klass.exit_code == listed, klass.__name__
    assert {k.exit_code for k in ERROR_CLASSES if issubclass(k, errors.DomainError)} == {4}
    assert errors.ChainshiftError.exit_code == 4


@pytest.mark.parametrize("klass", ERROR_CLASSES, ids=[k.__name__ for k in ERROR_CLASSES])
def test_main_exits_with_the_raised_class_code(klass, tmp_path, capsys, monkeypatch):
    def raising(spec, args):
        raise klass("raised on purpose")

    monkeypatch.setattr(cli, "cmd_language", raising)
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    code, out = _run(capsys, "language", path, "-m", "2")
    assert code == out["error"]["code"] == klass.exit_code
    assert out["error"]["kind"] == klass.__name__ and out["error"]["message"] == "raised on purpose"


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
    code, out = _run(capsys, "simulate", path, "-i", "1", "-v", "a", "-L", str(10**12 + 1))
    assert code == 5


def test_exit_code_internal_invariant(tmp_path):
    # the float left eigenvector of this 24-letter window misses the residual
    # tolerance: a typed error and its JSON payload, not a traceback
    path = _write(tmp_path, "almost_min_tower.sub", CORPUS_RULES["almost_min_tower"])
    proc = _python("-m", "chainshift", "measure", path, "-i", "2", "-v", "a" * 24)
    assert proc.returncode == 6
    error = json.loads(proc.stdout)["error"]
    assert (error["code"], error["kind"]) == (6, "InternalInvariantError")
    assert error["message"].startswith("eigenvector residual")
    assert "Traceback" not in proc.stderr


_KOLMOGOROV_FAILURE = """
import sys
from chainshift import classify, cli, measures
check, find = measures._check_kolmogorov, classify._seed_pair
def corrupted(shorter, longer, ratio, m):
    w = next(w for w, x in longer.items() if x)
    return check(shorter, {**longer, w: longer[w] + 1}, ratio, m)
def emptied(*args):
    s = find(*args)
    return classify.SeedPair(s.level, s.a, s.b, s.k, "", s.v, s.orientation)
if sys.argv[1] == "measure":
    measures._check_kolmogorov = corrupted
else:
    classify._seed_pair = emptied
sys.exit(cli.main(sys.argv[1:]))
"""


def test_exit_code_failed_kolmogorov_check(tmp_path):
    # an integer-theta table that fails its exact Kolmogorov check against
    # the letters, and a seed pair that breaks its shape invariant on
    # ``classify``: exit 6 with the typed payload, not a traceback
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    for args, message in [
        (["measure", path, "-i", "2", "-v", "ab"], "m=2: extensions of"),
        (["classify", path], "level 2: a seed with empty u needs a fixed letter"),
    ]:
        proc = _python("-c", _KOLMOGOROV_FAILURE, *args)
        assert proc.returncode == 6, proc.stderr
        error = json.loads(proc.stdout)["error"]
        assert (error["code"], error["kind"]) == (6, "InternalInvariantError")
        assert error["message"].startswith(message), error
        assert "Traceback" not in proc.stderr


_EXACT_FAILURE = """
import sys
from chainshift import cli, spectral
solve, charpoly = spectral.solve_linear, spectral.charpoly
def singular(A, b):
    if sys._getframe(1).f_code.co_name == "_left_vector":
        raise ZeroDivisionError("singular system")
    return solve(A, b)
def shifted(block):
    poly = charpoly(block)
    return (*poly[:-1], poly[-1] + 1)
if sys.argv[1] == "measure":
    spectral.solve_linear = singular
else:
    spectral.charpoly = shifted
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["debug", "optimized"])
def test_exit_code_failed_exact_solve_and_root(tmp_path, flags):
    # a singular block solve of an exact left vector (level 2 of mid_dominant
    # solves level 1's block under its own), and a row-sum root that does not
    # annihilate its characteristic polynomial: exit 6 with the typed
    # payload, not a traceback, also where ``python -O`` strips asserts
    path = _write(tmp_path, "mid_dominant.sub", CORPUS_RULES["mid_dominant"])
    for args, message in [
        (["measure", path, "-i", "2", "-v", "b"], "lam I - D of a 1x1 block is singular"),
        (["classify", path], "2 is not a root of (1, -1)"),
    ]:
        proc = _python(*flags, "-c", _EXACT_FAILURE, *args)
        assert proc.returncode == 6, proc.stderr
        error = json.loads(proc.stdout)["error"]
        assert (error["code"], error["kind"]) == (6, "InternalInvariantError")
        assert error["message"] == message, error
        assert "Traceback" not in proc.stderr


_FLOAT_FAILURE = """
import sys
import numpy as np
from chainshift import cli
def failed(*args):
    raise np.linalg.LinAlgError("injected")
setattr(np.linalg, sys.argv[1], failed)
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["debug", "optimized"])
def test_exit_code_failed_float_solve_and_eigen(tmp_path, flags):
    # a numpy failure in the float block solve of a left vector (fib_tail's
    # right vector solves its 1x1 top block) or in the float Perron vector:
    # exit 6 with the typed payload, as the exact solves give, not a traceback
    path = _write(tmp_path, "fib_tail.sub", CORPUS_RULES["fib_tail"])
    for call, message in [
        ("solve", "float lam I - D of a 1x1 block: injected"),
        ("eig", "the float eigen solve of a 3x3 block failed: injected"),
    ]:
        proc = _python(*flags, "-c", _FLOAT_FAILURE, call, "spectral", path, "-m", "2")
        assert proc.returncode == 6, proc.stderr
        error = json.loads(proc.stdout)["error"]
        assert (error["code"], error["kind"], error["message"]) == (6, "InternalInvariantError", message)
        assert "Traceback" not in proc.stderr


def test_simulate_long_prefix_without_expansion(tmp_path, capsys):
    path = _write(tmp_path, "quartic.sub", CORPUS_RULES["quartic"])
    code, out = _run(capsys, "simulate", path, "-i", "1", "-v", "a", "-L", str(10**9))
    assert code == 0
    assert out["power"] == 15 and out["ratio"] == 1.0


def test_rule_file_with_utf8_bom(tmp_path, capsys):
    plain = tmp_path / "plain.sub"
    plain.write_bytes(b"a -> ab\nb -> a\n")
    bom = tmp_path / "bom.sub"
    bom.write_bytes(b"\xef\xbb\xbfa -> ab\nb -> a\n")
    assert main(["classify", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["classify", str(bom)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_rule_file_that_is_not_utf8(tmp_path, capsys, command):
    # a byte that starts no UTF-8 sequence is a parse error with the JSON
    # payload, not a decoding traceback
    path = tmp_path / "latin1.sub"
    path.write_bytes(b"a -> ab\nb -> \xff\n")
    code, out = _run(capsys, command, str(path))
    assert code == 2
    error = out["error"]
    assert (error["code"], error["kind"]) == (2, "ParseError")
    assert "not valid UTF-8" in error["message"]


def test_python_dash_m_entry_point(tmp_path, capsys):
    path = _write(tmp_path, "chacon.sub", CORPUS_RULES["chacon"])
    assert main(["classify", path]) == 0
    expected = capsys.readouterr().out
    proc = _python("-m", "chainshift", "classify", path)
    assert proc.returncode == 0
    assert proc.stdout == expected
    assert proc.stderr == ""


def test_exit_code_missing_file(capsys):
    code, out = _run(capsys, "analyze", "/nonexistent/x.sub")
    assert code == 2


# Level 2 has five pair seeds at power q = 5, so each central window's radius
# reads |sigma^8(c)| for every letter c: about 5.8 million letters per letter
# if the images were written out. The radius comes from image lengths alone.
WIDE_WINDOWS = {"a": "ddaeaee", "b": "abcdebd", "c": "eeaceda", "d": "cddaaac", "e": "bbaeaeb", "x": "xeecx"}
WIDE_WINDOWS_SHA256 = "f189d6eca93df3b8b4028f1e1d0ae2c3584737a5774684fdb9171346e2f1d58a"


def test_classify_sizes_windows_without_expanding_them(tmp_path):
    path = _write(tmp_path, "wide_windows.sub", WIDE_WINDOWS)
    proc = _python("-m", "chainshift", "classify", path, timeout=10)
    assert proc.returncode == 0, proc.stderr
    seeds = json.loads(proc.stdout)["levels"][1]["point_seeds"]
    assert [(p["form"], p["power_step"], p["window_radius"]) for p in seeds] == [("pair", 5, 4096)] * 5
    # the report these windows deduplicate, byte for byte as first recorded
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == WIDE_WINDOWS_SHA256
