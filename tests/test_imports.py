"""Import guard for the library modules.

``kernels`` serves only the benchmark probes, so no library module may import
it, numpy is confined to the float eigen path in ``spectral``, no module
imports ``dataclasses``, ``import chainshift`` leaves ``cli`` (and argparse
and json) unloaded, since rule parsing lives in ``words``, no module keeps a
cache of its own, and in ``measures`` only the irrational cylinder
table reads window eigen data (``spectral.window_vectors``), which every other
reader takes from that table, while the integer-theta tables, which start from
the letter level, name no window solve, window substitution or restriction at
all; ``measures`` does not import ``auxiliary``, and ``spectral`` keeps one
left-vector solve per level (no ``pf_left``, ``LeftVector`` or
``level_profile``). ``classify`` builds no level chain and reads words
only at length 2, from the chain's one sweep (``chain.level_words(2)``),
and builds no word -> level index: its s-run facts come from one record per
chain. Only ``structure`` runs the sweep (``words.level_words``), once per
chain and window length, and ``words`` keeps no word -> level index of its
own. No module but ``structure`` names a chain's stored dict,
``_memo``; a level chain (``chain.restrict(i)``) is built only by
``measures.empirical_frequency`` and ``spectral._level_windows``; and
``cli`` keeps no exit-code table, since each error class carries its own. In ``structure`` the witness
search alone decides primitivity, and a chain keeps its components, the
letters each level adds: the cumulative alphabets are derived, and only
``cli._chain_json`` reads them. ``exact`` keeps one elimination,
``solve_linear``, which ``spectral`` imports with ``AlgebraicReal`` and
``charpoly`` alone. Every library function and method is named by other
library code or by the benchmark harness: no helper is kept for tests alone.
``memo`` is defined on ``ComponentChain`` alone; only public functions take
both ``sub`` and ``chain``, the rest read ``chain.sub``; and
``decomposition_report``, ``limit_data``, ``level_measure_table`` and
``CylinderValue`` have no argument defaults that every caller overrides. The
classification is read through ``decomposition_report`` alone: ``classify``
defines no other public function, and the package exports no per-level seed,
level report, minimal-set census or bottom test.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chainshift"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_modules(path: Path) -> set[str]:
    """Dotted names a module imports; package-relative ones as ``chainshift.*``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "chainshift" + (f".{base}" if base else "")
            names.add(base)
            # ``from . import kernels`` and ``from chainshift import kernels``
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_guard_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from . import kernels\n"
        "from .kernels import apply_bytes\n"
        "import chainshift.kernels\n"
        "def f():\n"
        "    from numpy.linalg import eig\n"
    )
    names = _imported_modules(probe)
    assert {"numpy", "numpy.linalg", "chainshift.kernels"} <= names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_library_modules_do_not_import_kernels(path):
    if path.name == "kernels.py":
        return
    assert "chainshift.kernels" not in _imported_modules(path)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_spectral_imports_numpy(path):
    if path.name == "spectral.py":
        return
    names = _imported_modules(path)
    assert not any(n == "numpy" or n.startswith("numpy.") for n in names), path.name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_dataclasses(path):
    # the records are plain slotted classes (``words.Record``): generating
    # their methods cost about a quarter of the package import
    names = _imported_modules(path)
    assert not any(n == "dataclasses" or n.startswith("dataclasses.") for n in names), path.name


def test_library_import_leaves_the_cli_out():
    # ``parse_input`` lives in ``words``: a library caller compiles no
    # ``cli.py`` and loads neither argparse nor json
    script = (
        "import sys\n"
        "import chainshift\n"
        "print(sorted({'chainshift.cli', 'argparse', 'json', 'dataclasses'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_one_parser_for_library_and_cli():
    import chainshift
    from chainshift import cli, words

    assert chainshift.parse_input is words.parse_input is cli.parse_input
    assert chainshift.InputSpec is words.InputSpec is cli.InputSpec


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_level_caches(path):
    # Derived data lives on the chain it derives from (``ComponentChain.memo``);
    # a module cache would keep every system a process analyses.
    names = _imported_modules(path)
    assert not {"functools.lru_cache", "functools.cache"} & names, path.name


def test_measures_builds_no_window_substitution():
    # occurrence counts join letter blocks and test membership on the chain's
    # word-level index; the window substitution serves the window solves,
    # ``matrix`` and ``check``
    names = _imported_modules(PACKAGE / "measures.py")
    assert not any(n == "chainshift.auxiliary" or n.startswith("chainshift.auxiliary.") for n in names)


def test_only_the_window_table_reads_eigen_data():
    # every reader in ``measures`` (values, listing, uniformity target) goes
    # through the one cylinder table per (level, m), and an irrational table
    # reads the window vectors alone, never the eigen data behind them
    tree = ast.parse((PACKAGE / "measures.py").read_text(encoding="utf-8"))
    readers: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        where = getattr(node, "name", type(node).__name__)
        for part in node.body if isinstance(node, ast.ClassDef) else [node]:
            inside = f"{where}.{part.name}" if part is not node and hasattr(part, "name") else where
            for inner in ast.walk(part):
                name = inner.id if isinstance(inner, ast.Name) else getattr(inner, "attr", None)
                readers.setdefault(name, set()).add(inside)
    for name in ("pf_left", "pf_vectors", "limit_data", "level_profile"):
        assert name not in readers, readers.get(name)
    assert readers["window_vectors"] == {"_Level.table"}


def _referrers(source: str, name: str) -> set[str]:
    """The module-level definitions of ``source`` that name ``name``, called
    or passed on."""
    return {
        node.name
        for node in ast.parse(source).body
        if hasattr(node, "name")
        and any(getattr(inner, "id", getattr(inner, "attr", None)) == name for inner in ast.walk(node))
        and node.name != name
    }


def test_limit_data_reads_the_one_lifted_level_solve():
    # both modes lift the right vector from the letter block
    # (``_level_vectors``); the window right vector is solved for
    # ``pf_vectors`` alone, which reads its anchors from the profile
    source = (PACKAGE / "spectral.py").read_text(encoding="utf-8")
    assert "_limit_data" not in _referrers(source, "pf_vectors") | _referrers(source, "_pf_vectors")
    assert "_limit_data" in _referrers(source, "_level_vectors")
    assert _referrers(source, "_right_vector") == {"_pf_vectors"}
    assert _referrers(source, "_pf_vectors") == {"pf_vectors"}
    tree = ast.parse(source)
    pair = next(node for node in tree.body if getattr(node, "name", None) == "EigenPair")
    assert "pairing" not in {getattr(node, "name", None) for node in pair.body}


def test_referrer_guard_sees_passed_functions():
    probe = (
        "def _limit_data(chain):\n"
        "    return chain.memo(('pf_right', 2), _pf_vectors)\n"
        "def pf_vectors(spectral):\n"
        "    return spectral._pf_vectors()\n"
        "def _pf_vectors():\n"
        "    return _pf_vectors\n"
    )
    assert _referrers(probe, "_pf_vectors") == {"_limit_data", "pf_vectors"}


def test_spectral_keeps_one_left_vector_solve():
    # the letter base, the irrational window tables and the divergent limit
    # data share ``_level_vectors``; the separate left-vector path is gone
    tree = ast.parse((PACKAGE / "spectral.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if hasattr(node, "name")}
    assert "_level_vectors" in defined
    assert not {"pf_left", "_pf_left", "LeftVector", "level_profile"} & defined


def test_exact_keeps_one_elimination():
    # the Perron vector solves its nonsingular minor (``spectral._pf_right``),
    # so no rank-tolerant kernel routine is left beside ``solve_linear``
    tree = ast.parse((PACKAGE / "exact.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if hasattr(node, "name")}
    assert "solve_linear" in defined
    assert not {"nullspace_vector", "_bareiss"} & defined
    real = next(node for node in tree.body if getattr(node, "name", None) == "AlgebraicReal")
    assert "to_fraction" not in {getattr(node, "name", None) for node in real.body}
    spectral = ast.parse((PACKAGE / "spectral.py").read_text(encoding="utf-8"))
    from_exact = {
        alias.name
        for node in ast.walk(spectral)
        if isinstance(node, ast.ImportFrom) and node.module == "exact"
        for alias in node.names
    }
    assert from_exact == {"AlgebraicReal", "charpoly", "solve_linear"}
    assert not [p.name for p in MODULES if "nullspace_vector" in p.read_text(encoding="utf-8")]


# what a window solve needs; the integer-theta tables use none of it
WINDOW_SOLVE = {
    "build_auxiliary", "pf_left", "limit_data", "restrict", "level_profile", "window_vectors"
}


def _integer_path(source: str) -> tuple[set[str], set[str]]:
    """The module-level definitions reachable by name from ``_Ancestors`` in
    ``source``, and the ``WINDOW_SOLVE`` names they use."""
    defs = {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }

    def names(node):
        for inner in ast.walk(node):
            name = inner.id if isinstance(inner, ast.Name) else getattr(inner, "attr", None)
            if name:
                yield name

    path, queue = set(), ["_Ancestors"]
    for name in queue:  # grows while it is walked
        if name not in path:
            path.add(name)
            queue.extend(n for n in names(defs[name]) if n in defs)
    return path, {n for name in path for n in names(defs[name])} & WINDOW_SOLVE


def test_integer_tables_name_no_window_solve():
    # an integer-theta table starts from the letter values (``_letter_base``)
    # and desubstitutes (``_Ancestors``): no window substitution, window
    # eigen data, level profile or restricted chain on its path
    path, used = _integer_path((PACKAGE / "measures.py").read_text(encoding="utf-8"))
    assert {"_Ancestors", "_letter_base", "_check_kolmogorov"} <= path
    assert used == set(), used


def test_integer_path_guard_follows_calls():
    # ancestors that restrict the chain, or read a window-solved table, fail
    probe = (
        "class _Ancestors:\n"
        "    def __init__(self, sub, chain, i):\n"
        "        self.base = _letter_base(chain.restrict(i)[0], _table(chain, 2))\n"
        "def _letter_base(sub, table):\n"
        "    return table\n"
        "def _table(chain, m):\n"
        "    return _cylinder_table(chain, m)\n"
        "def _cylinder_table(chain, m):\n"
        "    return pf_left(chain, m)\n"
    )
    path, used = _integer_path(probe)
    assert path == {"_Ancestors", "_letter_base", "_table", "_cylinder_table"}
    assert used == {"restrict", "pf_left"}


def test_measures_stores_only_level_records():
    # everything ``measures`` keeps of a level sits in one ``("level", i)``
    # record: every memo call in the module uses a key tuple led by "level"
    tree = ast.parse((PACKAGE / "measures.py").read_text(encoding="utf-8"))
    heads = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and getattr(func, "attr", getattr(func, "id", None)) == "memo":
            keys = [arg for arg in node.args if isinstance(arg, ast.Tuple)]
            heads.append(ast.unparse(keys[0].elts[0]) if keys and keys[0].elts else None)
    assert heads and set(heads) == {"'level'"}, heads


def _calls(path: Path, name: str) -> list[str]:
    """The source of every call in ``path`` of a function or method ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == name
    ]


def test_classify_builds_no_level_chain():
    # the s-run facts of every level come from one ("s_runs",) record, and
    # the periodicity probe is handed A_2 and closes the system restricted to
    # it alone, when its bound does not decide
    path = PACKAGE / "classify.py"
    assert _calls(path, "restrict") == ["sub.restrict(letters)"]
    assert _calls(path, "_is_single_periodic_orbit") == ["_is_single_periodic_orbit(sub, chain.alphabet_at(2))"]
    assert _calls(path, "language") == ["language(sub.restrict(letters), probe, cap=probe)"]


def _names(source: str) -> set[str]:
    """Every name, attribute and string constant in ``source``, docstrings aside."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                body[0].value.value = None  # a docstring may name anything
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_structure_touches_the_memo_dict(path):
    # ``ComponentChain.memo`` is the one door to what a chain stores
    if path.name == "structure.py":
        return
    assert "_memo" not in _names(path.read_text(encoding="utf-8")), path.name


def test_memo_guard_sees_every_form():
    probe = (
        "def f(chain):\n"
        "    \"\"\"Reads ``_memo``.\"\"\"\n"
        "    return chain.memo(('k',), g)\n"
    )
    assert "_memo" not in _names(probe)
    for reach in ("chain._memo.get(k)", "getattr(chain, '_memo')", "vars()['_memo']"):
        assert "_memo" in _names(probe + f"def g(chain):\n    return {reach}\n"), reach


def _level_chain_callers(source: str) -> set[str]:
    """The module-level definitions of ``source`` that call ``<...>chain.restrict``."""
    return {
        node.name
        for node in ast.parse(source).body
        if hasattr(node, "name")
        and any(
            isinstance(inner, ast.Call) and ast.unparse(inner.func).endswith("chain.restrict")
            for inner in ast.walk(node)
        )
    }


def test_level_chains_only_where_a_level_index_is_read():
    # a level chain (``chain.restrict(i)``) is built only by the readers of
    # its own word index or windows; every other reader takes A_i from
    # ``chain.alphabet_at(i)``
    callers = {
        (path.name, name)
        for path in MODULES
        if path.name != "structure.py"
        for name in _level_chain_callers(path.read_text(encoding="utf-8"))
    }
    assert callers == {("measures.py", "empirical_frequency"), ("spectral.py", "_level_windows")}
    probe = "def f(sub, chain):\n    return sub.restrict(chain.alphabet_at(2)), self.chain.restrict(1)\n"
    assert _level_chain_callers(probe) == {"f"}
    assert not _level_chain_callers("def g(sub, chain):\n    return sub.restrict(chain.alphabet_at(2))\n")


def _definitions(source: str):
    """(owner, node) for each module-level function and class method of
    ``source``; the owner is the class name, or None."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, part) for part in node.body if isinstance(part, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield None, node


def test_memo_is_defined_only_on_the_chain():
    # one door to what a chain stores: no profile or record keeps a second
    # memo that reaches the chain's
    owners = [
        (path.name, owner)
        for path in MODULES
        for owner, node in _definitions(path.read_text(encoding="utf-8"))
        if node.name == "memo"
    ]
    assert owners == [("structure.py", "ComponentChain")]


def _private_sub_chain_takers(source: str, exported: set[str]) -> list[str]:
    """The functions and methods of ``source`` that take both ``sub`` and
    ``chain`` and are not public: a function outside ``exported``, or a
    method whose class is outside it or whose own name is private."""
    found = []
    for owner, node in _definitions(source):
        args = node.args
        if not {"sub", "chain"} <= {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
            continue
        public = owner in exported and not node.name.startswith("_") if owner else node.name in exported
        if not public:
            found.append(f"{owner}.{node.name}" if owner else node.name)
    return found


def test_private_code_takes_the_chain_alone():
    # the chain holds its substitution, so private code reads ``chain.sub``;
    # only the public entries take both, and each checks its profile once
    import chainshift

    exported = set(chainshift.__all__)
    found = [
        name for path in MODULES for name in _private_sub_chain_takers(path.read_text(encoding="utf-8"), exported)
    ]
    assert found == []


def test_sub_chain_guard_sees_every_form():
    probe = (
        "def f(sub, chain): pass\n"
        "def _g(sub, chain, m): pass\n"
        "def _h(chain, m): pass\n"
        "class P:\n"
        "    def check(self, sub, chain): pass\n"
        "    def _check(self, sub, *, chain): pass\n"
        "class _Q:\n"
        "    def table(self, sub, chain): pass\n"
    )
    assert _private_sub_chain_takers(probe, {"f", "P"}) == ["_g", "P._check", "_Q.table"]


def test_no_defaults_that_no_caller_omits():
    # every caller passes the chain and the profile, the listing's window
    # length and a cylinder value's algebraic note; ``pf_vectors`` keeps its
    # default, since a benchmark probe omits the profile
    import inspect

    from chainshift import CylinderValue, decomposition_report, level_measure_table, limit_data, pf_vectors

    for fn in (decomposition_report, limit_data, level_measure_table, CylinderValue):
        defaults = [p.name for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]
        assert defaults == [], fn.__name__
    assert inspect.signature(pf_vectors).parameters["spectral"].default is None


# the entries that served tests alone; their facts are fields of the report
PRIVATE_CLASSIFICATION = (
    "classify_level", "level_seed", "find_seed_pair", "minimal_sets", "positively_recurrent", "is_empty_bottom"
)


def _public_functions(source: str) -> list[str]:
    """The module-level functions of ``source`` whose names are not private."""
    tree = ast.parse(source)
    return [node.name for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_the_classification_has_one_public_door():
    # the subshift is classified as one object: the CLI and the benchmark read
    # it whole, and the seeds, level reports and minimal sets are its fields
    import chainshift

    assert _public_functions((PACKAGE / "classify.py").read_text(encoding="utf-8")) == ["decomposition_report"]
    assert not set(PRIVATE_CLASSIFICATION) & set(chainshift.__all__)
    assert not [name for name in PRIVATE_CLASSIFICATION if hasattr(chainshift, name)]
    assert "is_empty_bottom" not in _public_functions((PACKAGE / "structure.py").read_text(encoding="utf-8"))
    assert len(chainshift.__all__) == len(set(chainshift.__all__)) == 44


def test_public_function_guard_sees_every_form():
    probe = "def f(): pass\ndef _g(): pass\nclass C:\n    def h(self): pass\nk = lambda: 0\n"
    assert _public_functions(probe) == ["f"]


def test_cli_defines_no_exit_code_table():
    # every error class carries its code (``errors``); the CLI reads it
    from chainshift import errors

    classes = {name for name, k in vars(errors).items() if isinstance(k, type) and issubclass(k, Exception)}
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = {getattr(key, "id", None) for key in node.keys}
            assert not keys & classes, ast.unparse(node)
    assert "EXIT_CODES" not in _names((PACKAGE / "cli.py").read_text(encoding="utf-8"))


def test_classify_reads_only_the_two_letter_index():
    # the rows of every level come from one sweep of the two-letter words,
    # and every s-run fact, the s_middle words included, from the one
    # ("s_runs",) closure: no longer words are closed or looked up, no
    # word -> level index is read, and no gap is capped
    path = PACKAGE / "classify.py"
    assert _calls(path, "level_words") == ["chain.level_words(2)"]
    assert _calls(path, "word_levels") == []
    assert "MIDDLE_CAP" not in path.read_text(encoding="utf-8")


def test_the_chain_is_the_one_producer_of_its_language_sweep():
    # ``ComponentChain.level_words`` runs the sweep once per window length;
    # every other reader, the word -> level index included, reads it there
    import chainshift

    importers = [
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and "level_words" in {alias.name for alias in node.names}
        or isinstance(node, ast.Attribute) and node.attr == "level_words" and getattr(node.value, "id", None) == "words"
    ]
    assert importers == ["structure.py"]
    calls = [call for path in MODULES for call in _calls(path, "level_words")]
    assert calls and all(call.startswith(("chain.level_words(", "self.level_words(")) for call in calls), calls
    tree = ast.parse((PACKAGE / "words.py").read_text(encoding="utf-8"))
    assert "word_levels" not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "word_levels" not in chainshift.__all__


def test_structure_decides_primitivity_in_the_witness_search():
    # no separate power stepping per component, and no witness-less outcome
    source = (PACKAGE / "structure.py").read_text(encoding="utf-8")
    names = {
        getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)
        for node in ast.walk(ast.parse(source))
    }
    assert "_row_or_step" not in names
    assert "no_witness" not in source


def test_chain_stores_its_components_only():
    # the letters each level adds, as detection finds them, and one letter ->
    # level index; no cumulative alphabet is stored or rebuilt
    tree = ast.parse((PACKAGE / "structure.py").read_text(encoding="utf-8"))
    chain = next(node for node in tree.body if getattr(node, "name", None) == "ComponentChain")
    slots = next(
        node.value for node in chain.body if isinstance(node, ast.Assign) and node.targets[0].id == "__slots__"
    )
    assert ast.literal_eval(slots) == ("sub", "components", "witness_k", "_memo", "_level_of")
    assert "itertools.compress" not in _imported_modules(PACKAGE / "structure.py")


def _chain_level_reads(source: str) -> list[tuple[str, str]]:
    """Each read of ``.levels`` on a chain in ``source``, as (the innermost
    enclosing definition, the expression)."""
    reads: list[tuple[str, str]] = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "levels" and "chain" in ast.unparse(child.value):
                reads.append((where, ast.unparse(child)))
            visit(child, getattr(child, "name", where))

    visit(ast.parse(source), "<module>")
    return reads


def test_chain_level_guard_sees_every_chain():
    probe = (
        "def f(chain, chain_i, report, spectral):\n"
        "    return chain.levels, chain_i.levels[0], report.chain.levels, report.levels, spectral.levels\n"
        "class C:\n"
        "    def g(self):\n"
        "        return [x for x in self.chain.levels]\n"
    )
    assert _chain_level_reads(probe) == [
        ("f", "chain.levels"), ("f", "chain_i.levels"), ("f", "report.chain.levels"), ("g", "self.chain.levels")
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_chain_json_reads_cumulative_levels(path):
    # every reader works on the components; the JSON lists the alphabets
    if path.name == "structure.py":
        return
    reads = _chain_level_reads(path.read_text(encoding="utf-8"))
    assert reads == ([("_chain_json", "chain.levels")] if path.name == "cli.py" else []), reads


PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _unnamed_definitions(library: list[str], outside: list[str]) -> list[str]:
    """The module-level functions and class methods (dunders aside) of the
    ``library`` sources that nothing else names.

    A definition counts as used when its name is read or written (a variable,
    or an attribute) in another library definition, in module-level library
    code, or anywhere in the ``outside`` sources; import statements and
    ``__all__`` do not count. Names are matched alone, without their owner,
    so a definition whose name another one shares is always counted as used.
    """

    def names(node) -> set[str]:
        found = set()
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name):
                found.add(inner.id)
            elif isinstance(inner, ast.Attribute):
                found.add(inner.attr)
        return found

    def units(tree):  # (definition name or None, qualified name, node)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) or "__all__" in {
                getattr(t, "id", None) for t in getattr(node, "targets", [])
            }:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name, node.name, node
            elif isinstance(node, ast.ClassDef):
                for part in node.body:
                    if isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield part.name, f"{node.name}.{part.name}", part
                    else:
                        yield None, node.name, part
                for part in node.decorator_list + node.bases:
                    yield None, node.name, part
            else:
                yield None, "<module>", node

    readers: dict[str, set[int]] = {}  # name -> the library units that name it
    defined = []
    trees = [ast.parse(source) for source in library]
    for unit, (name, qual, node) in enumerate(u for tree in trees for u in units(tree)):
        for used in names(node):
            readers.setdefault(used, set()).add(unit)
        if name and not (name.startswith("__") and name.endswith("__")):
            defined.append((name, qual, unit))
    seen_outside = set()
    for source in outside:
        for _, _, node in units(ast.parse(source)):
            seen_outside |= names(node)
    return [
        qual for name, qual, own in defined
        if name not in seen_outside and not readers.get(name, set()) - {own}
    ]


def test_dead_helper_guard_sees_every_form():
    probe = (
        "from .other import unused\n"
        "__all__ = ['unused', 'recursive']\n"
        "def used():\n"
        "    return helper\n"
        "def unused():\n"
        "    return used()\n"
        "def recursive(k):\n"
        "    return recursive(k - 1)\n"
        "def helper():\n"
        "    pass\n"
        "def by_bench():\n"
        "    pass\n"
        "class C:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def m(self):\n"
        "        return self.k\n"
        "    def k(self):\n"
        "        return self.k\n"
        "    def lone(self):\n"
        "        pass\n"
        "TABLE = {'m': C.m}\n"
    )
    bench = "import chainshift\nfrom chainshift import lone\nchainshift.by_bench()\n"
    assert _unnamed_definitions([probe], [bench]) == ["unused", "recursive", "C.lone"]


def test_no_dead_helpers():
    # Every library function and method is used by the library itself or by
    # the benchmark harness; tests read the data, or an oracle, instead of a
    # helper kept for them alone. The guard matches names only: a dead method
    # whose name another definition, field or variable shares (``block``
    # beside ``LevelSpectrum.block``, say) slips by.
    library = [path.read_text(encoding="utf-8") for path in MODULES]
    outside = [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py"))]
    assert _unnamed_definitions(library, outside) == []
