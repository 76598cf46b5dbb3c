"""Import guard for the library modules.

``kernels`` serves only the benchmark probes, so no library module may import
it, numpy is confined to the float eigen path in ``spectral``, and no module
keeps a cache of its own.
"""

import ast
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
def test_no_module_level_caches(path):
    # Derived data lives on the chain it derives from (``ComponentChain.memo``);
    # a module cache would keep every system a process analyses.
    names = _imported_modules(path)
    assert not {"functools.lru_cache", "functools.cache"} & names, path.name
