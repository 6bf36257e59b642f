"""Import hygiene: every name a module imports is used in it (``__init__``
re-exports by design), and no re-export hides a submodule of the package."""

import ast
import importlib
import pkgutil
import sys

import pytest

import packetgroup

from conftest import REPO_ROOT

# perfbench/ is left out: it belongs to the benchmark
MODULES = sorted(p for d in ("src/packetgroup", "tests", "scripts")
                 for p in (REPO_ROOT / d).glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    assert _unused_imports("from x import a, b\nimport c.d\nprint(b)\n") == ["a", "c"]


SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(packetgroup.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_the_submodule(name):
    importlib.import_module(f"packetgroup.{name}")
    assert getattr(packetgroup, name) is sys.modules[f"packetgroup.{name}"]


def test_string_target_monkeypatch_reaches_the_submodule(monkeypatch):
    def fake(d):
        return None

    monkeypatch.setattr("packetgroup.sharp.y_sharp", fake)
    assert sys.modules["packetgroup.sharp"].y_sharp is fake
