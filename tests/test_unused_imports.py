"""Every name a module imports is used in it (``__init__`` re-exports by design)."""

import ast

import pytest

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
