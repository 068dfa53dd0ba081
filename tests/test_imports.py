"""Every name a module of the package imports is used in that module.

An ``ast`` scan: the names each import statement binds, against the names
the module's code loads. A deletion that leaves an import behind fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "objslam").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of `source` that nothing in
    it reads, in order of appearance. ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = "import json\nfrom typing import Mapping, Sequence\nx: Sequence = json.loads('[]')\n"
    assert unused_imports(source) == ["Mapping"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
