"""Every name a module of the package or of its tests imports is used in
that module, every module-level definition of the package is named
somewhere in the package or in the benchmark, and no module of the package
imports another one's private names.

Three ``ast`` scans. The first checks the names each import statement binds
against the names the module's code loads: a deletion that leaves an import
behind fails here. The second checks each top-level ``def`` and ``class`` of
``src/objslam`` against the identifiers, attributes and string constants of
``src/objslam`` and ``perfbench``: code that no caller names any more fails
here. Tests do not count as callers. The third lists the underscore names
each module of the package imports from another: a helper that two modules
need belongs, with both its callers, in one of them. ``dataset`` owns every
file format, so it alone imports ``json``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "objslam").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


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


@pytest.mark.parametrize(
    "path", SOURCES + TESTS, ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS]
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def names(source: str) -> set[str]:
    """The identifiers, attribute names and string constants of `source`."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unnamed_definitions(source: str, named: set[str]) -> list[str]:
    """The top-level functions and classes of `source` that are not in
    `named`, in order of appearance."""
    return [
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
    ]


def test_scan_finds_an_unnamed_definition():
    source = "def kept():\n    pass\n\ndef dropped():\n    kept()\n\nclass Hooked:\n    pass\n"
    assert unnamed_definitions(source, names(source)) == ["dropped", "Hooked"]
    caller = "patch(module, 'Hooked')\nmodule.dropped()\n"
    assert unnamed_definitions(source, names(source) | names(caller)) == []


def test_every_definition_is_named():
    named = set().union(*(names(p.read_text()) for p in SOURCES + BENCHMARK))
    unnamed = {p.name: unnamed_definitions(p.read_text(), named) for p in SOURCES}
    assert {module: defs for module, defs in unnamed.items() if defs} == {}


def private_imports(source: str) -> list[str]:
    """The underscore names that `source` imports from a module of the
    package, relatively or as ``objslam``, in order of appearance."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "objslam")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_scan_finds_a_private_import():
    source = (
        "from __future__ import annotations\nimport json\nfrom typing import _T\n"
        "from .dataset import _record, load_dataset\nfrom objslam.geometry import _skew\n"
        "from . import _internal\n"
    )
    assert private_imports(source) == ["_record", "_skew", "_internal"]


def test_no_module_imports_a_private_name_of_another():
    found = {p.name: private_imports(p.read_text()) for p in SOURCES}
    assert {module: names for module, names in found.items() if names} == {}


def test_only_dataset_imports_json():
    def imports_json(source: str) -> bool:
        return any(
            isinstance(node, ast.Import) and any(a.name == "json" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "json"
            for node in ast.walk(ast.parse(source))
        )

    assert [p.name for p in SOURCES if imports_json(p.read_text())] == ["dataset.py"]
