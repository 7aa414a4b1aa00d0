"""Every name a package module imports is used by that module."""

import ast
import pathlib

import planar_oracle

PACKAGE = pathlib.Path(planar_oracle.__file__).parent

# (module, name) pairs kept on purpose, with the reason
ALLOWED = {
    # perfbench/tracing.py rebinds tradeoff_oracle.compute_leaf_ddg by name
    # to time leaf builds, so the attribute must exist on the module
    ("tradeoff_oracle", "compute_leaf_ddg"),
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_sees_unused_and_used_names():
    src = "import os\nfrom a.b import c, d as e\nimport x.y\n\nprint(e, x.y)\n"
    assert unused_imports(src) == ["c", "os"]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    hits = [
        (path.stem, name)
        for path in modules
        for name in unused_imports(path.read_text(encoding="utf-8"))
        if (path.stem, name) not in ALLOWED
    ]
    assert hits == []
