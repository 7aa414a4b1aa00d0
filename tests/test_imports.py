"""Every name a package module imports is used by that module, and every
module-level definition is used outside its own body."""

import ast
import pathlib
from collections import Counter

import planar_oracle

PACKAGE = pathlib.Path(planar_oracle.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# (module, name) imports kept on purpose, with the reason
ALLOWED_IMPORTS = {
    # perfbench/tracing.py rebinds tradeoff_oracle.compute_leaf_ddg by name
    # to time leaf builds, so the attribute must exist on the module
    ("tradeoff_oracle", "compute_leaf_ddg"),
}

# (module, name) definitions no package module or perfbench uses, with
# the reason each stays
ALLOWED = {
    # the public single-source reference that tests check the oracles with
    ("baseline", "sssp"),
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


def _mentions(node: ast.AST) -> Counter:
    """Identifiers ``node`` uses: names, attributes, imported names and
    identifier strings (perfbench names rebinding targets as strings).
    ``__all__`` lists are not uses."""
    skip = {
        id(const)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets)
        for const in ast.walk(sub.value)
    }
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and sub.value.isidentifier()
            and id(sub) not in skip
        ):
            out[sub.value] += 1
    return out


def dead_definitions(modules: dict[str, str], users: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each module-level function or class in ``modules``
    that no code names outside the definition itself.  Both arguments map
    a module name to its source; ``users`` are read but not checked."""
    trees = {name: ast.parse(src) for name, src in {**modules, **users}.items()}
    total: Counter = Counter()
    for tree in trees.values():
        total.update(_mentions(tree))
    dead = []
    for mod in modules:
        for node in trees[mod].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if total[node.name] - _mentions(node)[node.name] <= 0:
                    dead.append((mod, node.name))
    return sorted(dead)


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
        if (path.stem, name) not in ALLOWED_IMPORTS
    ]
    assert hits == []


def test_dead_definition_checker():
    modules = {
        "a": (
            '__all__ = ["only_exported", "Used"]\n'
            "def only_exported(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Used: pass\n"
            "def _helper(): pass\n"
            "def caller(): return _helper()\n"
        ),
        "b": "from .a import Used\nx = Used()\n",
    }
    users = {"bench": 'import a\nHOOKS = [(a, "caller")]\n'}
    assert dead_definitions(modules, users) == [
        ("a", "only_exported"),
        ("a", "recursive"),
    ]


def test_no_dead_definitions():
    modules = {
        p.stem: p.read_text(encoding="utf-8")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    }
    users = {
        f"perfbench.{p.stem}": p.read_text(encoding="utf-8")
        for p in sorted(PERFBENCH.glob("*.py"))
    }
    assert modules and users
    assert [d for d in dead_definitions(modules, users) if d not in ALLOWED] == []
