"""Every name a package module imports is used by that module, every
module-level definition is used outside its own body, and every method,
property and instance attribute of a package class is read somewhere in
the package or perfbench."""

import ast
import pathlib
from collections import Counter

import planar_oracle

PACKAGE = pathlib.Path(planar_oracle.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# (module, name) imports kept on purpose, with the reason; an entry for an
# import that is gone or now used fails the check as stale
ALLOWED_IMPORTS = {
    # perfbench/tracing.py rebinds tradeoff_oracle.compute_leaf_ddg by name
    # to time leaf builds, so the attribute must exist on the module
    ("tradeoff_oracle", "compute_leaf_ddg"),
}

# (module, name) definitions and (module, "Class.member") members no
# package module or perfbench uses, with the reason each stays; an entry
# naming no definition, or one that is no longer dead, fails as stale
ALLOWED = {
    # the public single-source reference that tests check the oracles with
    ("baseline", "sssp"),
    # public detail of the graph parse error, for callers
    ("graph", "GraphFormatError.line_no"),
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


def _identifier_strings(node: ast.AST, lists: tuple[str, ...]) -> list[str]:
    """Identifier strings in ``node`` outside assignments to ``lists``."""
    skip = {
        id(const)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in lists for t in sub.targets)
        for const in ast.walk(sub.value)
    }
    return [
        sub.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant)
        and isinstance(sub.value, str)
        and sub.value.isidentifier()
        and id(sub) not in skip
    ]


def _mentions(node: ast.AST) -> Counter:
    """Identifiers ``node`` uses: names, attributes, imported names and
    identifier strings (perfbench names rebinding targets as strings).
    ``__all__`` lists are not uses."""
    out: Counter = Counter(_identifier_strings(node, ("__all__",)))
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _reads(node: ast.AST) -> Counter:
    """Member names ``node`` reads: attribute loads and identifier strings
    outside ``__all__`` and ``__slots__`` (a getattr or a rebinding hook
    names its member as a string)."""
    out: Counter = Counter(_identifier_strings(node, ("__all__", "__slots__")))
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
    return out


def _members(cls: ast.ClassDef):
    """(name, definition) of each method and property of ``cls`` other than
    dunders, and (name, None) of each attribute its methods set on self."""
    for node in cls.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not (node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                yield sub.attr, None


def dead_definitions(modules: dict[str, str], users: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each module-level function or class in ``modules``
    that no code names outside the definition itself, and (module,
    "Class.member") of each class member that no code reads outside the
    member's own body.  Both arguments map a module name to its source;
    ``users`` are read but not checked."""
    trees = {name: ast.parse(src) for name, src in {**modules, **users}.items()}
    total: Counter = Counter()
    reads: Counter = Counter()
    for tree in trees.values():
        total.update(_mentions(tree))
        reads.update(_reads(tree))
    dead = set()
    for mod in modules:
        for node in trees[mod].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if total[node.name] - _mentions(node)[node.name] <= 0:
                    dead.add((mod, node.name))
            if isinstance(node, ast.ClassDef):
                for name, member in _members(node):
                    own = _reads(member)[name] if member else 0
                    if reads[name] - own <= 0:
                        dead.add((mod, f"{node.name}.{name}"))
    return sorted(dead)


def test_checker_sees_unused_and_used_names():
    src = "import os\nfrom a.b import c, d as e\nimport x.y\n\nprint(e, x.y)\n"
    assert unused_imports(src) == ["c", "os"]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    hits = {
        (path.stem, name)
        for path in modules
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert sorted(hits - ALLOWED_IMPORTS) == []
    assert sorted(ALLOWED_IMPORTS - hits) == [], "stale ALLOWED_IMPORTS entries"


def test_dead_definition_checker():
    modules = {
        "a": (
            '__all__ = ["only_exported", "Used"]\n'
            "def only_exported(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Used:\n"
            '    __slots__ = ("kept", "written", "hooked")\n'
            "    def __init__(self):\n"
            "        self.kept = self.written = self.hooked = 0\n"
            "    def loop(self): return self.loop()\n"
            "    @property\n"
            "    def size(self): return self.kept\n"
            "def _helper(): pass\n"
            "def caller(): return _helper()\n"
        ),
        "b": "from .a import Used\nx = Used()\nprint(x.size)\n",
    }
    users = {"bench": 'import a\nHOOKS = [(a, "caller"), (a.Used, "hooked")]\n'}
    assert dead_definitions(modules, users) == [
        ("a", "Used.loop"),
        ("a", "Used.written"),
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
    dead = set(dead_definitions(modules, users))
    assert sorted(dead - ALLOWED) == []
    assert sorted(ALLOWED - dead) == [], "stale ALLOWED entries"
