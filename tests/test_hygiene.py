"""Static hygiene of the sources, read with ``ast`` and never imported: no
module imports a name it does not use, every name a module lists in
``__all__`` is one it defines, and every memo table the package reads or
writes on ``LeibnizAlgebra._cache`` is one of :data:`MEMO_TABLES`."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src/quasileib", "tests", "perfbench")
    for path in (ROOT / folder).glob("*.py")
)

# the memo tables an algebra may hold in LeibnizAlgebra._cache, by the name
# their owner uses: each is read again often enough, or costs enough to
# rebuild, to pay for its entries
MEMO_TABLES = {
    "full", "squares_ideal", "center", "subalgebras", "bracket_subspaces",
    "is_subalgebra", "action", "quasi_in", "oracle_lines", "core",
    "subquasi_bfs", "wrap",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree):
    """(name bound, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The strings of a top-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _defined(tree):
    """The names a module binds at top level: definitions, assignments and
    imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(name for name, _ in _imported(node))
    return names


def test_sources_are_found():
    folders = {path.parent.name for path in SOURCES}
    assert folders == {"quasileib", "tests", "perfbench"}
    assert ROOT / "tests" / "test_hygiene.py" in SOURCES


def test_no_unused_import():
    # a name counts as used when the module reads it anywhere, or lists it
    # in __all__ (a re-export); a package's __init__ imports the names it
    # re-exports and reads none of them
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(_exported(tree))
        unused += [
            (path.relative_to(ROOT).as_posix(), line, name)
            for name, line in _imported(tree)
            if name not in used
        ]
    assert unused == []


def test_all_names_are_defined():
    missing = []
    for path in SOURCES:
        tree = _tree(path)
        for name in sorted(set(_exported(tree)) - _defined(tree)):
            missing.append((path.relative_to(ROOT).as_posix(), name))
    assert missing == []


def _cache_keys(tree):
    """(key, line) for every ``x._cache[key]`` and ``x._cache.get(key)``;
    the key is the string when it is a string literal, else None."""

    def is_cache(node):
        return isinstance(node, ast.Attribute) and node.attr == "_cache"

    def literal(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_cache(node.value):
            yield literal(node.slice), node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and is_cache(node.func.value)
        ):
            yield literal(node.args[0]) if node.args else None, node.lineno


def test_memo_names_are_the_listed_tables():
    # a misspelt or retired memo name is caught here, not by a silent miss;
    # a listed table that no code uses any more must leave the list
    used, unknown = set(), []
    for path in SOURCES:
        if path.parent.name != "quasileib":
            continue
        for key, line in _cache_keys(_tree(path)):
            used.add(key)
            if key not in MEMO_TABLES:
                unknown.append((path.relative_to(ROOT).as_posix(), line, key))
    assert unknown == []
    assert used == MEMO_TABLES
