"""Every module-level name in src/kgsums is reached by the program, not only by tests.

A ``def``, ``class`` or assigned name at the top level of a module under
src/kgsums (``__init__.py`` aside, whose re-exports reach nothing) counts
as reached when it is read, as a name, an attribute or an imported name:

* in another module under src/kgsums, again without ``__init__.py``;
* in its own module, outside the statement that defines it;
* in bench/*.py or scripts/*.py, where a string constant counts too,
  because bench/spans.py names the functions it traces as strings.

Docstrings and comments do not count.  The one exception is
``modmath.eq_exp``, the direct-sum oracle the tests compare against.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: names kept for the tests alone, each with its reason
ALLOWED = {"eq_exp": "the direct-sum oracle of the test suite"}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _defined(statement):
    """The names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _read(tree, strings=False):
    """The names a tree reads: loaded names and attributes, imported names and,
    with ``strings``, string constants that are not docstrings."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                found.add(node.value)
    return found


def test_every_module_level_name_is_reached():
    modules = {
        path.stem: _parse(path)
        for path in sorted((ROOT / "src" / "kgsums").glob("*.py"))
        if path.name != "__init__.py"
    }
    outside = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        outside |= _read(_parse(path), strings=True)
    for path in sorted((ROOT / "scripts").glob("*.py")):
        outside |= _read(_parse(path))
    reads = {name: [_read(s) for s in tree.body] for name, tree in modules.items()}
    unreached = []
    for name, tree in modules.items():
        elsewhere = outside.union(*(r for other in modules if other != name for r in reads[other]))
        for i, statement in enumerate(tree.body):
            for defined in sorted(_defined(statement) - elsewhere - set(ALLOWED)):
                if not any(defined in r for j, r in enumerate(reads[name]) if j != i):
                    unreached.append(f"{name}.{defined}")
    assert not unreached, f"reached only by tests, or by nothing: {unreached}"
