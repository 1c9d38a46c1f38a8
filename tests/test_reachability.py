"""Every name defined in src/kgsums is reached by the program, not only by tests.

Two kinds of name are checked, in the modules under src/kgsums
(``__init__.py`` aside, whose re-exports reach nothing):

* a ``def``, ``class`` or assigned name at the top level of a module;
* a ``def`` or assigned name in a class body, dunders aside.  A bare
  annotation such as a dataclass field is not an assignment: the record's
  readers (``dataclasses.fields``, tuple unpacking) reach it by position.

A name counts as reached when it is read, as a name, an attribute or an
imported name:

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
    """The names a top-level or class-body statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _walk(tree, skip=None):
    """The nodes of a tree, as ``ast.walk`` gives them, less the subtree of ``skip``."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is not skip:
            yield node
            todo.extend(ast.iter_child_nodes(node))


def _read(tree, strings=False, skip=None):
    """The names a tree, less the subtree of ``skip``, reads: loaded names and
    attributes, imported names and, with ``strings``, string constants that
    are not docstrings."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = set()
    for node in _walk(tree, skip):
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


def _program():
    """The parsed modules under src/kgsums by name, and the names bench/ and
    scripts/ read."""
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
    return modules, outside


def test_every_module_level_name_is_reached():
    modules, outside = _program()
    reads = {name: [_read(s) for s in tree.body] for name, tree in modules.items()}
    unreached = []
    for name, tree in modules.items():
        elsewhere = outside.union(*(r for other in modules if other != name for r in reads[other]))
        for i, statement in enumerate(tree.body):
            for defined in sorted(_defined(statement) - elsewhere - set(ALLOWED)):
                if not any(defined in r for j, r in enumerate(reads[name]) if j != i):
                    unreached.append(f"{name}.{defined}")
    assert not unreached, f"reached only by tests, or by nothing: {unreached}"


def test_every_class_member_is_reached():
    modules, outside = _program()
    reads = {name: _read(tree) for name, tree in modules.items()}
    unreached = []
    for name, tree in modules.items():
        elsewhere = outside.union(*(reads[other] for other in modules if other != name))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for statement in cls.body:
                if isinstance(statement, ast.AnnAssign) and statement.value is None:
                    continue
                for defined in sorted(_defined(statement) - elsewhere - set(ALLOWED)):
                    if defined.startswith("__") and defined.endswith("__"):
                        continue
                    if defined not in _read(tree, skip=statement):
                        unreached.append(f"{name}.{cls.name}.{defined}")
    assert not unreached, f"reached only by tests, or by nothing: {unreached}"
