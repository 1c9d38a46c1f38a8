"""The benchmark's tracer (bench/spans.py) wraps program functions by name.

``Tracer.install`` reads ``vars(module)[name]`` for every entry of
``FUNCTIONS`` and ``vars(cls)[member]`` for every entry of
``WEIGHT_MEMBERS``, so a renamed or deleted target surfaces only as a
``KeyError`` inside a benchmark run.  This test looks every target up the
same way.  It loads bench/spans.py and the grid scripts from their files
without writing bytecode next to them.

The bench and the scripts also import kgsums names inside functions, where
a removed name surfaces only when that function runs; the second test
parses every file under bench/ and scripts/ and resolves each such name.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = _load("_bench_spans", ROOT / "bench" / "spans.py", monkeypatch)
    for mod_name, attr, _, _ in spans.FUNCTIONS:
        if mod_name.startswith("kgsums"):
            module = importlib.import_module(mod_name)
        else:
            module = _load(mod_name, ROOT / "scripts" / f"{mod_name}.py", monkeypatch)
        assert attr in vars(module), f"bench/spans.py traces {mod_name}.{attr}"
    for mod_name, cls_name, member in spans.WEIGHT_MEMBERS:
        cls = vars(importlib.import_module(mod_name))[cls_name]
        assert member in vars(cls), f"bench/spans.py wraps {mod_name}.{cls_name}.{member}"


def _kgsums_imports(path):
    """(module, name) of every ``from kgsums[.mod] import name`` in a file, and
    (module, None) of every ``import kgsums[.mod]``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "kgsums":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kgsums":
                    yield alias.name, None


def test_bench_and_script_imports_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    files = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    found = 0
    for path in files:
        for mod_name, name in _kgsums_imports(path):
            found += 1
            module = importlib.import_module(mod_name)
            if name is not None and name not in vars(module):
                # a submodule, as in ``from kgsums import verify``
                assert importlib.util.find_spec(f"{mod_name}.{name}") is not None, (
                    f"{path.relative_to(ROOT)} imports {name} from {mod_name}"
                )
    assert found > 0
