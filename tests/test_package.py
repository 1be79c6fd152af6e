"""Package-wide properties of the source tree."""

import ast
import sys
from pathlib import Path

import orda


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(orda.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "orda" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert not foreign, foreign


def test_oracles_import_no_algorithm_under_test():
    # the reference implementations stay independent of the code they check
    def allowed(module, name):
        return module in ("orda.core", "orda.errors") or (module, name) == ("orda.classify", "Verdict")

    oracles = Path(__file__).with_name("oracles.py")
    leaks = []
    for node in ast.walk(ast.parse(oracles.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in imported:
            if module.split(".")[0] == "orda" and not allowed(module, name):
                leaks.append(f"oracles.py:{node.lineno}: {module} {name}")
    assert not leaks, leaks


def test_every_top_level_definition_is_referenced():
    # a top-level def or class that nothing names outside its own body is dead
    package = sorted(Path(orda.__file__).parent.glob("*.py"))
    repo = Path(__file__).resolve().parent.parent
    readers = sorted((repo / "tests").glob("*.py")) + sorted((repo / "bench").glob("*.py"))
    assert package and readers
    defined, named = [], set()
    for path in package + readers:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", None)  # set on def and class statements
            if owner is not None and path in package:
                defined.append((path.name, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != owner:
                    named.add(name)
    unused = [f"{file}: {name}" for file, name in defined if name not in named]
    assert not unused, unused
