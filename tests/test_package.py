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
    # A top-level def or class of the package counts only when orda.__all__,
    # the CLI or bench/ reach it, directly or through the package's other
    # definitions; one that only tests name is test code living in src/orda.
    # So does a method or property of a package class other than a dunder:
    # it counts only when reached code or bench/ names it as an attribute,
    # such as `order.restrict`, which reaches every method named restrict.
    package = sorted(Path(orda.__file__).parent.glob("*.py"))
    bench = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))
    assert package and bench

    modules = {path.stem for path in package} | {"orda"}

    def is_module(node):
        # `core` or `orda.core`: an attribute of these names a definition;
        # any other attribute, such as oa.order.restrict, names a method
        if isinstance(node, ast.Name):
            return node.id in modules
        return isinstance(node, ast.Attribute) and node.attr in modules and is_module(node.value)

    def names(node):
        """The top-level names node mentions, and ".m" for each method m it names."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr if is_module(sub.value) else "." + sub.attr
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                # "omega.length_set" in bench/tracing.py names length_set
                parts = sub.value.split(".")
                if all(part.isidentifier() for part in parts):
                    yield parts[-1]

    def is_dunder(name):
        return name.startswith("__") and name.endswith("__")

    roots = set(orda.__all__)
    uses = {}  # top-level name or ".method" -> the names its definitions mention
    defined = []  # (file, shown name, graph node)
    for path in package:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ClassDef):
                defined.append((path.name, stmt.name, stmt.name))
                class_uses = uses.setdefault(stmt.name, set())
                for node in stmt.bases + stmt.decorator_list:
                    class_uses.update(names(node))
                for item in stmt.body:
                    # dunders run implicitly, so they count with their class
                    if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                        defined.append((path.name, f"{stmt.name}.{item.name}", "." + item.name))
                        uses.setdefault("." + item.name, set()).update(names(item))
                    else:
                        class_uses.update(names(item))
                continue
            if isinstance(stmt, ast.FunctionDef):
                defined.append((path.name, stmt.name, stmt.name))
                owners = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                owners = [name for target in targets for name in names(target)]
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            else:  # module code, such as the CLI's `if __name__ == "__main__":`
                roots.update(names(stmt))
                continue
            for owner in owners:
                uses.setdefault(owner, set()).update(names(stmt))
    for path in bench:
        roots.update(names(ast.parse(path.read_text(encoding="utf-8"))))

    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(uses.get(name, ()))
    unused = [f"{file}: {shown}" for file, shown, node in defined if node not in reached]
    assert not unused, unused
