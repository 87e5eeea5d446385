"""The runtime stays free of dependencies: every absolute import in the
package names a standard-library module.  It also holds only code that it
runs: every import is read, every definition is referenced and every
attribute stored on an instance is read."""

import ast
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "equichow"


def test_runtime_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_runtime_modules_use_every_import():
    """Each name a module-level import binds is read in that module: as a
    name, which also covers the base of an attribute such as `math.lcm`.
    The package's `__init__.py` imports to re-export, so it is left out."""
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert files
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno}: {bound}")
    assert unused == []


# Definitions kept although nothing in `src/` references them, with why.
UNREFERENCED_ALLOWED = {
    "MonomialOrder.lex": "the Groebner tests compare results under it",
    "euler_constant": "public and checked, for points from outside; the engine's own"
    " points skip the check through `_euler_constant`",
    "map_image_fixed_point": "public and checked, for points from outside; the engine's"
    " own points skip the check through `_image`",
}


def test_runtime_definitions_are_referenced():
    """Every top-level function or class and every non-dunder method of the
    package is referenced, as a name or an attribute, by code in `src/`
    outside its own definition, or is allowed above and still unreferenced.
    `__init__.py` only re-exports, so its references do not count."""
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert files
    trees = [(path, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in files]

    def references(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    used = Counter(name for _, tree in trees for name in references(tree))
    unreferenced = {}
    for path, tree in trees:
        found = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
        for qualname, node in found:
            inside = sum(1 for name in references(node) if name == node.name)
            if used[node.name] == inside:
                unreferenced[qualname] = f"{path.name}:{node.lineno}"
    assert sorted(unreferenced) == sorted(UNREFERENCED_ALLOWED), unreferenced


def test_runtime_instance_attributes_are_read():
    """Every attribute that a method stores on `self`, by assignment or by
    `object.__setattr__`, is read somewhere in `src/`: as an attribute, or
    by its name as a string argument of a call other than a store (as in
    `self.__dict__.get("_packed")`).  A store that nothing reads is a
    leftover cache or memo."""
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    stored, read = {}, set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node.value, ast.Name) and node.value.id == "self":
                    stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call):
                names = [a.value for a in node.args if isinstance(a, ast.Constant)]
                names = [name for name in names if isinstance(name, str)]
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "__setattr__":
                    for name in names:
                        stored.setdefault(name, f"{path.name}:{node.lineno}")
                else:
                    read.update(names)
    assert stored
    assert {name: at for name, at in stored.items() if name not in read} == {}
