"""The runtime stays free of dependencies: every absolute import in the
package names a standard-library module."""

import ast
import sys
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
