"""Every module of the package uses each name it imports or exports it."""

import ast
from pathlib import Path

import midpredict

PACKAGE = Path(midpredict.__file__).parent


def _unused_imports(source):
    """Names a module imports but neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_finds_unused_imports():
    source = (
        "import os.path\nimport sys as system\nfrom math import pi, tau\n"
        "__all__ = ['tau']\nsystem.exit(pi)\n"
    )
    assert _unused_imports(source) == ["os"]


def test_modules_use_every_import():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            names = _unused_imports(path.read_text(encoding="utf-8"))
            if names:
                unused[path.name] = names
    assert unused == {}
