"""Every module of the package uses each name it imports or exports it,
its __all__ lists exactly the names it exports, and it generates code in
one place only."""

import ast
import importlib
from pathlib import Path

import midpredict

PACKAGE = Path(midpredict.__file__).parent


def _listed(tree):
    """The names in the module's __all__, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


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
    used.update(_listed(tree) or ())
    return sorted(imported - used)


def _unlisted_definitions(source):
    """Public module-level functions and classes missing from __all__."""
    tree = ast.parse(source)
    listed = set(_listed(tree) or ())
    defined = (
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    )
    return sorted(set(defined) - listed)


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


def test_checker_finds_unlisted_definitions():
    source = (
        "__all__ = ['f']\ndef f(): pass\ndef g(): pass\ndef _h(): pass\n"
        "class C: pass\nclass _D: pass\n"
    )
    assert _unlisted_definitions(source) == ["C", "g"]


def test_all_lists_exactly_the_public_definitions():
    missing, unlisted = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name.startswith("_"):
            continue
        source = path.read_text(encoding="utf-8")
        listed = _listed(ast.parse(source))
        assert listed is not None, "%s has no __all__" % path.name
        module = importlib.import_module("midpredict." + path.stem)
        names = [name for name in listed if not hasattr(module, name)]
        if names:
            missing[path.name] = names
        names = _unlisted_definitions(source)
        if names:
            unlisted[path.name] = names
    assert missing == {}
    assert unlisted == {}


def _calls_by_owner(source, names):
    """(owner, name) for each call of a bare name in ``names``; the owner is
    the module-level function or the Class.method holding it, or None."""
    tree = ast.parse(source)
    owners = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            owners += [("%s.%s" % (node.name, item.name), item) for item in node.body
                       if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owners.append((node.name, node))
        else:
            owners.append((None, node))
    return [
        (owner, node.func.id)
        for owner, top in owners
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names
    ]


def test_checker_finds_calls_by_owner():
    source = (
        "import re\nexec('1')\ndef f():\n    def g():\n        return compile('', '', 'eval')\n"
        "    return g\nclass C:\n    def m(self):\n        return re.compile('x'), eval('2')\n"
    )
    assert _calls_by_owner(source, ("exec", "eval", "compile")) == [
        (None, "exec"), ("f", "compile"), ("C.m", "eval")]


def test_code_is_generated_only_for_the_simulator_run():
    # exec, eval and compile run only in expressions._define, which only
    # compile_chain_run calls: the one compiled form of an expression
    runners, definers = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for owner, name in _calls_by_owner(source, ("exec", "eval", "compile", "_define")):
            target = definers if name == "_define" else runners
            target.setdefault((path.stem, owner), set()).add(name)
    assert runners == {("expressions", "_define"): {"compile", "exec"}}
    assert definers == {("expressions", "compile_chain_run"): {"_define"}}
