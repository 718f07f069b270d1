"""Every module of the package uses each name it imports or exports it,
its __all__ lists exactly the names it exports, and it generates code in
one place only; every definition in it is reached from the CLI."""

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


def _unreached_definitions(sources, roots):
    """Module-level functions and classes that no root reaches.

    sources maps a module name to its source; roots are (module, name) of
    the entry points. A definition is reached when an ast name or attribute
    with its name occurs in a module-level statement, in a root or in a
    reached definition; the whole of a reached class counts, methods too.
    """
    defined, pending = {}, []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append((module, node))
            else:
                pending.append(node)
    pending += [node for module, name in roots
                for owner, node in defined.get(name, ()) if owner == module]
    reached = set(roots)
    while pending:
        for node in ast.walk(pending.pop()):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            for module, definition in defined.get(name, ()):
                if (module, name) not in reached:
                    reached.add((module, name))
                    pending.append(definition)
    return sorted((module, name) for name, nodes in defined.items()
                  for module, _ in nodes if (module, name) not in reached)


def test_checker_finds_unreached_definitions():
    sources = {
        "a": "X = g\ndef main():\n    return b.f()\ndef g(): pass\ndef h(): pass\n"
             "class C:\n    def m(self):\n        return k()\n",
        "b": "def f():\n    return C()\ndef k(): pass\ndef unused(): return h\n",
    }
    assert _unreached_definitions(sources, {("a", "main")}) == [
        ("a", "h"), ("b", "unused")]


def test_every_definition_is_reached_from_the_cli():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreached_definitions(sources, {("cli", "main"), ("cli", "dispatch")}) == []
