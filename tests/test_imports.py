"""Every module of the package and of the tests uses each name it imports
or exports it; each package module's __all__ lists exactly the names it
exports, the package generates code in one place only, and every definition
in it is reached from the CLI."""

import ast
import importlib
from pathlib import Path

import midpredict

PACKAGE = Path(midpredict.__file__).parent
TESTS = Path(__file__).parent


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
    # the package's modules and the tests alike
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unreached_definitions(sources, roots):
    """Module-level functions and classes, and methods, that no root reaches.

    sources maps a module name to its source; roots are (module, name) of
    the entry points, a method's name being Class.method. A definition is
    reached when an ast name or attribute with its name occurs in a
    module-level statement, in a root or in a reached definition. A method
    other than a dunder is a definition of its own; the rest of a reached
    class, dunder methods too, counts as reached with it.
    """
    defined, pending = {}, []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                methods = [item for item in node.body
                           if isinstance(item, _FUNCTIONS) and not item.name.startswith("__")]
                for item in methods:
                    defined.setdefault(item.name, []).append(
                        (module, "%s.%s" % (node.name, item.name), [item]))
                parts = node.decorator_list + node.bases + node.keywords
                parts += [item for item in node.body if item not in methods]
                defined.setdefault(node.name, []).append((module, node.name, parts))
            elif isinstance(node, _FUNCTIONS):
                defined.setdefault(node.name, []).append((module, node.name, [node]))
            else:
                pending.append(node)
    pending += [part for module, name in roots
                for owner, key, parts in defined.get(name.rpartition(".")[2], ())
                if (owner, key) == (module, name) for part in parts]
    reached = set(roots)
    while pending:
        for node in ast.walk(pending.pop()):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            for module, key, parts in defined.get(name, ()):
                if (module, key) not in reached:
                    reached.add((module, key))
                    pending += parts
    return sorted((module, key) for entries in defined.values()
                  for module, key, _ in entries if (module, key) not in reached)


def test_checker_finds_unreached_definitions():
    sources = {
        "a": "X = g\ndef main():\n    return b.f()\ndef g(): pass\ndef h(): pass\n"
             "class C:\n    def __init__(self):\n        self.v = j()\n"
             "    def m(self):\n        return k()\n    def spare(self):\n        return h()\n",
        "b": "def f():\n    return C().m\ndef j(): pass\ndef k(): pass\ndef unused(): return h\n",
    }
    assert _unreached_definitions(sources, {("a", "main")}) == [
        ("a", "C.spare"), ("a", "h"), ("b", "unused")]
    assert _unreached_definitions(sources, {("a", "main"), ("a", "C.spare")}) == [("b", "unused")]


def test_every_definition_is_reached_from_the_cli():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    # bench/tracing.py wraps these two methods by name, so they, and
    # eval_expression with them, stay until the benchmark stops reading them
    roots = {("cli", "main"), ("cli", "dispatch"),
             ("model", "CanonicalSystem.phi_value"), ("model", "CanonicalSystem.input_value")}
    assert _unreached_definitions(sources, roots) == []


def _private_package_names(source):
    """Underscore names a module takes from midpredict: imported by name,
    or read as attributes of an imported midpredict module."""
    tree = ast.parse(source)
    names, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "midpredict":
            names += [a.name for a in node.names if a.name.startswith("_")]
            modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name.partition(".")[0] for a in node.names
                           if a.name.partition(".")[0] == "midpredict")
    names += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.startswith("__")
              and isinstance(node.value, ast.Name) and node.value.id in modules]
    return sorted(names)


def test_checker_finds_private_package_names():
    source = (
        "import midpredict.cli\nfrom midpredict import polynomials as P\n"
        "from midpredict.spectrum import _inside, qp_eval\nfrom math import _x\n"
        "P._gcd(1, 2), midpredict.__version__, midpredict._y, qp_eval(_x)\n"
    )
    assert _private_package_names(source) == ["_gcd", "_inside", "_y"]


def test_oracles_take_no_private_name_from_the_package():
    # a reference that borrowed the package's helpers would share their faults
    source = (TESTS / "oracles.py").read_text(encoding="utf-8")
    assert _private_package_names(source) == []
