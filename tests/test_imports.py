"""Every name a qbias module imports is used there or re-exported in __all__,
no module forks on an optional import, every kernel function and module-level
private name has a caller, no module but engine imports engine's private
names beyond the gf entry and the prefactor, every name the package exports
is referred to by one of its modules or listed, and every public function,
class and method is referred to by production code."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import qbias

MODULES = sorted(p for p in pathlib.Path(qbias.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_unused_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from math import pi, tau\n"
              "__all__ = ['tau']\n"
              "def f():\n"
              "    return os.sep\n")
    assert unused_imports(source) == [(2, "osp"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


def import_error_handlers(source):
    """Line numbers of ``except`` clauses that catch ImportError or
    ModuleNotFoundError, alone or in a tuple: an optional-import fork."""
    names = {"ImportError", "ModuleNotFoundError"}
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(t, ast.Name) and t.id in names for t in caught):
                lines.append(node.lineno)
    return lines


def test_fork_check_sees_import_error_handlers():
    source = ("try:\n    import fast\nexcept ImportError:\n    fast = None\n"
              "try:\n    pass\nexcept (KeyError, ModuleNotFoundError):\n    pass\n"
              "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert import_error_handlers(source) == [3, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_optional_import_fork(path):
    assert import_error_handlers(path.read_text()) == [], path.name


def _defined(node):
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def uncalled(sources, kernel):
    """(module, name) for every top-level function of ``kernel`` and every
    module-level _private name in ``sources`` (module -> source text) that
    no code in ``sources`` refers to outside the name's own definition."""
    wanted, used = set(), set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = _defined(node)
            for name in names:
                if ((module == kernel and isinstance(node, ast.FunctionDef))
                        or (name.startswith("_") and not name.startswith("__"))):
                    wanted.add((module, name))
            for sub in ast.walk(node):
                ref = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if ref and ref not in names:
                    used.add(ref)
    return sorted((module, name) for module, name in wanted if name not in used)


def test_caller_check_sees_helpers_used_only_by_themselves():
    sources = {"kernel": ("def step(n):\n    return step(n - 1) if n else 0\n"
                          "def used():\n    return 1\n"),
               "engine": ("from .kernel import used\n"
                          "_CACHE = {}\n_LIMIT = 3\n"
                          "def _helper():\n    return _LIMIT\n"
                          "def _orphan():\n    return _orphan, used()\n"
                          "def public():\n    return _helper()\n")}
    assert uncalled(sources, "kernel") == [("engine", "_CACHE"), ("engine", "_orphan"),
                                           ("kernel", "step")]


def test_kernel_functions_and_private_names_have_callers():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert uncalled(sources, "kernel") == []


# the engine names other qbias modules may import: the gf's one graded entry,
# which decides its own width and form, and the prefactor f_series expands
ENGINE_PRIVATE_IMPORTS = {"_gf_graded", "_prefactor_graded"}


def engine_private_imports(source):
    """The underscore names a module imports from ``engine``, as
    ``from .engine import`` or ``from qbias.engine import``."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and ((node.level, node.module) in ((1, "engine"), (0, "qbias.engine")))
                  for alias in node.names if alias.name.startswith("_"))


def test_engine_import_audit_sees_private_names():
    source = ("from .engine import _gf_graded, _gf_form, public\n"
              "from qbias.engine import _total_bits\n"
              "from .kernel import _pack\nfrom .engines import _other\n")
    assert engine_private_imports(source) == ["_gf_form", "_gf_graded", "_total_bits"]


def test_only_the_gf_entry_and_prefactor_leave_engine():
    # the gf's slot width and list form are decided in engine alone
    leaked = {p.name: names for p in pathlib.Path(qbias.__file__).parent.glob("*.py")
              if p.stem != "engine"
              and (names := set(engine_private_imports(p.read_text())) - ENGINE_PRIVATE_IMPORTS)}
    assert leaked == {}


# exports that no other qbias module refers to; pochhammer_product stays
# while perfbench/tracer.py rebinds it (ROADMAP item 5)
UNREFERENCED_EXPORTS = ["pochhammer_product"]


def unreferenced_exports(init_source, sources):
    """Names ``__init__`` imports that no code in ``sources`` (module -> source
    text) reads by name or attribute; a definition, an import or an
    ``__all__`` string is no reference."""
    exported = [alias.asname or alias.name for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(name for name in exported if name not in used)


def test_export_audit_sees_names_no_module_refers_to():
    init = "from .a import called, read, unread, orphan\nfrom .b import defined_only\n"
    sources = {"a": ("def called():\n    pass\nread = 1\nunread = 2\n"
                     "def orphan():\n    pass\n"),
               "b": ("from . import a\nfrom .a import called, orphan\n__all__ = ['orphan']\n"
                     "def defined_only():\n    return called(), a.read\n")}
    assert unreferenced_exports(init, sources) == ["defined_only", "orphan", "unread"]


def test_every_export_has_a_caller_or_is_listed():
    sources = {p.stem: p.read_text() for p in MODULES}
    init = (pathlib.Path(qbias.__file__).parent / "__init__.py").read_text()
    assert unreferenced_exports(init, sources) == UNREFERENCED_EXPORTS


def unreferenced_api(package, sources):
    """(module, name) for every public top-level function or class of a
    ``package`` module (module -> source text), and (module, "Class.method")
    for every public method of such a class, that no code in ``sources``
    (any key -> source text) refers to outside the name's own definition.

    A reference is a name, an attribute or a whole string constant, since
    perfbench's tracer names the attributes it rebinds as strings; an
    ``__all__`` string is no reference, and dunder methods are skipped.  Like
    uncalled(), this goes by name alone: any name or attribute spelt the same
    counts, so ``TruncatedSeries.zero`` would pass as referred to through
    dp's local variable ``zero``.
    """
    wanted = {}
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                wanted[(module, node.name)] = node.name
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        wanted[(module, f"{node.name}.{sub.name}")] = sub.name
    used = set()
    for source in sources.values():
        for node in ast.parse(source).body:
            names = _defined(node)
            if "__all__" in names:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    ref = sub.id
                elif isinstance(sub, ast.Attribute):
                    ref = sub.attr
                elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    ref = sub.value
                else:
                    continue
                if ref not in names:
                    used.add(ref)
    return sorted(key for key, name in wanted.items() if name not in used)


def test_api_audit_sees_names_only_tests_could_reach():
    package = {"a": ("__all__ = ['listed']\n"
                     "def listed():\n    pass\n"
                     "def recursive(n):\n    return recursive(n - 1)\n"
                     "def by_string():\n    pass\n"
                     "class Box:\n"
                     "    def __len__(self):\n        return 0\n"
                     "    def used(self):\n        return self.spare\n"
                     "    def spare(self):\n        pass\n"
                     "    def orphan(self):\n        pass\n"
                     "    def _private(self):\n        pass\n")}
    sources = dict(package, bench="import a\nsetattr(a, 'by_string', None)\na.Box().used()\n")
    assert unreferenced_api(package, sources) == [("a", "Box.orphan"), ("a", "listed"),
                                                 ("a", "recursive")]


def test_every_public_name_has_a_production_reference():
    # the CLI, the library routes, the benchmark and the demos are the
    # production code; a name only the tests reach belongs in tests/
    root = pathlib.Path(__file__).resolve().parent.parent
    package = {p.stem: p.read_text() for p in MODULES}
    sources = {str(p): p.read_text()
               for d in ("src", "perfbench", "demos") for p in (root / d).rglob("*.py")}
    assert unreferenced_api(package, sources) == []


def test_cli_import_leaves_the_process_pool_unloaded():
    # the sweep imports its pool when it starts one, so a CLI start that
    # never sweeps in parallel does not pay for multiprocessing; the records
    # are named tuples and plain classes, not dataclasses, whose import
    # pulls in inspect (and ast, dis, tokenize); and only the exit-4 handler
    # imports traceback
    code = ("import sys, qbias.cli\n"
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing',\n"
            "                         'dataclasses', 'inspect', 'traceback')\n"
            "             if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(pathlib.Path(qbias.__file__).parent.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
