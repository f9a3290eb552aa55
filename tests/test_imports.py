"""Every name a qbias module imports is used there or re-exported in __all__,
no module forks on an optional import, every kernel function and module-level
private name has a caller, and every name the package exports is referred to
by one of its modules or listed."""

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


# exports that no other qbias module refers to; ROADMAP item 5 empties this list
UNREFERENCED_EXPORTS = ["count_distinct", "count_partitions", "digamma_reference",
                        "enumerate_distinct", "enumerate_partitions", "pochhammer_product",
                        "tauberian_predict"]


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


def test_cli_import_leaves_the_process_pool_unloaded():
    # the sweep imports its pool when it starts one, so a CLI start that
    # never sweeps in parallel does not pay for multiprocessing
    code = ("import sys, qbias.cli\n"
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')\n"
            "             if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(pathlib.Path(qbias.__file__).parent.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
