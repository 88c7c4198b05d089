"""The package exports only what the package itself or a demo uses.

Every name ``hamrecon/__init__`` imports must be used in a module of the
package (other than ``__init__``) or in a demo, outside the name's own
definition, or be a function the benchmark's span recorder rebinds.  A
helper that only tests call belongs in ``tests/oracles.py``, not in the
public API.

No exported function has a one-value knob: a defaulted parameter is
justified only when the package's own modules or the benchmark both pass
it and leave it out.  Tests and demos do not count as callers.
"""

import ast

from helpers import ROOT, load_spans

PACKAGE = ROOT / "src" / "hamrecon"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _bindings(tree):
    """Names a module binds at top level by import, def or class.

    Assignments are left out: a demo's top-level ``ball = ...`` is a
    variable, not a use of an exported ``ball``.
    """
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _used_names(tree):
    """Module-level names a module reads, and attributes it reads off them.

    A read inside the definition of the same name does not count, and
    neither does a local variable that only shares an exported name.
    """
    bound = _bindings(tree)

    def walk(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        found = set()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                found.add(node.attr)
        found -= defining
        for child in ast.iter_child_nodes(node):
            found |= walk(child, defining)
        return found

    return walk(tree, frozenset())


def test_every_export_has_a_caller_outside_the_tests(monkeypatch):
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    used = set()
    for path in files:
        used |= _used_names(ast.parse(path.read_text()))
    rebound = {target.attr for target in load_spans(monkeypatch).TARGETS}
    exports = _exports()
    assert len(exports) > 40
    unused = [name for name in exports if name not in used and name not in rebound]
    assert not unused, f"exported but used only by tests: {unused}"


def _exported_functions():
    """(name, definition) of every top-level function ``hamrecon/__init__`` exports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = ast.parse((PACKAGE / f"{node.module}.py").read_text())
            defs = {d.name: d for d in module.body if isinstance(d, ast.FunctionDef)}
            for alias in node.names:
                if alias.name in defs:
                    yield alias.asname or alias.name, defs[alias.name]


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def test_no_exported_function_has_a_one_value_knob():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    calls = [
        node
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    ]
    functions = list(_exported_functions())
    assert len(functions) > 30
    knobs = []
    for name, fn in functions:
        positional = fn.args.posonlyargs + fn.args.args
        defaulted = list(enumerate(positional))[len(positional) - len(fn.args.defaults) :]
        defaulted += [
            (None, arg) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default
        ]
        sites = [call for call in calls if _callee(call) == name]
        for index, arg in defaulted:
            passed = [
                any(kw.arg == arg.arg for kw in call.keywords)
                or (index is not None and len(call.args) > index)
                for call in sites
            ]
            if not any(passed) or all(passed):
                knobs.append(f"{name}({arg.arg})")
    assert not knobs, f"defaulted parameters that callers never vary: {knobs}"
