"""Unset-option scan: every parameter default in ``src/`` has a caller that sets it.

An AST scan lists the defaulted parameters of the public functions and
methods defined in ``src/repro`` and fails on any that no call in
``src/``, ``bench/``, ``examples/``, ``tests/`` or ``benchmarks/`` sets.
A default that nothing overrides is a knob with one value in use: it
belongs at its point of use as a literal or a module constant.

Calls are matched by the callee's name alone, so the scan errs towards
"set".  A call sets a parameter when it

* passes it by keyword,
* passes enough positional arguments to reach it,
* spreads any ``*args`` or ``**kwargs``, or
* is a ``functools.partial`` binding of the callee: the bound callable's
  own calls are out of the scan's sight, so a binding sets every parameter.

For ``__init__`` the callee is the class: calls of the class and of its
subclasses, ``super().__init__`` in a subclass, ``Class.__init__(self, ...)``
and ``cls(...)`` inside the class or a subclass all count.

Defaults that no call sets on purpose are on :data:`ALLOWED`, each with
its reason; :func:`tests.scans.judge` fails an entry that a call now
sets, or that names no defaulted parameter, so the list cannot go stale.
"""

import ast

from tests import scans

#: ``module path:qualified name(parameter)`` -> why no call sets it.
ALLOWED = {
    "repro/arm/cpu.py:FastCPU.__init__(engine)": (
        "Python passes it: CPU.__new__ returns a FastCPU, and the "
        "constructor call's engine= reaches __init__"
    ),
    "repro/arm/cpu.py:TurboCPU.__init__(engine)": (
        "Python passes it: CPU.__new__ returns a TurboCPU, and the "
        "constructor call's engine= reaches __init__"
    ),
}


def _callee(func):
    """The name a call's target is known by, or ``None``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _base_names(cls):
    return [name for name in map(_callee, cls.bases) if name]


class _Site:
    """One call's argument shape: positional count, keywords, spreads."""

    __slots__ = ("positional", "keywords", "spread")

    def __init__(self, args, keywords, skip=0, spread=False):
        self.spread = (
            spread
            or any(isinstance(arg, ast.Starred) for arg in args)
            or any(kw.arg is None for kw in keywords)
        )
        self.positional = len(args) - skip
        self.keywords = {kw.arg for kw in keywords if kw.arg}

    def sets(self, name, index):
        """Whether this call sets the parameter ``name`` at positional
        ``index`` (``None`` for keyword-only)."""
        if self.spread or name in self.keywords:
            return True
        return index is not None and self.positional > index


def _sites(trees, family):
    """``callee name -> [_Site]`` over every call in ``trees``.

    ``family`` maps each class name to itself and its subclasses.  A
    ``super().__init__`` call in class C constructs one of C's bases, so
    it is filed under every class C derives from; ``cls(...)`` in C may
    construct C or any subclass, so it is filed under each of them;
    ``Class.__init__(self, ...)`` is filed under ``Class``.
    """
    ancestors = {}
    for base, members in family.items():
        for member in members - {base}:
            ancestors.setdefault(member, set()).add(base)
    sites = {}

    def add(names, site):
        for name in names:
            sites.setdefault(name, []).append(site)

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = _callee(func)
            site = _Site(node.args, node.keywords)
            if name == "partial" and node.args and _callee(node.args[0]):
                add([_callee(node.args[0])], _Site([], [], spread=True))
            if name == "__init__" and isinstance(func, ast.Attribute):
                target = func.value
                if isinstance(target, ast.Call) and _callee(target.func) == "super":
                    add(ancestors.get(owner, ()), site)
                elif _callee(target):
                    add([_callee(target)], _Site(node.args, node.keywords, skip=1))
            elif name == "cls" and owner:
                add(family.get(owner, {owner}), site)
            elif name:
                add([name], site)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for tree in trees.values():
        visit(tree, None)
    return sites


def _defaulted(func, method):
    """``(parameter, positional index or None)`` of each defaulted parameter."""
    args = func.args
    positional = args.posonlyargs + args.args
    if method:
        positional = positional[1:]
    for index, arg in enumerate(positional):
        if index >= len(positional) - len(args.defaults):
            yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _functions(tree):
    """``(qualified name, call name, class name, def, is method)`` of the
    public module-level functions and the public methods and ``__init__``
    of public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, None, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if sub.name != "__init__" and sub.name.startswith("_"):
                    continue
                static = any(
                    _callee(dec) == "staticmethod" for dec in sub.decorator_list
                )
                yield f"{node.name}.{sub.name}", sub.name, node.name, sub, not static


def _subclasses(trees):
    """``class name -> {the class and every class deriving from it}``."""
    parents = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                parents.setdefault(node.name, set()).update(_base_names(node))
    family = {name: {name} for name in parents}
    changed = True
    while changed:
        changed = False
        for child, bases in parents.items():
            for base in bases:
                members = family.setdefault(base, {base})
                if not family[child] <= members:
                    members |= family[child]
                    changed = True
    return family


def find(trees):
    """Keys (as in :data:`ALLOWED`) of every default under ``src/`` that no
    call in ``trees`` sets, and the set of every key the scan saw."""
    family = _subclasses(trees)
    sites = _sites(trees, family)
    unset, seen = set(), set()
    for path, tree in trees.items():
        if scans.SRC not in path.parents:
            continue
        module = path.relative_to(scans.SRC).as_posix()
        for qualname, name, owner, func, method in _functions(tree):
            if name == "__init__":
                calls = [
                    site
                    for cls in family.get(owner, {owner})
                    for site in sites.get(cls, ())
                ]
            else:
                calls = sites.get(name, ())
            for param, index in _defaulted(func, method):
                key = f"{module}:{qualname}({param})"
                seen.add(key)
                if not any(site.sets(param, index) for site in calls):
                    unset.add(key)
    return unset, seen


def test_every_default_is_set_by_some_call():
    unexplained, _stale = scans.judge(*scans.run(find, *scans.TOPS), ALLOWED)
    assert not unexplained, (
        "no call sets these defaults; make each a literal or constant at its "
        f"point of use, or add it to ALLOWED: {unexplained}"
    )


def test_allowlist_is_current():
    _unexplained, stale = scans.judge(*scans.run(find, *scans.TOPS), ALLOWED)
    assert not stale, stale
