"""Guard: ``src/repro`` ships only what a product path reads.

Every function, method and class defined under ``src/repro`` must be
reachable from product code: the scripts in ``benchmarks/`` and
``examples/`` and the module-level statements of ``src/repro`` (which run
on import; the CLI and the figure plans hang off them).  A definition only
tests call belongs in ``tests/`` (as an oracle, when a test compares
shipped results against it) or nowhere.

Reachability is computed to a fixpoint: a definition is live once its name
is read by live code, and the body of a live definition is live code.  So a
definition read only from inside unread definitions is itself unread, and a
whole dead cluster is reported together.

A name counts as read when it is loaded (``foo``, ``obj.foo``); importing
or re-exporting it does not count, so an ``__init__`` re-export cannot
keep a dead class alive.  Names are matched, not resolved: reading
``x.run`` keeps every live-reachable ``run`` alive.  Three kinds of method
are dispatched without their name being loaded and are live whenever
their enclosing scope is: dunders, ``on_*`` probe methods (looked up
through ``repro.hooks``) and ``@entry`` methods (the runtime invokes them
by message name).

Two more checks apply the same name matching and product scope to what a
definition offers inside:

* every defaulted or keyword-only parameter of a ``src/repro`` callable is
  passed by some product call: by keyword, by enough positional arguments
  to reach it, or through ``*``/``**``.  Calls match by name; an
  ``__init__`` also matches its class, the subclasses and
  ``super().__init__``.  A callable handed on by value (a dict value, an
  argument, an assignment or a return value, but not an ``isinstance``
  test or an annotation) counts as passed everything.  ``on_*`` methods
  and dunders other than ``__init__`` are exempt;
* every attribute a ``src/repro`` method stores on ``self`` is read in the
  product scope.  A subscript store into it (``self.x[k] = v``) or a
  mutator call whose result is dropped (``self.x.append(v)``) does not
  count as a read; a string literal naming it does (``getattr``), except
  inside ``__slots__``.

A knob only tests turn, or a counter only tests read, belongs in a test
(as a patched module constant or a fixture) or nowhere.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCRIPT_DIRS = ("benchmarks", "examples")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_entry(node: ast.AST) -> bool:
    for deco in getattr(node, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "entry":
            return True
    return False


def _dispatched(node: ast.AST) -> bool:
    name = node.name
    return (name.startswith("on_") or _is_entry(node)
            or (name.startswith("__") and name.endswith("__")))


def _loads(node: ast.AST, aliases: dict[str, str]) -> set[str]:
    """Names ``node`` reads, outside the bodies of its nested definitions.

    A nested definition's decorators, bases, defaults and annotations are
    attributed to it too: they matter only if the nested definition is used.
    """
    reads: set[str] = set()
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _DEFS):
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            reads.add(aliases.get(child.id, child.id))
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx,
                                                              ast.Load):
            reads.add(child.attr)
        stack.extend(ast.iter_child_nodes(child))
    return reads


class _Def:
    __slots__ = ("where", "name", "dispatched", "reads", "children")

    def __init__(self, where: str, node: ast.AST, reads: set[str]):
        self.where = where
        self.name = node.name
        self.dispatched = _dispatched(node)
        self.reads = reads
        self.children: list[_Def] = []


def _aliases(tree: ast.Module) -> dict[str, str]:
    # ``from m import f as g``: reading ``g`` reads ``f``
    return {a.asname: a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names if a.asname and a.asname != a.name}


def _collect(node: ast.AST, rel: str, aliases: dict[str, str]) -> list[_Def]:
    """The definitions directly inside ``node`` (at any statement depth)."""
    found: list[_Def] = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _DEFS):
            d = _Def(f"{rel}:{child.lineno}", child, _loads(child, aliases))
            d.children = _collect(child, rel, aliases)
            found.append(d)
        else:
            stack.extend(ast.iter_child_nodes(child))
    return found


def _unread_definitions() -> list[str]:
    live_reads: set[str] = set()
    pending: list[_Def] = []
    for top in SCRIPT_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            aliases = _aliases(tree)
            live_reads |= {aliases.get(n.id, n.id) for n in ast.walk(tree)
                           if isinstance(n, ast.Name)
                           and isinstance(n.ctx, ast.Load)}
            live_reads |= {n.attr for n in ast.walk(tree)
                           if isinstance(n, ast.Attribute)
                           and isinstance(n.ctx, ast.Load)}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = _aliases(tree)
        live_reads |= _loads(tree, aliases)
        pending.extend(_collect(tree, str(path.relative_to(ROOT)), aliases))

    # worklist fixpoint: a definition turns live when its name is read by
    # live code or it is dispatched from a live scope; its body then reads
    while True:
        woken = [d for d in pending if d.dispatched or d.name in live_reads]
        if not woken:
            break
        for d in woken:
            pending.remove(d)
            live_reads |= d.reads
            pending.extend(d.children)
    return sorted(f"{d.where} {d.name}" for d in pending)


def test_every_definition_is_read_by_a_product_path():
    unread = _unread_definitions()
    assert not unread, (
        "defined in src/repro but not reachable from src/, benchmarks/ or "
        "examples/ (delete it, or move it into tests/ as an oracle):\n  "
        + "\n  ".join(unread))


# -- keyword parameters and stored attributes -------------------------------

def _product_modules() -> list[tuple[str, ast.Module]]:
    """``(path, tree)`` for every module of the product scope, src first."""
    paths = sorted(SRC.rglob("*.py"))
    for top in SCRIPT_DIRS:
        paths += sorted((ROOT / top).rglob("*.py"))
    return [(str(p.relative_to(ROOT)), ast.parse(p.read_text()))
            for p in paths]


def _parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    return {child: node for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)}


def _ref_name(node: ast.AST, aliases: dict[str, str]) -> str | None:
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# containers a by-value reference passes through on its way to its use
_TRANSPARENT = (ast.Tuple, ast.List, ast.Set, ast.Starred, ast.BoolOp,
                ast.keyword)
# uses that hand the callable itself to someone who may call it
_BY_VALUE = (ast.Call, ast.Assign, ast.AnnAssign, ast.Return, ast.Yield,
             ast.Lambda, ast.arguments, ast.ListComp, ast.GeneratorExp)
_TYPE_TESTS = ("isinstance", "issubclass")


def _passed_by_value(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """Whether loading ``node`` hands the loaded callable on by value.

    Calling it, dereferencing it, subclassing it, testing a type against it
    and annotating with it do not; storing, returning, decorating with it or
    passing it as an argument do.
    """
    parent = parents.get(node)
    while parent is not None:
        if isinstance(parent, ast.Dict):
            if node not in parent.values:
                return False
        elif isinstance(parent, ast.IfExp):
            if node is parent.test:
                return False
        elif not isinstance(parent, _TRANSPARENT):
            break
        node, parent = parent, parents.get(parent)
    if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        return node in parent.decorator_list
    if isinstance(parent, ast.Call):
        if node is parent.func:
            return False
        return not (isinstance(parent.func, ast.Name)
                    and parent.func.id in _TYPE_TESTS)
    if isinstance(parent, ast.AnnAssign):
        return node is parent.value
    if isinstance(parent, (ast.ListComp, ast.GeneratorExp)):
        return node is parent.elt
    return isinstance(parent, _BY_VALUE)


class _Passes:
    """What the product scope passes each callable, matched by name."""

    def __init__(self, modules: list[tuple[str, ast.Module]]):
        self.positional: dict[str, int] = {}
        self.keywords: dict[str, set[str]] = {}
        self.everything: set[str] = set()   # called with ** or by value
        self.bases: dict[str, set[str]] = {}
        for _, tree in modules:
            aliases = _aliases(tree)
            parents = _parents(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.bases.setdefault(node.name, set()).update(
                        _ref_name(b, aliases) for b in node.bases)
                elif isinstance(node, ast.Call):
                    for name in self._callee(node, parents, aliases):
                        self._record(name, node)
                elif (isinstance(node, (ast.Name, ast.Attribute))
                      and isinstance(node.ctx, ast.Load)
                      and _passed_by_value(node, parents)):
                    self.everything.add(_ref_name(node, aliases))

    def _callee(self, call: ast.Call, parents, aliases) -> set[str]:
        func = call.func
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"):
            # ``super().__init__(...)`` calls the bases' constructor
            scope = parents.get(call)
            while scope is not None and not isinstance(scope, ast.ClassDef):
                scope = parents.get(scope)
            return {_ref_name(b, aliases) for b in scope.bases} - {None}
        name = _ref_name(func, aliases)
        return {name} if name else set()

    def _record(self, name: str, call: ast.Call) -> None:
        if any(isinstance(a, ast.Starred) for a in call.args):
            self.positional[name] = 1 << 30
        else:
            self.positional[name] = max(self.positional.get(name, 0),
                                        len(call.args))
        for kw in call.keywords:
            if kw.arg is None:
                self.everything.add(name)
            else:
                self.keywords.setdefault(name, set()).add(kw.arg)

    def subclasses(self, name: str) -> set[str]:
        found = {name}
        while True:
            more = {c for c, bases in self.bases.items()
                    if bases & found} - found
            if not more:
                return found
            found |= more


def _checked_parameters(fn: ast.FunctionDef, bound: int):
    """``(name, positional index or None)`` of each defaulted or
    keyword-only parameter of ``fn``; the index counts from the first
    argument a caller writes (after a bound ``self``/``cls``)."""
    positional = fn.args.posonlyargs + fn.args.args
    first_default = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional):
        if i >= first_default and i >= bound:
            yield arg.arg, i - bound
    for arg in fn.args.kwonlyargs:
        yield arg.arg, None


def _unpassed_parameters(checked: list[tuple[str, ast.Module]],
                         product: list[tuple[str, ast.Module]]) -> list[str]:
    """Defaulted and keyword-only parameters of the callables defined in
    ``checked`` that no call in ``product`` passes."""
    passes = _Passes(product)
    unpassed = []
    for rel, tree in checked:
        parents = _parents(tree)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("on_") or (
                    fn.name != "__init__" and fn.name.startswith("__")
                    and fn.name.endswith("__")):
                continue
            owner = parents.get(fn)
            in_class = isinstance(owner, ast.ClassDef)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            names = ({fn.name} if fn.name != "__init__" or not in_class
                     else passes.subclasses(owner.name))
            if names & passes.everything:
                continue
            reach = max((passes.positional.get(n, -1) for n in names),
                        default=-1)
            keywords = set().union(*(passes.keywords.get(n, ())
                                     for n in names))
            where = f"{owner.name}.{fn.name}" if in_class else fn.name
            for param, index in _checked_parameters(
                    fn, int(in_class and not static)):
                if param in keywords:
                    continue
                if index is not None and reach > index:
                    continue
                unpassed.append(f"{rel}:{fn.lineno} {where}({param}=)")
    return sorted(unpassed)


# discarding the result of one of these only updates the container
_MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "popleft", "remove",
    "reverse", "setdefault", "sort", "update"})


def _is_read(node: ast.Attribute, parents: dict[ast.AST, ast.AST]) -> bool:
    """Whether loading ``node`` reads it, rather than only updating it."""
    parent = parents.get(node)
    if isinstance(parent, ast.Subscript) and not isinstance(parent.ctx,
                                                            ast.Load):
        return False   # ``self.x[k] = v`` / ``del self.x[k]``
    if (isinstance(parent, ast.Attribute) and parent.attr in _MUTATORS):
        call = parents.get(parent)
        return not (isinstance(call, ast.Call) and call.func is parent
                    and isinstance(parents.get(call), ast.Expr))
    return True


def _is_slots(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    while node is not None and not isinstance(node, ast.Assign):
        node = parents.get(node)
    return node is not None and any(
        isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)


def _unread_attributes(checked: list[tuple[str, ast.Module]],
                       product: list[tuple[str, ast.Module]]) -> list[str]:
    """Attributes the methods in ``checked`` store on ``self`` that nothing
    in ``product`` reads (a string literal naming one counts, for
    ``getattr``; a ``__slots__`` entry does not)."""
    reads: set[str] = set()
    for _, tree in product:
        parents = _parents(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and _is_read(node, parents)):
                reads.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and not _is_slots(node, parents)):
                reads.add(node.value)
    stored: dict[str, str] = {}
    for rel, tree in checked:
        parents = _parents(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr not in reads):
                scope = parents.get(node)
                while scope is not None and not isinstance(scope,
                                                           ast.ClassDef):
                    scope = parents.get(scope)
                owner = scope.name if scope is not None else "<module>"
                stored.setdefault(f"{owner}.{node.attr}",
                                  f"{rel}:{node.lineno}")
    return sorted(f"{where} {name}" for name, where in stored.items())


def test_every_keyword_parameter_is_passed_by_a_product_call():
    modules = _product_modules()
    src = [m for m in modules if m[0].startswith("src/")]
    unpassed = _unpassed_parameters(src, modules)
    assert not unpassed, (
        "defaulted or keyword-only parameters no call in src/, benchmarks/ "
        "or examples/ passes (delete the parameter and the path it "
        "selects):\n  " + "\n  ".join(unpassed))


def test_every_stored_attribute_is_read_by_a_product_path():
    modules = _product_modules()
    src = [m for m in modules if m[0].startswith("src/")]
    unread = _unread_attributes(src, modules)
    assert not unread, (
        "attributes stored on self that nothing in src/, benchmarks/ or "
        "examples/ reads (delete the attribute and its updates):\n  "
        + "\n  ".join(unread))


# -- the guard on synthetic sources ------------------------------------------

def _module(source: str) -> list[tuple[str, ast.Module]]:
    return [("m.py", ast.parse(textwrap.dedent(source)))]


def _unpassed(source: str) -> list[str]:
    modules = _module(source)
    return [entry.split()[1] for entry in _unpassed_parameters(modules,
                                                               modules)]


def _unread(source: str) -> list[str]:
    modules = _module(source)
    return sorted(entry.split()[1]
                  for entry in _unread_attributes(modules, modules))


def test_guard_reports_an_unpassed_keyword():
    assert _unpassed("""
        def f(a, b=1, *, c=2):
            return a + b + c

        f(1, 2)
    """) == ["f(c=)"]


def test_guard_reports_a_store_only_attribute():
    assert _unread("""
        class C:
            __slots__ = ("kept", "dropped")

            def __init__(self):
                self.kept = 0
                self.dropped = 0

            def bump(self):
                self.dropped += 1
                return self.kept
    """) == ["C.dropped"]


def test_guard_reports_a_subscript_store_only_attribute():
    assert _unread("""
        class C:
            def __init__(self):
                self.seen = {}
                self.log = []

            def note(self, key):
                self.seen[key] = True
                self.log.append(key)
    """) == ["C.log", "C.seen"]


def test_guard_accepts_a_callable_passed_by_value():
    assert _unpassed("""
        def g(x, scale=2):
            return x * scale

        PLANS = {"g": g}
    """) == []


def test_guard_accepts_a_double_star_call_site():
    assert _unpassed("""
        def h(x, *, mode="a"):
            return x, mode

        def call(options):
            return h(1, **options)
    """) == []


def test_guard_accepts_a_positional_pass():
    assert _unpassed("""
        class A:
            def __init__(self, n=1, m=2):
                self.n, self.m = n, m

        class B(A):
            pass

        B(5, 6)
    """) == []


def test_guard_accepts_an_attribute_read_through_getattr():
    assert _unread("""
        class D:
            def __init__(self):
                self.hidden = 1

        def peek(d):
            return getattr(d, "hidden")
    """) == []
