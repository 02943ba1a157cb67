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
"""

import ast
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
