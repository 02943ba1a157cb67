"""One node index per parsed module, shared by every bwlint pass.

``repro lint`` runs the declaration checker (``REP1xx``), the placement
model checker (``REP2xx``) and the traffic and phase analyses
(``REP3xx``) over one parse of each file, and ``repro guide`` runs the
last two.  All of them ask the same questions of the tree: which nodes
lie under this method, which calls, which classes derive from
``Chare``.  A :class:`NodeIndex` answers them from one breadth-first
pass over the module, the only pass that expands a node:

* :meth:`NodeIndex.walk` — the nodes of a scope (the module, a class or
  a function) in :func:`ast.walk` order, recorded during the pass, so
  every order-dependent result matches a fresh walk.  The shared context
  and operator singletons (``ast.Load``, ``ast.Add``, ...) are left out:
  no pass looks for them, and they are a third of a module's nodes;
* :meth:`NodeIndex.calls` — the ``ast.Call`` nodes of one scope;
* :meth:`NodeIndex.contains` — subtree membership by climbing the parent
  map, without walking;
* :attr:`NodeIndex.classes`, :attr:`NodeIndex.class_named` and
  :attr:`NodeIndex.chares` — the module's classes, by name, and its
  (transitive) ``Chare``/``NodeGroup`` subclasses;
* :attr:`NodeIndex.attr_loads` and :meth:`NodeIndex.attr_stores_outside`
  — attribute names read anywhere, and stored outside one class.

An index lives exactly as long as one module's analysis: the caller that
parsed the module builds it, hands it down and drops it with the
analysis.  Nothing is stored on the AST and no analysis result refers to
the index, so a finished analysis keeps no tree alive.
"""

from __future__ import annotations

import ast
import functools

__all__ = ["NodeIndex", "base_name"]

#: class names that make a subclass chare-like without further evidence
_CHARE_ROOTS = {"Chare", "NodeGroup"}

#: nodes whose subtree :meth:`NodeIndex.walk` records during the pass
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

#: the context and operator nodes CPython shares across a whole tree
_SINGLETONS = (ast.expr_context, ast.operator, ast.boolop, ast.unaryop,
               ast.cmpop)


def base_name(base: ast.expr) -> str | None:
    """The class name a base expression spells (``Chare``, ``rt.Chare``)."""
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


class NodeIndex:
    """Structural facts about one parsed module, each computed once."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        self._parent: dict[ast.AST, ast.AST] = {}
        self._walks: dict[ast.AST, list[ast.AST]] = {}
        self._calls: dict[ast.AST, list[ast.Call]] = {}
        parent = self._parent
        walks = self._walks
        # breadth-first, like ast.walk: the module's list is the queue, and
        # every node also lands in the list of each scope above it, so each
        # list holds its scope's nodes in the order ast.walk yields them
        nodes = walks[tree] = [tree]
        #: per queued node, the lists (besides the module's) its children
        #: join; one tuple per scope, shared by every node inside it
        chains: list[tuple[list[ast.AST], ...]] = [()]
        for node, chain in zip(nodes, chains):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _SINGLETONS):
                    continue
                parent[child] = node
                nodes.append(child)
                for scope_nodes in chain:
                    scope_nodes.append(child)
                if isinstance(child, _SCOPES):
                    own = walks[child] = [child]
                    chains.append(chain + (own,))
                else:
                    chains.append(chain)

    def walk(self, scope: ast.AST) -> list[ast.AST]:
        """``list(ast.walk(scope))`` for the module, a class or a function,
        less the context and operator singletons."""
        return self._walks[scope]

    def calls(self, scope: ast.AST) -> list[ast.Call]:
        """The calls under ``scope``, in walk order."""
        calls = self._calls.get(scope)
        if calls is None:
            calls = self._calls[scope] = [
                n for n in self._walks[scope] if isinstance(n, ast.Call)]
        return calls

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The node directly above ``node`` (None for the module)."""
        return self._parent.get(node)

    def contains(self, outer: ast.AST, node: ast.AST) -> bool:
        """Is ``node`` ``outer`` itself or inside its subtree?"""
        parent = self._parent
        current: ast.AST | None = node
        while current is not None:
            if current is outer:
                return True
            current = parent.get(current)
        return False

    @functools.cached_property
    def classes(self) -> list[ast.ClassDef]:
        """Every class in the module, nested ones included, in walk order."""
        return [n for n in self._walks[self.tree]
                if isinstance(n, ast.ClassDef)]

    @functools.cached_property
    def class_named(self) -> dict[str, ast.ClassDef]:
        """Class by name; a later (walk order) class shadows an earlier."""
        return {c.name: c for c in self.classes}

    @functools.cached_property
    def chares(self) -> list[ast.ClassDef]:
        """Classes (transitively) deriving from Chare/NodeGroup here."""
        chare_like: set[str] = set(_CHARE_ROOTS)
        changed = True
        while changed:
            changed = False
            for cls in self.classes:
                if cls.name in chare_like:
                    continue
                if any(base_name(b) in chare_like for b in cls.bases):
                    chare_like.add(cls.name)
                    changed = True
        return [c for c in self.classes if c.name in chare_like
                and c.name not in _CHARE_ROOTS]

    @functools.cached_property
    def attr_loads(self) -> set[str]:
        """Attribute names loaded anywhere in the module."""
        return {n.attr for n in self._walks[self.tree]
                if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Load)}

    @functools.cached_property
    def _attr_stores(self) -> list[ast.Attribute]:
        return [n for n in self._walks[self.tree]
                if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Store)]

    def attr_stores_outside(self, cls: ast.ClassDef) -> set[str]:
        """Attribute names stored anywhere outside ``cls``'s subtree."""
        return {n.attr for n in self._attr_stores
                if not self.contains(cls, n)}

