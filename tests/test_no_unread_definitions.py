"""Guard: the simulator layers ship only what a product path reads.

Every function, method and class defined in ``repro.{sim,runtime,core,
mem,machine}`` must have its name read somewhere in ``src/``,
``benchmarks/`` or ``examples/``.  A definition only tests call belongs in
``tests/`` (as an oracle, when a test compares shipped results against
it) or nowhere.

A name counts as read when it is loaded (``foo``, ``obj.foo``); importing
or re-exporting it does not count, so an ``__init__`` re-export cannot
keep a dead class alive.  ``on_*`` probe methods (looked up through
``repro.hooks``) and dunders are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRODUCT_DIRS = ("src", "benchmarks", "examples")
GUARDED = ("sim", "runtime", "core", "mem", "machine")


def _read_names() -> set[str]:
    reads: set[str] = set()
    aliases: list[tuple[str, str]] = []
    for top in PRODUCT_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load)):
                    reads.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    aliases.extend((a.name, a.asname) for a in node.names
                                   if a.asname and a.asname != a.name)
    # ``from m import f as g``: reading ``g`` reads ``f``
    reads.update(name for name, asname in aliases if asname in reads)
    return reads


def _unread_definitions() -> list[str]:
    reads = _read_names()
    unread = []
    for package in GUARDED:
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef)):
                    continue
                name = node.name
                if (name.startswith("on_")
                        or (name.startswith("__") and name.endswith("__"))):
                    continue
                if name not in reads:
                    rel = path.relative_to(ROOT)
                    unread.append(f"{rel}:{node.lineno} {name}")
    return unread


def test_every_simulator_definition_is_read_by_a_product_path():
    unread = _unread_definitions()
    assert not unread, (
        "defined in src/ but never read in src/, benchmarks/ or examples/ "
        "(delete it, or move it into tests/ as an oracle):\n  "
        + "\n  ".join(unread))
