"""Content-addressed on-disk result cache (``.repro-cache/``).

Layout::

    .repro-cache/
      <fingerprint[:16]>/          one generation per code fingerprint
        <spec-key>.json            {"spec": ..., "result": ..., ...}
        <analysis-key>.json        a bwlint analysis (repro.lint.cache)

The entry key is the spec's SHA-256 content key
(:meth:`repro.exec.spec.RunSpec.key`); the generation directory is the
:func:`repro.exec.fingerprint.code_fingerprint` of ``src/repro`` at
write time.  Editing any simulator source therefore invalidates every
entry at once (new generation), while re-running unchanged code is a
pure disk read.  Results are JSON — Python's ``repr``-exact float
round-trip guarantees a cache hit reproduces the original run's values
bit for bit.

Writes are atomic (temp file + rename) so a killed sweep never leaves
a torn entry behind.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
import typing as _t
from pathlib import Path

from repro.bench.regression import repo_root
from repro.exec.fingerprint import code_fingerprint
from repro.exec.spec import RunSpec

__all__ = ["ResultCache", "default_cache_root", "cache_stats",
           "clear_cache"]

#: on-disk entry schema; bump on incompatible layout changes
ENTRY_SCHEMA = 1
#: directory name chars taken from the fingerprint per generation
_GEN_CHARS = 16


def default_cache_root() -> Path:
    """``<repo root>/.repro-cache`` (CWD-based for installed trees)."""
    return repo_root() / ".repro-cache"


class ResultCache:
    """Get/put spec results under one code-fingerprint generation."""

    def __init__(self, root: "Path | str | None" = None,
                 fingerprint: str | None = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.fingerprint = (fingerprint if fingerprint is not None
                            else code_fingerprint())
        self.generation = self.root / self.fingerprint[:_GEN_CHARS]
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def get(self, spec: RunSpec) -> "dict | None":
        """The cached result payload, or None on miss/corruption."""
        entry = self.read(spec.key())
        if (not isinstance(entry, dict)
                or entry.get("schema") != ENTRY_SCHEMA
                or "result" not in entry):
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, spec: RunSpec, result: _t.Any, *,
            elapsed_s: float = 0.0) -> Path:
        """Store one run's result atomically; returns the entry path."""
        path = self.write(spec.key(), {
            "schema": ENTRY_SCHEMA,
            "fingerprint": self.fingerprint,
            "spec": spec.identity(),
            "elapsed_s": elapsed_s,
            "result": result,
        })
        self.stores += 1
        return path

    def read(self, key: str) -> _t.Any:
        """The payload stored as ``<generation>/<key>.json``, or None when
        it is missing or unreadable (a corrupt entry is a miss)."""
        try:
            with open(self.generation / f"{key}.json",
                      encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def write(self, key: str, payload: _t.Any) -> Path:
        """Publish ``payload`` as ``<generation>/<key>.json`` atomically: a
        concurrent reader sees the old entry or the new one, never a
        torn write."""
        path = self.generation / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path

    def session_stats(self) -> dict[str, int]:
        """Hit/miss/store counters for this cache handle's lifetime."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}


def cache_stats(root: "Path | str | None" = None) -> dict:
    """On-disk shape of the cache: entries/bytes per generation."""
    base = Path(root) if root is not None else default_cache_root()
    current = code_fingerprint()[:_GEN_CHARS]
    generations: dict[str, dict[str, int]] = {}
    total_entries = total_bytes = 0
    if base.is_dir():
        for gen in sorted(p for p in base.iterdir() if p.is_dir()):
            entries = list(gen.glob("*.json"))
            nbytes = sum(e.stat().st_size for e in entries)
            generations[gen.name] = {"entries": len(entries),
                                     "bytes": nbytes}
            total_entries += len(entries)
            total_bytes += nbytes
    return {"root": str(base), "current": current,
            "generations": generations,
            "total_entries": total_entries, "total_bytes": total_bytes}


def clear_cache(root: "Path | str | None" = None) -> int:
    """Delete the whole cache tree; returns entries removed."""
    base = Path(root) if root is not None else default_cache_root()
    removed = 0
    if base.is_dir():
        removed = sum(1 for _ in base.rglob("*.json"))
        shutil.rmtree(base)
    return removed
