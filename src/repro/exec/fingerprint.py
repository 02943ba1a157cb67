"""Code fingerprint: one hash naming the current simulator sources.

Cached results are only valid for the code that produced them.  The
fingerprint is the SHA-256 over every ``*.py`` file under the installed
``repro`` package (sorted relative path + content), so editing any
strategy, app or sim-core file starts a fresh cache generation while
older generations stay on disk for instant rollback re-runs.

Hashing ~150 small files costs a few milliseconds and is memoized per
process, so the engine can call it freely.  Nothing outside the source
tree changes what the simulator computes, so nothing else is hashed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

__all__ = ["code_fingerprint"]

_memo: dict[Path, str] = {}


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def code_fingerprint() -> str:
    """Hex digest naming the installed ``repro`` package's source tree."""
    base = _package_root()
    if base in _memo:
        return _memo[base]
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py"),
                       key=lambda p: p.relative_to(base).as_posix()):
        rel = path.relative_to(base).as_posix()
        if "__pycache__" in rel:
            continue
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x01")
    result = digest.hexdigest()
    _memo[base] = result
    return result
