"""Code fingerprint: one hash naming the current simulator sources.

Cached results are only valid for the code that produced them.  The
fingerprint is the SHA-256 over every ``*.py`` file under the installed
``repro`` package (sorted relative path + content), so editing any
strategy, app or sim-core file starts a fresh cache generation while
older generations stay on disk for instant rollback re-runs.

Hashing ~150 small files costs a few milliseconds and is memoized per
process, so the engine can call it freely.

Runtime configuration that changes simulator behaviour without touching
source is folded in too: a ``$REPRO_GUIDANCE`` placement file steers the
``static-guided`` strategy, so runs under different guidance hash to
different generations and can never serve each other stale tables.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

__all__ = ["code_fingerprint"]

_memo: dict[str, str] = {}


def _guidance_digest() -> str:
    """Content hash of the ``$REPRO_GUIDANCE`` file, if one is active."""
    path = os.environ.get("REPRO_GUIDANCE")
    if not path:
        return "none"
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        # a dangling path still changes behaviour (the strategy will
        # fail to load it), so it must not alias the unset case
        return f"missing:{path}"


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def code_fingerprint(root: "Path | str | None" = None, *,
                     refresh: bool = False) -> str:
    """Hex digest naming the current source tree under ``root``.

    ``root`` defaults to the installed ``repro`` package directory.
    ``refresh`` bypasses the per-process memo (tests that rewrite
    files mid-process).
    """
    base = Path(root) if root is not None else _package_root()
    # the memo key carries the guidance: tests monkeypatch
    # $REPRO_GUIDANCE mid-process and must see a fresh generation
    guidance = _guidance_digest()
    memo_key = f"{base}\x00{guidance}"
    if not refresh and memo_key in _memo:
        return _memo[memo_key]
    digest = hashlib.sha256()
    digest.update(f"guidance={guidance}".encode())
    digest.update(b"\x01")
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
    _memo[memo_key] = result
    return result
