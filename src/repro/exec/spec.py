"""Declarative run specifications with a canonical, hashable form.

A :class:`RunSpec` names one simulation run — an application kind plus
every parameter that influences its result (machine shape, strategy,
working set, seed).  Two properties make specs the unit of both
parallel fan-out and content-addressed caching:

* **Canonical JSON** — :meth:`RunSpec.canonical_json` serializes the
  ``(kind, params)`` identity with sorted keys, compact separators and
  tuples normalized to lists, so the byte form is independent of dict
  insertion order, Python version and ``PYTHONHASHSEED``.
* **Content key** — :meth:`RunSpec.key` is the SHA-256 of that byte
  form; equal keys mean "the same run".  Display hints (``cost``,
  ``label``) are deliberately excluded from the identity so tuning the
  scheduler never invalidates the cache.

:func:`stable_seed` derives reproducible integer seeds from string
parts the same way — never use the builtin ``hash()`` for seeds, it is
salted per interpreter run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing as _t

from repro.errors import ExperimentError

__all__ = ["RunSpec", "canonical_json", "stable_seed"]


def _normalize(obj: _t.Any, path: str = "$") -> _t.Any:
    """Reduce ``obj`` to JSON-safe primitives with a stable shape."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ExperimentError(
                f"non-finite float at {path} cannot be canonicalized")
        # integral floats collapse to int so 2.0 and 2 name the same run
        return int(obj) if obj.is_integer() else obj
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ExperimentError(
                    f"non-string key {key!r} at {path} in spec params")
            out[key] = _normalize(obj[key], f"{path}.{key}")
        return out
    if isinstance(obj, (list, tuple)):
        return [_normalize(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    raise ExperimentError(
        f"spec params must be JSON-able scalars/lists/dicts; "
        f"got {type(obj).__name__} at {path}")


def canonical_json(obj: _t.Any) -> str:
    """Serialize ``obj`` to its canonical byte-stable JSON form."""
    return json.dumps(_normalize(obj), sort_keys=True,
                      separators=(",", ":"))


def stable_seed(*parts: _t.Any) -> int:
    """A deterministic 48-bit seed from string-able parts (hash-salt-proof)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:6], "big")


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One declarative simulation run: ``kind`` + result-determining params.

    ``cost`` is a relative expected-cost hint (any monotone unit) used
    for largest-first scheduling; ``label`` is the human progress-line
    name.  Neither participates in :meth:`key`.
    """

    kind: str
    params: _t.Mapping[str, _t.Any]
    cost: float = 1.0
    label: str = ""

    def identity(self) -> dict:
        """The cache/equality identity: kind + normalized params."""
        return {"kind": self.kind, "params": _normalize(dict(self.params))}

    def canonical_json(self) -> str:
        """Byte-stable serialized identity (sorted keys, compact)."""
        return canonical_json(self.identity())

    def key(self) -> str:
        """SHA-256 content key of the canonical form."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")).hexdigest()

    def display(self) -> str:
        """The progress-line name (label, or a kind/key fallback)."""
        return self.label or f"{self.kind}:{self.key()[:10]}"
