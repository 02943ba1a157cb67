"""Fingerprint-keyed on-disk cache for lint / guidance analysis results.

``repro lint`` and ``repro guide`` re-parse and re-analyze every target
file on each invocation; on a warm tree that work is pure waste.  This
cache stores finished analysis payloads as
``.repro-cache/<fingerprint>/<key>.json``, in the current generation
directory of the experiment result cache and through its atomic write
(:meth:`repro.exec.cache.ResultCache.write`).  Editing any simulator
source or pointing ``$REPRO_GUIDANCE`` elsewhere starts a fresh
generation, and ``cache stats`` and ``cache clear`` count analysis
entries and run results alike.

The entry key is a SHA-256 over the *content* of every analyzed file
(resolved through the same :func:`~repro.lint.static_checker.
iter_python_files` expansion the analysis itself uses), so editing a
lint *target* — even one outside the repro package — invalidates
exactly the affected entry.  Only successful analyses are stored:
a crash (:class:`~repro.lint.traffic.AnalyzerCrash`) propagates before
any write, and the ``_FORCE_CRASH`` test hook bypasses lookups so an
injected failure can never be masked by a warm entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import typing as _t

from repro.lint.findings import Finding, LintReport, Severity

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.guidance import GuidanceFile

__all__ = ["AnalysisCache", "cached_check_paths", "cached_build_guidance",
           "findings_to_payload", "findings_from_payload"]


def findings_to_payload(findings: _t.Iterable[Finding]) -> list[dict]:
    """Findings as JSON-serializable dicts (inverse of ``from_payload``)."""
    return [{"rule": f.rule, "severity": f.severity.value,
             "message": f.message, "file": f.file, "line": f.line,
             "chare": f.chare, "entry": f.entry} for f in findings]


def findings_from_payload(payload: _t.Iterable[dict]) -> list[Finding]:
    """Rebuild findings stored by :func:`findings_to_payload`."""
    return [Finding(rule=row["rule"], severity=Severity(row["severity"]),
                    message=row["message"], file=row["file"],
                    line=row["line"], chare=row["chare"],
                    entry=row["entry"]) for row in payload]


class AnalysisCache:
    """Content-addressed store for lint/guidance analysis payloads."""

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- keying ----------------------------------------------------------

    def _active(self) -> bool:
        # the test hook injects analyzer crashes; a cached success would
        # hide exactly the failure the hook exists to produce
        from repro.lint import traffic
        return self.enabled and traffic._FORCE_CRASH is None

    def key(self, kind: str, targets: _t.Sequence[str | os.PathLike]) -> str:
        """Hash of the analysis kind plus every target file's content."""
        from repro.lint.static_checker import iter_python_files
        digest = hashlib.sha256()
        digest.update(kind.encode())
        for file in iter_python_files(targets):
            digest.update(b"\x00")
            digest.update(str(file).encode())
            digest.update(b"\x01")
            with open(file, "rb") as fh:
                digest.update(fh.read())
        return digest.hexdigest()

    # -- store/lookup ----------------------------------------------------

    def lookup(self, kind: str,
               targets: _t.Sequence[str | os.PathLike]) -> "dict | None":
        if not self._active():
            return None
        from repro.exec.cache import ResultCache
        path = ResultCache().generation / f"{self.key(kind, targets)}.json"
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, kind: str, targets: _t.Sequence[str | os.PathLike],
              payload: dict) -> None:
        if not self._active():
            return
        from repro.exec.cache import ResultCache
        ResultCache().write(self.key(kind, targets), payload)
        self.stores += 1


def cached_check_paths(targets: _t.Sequence[str | os.PathLike], *,
                       cache: AnalysisCache | None = None) -> LintReport:
    """:func:`~repro.lint.static_checker.check_paths` behind the cache."""
    from repro.lint.static_checker import check_paths
    if cache is None:
        cache = AnalysisCache()
    payload = cache.lookup("lint", targets)
    if payload is not None:
        return LintReport(findings_from_payload(payload["findings"]))
    report = check_paths(targets)
    cache.store("lint", targets,
                {"findings": findings_to_payload(report)})
    return report


def cached_build_guidance(targets: _t.Sequence[str | os.PathLike], *,
                          cache: AnalysisCache | None = None
                          ) -> "GuidanceFile":
    """:func:`~repro.lint.guidance.build_guidance` behind the cache."""
    from repro.lint.guidance import GuidanceFile, build_guidance
    if cache is None:
        cache = AnalysisCache()
    payload = cache.lookup("guide", targets)
    if payload is not None:
        return GuidanceFile.loads(payload["guidance"])
    guide = build_guidance(targets)
    cache.store("guide", targets, {"guidance": guide.dumps()})
    return guide
