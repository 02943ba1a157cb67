"""Fingerprint-keyed on-disk cache for lint results.

``repro lint`` re-parses and re-analyzes every target file on each
invocation; on a warm tree that work is pure waste.  This cache stores
finished lint reports as ``.repro-cache/<fingerprint>/<key>.json``, in
the current generation directory of the experiment result cache and
through its reader and atomic writer (:meth:`repro.exec.cache.
ResultCache.read` / :meth:`~repro.exec.cache.ResultCache.write`).
Editing any simulator source starts a fresh generation, and ``cache
stats`` and ``cache clear`` count lint entries and run results alike.

The entry key is a SHA-256 over the *content* of every analyzed file
(resolved through the same :func:`~repro.lint.static_checker.
iter_python_files` expansion the analysis itself uses), so editing a
lint *target* — even one outside the repro package — invalidates
exactly the affected entry.  Only successful analyses are stored:
a crash (:class:`~repro.lint.traffic.AnalyzerCrash`) propagates before
any write.
"""

from __future__ import annotations

import hashlib
import os
import typing as _t

from repro.lint.findings import Finding, LintReport, Severity

__all__ = ["AnalysisCache", "cached_check_paths", "findings_to_payload",
           "findings_from_payload"]


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
    """Content-addressed store for lint reports."""

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, targets: _t.Sequence[str | os.PathLike]) -> str:
        """Hash of every target file's path and content."""
        from repro.lint.static_checker import iter_python_files
        digest = hashlib.sha256()
        for file in iter_python_files(targets):
            digest.update(b"\x00")
            digest.update(str(file).encode())
            digest.update(b"\x01")
            with open(file, "rb") as fh:
                digest.update(fh.read())
        return digest.hexdigest()

    def lookup(self, targets: _t.Sequence[str | os.PathLike]
               ) -> "dict | None":
        if not self.enabled:
            return None
        from repro.exec.cache import ResultCache
        payload = ResultCache().read(self.key(targets))
        if not isinstance(payload, dict):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, targets: _t.Sequence[str | os.PathLike],
              payload: dict) -> None:
        if not self.enabled:
            return
        from repro.exec.cache import ResultCache
        ResultCache().write(self.key(targets), payload)
        self.stores += 1


def cached_check_paths(targets: _t.Sequence[str | os.PathLike], *,
                       cache: AnalysisCache | None = None) -> LintReport:
    """:func:`~repro.lint.static_checker.check_paths` behind the cache."""
    from repro.lint.static_checker import check_paths
    if cache is None:
        cache = AnalysisCache()
    payload = cache.lookup(targets)
    if payload is not None:
        return LintReport(findings_from_payload(payload["findings"]))
    report = check_paths(targets)
    cache.store(targets, {"findings": findings_to_payload(report)})
    return report
