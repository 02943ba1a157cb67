"""SARIF 2.1.0 export for lint findings (GitHub code-scanning format).

``repro lint --format sarif`` emits one SARIF run per invocation so the
REP/SAN/RACE findings render natively in code-scanning UIs.  The output
is *canonical* — keys sorted, two-space indent, trailing newline — so a
warm-cache re-run reproduces the artifact byte for byte and CI can diff
it.  It writes every field :class:`~repro.lint.findings.Finding`
carries, so a parser can rebuild the findings losslessly (the tests
round-trip it).
"""

from __future__ import annotations

import json
import typing as _t

from repro.lint.findings import Finding, Severity
from repro.lint.rules import RULES

__all__ = ["SARIF_VERSION", "to_sarif"]

#: the SARIF spec revision the exporter targets
SARIF_VERSION = "2.1.0"

_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
               "master/Schemata/sarif-schema-2.1.0.json")

#: Severity -> SARIF result level
_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _rule_descriptor(rule_id: str) -> dict:
    spec = RULES[rule_id]
    return {
        "id": spec.id,
        "name": spec.title,
        "shortDescription": {"text": spec.title},
        "fullDescription": {"text": spec.description},
        "defaultConfiguration": {"level": _LEVELS[spec.severity]},
    }


def _result(finding: Finding) -> dict:
    result: dict[str, _t.Any] = {
        "ruleId": finding.rule,
        "level": _LEVELS[finding.severity],
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.file},
                "region": {"startLine": max(finding.line, 1)},
            },
        }],
    }
    # chare/entry scope rides in SARIF's open property bag so the
    # round-trip is lossless without bending the schema
    properties = {}
    if finding.chare:
        properties["chare"] = finding.chare
    if finding.entry:
        properties["entry"] = finding.entry
    if properties:
        result["properties"] = properties
    return result


def to_sarif(findings: _t.Iterable[Finding]) -> str:
    """Serialize ``findings`` as one canonical SARIF 2.1.0 document."""
    ordered = sorted(findings, key=lambda f: (f.file, f.line, f.rule,
                                              f.message))
    rule_ids = sorted({f.rule for f in ordered if f.rule in RULES})
    doc = {
        "$schema": _SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "https://github.com/paper-repro/repro",
                    "version": "0",
                    "rules": [_rule_descriptor(r) for r in rule_ids],
                },
            },
            "results": [_result(f) for f in ordered],
        }],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
