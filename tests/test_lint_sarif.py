"""SARIF 2.1.0 exporter: round-trip, canonical form, CLI integration."""

import json
import subprocess
import sys

from repro.lint.findings import Finding, Severity
from repro.lint.sarif import SARIF_VERSION, to_sarif

_SEVERITIES = {"error": Severity.ERROR, "warning": Severity.WARNING}


def findings_from_sarif(text: str) -> list[Finding]:
    """Parse a document produced by :func:`to_sarif` back into findings."""
    doc = json.loads(text)
    findings: list[Finding] = []
    for run in doc.get("runs", ()):
        for result in run.get("results", ()):
            location = result["locations"][0]["physicalLocation"]
            properties = result.get("properties", {})
            findings.append(Finding(
                rule=result["ruleId"],
                severity=_SEVERITIES[result["level"]],
                message=result["message"]["text"],
                file=location["artifactLocation"]["uri"],
                line=int(location["region"]["startLine"]),
                chare=properties.get("chare", ""),
                entry=properties.get("entry", ""),
            ))
    return findings


FINDINGS = [
    Finding(rule="REP201", severity=Severity.ERROR,
            message="dependence 'grid' written without writeonly intent",
            file="src/app.py", line=42, chare="StencilChare",
            entry="exchange"),
    Finding(rule="REP310", severity=Severity.WARNING,
            message="site dead after phase 1 but still resident",
            file="src/app.py", line=7, chare="StencilChare"),
    Finding(rule="REP104", severity=Severity.WARNING,
            message="declared dependence never used", file="b.py", line=3),
]


class TestDocumentShape:
    def test_version_and_schema(self):
        doc = json.loads(to_sarif(FINDINGS))
        assert doc["version"] == SARIF_VERSION
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        assert len(doc["runs"]) == 1

    def test_rules_catalog_covers_only_present_rules(self):
        doc = json.loads(to_sarif(FINDINGS))
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert [r["id"] for r in driver["rules"]] == \
            ["REP104", "REP201", "REP310"]
        for rule in driver["rules"]:
            assert rule["fullDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in \
                ("error", "warning")

    def test_results_sorted_by_location(self):
        doc = json.loads(to_sarif(FINDINGS))
        results = doc["runs"][0]["results"]
        keys = [(r["locations"][0]["physicalLocation"]["artifactLocation"]
                 ["uri"],
                 r["locations"][0]["physicalLocation"]["region"]["startLine"])
                for r in results]
        assert keys == sorted(keys)

    def test_levels_match_severity(self):
        doc = json.loads(to_sarif(FINDINGS))
        by_rule = {r["ruleId"]: r["level"]
                   for r in doc["runs"][0]["results"]}
        assert by_rule == {"REP201": "error", "REP310": "warning",
                           "REP104": "warning"}

    def test_canonical_output_is_deterministic(self):
        assert to_sarif(FINDINGS) == to_sarif(reversed(FINDINGS))
        assert to_sarif(FINDINGS).endswith("\n")

    def test_zero_line_clamped_to_one(self):
        finding = Finding(rule="REP104", severity=Severity.WARNING,
                          message="m", file="f.py", line=0)
        doc = json.loads(to_sarif([finding]))
        region = doc["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"]["region"]
        assert region["startLine"] == 1


class TestRoundTrip:
    def test_findings_survive_the_trip(self):
        restored = findings_from_sarif(to_sarif(FINDINGS))
        assert sorted(restored, key=lambda f: (f.file, f.line)) == \
            sorted(FINDINGS, key=lambda f: (f.file, f.line))

    def test_empty_report_round_trips(self):
        assert findings_from_sarif(to_sarif([])) == []

    def test_scope_rides_the_property_bag(self):
        doc = json.loads(to_sarif([FINDINGS[0]]))
        props = doc["runs"][0]["results"][0]["properties"]
        assert props == {"chare": "StencilChare", "entry": "exchange"}


class TestCLI:
    def _lint(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *args],
            capture_output=True, text=True, env={"PYTHONPATH": "src"})

    def test_sarif_format_on_clean_tree(self):
        proc = self._lint("--format", "sarif", "--no-cache",
                          "src/repro/apps/spmv.py")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["version"] == SARIF_VERSION
        assert doc["runs"][0]["results"] == []
        # the human summary goes to stderr, keeping stdout pure SARIF
        assert "0 error(s)" in proc.stderr

    def test_sarif_format_with_findings_exits_one(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from repro.runtime.chare import Chare\n"
            "from repro.runtime.entry import entry\n\n\n"
            "class C(Chare):\n"
            "    @entry\n"
            "    def setup(self, barrier):\n"
            "        self.a = self.declare_block('a', 1024)\n"
            "        barrier.contribute()\n\n"
            "    @entry(prefetch=True, readonly=['a'])\n"
            "    def go(self, red):\n"
            "        result = yield from self.kernel(\n"
            "            flops=1.0, reads=[self.a], writes=[self.a])\n"
            "        red.contribute(result.duration)\n")
        proc = self._lint("--format", "sarif", "--no-cache", str(bad))
        assert proc.returncode == 1
        restored = findings_from_sarif(proc.stdout)
        assert any(f.rule == "REP102" for f in restored)
