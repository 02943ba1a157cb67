"""Self-gate: the repository's own sources must pass repro.lint (and ruff).

Runs in the default pytest path so declaration drift in the apps or the
examples fails CI immediately.  The repro.lint half always runs; the ruff
half runs only when ruff is installed (its configuration lives in
pyproject.toml) and skips gracefully otherwise.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

from repro.lint import check_paths

ROOT = Path(__file__).resolve().parent.parent


def test_repro_lint_sources_and_examples_clean(repo_lint_report):
    assert repo_lint_report.ok(strict=True), \
        "\n" + repo_lint_report.render()


def test_repro_lint_test_chares_clean():
    """Chare classes defined by the tests themselves (the seeded fixtures
    under tests/fixtures/ are exempt — they exist to be broken)."""
    report = check_paths(sorted((ROOT / "tests").glob("*.py")))
    assert report.ok(strict=True), "\n" + report.render()


def test_seeded_fixture_still_trips_the_checker():
    """Guards the gate itself: a checker that stops finding anything would
    make the two tests above pass vacuously."""
    report = check_paths([ROOT / "tests" / "fixtures"])
    assert not report.ok()


def test_ruff_self_check():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed in this environment")
    # Gate on ruff's critical subset (syntax errors, undefined names,
    # invalid comparisons); the fuller style selection in pyproject.toml is
    # advisory for interactive use.
    proc = subprocess.run(
        [ruff, "check", "--select", "E9,F63,F7,F82",
         str(ROOT / "src" / "repro")],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
