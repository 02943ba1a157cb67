"""Fingerprint-keyed lint cache: hits, invalidation, bypass."""

import pytest

from repro.exec import cache as exec_cache
from repro.lint import traffic
from repro.lint.cache import (AnalysisCache, cached_check_paths,
                              findings_from_payload, findings_to_payload)
from repro.lint.findings import Finding, Severity

CLEAN = """\
from repro.runtime.chare import Chare
from repro.runtime.entry import entry


class C(Chare):
    @entry
    def setup(self, barrier):
        self.a = self.declare_block("a", 1024)
        barrier.contribute()

    @entry(prefetch=True, readwrite=["a"])
    def go(self, red):
        duration = yield from self.kernel(
            flops=1.0, reads=[self.a], writes=[self.a])
        red.contribute(duration)


def main(arr, red):
    arr.broadcast("setup", red)
    arr.broadcast("go", red)
"""

BAD = CLEAN.replace('readwrite=["a"]', 'readonly=["a"]')


@pytest.fixture
def target(tmp_path):
    path = tmp_path / "app.py"
    path.write_text(CLEAN)
    return path


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    """Point the analysis cache at ``tmp_path`` instead of the repo."""
    root = tmp_path / "cache-root"
    monkeypatch.setattr(exec_cache, "default_cache_root", lambda: root)
    return root


@pytest.fixture
def cache(cache_root):
    return AnalysisCache()


class TestPayload:
    def test_findings_round_trip(self):
        findings = [Finding(rule="REP201", severity=Severity.ERROR,
                            message="m", file="f.py", line=3,
                            chare="C", entry="go")]
        assert findings_from_payload(
            findings_to_payload(findings)) == findings


class TestLintCaching:
    def test_cold_then_warm(self, target, cache):
        first = cached_check_paths([target], cache=cache)
        assert (cache.hits, cache.stores) == (0, 1)
        second = cached_check_paths([target], cache=cache)
        assert cache.hits == 1
        assert list(second) == list(first)

    def test_warm_hit_preserves_findings_exactly(self, tmp_path, cache):
        path = tmp_path / "bad.py"
        path.write_text(BAD)
        cold = cached_check_paths([path], cache=cache)
        warm = cached_check_paths([path], cache=cache)
        assert list(warm) == list(cold) and list(cold)

    def test_editing_target_invalidates(self, target, cache):
        assert not list(cached_check_paths([target], cache=cache))
        target.write_text(BAD)
        report = cached_check_paths([target], cache=cache)
        assert cache.hits == 0 and cache.stores == 2
        assert any(f.rule == "REP102" for f in report)

    def test_disabled_cache_never_touches_disk(self, target, cache_root):
        cache = AnalysisCache(enabled=False)
        cached_check_paths([target], cache=cache)
        cached_check_paths([target], cache=cache)
        assert (cache.hits, cache.stores) == (0, 0)
        assert not cache_root.exists()

    def test_crash_writes_no_entry(self, target, cache, cache_root,
                                   crash_analyzer):
        crash_analyzer("C")  # crash while analyzing class C
        with pytest.raises(traffic.AnalyzerCrash):
            cached_check_paths([target], cache=cache)
        assert (cache.hits, cache.stores) == (0, 0)
        assert not list(cache_root.rglob("*.json"))

    def test_corrupt_entry_is_a_miss(self, target, cache):
        cached_check_paths([target], cache=cache)
        generation = exec_cache.ResultCache().generation
        for entry in generation.glob("*.json"):
            entry.write_text("{truncated")
        report = cached_check_paths([target], cache=cache)
        assert cache.misses >= 1
        assert not list(report)


class TestOneLayout:
    """Analysis entries share the result cache's generation directory."""

    def test_stats_total_equals_clear_count(self, target, cache, cache_root):
        from repro.exec.spec import RunSpec

        cached_check_paths([target], cache=cache)
        exec_cache.ResultCache().put(RunSpec("stencil", {"total": 1024}),
                                     {"v": 1})
        stats = exec_cache.cache_stats(cache_root)
        assert "lint" not in stats["generations"]
        assert list(stats["generations"]) == [stats["current"]]
        assert stats["total_entries"] == 2
        assert exec_cache.clear_cache(cache_root) == stats["total_entries"]
