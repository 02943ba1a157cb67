"""repro.exec spec canonicalization, fingerprinting and the result cache."""

import json

import pytest

from repro.errors import ExperimentError
from repro.exec.cache import (ENTRY_SCHEMA, ResultCache, cache_stats,
                              clear_cache)
from repro.exec import fingerprint
from repro.exec.fingerprint import code_fingerprint
from repro.exec.spec import RunSpec, canonical_json, stable_seed


class TestCanonicalJson:
    def test_sorted_keys_and_compact(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_dict_insertion_order_is_irrelevant(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json(
            {"y": 2, "x": 1})

    def test_tuples_normalize_to_lists(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_integral_floats_collapse_to_int(self):
        assert canonical_json({"n": 2.0}) == canonical_json({"n": 2})
        assert canonical_json(0.5) == "0.5"

    def test_non_finite_floats_are_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ExperimentError, match="non-finite"):
                canonical_json({"x": bad})

    def test_non_string_keys_are_rejected(self):
        with pytest.raises(ExperimentError, match="non-string key"):
            canonical_json({1: "x"})

    def test_unsupported_types_are_rejected_with_path(self):
        with pytest.raises(ExperimentError, match=r"\$\.a\[0\]"):
            canonical_json({"a": [object()]})


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("fig8", 2) == stable_seed("fig8", 2)

    def test_different_parts_differ(self):
        assert stable_seed("fig8", 2) != stable_seed("fig8", 3)

    def test_respects_bit_width(self):
        for part in ("x", "fig8", 2):
            assert 0 <= stable_seed(part) < (1 << 48)


class TestRunSpec:
    def test_key_ignores_cost_and_label(self):
        a = RunSpec("stencil", {"total": 1024}, cost=1.0, label="a")
        b = RunSpec("stencil", {"total": 1024}, cost=99.0, label="b")
        assert a.key() == b.key()

    def test_key_distinguishes_params_and_kind(self):
        base = RunSpec("stencil", {"total": 1024})
        assert base.key() != RunSpec("stencil", {"total": 2048}).key()
        assert base.key() != RunSpec("matmul", {"total": 1024}).key()

    def test_param_order_is_irrelevant(self):
        a = RunSpec("s", {"x": 1, "y": 2})
        b = RunSpec("s", {"y": 2, "x": 1})
        assert a.canonical_json() == b.canonical_json()

    def test_display_prefers_label(self):
        assert RunSpec("s", {}, label="fig1/copy").display() == "fig1/copy"
        anon = RunSpec("s", {})
        assert anon.display().startswith("s:")


class TestFingerprint:
    @pytest.fixture
    def tree(self, tmp_path, monkeypatch):
        """Fingerprint ``tmp_path`` instead of the package, memo empty."""
        monkeypatch.setattr(fingerprint, "_package_root", lambda: tmp_path)
        monkeypatch.setattr(fingerprint, "_memo", {})
        return tmp_path

    @staticmethod
    def fresh():
        fingerprint._memo.clear()
        return code_fingerprint()

    def test_stable_for_unchanged_tree(self, tree):
        (tree / "a.py").write_text("x = 1\n")
        f1 = self.fresh()
        f2 = self.fresh()
        assert f1 == f2

    def test_changes_when_source_changes(self, tree):
        mod = tree / "a.py"
        mod.write_text("x = 1\n")
        before = self.fresh()
        mod.write_text("x = 2\n")
        after = self.fresh()
        assert before != after

    def test_memo_requires_refresh_to_see_edits(self, tree):
        mod = tree / "a.py"
        mod.write_text("x = 1\n")
        before = self.fresh()
        mod.write_text("x = 2\n")
        assert code_fingerprint() == before
        assert self.fresh() != before

    def test_pycache_is_ignored(self, tree):
        (tree / "a.py").write_text("x = 1\n")
        before = self.fresh()
        pyc = tree / "__pycache__"
        pyc.mkdir()
        (pyc / "a.cpython-311.py").write_text("junk\n")
        assert self.fresh() == before


class TestResultCache:
    def spec(self, **params):
        return RunSpec("selftest", params or {"value": 7})

    def test_roundtrip_is_exact(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        spec = self.spec()
        result = {"bandwidth": 1.0 / 3.0, "count": 5}
        cache.put(spec, result, elapsed_s=0.25)
        entry = cache.get(spec)
        assert entry["result"] == result
        assert entry["result"]["bandwidth"] == 1.0 / 3.0  # bit-exact float
        assert entry["elapsed_s"] == 0.25

    def test_miss_on_absent_entry(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        assert cache.get(self.spec()) is None
        assert cache.session_stats() == {"hits": 0, "misses": 1, "stores": 0}

    def test_fingerprint_change_invalidates(self, tmp_path):
        old = ResultCache(root=tmp_path, fingerprint="a" * 64)
        old.put(self.spec(), {"v": 1})
        fresh = ResultCache(root=tmp_path, fingerprint="b" * 64)
        assert fresh.get(self.spec()) is None
        # the old generation stays on disk for rollback re-runs
        assert old.get(self.spec())["result"] == {"v": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        spec = self.spec()
        cache.put(spec, {"v": 1}).write_text("{ not json")
        assert cache.get(spec) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        spec = self.spec()
        path = cache.put(spec, {"v": 1})
        entry = json.loads(path.read_text())
        entry["schema"] = ENTRY_SCHEMA + 1
        path.write_text(json.dumps(entry))
        assert cache.get(spec) is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="a" * 64)
        cache.put(self.spec(value=1), {"v": 1})
        cache.put(self.spec(value=2), {"v": 2})
        stats = cache_stats(tmp_path)
        assert stats["total_entries"] == 2
        assert stats["total_bytes"] > 0
        assert stats["generations"]["a" * 16]["entries"] == 2
        assert clear_cache(tmp_path) == 2
        assert cache_stats(tmp_path)["total_entries"] == 0
