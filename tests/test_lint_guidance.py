"""Guidance-file tests: canonical form, identity, fingerprint folding."""

import json
from pathlib import Path

import pytest

import repro.apps
from repro.lint.guidance import (GUIDANCE_SCHEMA, GuidanceFile,
                                 build_guidance, load_guidance)

APPS_DIR = Path(repro.apps.__file__).parent


@pytest.fixture(scope="module")
def apps_guidance() -> GuidanceFile:
    return build_guidance([APPS_DIR])


class TestBuild:
    def test_apps_tree_yields_known_sites(self, apps_guidance):
        ids = set(apps_guidance.sites)
        assert {"StencilChare.grid", "MatMulPanels.A", "MatMulPanels.B",
                "MatMulChare.C"} <= ids

    def test_every_record_is_complete(self, apps_guidance):
        for site_id, record in apps_guidance.sites.items():
            assert record["tier"] in ("hbm", "ddr"), site_id
            assert record["priority"] >= 0.0, site_id
            assert record["fetch_order"] >= 0, site_id
            assert {"class", "name", "shared", "intents", "size",
                    "reads", "writes"} <= set(record), site_id

    def test_fetch_order_is_a_permutation(self, apps_guidance):
        orders = sorted(r["fetch_order"]
                        for r in apps_guidance.sites.values())
        assert orders == list(range(len(apps_guidance.sites)))

    def test_bandwidth_sensitive_sites_rank_above_uniform(self, apps_guidance):
        # stencil's readwrite grid carries 2x its size in traffic per
        # task; its density priority must be >= the shared readonly panels
        grid = apps_guidance.priority("StencilChare.grid")
        panel = apps_guidance.priority("MatMulPanels.A")
        assert grid >= panel > 0.0


class TestCanonicalForm:
    def test_round_trip_is_byte_identical(self, apps_guidance, tmp_path):
        first = apps_guidance.dumps()
        path = tmp_path / "guidance.json"
        apps_guidance.write(path)
        reloaded = load_guidance(path)
        assert reloaded.dumps() == first
        assert reloaded.identity() == apps_guidance.identity()

    def test_serialization_is_sorted_and_terminated(self, apps_guidance):
        text = apps_guidance.dumps()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["schema"] == GUIDANCE_SCHEMA
        assert list(doc["sites"]) == sorted(doc["sites"])

    def test_identity_changes_with_content(self, apps_guidance):
        mutated = GuidanceFile(sites=dict(apps_guidance.sites))
        mutated.sites["Extra.z"] = {
            "class": "Extra", "name": "z", "shared": False,
            "intents": ["readonly"], "size": None, "reads": None,
            "writes": None, "tier": "hbm", "priority": 1.0,
            "fetch_order": len(mutated.sites)}
        assert mutated.identity() != apps_guidance.identity()

    def test_exact_integers_serialize_as_ints(self, apps_guidance):
        record = apps_guidance.sites["StencilChare.grid"]
        assert isinstance(record["size"]["bytes"], int)

    def test_build_is_deterministic(self, apps_guidance):
        again = build_guidance([APPS_DIR])
        assert again.dumps() == apps_guidance.dumps()


class TestAccessors:
    def test_known_site_lookup(self, apps_guidance):
        assert apps_guidance.tier("StencilChare.grid") == "hbm"
        assert apps_guidance.order("StencilChare.grid") >= 0

    def test_unknown_site_defaults(self, apps_guidance):
        assert apps_guidance.tier("Nope.x") is None
        assert apps_guidance.priority("Nope.x") == 1.0
        assert apps_guidance.order("Nope.x") == len(apps_guidance.sites)


class TestSchemaV2:
    def test_build_emits_schema_2_with_phase_table(self, apps_guidance):
        assert apps_guidance.schema == GUIDANCE_SCHEMA == 2
        phases = apps_guidance.phase_table()
        assert phases, "apps tree must segment into phases"
        # global indices: consecutive from 0 across all modules
        assert [ph["index"] for ph in phases] == list(range(len(phases)))
        for ph in phases:
            assert {"index", "file", "label", "line", "trips",
                    "entries"} <= set(ph)

    def test_site_liveness_intervals_index_the_table(self, apps_guidance):
        count = len(apps_guidance.phase_table())
        for site_id, record in apps_guidance.sites.items():
            first = apps_guidance.first_phase(site_id)
            last = apps_guidance.last_phase(site_id)
            if first is None:
                continue
            assert 0 <= first <= last < count, site_id
            rows = record["phases"]
            assert [r["phase"] for r in rows] == \
                sorted(r["phase"] for r in rows)

    def test_entry_phase_lookup(self, apps_guidance):
        def entry_phase(entry_id):
            hits = [ph["index"] for ph in apps_guidance.phase_table()
                    if entry_id in ph["entries"]]
            return min(hits) if hits else None

        first = entry_phase("StencilChare.exchange")
        assert first is not None
        assert apps_guidance.first_phase("StencilChare.grid") == first
        assert entry_phase("Nope.x") is None

    def test_v1_document_loads_and_round_trips_byte_identically(
            self, apps_guidance):
        doc = json.loads(apps_guidance.dumps())
        doc["schema"] = 1
        del doc["phases"]
        for record in doc["sites"].values():
            for key in ("first_phase", "last_phase", "phases"):
                record.pop(key, None)
        v1_text = json.dumps(doc, sort_keys=True, indent=2,
                             ensure_ascii=False) + "\n"
        v1 = GuidanceFile.loads(v1_text)
        assert v1.schema == 1
        assert v1.phase_table() == []
        assert v1.first_phase("StencilChare.grid") is None
        assert v1.dumps() == v1_text

    def test_phase_rows_carry_per_phase_volumes(self, apps_guidance):
        rows = apps_guidance.sites["StencilChare.grid"]["phases"]
        assert rows
        assert all(row["reads"] or row["writes"] for row in rows)


class TestFingerprintFolding:
    def test_guidance_env_changes_code_fingerprint(self, apps_guidance,
                                                   tmp_path, monkeypatch):
        from repro.exec.fingerprint import code_fingerprint

        monkeypatch.delenv("REPRO_GUIDANCE", raising=False)
        base = code_fingerprint(refresh=True)
        path = tmp_path / "guidance.json"
        apps_guidance.write(path)
        monkeypatch.setenv("REPRO_GUIDANCE", str(path))
        with_guidance = code_fingerprint(refresh=True)
        assert with_guidance != base
        # same content at a different path hashes identically
        other = tmp_path / "copy.json"
        other.write_text(path.read_text())
        monkeypatch.setenv("REPRO_GUIDANCE", str(other))
        assert code_fingerprint(refresh=True) == with_guidance
        monkeypatch.delenv("REPRO_GUIDANCE")
        assert code_fingerprint(refresh=True) == base

    def test_missing_guidance_file_is_a_distinct_state(self, tmp_path,
                                                       monkeypatch):
        from repro.exec.fingerprint import code_fingerprint

        monkeypatch.delenv("REPRO_GUIDANCE", raising=False)
        base = code_fingerprint(refresh=True)
        monkeypatch.setenv("REPRO_GUIDANCE",
                           str(tmp_path / "does-not-exist.json"))
        assert code_fingerprint(refresh=True) != base
