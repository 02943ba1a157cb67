"""Compiler-guided placement files (the bwlint → runtime contract).

:func:`build_guidance` runs the static traffic analysis
(:mod:`repro.lint.traffic`) over a source tree and folds the per-site
byte volumes into a :class:`GuidanceFile`: one record per allocation
site carrying its symbolic size, inferred read/write volumes, a tier
hint and a fetch-order rank.  :class:`StaticGuidedStrategy
<repro.core.strategies.static_guided.StaticGuidedStrategy>` consumes
nothing but this file — the runtime side never re-analyzes source.

The serialized form is *canonical*: keys sorted, two-space indent,
trailing newline, no floats where an int is exact.  Emitting, loading
and re-emitting a guidance file is byte-identical, so the SHA-256
:meth:`GuidanceFile.identity` is a stable name for "what the analyzer
believed" — :func:`repro.exec.fingerprint.code_fingerprint` folds it
into the experiment cache key exactly like the solver backend flag, and
a stale guidance file invalidates cached results instead of silently
steering placement.

Schema 2 adds the *phase timeline* (:mod:`repro.lint.phases`): a
top-level ``phases`` table (one row per driver dispatch, globally
indexed across the analyzed modules in discovery order) and, per site,
the liveness interval (``first_phase``/``last_phase``) plus per-phase
read/write volumes.  Schema-1 files still load — and round-trip
byte-identically — so existing ``$REPRO_GUIDANCE`` files keep working;
:class:`~repro.core.strategies.phase_guided.PhaseGuidedStrategy` simply
degrades to static-guided behaviour when the phase table is absent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import typing as _t

__all__ = ["GuidanceFile", "build_guidance", "load_guidance",
           "render_timeline", "GUIDANCE_SCHEMA"]

#: bumped on any change to the record layout below
GUIDANCE_SCHEMA = 2


def _num(value: float | None) -> int | float | None:
    """Exact ints serialize as ints so canonical output has one spelling."""
    if value is None:
        return None
    if float(value).is_integer():
        return int(value)
    return float(value)


@dataclasses.dataclass
class GuidanceFile:
    """A parsed (or freshly built) placement-guidance document."""

    #: site id ("Cls.name") -> record dict, exactly as serialized
    sites: dict[str, dict]
    schema: int = GUIDANCE_SCHEMA
    #: schema >= 2: global phase table, one record per driver dispatch
    phases: list[dict] = dataclasses.field(default_factory=list)

    def dumps(self) -> str:
        doc: dict[str, _t.Any] = {
            "schema": self.schema,
            "sites": {sid: self.sites[sid] for sid in sorted(self.sites)},
        }
        if self.schema >= 2:
            doc["phases"] = self.phases
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def identity(self) -> str:
        """SHA-256 of the canonical serialization."""
        return hashlib.sha256(self.dumps().encode()).hexdigest()

    def write(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> GuidanceFile:
        doc = json.loads(text)
        return cls(sites=dict(doc["sites"]), schema=int(doc["schema"]),
                   phases=list(doc.get("phases", ())))

    def tier(self, site_id: str) -> str | None:
        record = self.sites.get(site_id)
        return None if record is None else record["tier"]

    def priority(self, site_id: str) -> float:
        record = self.sites.get(site_id)
        if record is None:
            return 1.0
        return float(record["priority"])

    def order(self, site_id: str) -> int:
        record = self.sites.get(site_id)
        if record is None:
            return len(self.sites)
        return int(record["fetch_order"])

    # -- schema 2 accessors (all degrade to None on schema-1 files) ------

    def first_phase(self, site_id: str) -> int | None:
        """First phase that declares or touches ``site_id``, if known."""
        record = self.sites.get(site_id)
        if record is None:
            return None
        return record.get("first_phase")

    def last_phase(self, site_id: str) -> int | None:
        """Last phase that declares or touches ``site_id``, if known."""
        record = self.sites.get(site_id)
        if record is None:
            return None
        return record.get("last_phase")

    def phase_table(self) -> list[dict]:
        """The global phase table (empty on schema-1 files)."""
        return list(self.phases)


def _sym_record(sym) -> dict | None:
    if sym is None:
        return None
    return {"expr": sym.expr, "bytes": _num(sym.value)}


def _trip_record(sym) -> dict | None:
    if sym is None:
        return None
    return {"expr": sym.expr, "count": _num(sym.value)}


def build_guidance(paths: _t.Iterable[str | os.PathLike]) -> GuidanceFile:
    """Analyze every python file under ``paths`` into one guidance file."""
    import ast

    from repro.lint.static_checker import iter_python_files
    from repro.lint.traffic import analyze_tree

    collected = []
    phase_table: list[dict] = []
    #: site id -> ("phases" rows, first_phase, last_phase), global indices
    site_phases: dict[str, tuple[list[dict], int, int]] = {}
    for file in iter_python_files(paths):
        with open(file, encoding="utf-8") as fh:
            source = fh.read()
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError:
            continue  # the lint pass reports REP100; guidance just skips
        module = analyze_tree(tree, str(file))
        for site in module.sites.values():
            if site.order >= 0 or site.reads or site.writes:
                collected.append(site)
        timeline = module.timeline
        if timeline is None or timeline.suppressed or not timeline.phases:
            continue
        # global phase indices: module discovery order stacks timelines
        offset = len(phase_table)
        for phase in timeline.phases:
            phase_table.append({
                "index": offset + phase.index,
                "file": timeline.file,
                "label": phase.label,
                "line": phase.line,
                "trips": _trip_record(phase.trips),
                "entries": list(phase.entries),
            })
        touched = set(timeline.site_traffic) | set(timeline.site_declared)
        for site_id in touched:
            interval = timeline.interval(site_id)
            if interval is None:
                continue
            rows = [
                {"phase": offset + p,
                 "reads": _sym_record(reads),
                 "writes": _sym_record(writes)}
                for p, (reads, writes)
                in sorted(timeline.site_traffic.get(site_id, {}).items())
            ]
            site_phases[site_id] = (rows, offset + interval[0],
                                    offset + interval[1])

    # global fetch order: module discovery order, then first-touch order
    collected.sort(key=lambda s: (s.file, s.order, s.id))
    sites: dict[str, dict] = {}
    for rank, site in enumerate(collected):
        reads = site.reads.value if site.reads else 0.0
        writes = site.writes.value if site.writes else 0.0
        size = site.size.value if site.size else None
        total = (reads or 0.0) + (writes or 0.0)
        known = (size is not None and size > 0
                 and (site.reads is None or reads is not None)
                 and (site.writes is None or writes is not None))
        if known and total == 0.0 and not site.intent_unknown:
            tier = "ddr"       # statically dead traffic: keep HBM free
            priority = 0.0
        else:
            tier = "hbm"
            priority = (total / size) if known else 1.0
        rows, first, last = site_phases.get(site.id, ([], None, None))
        sites[site.id] = {
            "class": site.cls,
            "name": site.name,
            "shared": site.shared,
            "intents": sorted(site.intents),
            "size": _sym_record(site.size),
            "reads": _sym_record(site.reads),
            "writes": _sym_record(site.writes),
            "tier": tier,
            "priority": _num(priority),
            "fetch_order": rank,
            "first_phase": first,
            "last_phase": last,
            "phases": rows,
        }
    return GuidanceFile(sites=sites, phases=phase_table)


def load_guidance(path: str | os.PathLike) -> GuidanceFile:
    """Read a guidance file produced by :func:`build_guidance`."""
    with open(path, encoding="utf-8") as fh:
        return GuidanceFile.loads(fh.read())


def _volume(record: dict | None) -> str:
    if record is None:
        return "-"
    if record["bytes"] is not None:
        return str(record["bytes"])
    return f"?({record['expr']})"


def render_timeline(guidance: GuidanceFile) -> str:
    """Human-readable, deterministic render of the v2 phase timeline.

    The same renderer backs ``repro guide --phases`` and the golden
    snapshot tests, so the CLI output cannot drift from what the tests
    pin down.
    """
    if not guidance.phases:
        return "(no phase timeline: schema-1 guidance or no driver dispatches)\n"
    lines: list[str] = []
    for ph in guidance.phases:
        trips = ph.get("trips")
        if trips is None:
            shown = "?"
        elif trips["count"] is not None:
            shown = str(trips["count"])
        else:
            shown = f"?({trips['expr']})"
        lines.append(f"phase {ph['index']}: {ph['label']} "
                     f"[{ph['file']}:{ph['line']}] trips={shown}")
        for entry in ph.get("entries", ()):
            lines.append(f"  entry {entry}")
        for site_id in sorted(guidance.sites):
            record = guidance.sites[site_id]
            for row in record.get("phases", ()):
                if row["phase"] != ph["index"]:
                    continue
                lines.append(
                    f"  site {site_id} reads={_volume(row['reads'])} "
                    f"writes={_volume(row['writes'])}")
        for site_id in sorted(guidance.sites):
            record = guidance.sites[site_id]
            if record.get("last_phase") == ph["index"] \
                    and ph["index"] + 1 < len(guidance.phases):
                lines.append(f"  dead-after {site_id}")
    return "\n".join(lines) + "\n"
