"""Phase-ordered traffic timeline over the bwlint message graph (v2).

A *phase* is one driver-level dispatch site: a literal ``send``/
``broadcast`` issued from non-chare code (the app driver), ordered by
source line.  Each phase owns the *closure* of chare entry methods
reachable from its root entry through entry-to-entry message edges
(:func:`repro.lint.callgraph.build_call_graph`), and its trip count is
the product of the known trips of the driver loops enclosing the
dispatch — the same symbolic :class:`Sym` evaluator the per-site volume
inference uses, so ``for it in range(cfg.iterations)`` around a
broadcast makes the phase repeat ``cfg.iterations`` times.

On top of the timeline sit the per-(site, phase) read/write volumes and
the site *liveness interval* (first phase that declares or touches a
site → last one), which :mod:`repro.lint.guidance` serializes as
GuidanceFile v2 and :class:`~repro.core.strategies.phase_guided.
PhaseGuidedStrategy` replays at runtime.

Rules ``REP310``–``REP314`` are emitted here.  The whole family is
suppressed when any ``send``/``broadcast`` in the module carries a
non-literal entry name — a may-analysis cannot order phases it cannot
see — mirroring the REP1xx/REP3xx unknown-suppression philosophy.
"""

from __future__ import annotations

import ast
import dataclasses
import typing as _t

from repro.lint.callgraph import CallGraph, Dispatch, build_call_graph
from repro.lint.dataflow import Sym, iter_loops, loop_nests, sym_add, sym_mul
from repro.lint.findings import Finding
from repro.lint.nodeindex import NodeIndex
from repro.lint.rules import STATIC_RULES

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.traffic import _ChareTraffic, _EntryTraffic, _Evaluator

__all__ = ["Phase", "PhaseTimeline", "analyze_phases"]


def _finding(rule_id: str, message: str, file: str, line: int, *,
             chare: str = "", entry: str = "") -> Finding:
    spec = STATIC_RULES[rule_id]
    return Finding(rule=rule_id, severity=spec.severity, message=message,
                   file=file, line=line, chare=chare, entry=entry)


@dataclasses.dataclass
class Phase:
    """One driver dispatch site and the entry closure it activates."""

    index: int
    label: str
    line: int
    #: product of known enclosing driver-loop trips; None when any
    #: enclosing loop's trip count did not resolve
    trips: Sym | None
    #: ``"Cls.entry"`` ids in the message closure, sorted
    entries: tuple[str, ...]


@dataclasses.dataclass
class PhaseTimeline:
    """Phase-ordered traffic structure for one module."""

    file: str
    phases: list[Phase]
    findings: list[Finding]
    #: True when non-literal sends forced the analysis to stand down
    suppressed: bool
    #: site id -> {phase index -> (reads, writes)} (per-visit volumes)
    site_traffic: dict[str, dict[int, tuple[Sym | None, Sym | None]]]
    #: site id -> phase indices where a [prefetch] entry declares it
    site_declared: dict[str, set[int]]

    def interval(self, site_id: str) -> tuple[int, int] | None:
        """(first, last) phase that declares or touches ``site_id``."""
        touched = set(self.site_traffic.get(site_id, ()))
        touched |= self.site_declared.get(site_id, set())
        if not touched:
            return None
        return min(touched), max(touched)


def _dispatch_trips(index: NodeIndex, d: Dispatch, ev: "_Evaluator",
                    class_refs: _t.Mapping[str, _t.Mapping]) -> Sym | None:
    """Known trip product of the driver loops enclosing one dispatch."""
    from repro.lint.traffic import _assign_defs

    scope: dict = {}
    for arg in d.func.args.args + d.func.args.kwonlyargs:
        val = ev.annotation_value(arg.annotation)
        if val is not None:
            scope[arg.arg] = val
    if d.caller_cls is not None:
        for attr, val in class_refs.get(d.caller_cls, {}).items():
            scope[("self", attr)] = val
    defs = _assign_defs(index, d.func)
    trips = Sym("1", 1.0)
    for loop in iter_loops(loop_nests(d.func,
                                      ev.trip_evaluator(scope, defs))):
        if not index.contains(loop.node, d.call):
            continue
        if loop.trip is None or not loop.trip.known():
            return None
        trips = sym_mul(trips, loop.trip)
    return trips


def _closure(cg: CallGraph, d: Dispatch) -> list[tuple[str, str]]:
    """Entry keys reachable from one dispatch via message edges."""
    queue = [key for key in d.keys() if key in cg.entries]
    seen: set[tuple[str, str]] = set()
    while queue:
        key = queue.pop()
        if key in seen:
            continue
        seen.add(key)
        for sub in cg.entry_dispatches.get(key, ()):
            queue.extend(k for k in sub.keys() if k in cg.entries)
    return sorted(seen)


def analyze_phases(index: NodeIndex, filename: str, ev: "_Evaluator",
                   chares: "list[_ChareTraffic]",
                   class_refs: _t.Mapping[str, _t.Mapping],
                   aliases: frozenset[str]) -> PhaseTimeline:
    """Build the phase timeline + REP31x findings for one module."""
    from repro.lint.traffic import DEFAULT_HBM_BYTES, _use_factor
    from repro.units import GiB

    cg = build_call_graph(index, aliases)
    suppressed = cg.unknown_sends > 0

    entry_map: dict[tuple[str, str], tuple["_ChareTraffic",
                                           "_EntryTraffic"]] = {}
    for ct in chares:
        for e in ct.entries:
            entry_map[(ct.cls.name, e.method.name)] = (ct, e)
    sites = {site.id: site
             for ct in chares for site in ct.sites.values()}

    phases: list[Phase] = []
    site_traffic: dict[str, dict[int, tuple[Sym | None, Sym | None]]] = {}
    site_declared: dict[str, set[int]] = {}
    #: phase -> site id -> (readish, writish) declared intents
    phase_intents: list[dict[str, tuple[bool, bool]]] = []
    #: phase -> declarations for the footprint sum (site id -> decl line)
    phase_decl_lines: list[dict[str, int]] = []
    closures: list[list[tuple[str, str]]] = []

    for d in cg.driver_dispatches:
        keys = _closure(cg, d)
        label = (f"{d.targets[0]}.{d.entry}" if len(d.targets) == 1
                 else d.entry)
        phase = Phase(index=len(phases), label=label, line=d.line,
                      trips=_dispatch_trips(index, d, ev, class_refs),
                      entries=tuple(f"{c}.{e}" for c, e in keys))
        phases.append(phase)
        closures.append(keys)
        intents: dict[str, tuple[bool, bool]] = {}
        decl_lines: dict[str, int] = {}
        for key in keys:
            hit = entry_map.get(key)
            if hit is None:
                continue
            ct, e = hit
            if ct.tainted:
                continue
            if e.decl.prefetch:
                for attr, intent in e.decl.deps.items():
                    site_id = ct.bindings.get(attr)
                    if site_id is None or site_id not in sites:
                        continue
                    site_declared.setdefault(site_id, set()).add(phase.index)
                    decl_lines.setdefault(site_id, e.decl.line)
                    readish, writish = intents.get(site_id, (False, False))
                    intents[site_id] = (
                        readish or intent in ("readonly", "readwrite"),
                        writish or intent in ("writeonly", "readwrite"))
            for use in e.uses:
                factor = _use_factor(index, e, use, ev)
                for attr in sorted(use.reads | use.writes):
                    site = sites.get(ct.bindings.get(attr, ""))
                    if site is None or site.size is None:
                        continue
                    volume = sym_mul(site.size, factor)
                    table = site_traffic.setdefault(site.id, {})
                    reads, writes = table.get(phase.index, (None, None))
                    if attr in use.reads:
                        reads = sym_add(reads, volume)
                    if attr in use.writes:
                        writes = sym_add(writes, volume)
                    table[phase.index] = (reads, writes)
        phase_intents.append(intents)
        phase_decl_lines.append(decl_lines)

    timeline = PhaseTimeline(file=filename, phases=phases, findings=[],
                             suppressed=suppressed,
                             site_traffic=site_traffic,
                             site_declared=site_declared)
    if suppressed or not phases:
        return timeline

    # strict per-class gate for the precision rules: any unknown anywhere
    # in a class's entries makes its sites ineligible (may-analysis)
    exact_cls = {
        ct.cls.name for ct in chares
        if not ct.tainted and not any(
            e.decl.unknown_deps or any(u.unknown for u in e.uses)
            for e in ct.entries)}
    findings = timeline.findings

    # REP314: entry never named by any literal dispatch (driver present).
    # Any string constant equal to the entry name suppresses — dispatch
    # also happens through entry_spec("name")-style lookups the message
    # graph does not model, and a may-analysis must not guess.
    named = {node.value for node in index.walk(index.tree)
             if isinstance(node, ast.Constant)
             and isinstance(node.value, str)}
    for (cls_name, entry_name), method in sorted(cg.entries.items()):
        if entry_name not in named:
            findings.append(_finding(
                "REP314",
                f"entry {entry_name!r} is never dispatched by any literal "
                "send/broadcast in this module — it is unreachable in the "
                "message graph", filename, method.lineno,
                chare=cls_name, entry=entry_name))

    # REP311: first read phase strictly before the first write phase
    read_phases: dict[str, set[int]] = {}
    write_phases: dict[str, set[int]] = {}
    for p, intents in enumerate(phase_intents):
        for site_id, (readish, writish) in intents.items():
            if readish:
                read_phases.setdefault(site_id, set()).add(p)
            if writish:
                write_phases.setdefault(site_id, set()).add(p)
    for site_id in sorted(set(read_phases) & set(write_phases)):
        site = sites[site_id]
        if site.cls not in exact_cls or site.intent_unknown:
            continue
        first_read = min(read_phases[site_id])
        first_write = min(write_phases[site_id])
        if first_read < first_write:
            findings.append(_finding(
                "REP311",
                f"block {site.name!r} is read in phase {first_read} "
                f"({phases[first_read].label}) but first written in phase "
                f"{first_write} ({phases[first_write].label}) — the read "
                "observes bytes no kernel has produced", filename,
                site.line, chare=site.cls))

    # REP312: declared dependence unused in its phase, touched later
    for p, keys in enumerate(closures):
        for key in keys:
            hit = entry_map.get(key)
            if hit is None:
                continue
            ct, e = hit
            if ct.tainted or not e.decl.prefetch or e.decl.unknown_deps \
                    or any(u.unknown for u in e.uses):
                continue
            used: set[str] = set()
            for u in e.uses:
                used |= u.reads | u.writes
            for attr in sorted(set(e.decl.deps) - used):
                site_id = ct.bindings.get(attr)
                if site_id is None:
                    continue
                later = [q for q in site_traffic.get(site_id, ())
                         if q > p]
                if later:
                    findings.append(_finding(
                        "REP312",
                        f"dependence {attr!r} is fetched for phase {p} "
                        f"({phases[p].label}) but first touched by a "
                        f"kernel in phase {min(later)} "
                        f"({phases[min(later)].label}) — the block holds "
                        "HBM capacity across the gap", filename,
                        e.decl.line, chare=ct.cls.name,
                        entry=e.method.name))

    # REP313: distinct declared blocks of one phase exceed the HBM tier
    for p, decl_lines in enumerate(phase_decl_lines):
        known = 0.0
        names = []
        for site_id in sorted(decl_lines):
            site = sites[site_id]
            if site.size is not None and site.size.known():
                known += site.size.value
                names.append(site_id)
        if known > DEFAULT_HBM_BYTES:
            findings.append(_finding(
                "REP313",
                f"phase {p} ({phases[p].label}) declares blocks "
                f"{names} whose static sizes sum to "
                f"{known / GiB:.1f} GiB, above the "
                f"{DEFAULT_HBM_BYTES / GiB:.0f} GiB HBM tier — the phase "
                "cannot run fully resident", filename, phases[p].line))

    # REP310: phase-dead block resident while later phases overflow HBM
    last_traffic = {site_id: max(table)
                    for site_id, table in site_traffic.items() if table}
    module_last = max(last_traffic.values(), default=-1)
    for site_id, last in sorted(last_traffic.items()):
        if last >= module_last:
            continue
        site = sites[site_id]
        if site.cls not in exact_cls:
            continue
        if site.size is None or not site.size.known():
            continue
        if any(q > last for q in site_declared.get(site_id, ())):
            continue  # a later phase re-declares it: still live
        worst = 0.0
        for q in range(last + 1, module_last + 1):
            footprint = sum(
                sites[s].size.value for s in phase_decl_lines[q]
                if s != site_id and sites[s].size is not None
                and sites[s].size.known())
            worst = max(worst, footprint)
        if worst + site.size.value > DEFAULT_HBM_BYTES:
            findings.append(_finding(
                "REP310",
                f"block {site.name!r} is last touched in phase {last} "
                f"({phases[last].label}) but later phases need "
                f"{worst / GiB:.1f} GiB of HBM while it stays resident "
                f"({site.size.value / GiB:.1f} GiB) — schedule an "
                "eviction at the phase boundary", filename, site.line,
                chare=site.cls))

    return timeline
