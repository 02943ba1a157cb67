"""Additional rendering tests: glyph selection and bucket dominance."""

from repro.sim.environment import Environment
from repro.trace.events import TraceCategory, TraceEvent
from repro.trace import render
from repro.trace.render import render_timeline
from repro.trace.tracer import Tracer


def make_tracer(events):
    tracer = Tracer(Environment())
    for lane, cat, start, end in events:
        tracer.events.append(TraceEvent(lane, cat, start, end))
    return tracer


class TestGlyphs:
    def test_dominant_category_wins_bucket(self, monkeypatch):
        # Over [0, 10): execute covers 9s, fetch 1s -> every bucket shows '#'
        tracer = make_tracer([
            ("pe0", TraceCategory.EXECUTE, 0.0, 9.0),
            ("pe0", TraceCategory.IO_FETCH, 9.0, 10.0),
        ])
        monkeypatch.setattr(render, "TIMELINE_WIDTH", 10)
        art = render_timeline(tracer)
        row = next(l for l in art.splitlines() if l.startswith("pe0"))
        bars = row.split("|")[1]
        assert bars == "#" * 9 + "F"

    def test_idle_glyph_for_gaps(self, monkeypatch):
        tracer = make_tracer([
            ("pe0", TraceCategory.EXECUTE, 0.0, 2.0),
            ("pe0", TraceCategory.EXECUTE, 8.0, 10.0),
        ])
        monkeypatch.setattr(render, "TIMELINE_WIDTH", 10)
        art = render_timeline(tracer)
        row = next(l for l in art.splitlines() if l.startswith("pe0"))
        bars = row.split("|")[1]
        assert bars[4] == "."
        assert bars[0] == "#" and bars[-1] == "#"

    def test_each_category_has_unique_glyph(self):
        from repro.trace.render import _GLYPHS
        assert len(set(_GLYPHS.values())) == len(_GLYPHS)

    def test_multiple_lanes_aligned(self, monkeypatch):
        tracer = make_tracer([
            ("pe0", TraceCategory.EXECUTE, 0.0, 1.0),
            ("io11", TraceCategory.IO_EVICT, 0.0, 1.0),
        ])
        monkeypatch.setattr(render, "TIMELINE_WIDTH", 20)
        art = render_timeline(tracer)
        rows = [l for l in art.splitlines() if "|" in l]
        starts = {row.index("|") for row in rows}
        assert len(starts) == 1  # bars line up
