"""The probe catalogue agrees with its subscribers and its call sites.

Subscribers are bound to probe points by method name, so a misspelled
``on_*`` method would silently never be called.  These checks catch it:
every ``on_*`` method of a known subscriber names a catalogued point, and
every catalogued point is fired somewhere under ``src/repro`` and has at
least one subscriber.
"""

import re
from pathlib import Path

import pytest

from repro import hooks as probe
from repro.lint.sanitizer import SimSanitizer
from repro.metrics.subscriber import MetricsSubscriber
from repro.obs.spans import SpanTracer
from repro.race.detector import RaceSanitizer

SUBSCRIBERS = (SimSanitizer, RaceSanitizer, SpanTracer, MetricsSubscriber)
SRC = Path(probe.__file__).parent


def _points(cls):
    return {name for name in dir(cls) if name.startswith("on_")}


def _call_sites():
    """Every module under src/repro except the probe's own docstring."""
    return [path for path in SRC.rglob("*.py")
            if path != Path(probe.__file__)]


def _fired_points():
    fired = set()
    call = re.compile(r"_probe\.(on_\w+)\(")
    for path in _call_sites():
        fired.update(call.findall(path.read_text()))
    return fired


def test_catalogue_is_nonempty_and_unique():
    assert probe.CATALOGUE
    assert len(set(probe.CATALOGUE)) == len(probe.CATALOGUE)
    for point in probe.CATALOGUE:
        assert getattr(probe, point) is None, f"{point} left bound"


@pytest.mark.parametrize("cls", SUBSCRIBERS, ids=lambda c: c.__name__)
def test_every_subscriber_method_names_a_point(cls):
    unknown = _points(cls) - set(probe.CATALOGUE)
    assert not unknown, f"{cls.__name__} implements uncatalogued {unknown}"


def test_every_point_has_a_subscriber():
    implemented = set().union(*(_points(cls) for cls in SUBSCRIBERS))
    orphans = set(probe.CATALOGUE) - implemented
    assert not orphans, f"points nobody subscribes to: {orphans}"


def test_every_point_is_fired_under_src():
    fired = _fired_points()
    assert not set(probe.CATALOGUE) - fired, \
        f"points with no call site: {set(probe.CATALOGUE) - fired}"
    assert not fired - set(probe.CATALOGUE), \
        f"call sites of uncatalogued points: {fired - set(probe.CATALOGUE)}"


def test_no_call_site_consumes_a_return_value():
    # a fired point is a bare statement: never assigned, returned or tested
    consumed = re.compile(r"(=|return|if|and|or|not)\s+_probe\.on_\w+\(")
    offenders = [f"{path.relative_to(SRC)}:{n}"
                 for path in _call_sites()
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if consumed.search(line)]
    assert not offenders, offenders
