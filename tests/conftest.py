"""Fixtures shared by several test modules."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def fig8_tiny_plan():
    """Factory of the TINY Figure 8 plan the byte-identity tests run."""
    from repro.bench.experiments import Scale, fig8_plan

    return lambda: fig8_plan(Scale.TINY, iterations=2, reduced_ws_gb=(4,))


@pytest.fixture(scope="session")
def fig8_tiny_result(fig8_tiny_plan):
    """That plan's table on the shipped stack, run once per session.

    Byte-identity tests compare it with the same plan run under an oracle
    (the step-driven loop, the eager fluid solver).  Only the shipped run
    is shared; every oracle run stays in its test.
    """
    from repro.bench.harness import run_plan

    return run_plan(fig8_tiny_plan())


@pytest.fixture(scope="session")
def repo_lint_report():
    """``repro lint`` of ``src/repro`` and ``examples``, run once per session.

    The self-lint gate and the REP3xx clean-tree test both read it.
    """
    from pathlib import Path

    from repro.lint.static_checker import check_paths

    root = Path(__file__).resolve().parent.parent
    return check_paths([root / "src" / "repro", root / "examples"])


@pytest.fixture
def use_guidance(monkeypatch):
    """Called with a :class:`~repro.lint.guidance.GuidanceFile`, installs
    it for the guided strategies in place of the repro.apps analysis."""
    from repro.core.strategies import static_guided

    def install(guide):
        monkeypatch.setattr(static_guided, "_DEFAULT_GUIDANCE", guide)

    return install


@pytest.fixture
def crash_analyzer(monkeypatch):
    """Called with a class name, makes the traffic analyzer raise while
    analyzing that class (its crash contract raises ``AnalyzerCrash``)."""
    from repro.lint import traffic

    def install(class_name):
        analyze = traffic._analyze_chare

        def crashing(index, ct, *args):
            if ct.cls.name == class_name:
                raise RuntimeError("injected analyzer crash")
            return analyze(index, ct, *args)

        monkeypatch.setattr(traffic, "_analyze_chare", crashing)

    return install


@pytest.fixture
def racy_io(monkeypatch):
    """Register the seeded-defect strategy ``tests/fixtures/racy_strategy.py``
    in the strategy registry for one test; returns its name.

    Schedule specs carry a strategy by registry name only, so this is how
    the explorer and its ``schedule`` specs reach the fixture.
    """
    import importlib.util
    import os

    from repro.core.strategies import STRATEGIES

    path = os.path.join(os.path.dirname(__file__), "fixtures",
                        "racy_strategy.py")
    spec = importlib.util.spec_from_file_location("racy_strategy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setitem(STRATEGIES, "racy-io", module.RacyIOStrategy)
    return "racy-io"
