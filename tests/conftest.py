"""Session-wide fixtures shared by several test modules."""

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
