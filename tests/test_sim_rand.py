"""Tests for deterministic random streams."""

import numpy as np

from repro.sim.rand import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).stream("workload").random(5)
        b = RandomStreams(7).stream("workload").random(5)
        assert np.array_equal(a, b)

    def test_named_streams_independent(self):
        streams = RandomStreams(7)
        a = streams.stream("a").random(5)
        b = streams.stream("b").random(5)
        assert not np.array_equal(a, b)

    def test_stream_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_adding_stream_does_not_perturb_existing(self):
        s1 = RandomStreams(3)
        first = s1.stream("main").random(4)
        s2 = RandomStreams(3)
        s2.stream("other")            # extra consumer created first
        second = s2.stream("main").random(4)
        assert np.array_equal(first, second)
