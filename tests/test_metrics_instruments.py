"""Unit tests for the typed instruments (Counter/Gauge/Histogram)."""

import math

import pytest

from repro.metrics.instruments import (DEFAULT_LATENCY_BOUNDS, Counter,
                                       Gauge, Histogram, PolledGauge)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("repro_moves_total")
        c.inc()
        c.inc(41.0)
        assert c.value == 42.0

    def test_rejects_negative_increment(self):
        c = Counter("repro_moves_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_series_includes_sorted_labels(self):
        c = Counter("repro_moves_total", (("dst", "ddr4"), ("src", "mcdram")))
        assert c.series == 'repro_moves_total{dst="ddr4",src="mcdram"}'

    def test_unlabelled_series_is_bare_name(self):
        assert Counter("repro_moves_total").series == "repro_moves_total"


class TestGauge:
    def test_watermarks(self):
        g = Gauge("repro_moves_inflight")
        g.set(3)
        g.set(-1)
        g.set(1)
        assert g.value == 1
        assert g.high_water == 3
        assert g.low_water == -1

    def test_inc_dec(self):
        g = Gauge("repro_moves_inflight")
        g.inc()
        g.inc(2)
        g.dec()
        assert g.value == 2.0

    def test_time_weighted_mean(self):
        clock = FakeClock()
        g = Gauge("depth", clock=clock)
        g.set(10)          # value 10 over [0, 4)
        clock.now = 4.0
        g.set(0)           # value 0 over [4, 10)
        clock.now = 10.0
        assert g.time_weighted_mean() == pytest.approx(4.0)

    def test_mean_with_zero_span_is_current_value(self):
        g = Gauge("depth")
        g.set(7)
        assert g.time_weighted_mean() == 7


class TestPolledGauge:
    def test_sample_reads_the_callable(self):
        backing = [3]
        g = PolledGauge("depth", lambda: backing[0])
        assert g.value == 0.0
        assert g.sample() == 3.0
        backing[0] = 9
        g.sample()
        assert g.value == 9.0
        assert g.high_water == 9.0


class TestHistogram:
    def test_default_boundaries_span_latency_range(self):
        h = Histogram("lat")
        assert h.boundaries == DEFAULT_LATENCY_BOUNDS
        assert len(h.bucket_counts) == len(DEFAULT_LATENCY_BOUNDS) + 1

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("lat", boundaries=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("lat", boundaries=(1.0, 1.0))

    def test_counts_sum_min_max(self):
        h = Histogram("lat", boundaries=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 9.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(14.0)
        assert h.min == 0.5
        assert h.max == 9.0
        assert h.bucket_counts == [1, 1, 1, 1]

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram("lat", boundaries=(1.0, 2.0))
        for _ in range(10):
            h.observe(1.5)        # all in the (1, 2] bucket
        # p50 target is the middle of a 10-observation bucket
        assert 1.0 < h.quantile(0.5) <= 2.0

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram("lat", boundaries=(1.0,))
        h.observe(50.0)
        assert h.p50 == 50.0
        assert h.p99 == 50.0

    def test_empty_histogram_is_nan(self):
        h = Histogram("lat")
        assert math.isnan(h.p50)
        assert math.isnan(h.mean)

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("lat").quantile(1.5)
