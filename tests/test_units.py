"""Unit tests + property tests for unit parsing/formatting."""

import pytest
from hypothesis import given, strategies as st

from repro.units import (
    GB, GiB, MiB,
    format_bandwidth, format_size, format_time,
    parse_bandwidth, parse_size, parse_time,
)


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("16GiB", 16 * GiB),
        ("2 GB", 2 * GB),
        ("512MiB", 512 * MiB),
        ("4096", 4096),
        ("1.5KiB", 1536),
        ("0.5 GiB", GiB // 2),
        (1024, 1024),
        (2.0, 2),
    ])
    def test_examples(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "GiB", "12XB", "--3GB"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)

    def test_case_insensitive(self):
        assert parse_size("1gib") == parse_size("1GiB")


class TestParseTime:
    @pytest.mark.parametrize("text,expected", [
        ("20ms", 0.020),
        ("1.5 s", 1.5),
        ("250us", 250e-6),
        ("2min", 120.0),
        (0.25, 0.25),
    ])
    def test_examples(self, text, expected):
        assert parse_time(text) == pytest.approx(expected)


class TestParseBandwidth:
    @pytest.mark.parametrize("text,expected", [
        ("490 GB/s", 490e9),
        ("90GB/s", 90e9),
        ("12 MiB/s", 12 * MiB),
        (5e9, 5e9),
    ])
    def test_examples(self, text, expected):
        assert parse_bandwidth(text) == pytest.approx(expected)


class TestFormatting:
    def test_format_size(self):
        assert format_size(16 * GiB) == "16.00GiB"
        assert format_size(512) == "512.00B"

    def test_format_time(self):
        assert format_time(0.020) == "20.000ms"
        assert format_time(0) == "0s"
        assert format_time(90) == "1.500min"

    def test_format_bandwidth(self):
        assert format_bandwidth(485e9) == "485.0GB/s"


class TestRoundTrips:
    @given(st.integers(min_value=0, max_value=2 ** 50))
    def test_size_identity_on_ints(self, n):
        assert parse_size(n) == n

    @given(st.integers(min_value=1, max_value=2 ** 40))
    def test_parse_format_parse_size(self, n):
        # formatting is lossy (2 decimals) but must stay within 1%
        again = parse_size(format_size(n))
        assert abs(again - n) <= max(0.01 * n, 1)

    @given(st.floats(min_value=1e-9, max_value=1e4,
                     allow_nan=False, allow_infinity=False))
    def test_parse_format_parse_time(self, t):
        again = parse_time(format_time(t, digits=6))
        assert again == pytest.approx(t, rel=1e-3)
